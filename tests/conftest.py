"""Suite-wide checks that ride along with every test.

Every ``MetricTree`` a test builds (the skeletons above all) has its child
lists, degrees and leaves, which the tree reads off its parent pointers in
one pass, checked against the definitions that scan every parent pointer.
"""

import pytest

from berkline.tree import MetricTree


def children_by_scan(tree, i):
    return tuple(j for j, p in enumerate(tree.parent) if p == i)


def degree_by_scan(tree, i):
    return len(children_by_scan(tree, i)) + (0 if tree.parent[i] is None else 1)


def assert_shape_matches_scan(tree):
    for i in range(tree.n):
        assert tree.children(i) == children_by_scan(tree, i)
        assert tree.degree(i) == degree_by_scan(tree, i)
    assert tree.leaves() == tuple(i for i in range(tree.n) if degree_by_scan(tree, i) == 1)


@pytest.fixture(autouse=True, scope="session")
def check_tree_shapes():
    built = MetricTree.__post_init__

    def checked(tree):
        built(tree)
        assert_shape_matches_scan(tree)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MetricTree, "__post_init__", checked)
        yield
