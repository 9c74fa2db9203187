import random
from fractions import Fraction

import pytest

from berkline.errors import PreconditionError
from berkline.fields import PAdicField, RatFunc, TAdicField
from berkline.gamma import Gamma, INF
from berkline.pline import simple_point, skeleton
from berkline.topo import (
    Fingerprint,
    family_sweep,
    tree_fingerprint,
    tree_iso,
    tree_shape_code,
)
from berkline.tree import MetricTree

Q5 = PAdicField(5)
QT = TAdicField()


def mk(edges, root, tags=None):
    """Abstract tree from (u, v, length) edges, oriented away from root."""
    verts = []
    for u, v, _ in edges:
        for w in (u, v):
            if w not in verts:
                verts.append(w)
    if root not in verts:
        verts.append(root)
    idx = {w: i for i, w in enumerate(verts)}
    n = len(verts)
    neigh = {w: [] for w in verts}
    for u, v, ln in edges:
        neigh[u].append((v, ln))
        neigh[v].append((u, ln))
    parent = [None] * n
    lengths = [None] * n
    seen = {root}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v, ln in neigh[u]:
            if v in seen:
                continue
            seen.add(v)
            parent[idx[v]] = idx[u]
            lengths[idx[v]] = ln
            queue.append(v)
    tg = [()] * n
    if tags:
        for w, t in tags.items():
            tg[idx[w]] = tuple(t)
    return MetricTree(
        points=tuple(verts),
        parent=tuple(parent),
        lengths=tuple(lengths),
        tags=tuple(tg),
        root=idx[root],
    )


THREE_STAR = mk([("c", 1, INF), ("c", 2, INF), ("c", 3, INF)], "c")
PATH = mk([("a", "b", INF)], "a")
FOUR_STAR = mk([("c", i, INF) for i in range(4)], "c")
H_TREE = mk(
    [("u", 1, INF), ("u", 2, INF), ("u", "v", Gamma(1)), ("v", 3, INF), ("v", 4, INF)],
    "u",
)


def test_skeleton_three_point_star():
    tree = skeleton(Q5, [simple_point(Q5, 0), simple_point(Q5, 1), _inf(Q5)])
    fp = tree_fingerprint(tree)
    assert fp == tree_fingerprint(THREE_STAR)
    assert fp.lengths == ()


def _inf(field):
    from berkline.pline import infinity_point

    return infinity_point(field)


def test_skeleton_two_point_path():
    tree = skeleton(Q5, [simple_point(Q5, 0), _inf(Q5)])
    fp = tree_fingerprint(tree)
    assert fp == tree_fingerprint(PATH)
    assert fp.lengths == ()


def test_degree_two_suppression_merges_lengths():
    sub = mk([("a", "m", Gamma(2)), ("m", "b", Gamma(3)), ("b", "c", INF)], "a")
    flat = mk([("a", "b", Gamma(5)), ("b", "c", INF)], "a")
    assert tree_fingerprint(sub) == tree_fingerprint(flat)


def test_star_vs_path():
    assert tree_iso(THREE_STAR, THREE_STAR) is True
    assert tree_iso(THREE_STAR, PATH) is False
    assert tree_iso(FOUR_STAR, H_TREE) is False


def test_strict_mode_compares_lengths():
    h1 = mk(
        [("u", 1, INF), ("u", 2, INF), ("u", "v", Gamma(1)), ("v", 3, INF), ("v", 4, INF)],
        "u",
    )
    h2 = mk(
        [("u", 1, INF), ("u", 2, INF), ("u", "v", Gamma(2)), ("v", 3, INF), ("v", 4, INF)],
        "u",
    )
    assert tree_iso(h1, h2) is True
    assert tree_iso(h1, h2, strict=True) is False
    assert tree_iso(h1, h1, strict=True) is True


def test_tagged_vertex_survives_suppression():
    plain = mk([("a", "m", Gamma(1)), ("m", "b", Gamma(1))], "a")
    tagged = mk(
        [("a", "m", Gamma(1)), ("m", "b", Gamma(1))], "a", tags={"m": ("0",)}
    )
    assert tree_shape_code(plain) == tree_shape_code(plain, use_tags=True)
    assert tree_shape_code(tagged, use_tags=True) != tree_shape_code(plain, use_tags=True)
    # label-blind fingerprints agree regardless of tags
    assert tree_fingerprint(plain) == tree_fingerprint(tagged)


def _random_edges(rng, n):
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        ln = INF if rng.random() < 0.4 else Gamma(Fraction(rng.randint(1, 6), rng.randint(1, 3)))
        edges.append((i, j, ln))
    return edges


def test_relabeling_and_rerooting_invariance():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 11)
        edges = _random_edges(rng, n)
        t1 = mk(edges, 0)
        perm = list(range(n))
        rng.shuffle(perm)
        renamed = [(perm[u], perm[v], ln) for u, v, ln in edges]
        rng.shuffle(renamed)
        t2 = mk(renamed, perm[rng.randrange(n)])
        assert tree_iso(t1, t2, strict=True) is True
        assert tree_fingerprint(t1) == tree_fingerprint(t2)


def test_subdivision_stability():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 9)
        edges = _random_edges(rng, n)
        base = tree_fingerprint(mk(edges, 0))
        k = rng.randrange(len(edges))
        u, v, ln = edges[k]
        if ln.is_inf:
            first, second = Gamma(1), INF
        else:
            first, second = Gamma(ln.finite / 2), Gamma(ln.finite / 2)
        split = edges[:k] + [(u, "mid", first), ("mid", v, second)] + edges[k + 1 :]
        assert tree_fingerprint(mk(split, 0)) == base


def test_fingerprint_validates_tree():
    bad = MetricTree(
        points=(0, 1),
        parent=(None, None),
        lengths=(None, None),
        tags=((), ()),
        root=0,
    )
    with pytest.raises(PreconditionError):
        tree_fingerprint(bad)


def divisor_with_b(b):
    return [0, 1, b, "inf"]


def test_family_four_classes_named_samples():
    samples = [Fraction(5), Fraction(1, 5), Fraction(6), Fraction(2), Fraction(26)]
    classes = family_sweep(Q5, divisor_with_b, samples)
    assert len(classes) == 4
    grouping = sorted(tuple(v) for v in classes.values())
    assert grouping == sorted(
        [
            (Fraction(5),),
            (Fraction(1, 5),),
            (Fraction(6), Fraction(26)),
            (Fraction(2),),
        ]
    )


def test_family_constant_single_class():
    classes = family_sweep(Q5, lambda b: [0, 1, "inf"], [Fraction(k) for k in range(1, 8)])
    assert len(classes) == 1


@pytest.mark.parametrize("infinity", ["inf", "oo", INF, Gamma(None)])
def test_family_reads_every_spelling_of_infinity(infinity):
    samples = [Fraction(5), Fraction(1, 5), Fraction(6), Fraction(2), Fraction(26)]
    want = family_sweep(Q5, divisor_with_b, samples)
    assert family_sweep(Q5, lambda b: [0, 1, b, infinity], samples) == want


def test_family_three_point_divisor():
    bs = [Fraction(5), Fraction(25), Fraction(1, 5), Fraction(2), Fraction(7, 3)]
    classes = family_sweep(Q5, lambda b: [0, b, "inf"], bs)
    assert len(classes) == 1
    with_zero = family_sweep(Q5, lambda b: [0, b, "inf"], bs + [Fraction(0)])
    assert len(with_zero) == 2


def _unit(rng):
    while True:
        num = rng.randint(1, 40)
        den = rng.randint(1, 40)
        if num % 5 and den % 5:
            return Fraction(num, den)


def _rule(b):
    vb = Q5.val(Q5.coerce(b))
    if vb > Gamma(0):
        return "zero-leg"
    if vb < Gamma(0):
        return "infinity-leg"
    if Q5.val(Q5.coerce(b) - 1) > Gamma(0):
        return "one-leg"
    return "gauss-vertex"


def test_family_partition_matches_valuation_rule():
    rng = random.Random(23)
    samples = []
    while len(samples) < 60:
        kind = rng.randrange(4)
        u = _unit(rng)
        k = rng.randint(1, 3)
        if kind == 0:
            b = u * 5**k
        elif kind == 1:
            b = u / 5**k
        elif kind == 2:
            b = 1 + u * 5**k
        else:
            b = u
            if (b - 1).numerator % 5 == 0:
                continue
        samples.append(b)
    classes = family_sweep(Q5, divisor_with_b, samples)
    assert len(classes) == 4
    rules = [frozenset(_rule(b) for b in members) for members in classes.values()]
    assert all(len(r) == 1 for r in rules)
    assert len(set(rules)) == 4


def test_family_finiteness_bound():
    rng = random.Random(31)
    samples = []
    for _ in range(200):
        u = _unit(rng)
        k = rng.randint(-3, 3)
        samples.append(u * Fraction(5) ** k)
    wide = family_sweep(Q5, lambda b: [0, 1, b, 2 * b, "inf"], samples)
    assert len(wide) <= 16
    narrow = family_sweep(Q5, lambda b: [b, b + 1, 3, "inf"], samples)
    assert len(narrow) <= 16


def test_family_t_adic():
    t = RatFunc.t()
    one = QT.coerce(1)
    bs = [t, one / t, one + t, QT.coerce(2), one + t * t]
    classes = family_sweep(QT, divisor_with_b, bs)
    assert len(classes) == 4
    grouping = sorted(tuple(str(v) for v in members) for members in classes.values())
    assert sorted(len(g) for g in grouping) == [1, 1, 1, 2]
