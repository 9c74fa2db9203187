"""Finite-tree invariants and parametrized-family sweeps.

A tree's shape code is a canonical parenthesis encoding of its
homeomorphism type: vertices of degree 2 are suppressed (their two edges
merge, lengths adding) and the remaining tree is rooted at its center and
encoded by sorted recursive child codes.  The full fingerprint pairs the
shape code with the sorted list of finite edge lengths that survive
suppression.  Sweeps over a parametrized divisor family partition the
parameter samples by the tagged shape code of the resulting skeleton,
where divisor tags label the vertices and tagged vertices are never
suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pline import read_point, skeleton

__all__ = [
    "Fingerprint",
    "family_sweep",
    "tree_fingerprint",
    "tree_iso",
    "tree_shape_code",
]


@dataclass(frozen=True, slots=True)
class Fingerprint:
    """Canonical homeomorphism code plus the finite edge-length pattern."""

    shape: str
    lengths: tuple


def _adjacency(tree) -> dict:
    adj: dict = {i: {} for i in range(tree.n)}
    for p, c, ln in tree.edges():
        adj[p][c] = ln
        adj[c][p] = ln
    return adj


def _suppress(adj: dict, keep: set) -> dict:
    """Splice out degree-2 vertices outside ``keep``, merging edge lengths."""
    adj = {v: dict(nb) for v, nb in adj.items()}
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v in keep or len(adj[v]) != 2:
                continue
            (a, la), (b, lb) = adj[v].items()
            del adj[a][v]
            del adj[b][v]
            del adj[v]
            merged = la + lb
            adj[a][b] = merged
            adj[b][a] = merged
            changed = True
    return adj


def _centers(adj: dict) -> list:
    """The one or two middle vertices under repeated leaf removal."""
    alive = set(adj)
    deg = {v: len(adj[v]) for v in alive}
    while len(alive) > 2:
        shed = [v for v in alive if deg[v] <= 1]
        alive.difference_update(shed)
        for v in shed:
            for u in adj[v]:
                if u in alive:
                    deg[u] -= 1
    return sorted(alive)


def _rooted_code(adj: dict, v, parent, labels: dict) -> str:
    kids = sorted(
        _rooted_code(adj, u, v, labels) for u in adj[v] if u != parent
    )
    return "(" + labels.get(v, "") + "".join(kids) + ")"


def _shape(adj: dict, labels: dict) -> str:
    cs = _centers(adj)
    if len(cs) == 1:
        return _rooted_code(adj, cs[0], None, labels)
    a, b = cs
    halves = sorted(
        [_rooted_code(adj, a, b, labels), _rooted_code(adj, b, a, labels)]
    )
    return "".join(halves)


def tree_fingerprint(tree) -> Fingerprint:
    """Canonical shape code plus sorted finite lengths, label-blind.

    All degree-2 vertices are suppressed first, so two trees get equal
    shape codes exactly when they are homeomorphic; any relabeling or
    edge subdivision leaves the fingerprint unchanged.
    """
    tree.validate()
    adj = _suppress(_adjacency(tree), set())
    lengths = sorted(
        ln.finite
        for v, nb in adj.items()
        for u, ln in nb.items()
        if v < u and not ln.is_inf
    )
    return Fingerprint(_shape(adj, {}), tuple(lengths))


def tree_shape_code(tree, use_tags: bool = False) -> str:
    """Shape code alone; with ``use_tags`` the vertex tags become labels.

    Tagged vertices are kept even at degree 2, so the code separates
    trees whose tagged points sit in topologically different positions.
    """
    tree.validate()
    labels: dict = {}
    if use_tags:
        for i in range(tree.n):
            if tree.tags[i]:
                labels[i] = ",".join(sorted(tree.tags[i]))
    adj = _suppress(_adjacency(tree), set(labels))
    return _shape(adj, labels)


def tree_iso(t1, t2, strict: bool = False) -> bool:
    """Homeomorphism of trees; ``strict`` also compares length patterns."""
    f1 = tree_fingerprint(t1)
    f2 = tree_fingerprint(t2)
    if f1.shape != f2.shape:
        return False
    return not strict or f1.lengths == f2.lengths


def family_sweep(field, family, samples) -> dict:
    """Partition the samples by the tagged shape code of their skeleton.

    ``family`` maps a sample value b to a divisor list whose entries are
    points, field elements, or infinity (an infinite Gamma, ``"inf"`` or
    ``"oo"``), read by :func:`pline.read_point`; divisor positions
    become vertex tags, so the partition distinguishes which legs merge
    while staying blind to edge lengths.  Returns a mapping from shape
    code to the samples that produce it, in input order.
    """
    out: dict = {}
    for b in samples:
        pts = [read_point(field, e) for e in family(b)]
        tree = skeleton(field, pts)
        code = tree_shape_code(tree, use_tags=True)
        out.setdefault(code, []).append(b)
    return out
