"""Ball-model points of the projective line over a valued field.

A point is a closed ball in one of two affine charts: ``std`` with
coordinate x, or ``inv`` with coordinate y = 1/x.  The data
``(chart, center, radius)`` stands for the chart values z with
val(z - center) >= radius; radius ``inf`` cuts the ball down to the single
value z = center, a simple point.  The simple point at infinity is
``(inv, 0, inf)``.

Different raw triples can describe one and the same point; :func:`depth`
and :func:`join` read any of them as a ball in the x coordinate.  The
canonical form puts a ball in the std chart whenever it meets the closed
unit disk: balls containing 0 become ``(std, 0, r)`` (with r < 0 when the
ball straddles the unit circle), and balls of units keep a truncated
center.  Balls of elements of negative valuation live in the inv chart
with the radius rescaled to the y coordinate; see :func:`normalize_point`.

The tree order is rooted at the Gauss point, the radius-0 ball around 0.
:func:`depth` is the tree distance from that root, :func:`join` is the
median of two points and the root, :func:`psi` flows a point toward the
root, and :func:`rho`, :func:`psi_divisor`, :func:`retract` and
:func:`skeleton` implement the deformation retraction onto the subtree
spanned by a divisor together with the root, the union of the paths from
the divisor points to the root.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import PreconditionError
from .gamma import INF, INF_WORDS, Gamma, as_gamma, gmax, gmin
from .polys import poly_eval, taylor_shift
from .tree import MetricTree

__all__ = [
    "INV",
    "STD",
    "PLinePoint",
    "depth",
    "gauss_point",
    "gauss_val",
    "infinity_point",
    "join",
    "metric_d",
    "normalize_point",
    "psi",
    "psi_divisor",
    "retract",
    "rho",
    "simple_point",
    "skeleton",
    "skeleton_contains",
]

STD = "std"
INV = "inv"


@dataclass(frozen=True, slots=True)
class PLinePoint:
    """A closed ball in one affine chart; radius ``inf`` means simple point."""

    chart: str
    center: object
    radius: Gamma

    @property
    def is_simple(self) -> bool:
        return as_gamma(self.radius).is_inf

    def __repr__(self) -> str:
        return f"PLinePoint({self.chart!r}, {self.center!r}, {self.radius})"


def gauss_point(field) -> PLinePoint:
    return PLinePoint(STD, field.zero, Gamma(0))


def infinity_point(field) -> PLinePoint:
    return PLinePoint(INV, field.zero, INF)


def simple_point(field, value) -> PLinePoint:
    """The normalized simple point with the given x-coordinate value."""
    return _from_xball(field, (field.coerce(value), INF))


def read_point(field, v) -> PLinePoint:
    """The point a loose value names: a PLinePoint as it is, a ball object
    {chart, center, radius} normalized, inf as an infinite Gamma or a word
    in INF_WORDS, and any other value as the simple point of that element."""
    if isinstance(v, PLinePoint):
        return v
    if isinstance(v, Mapping):
        return normalize_point(field, PLinePoint(v["chart"], v["center"], v["radius"]))
    if (isinstance(v, Gamma) and v.is_inf) or (isinstance(v, str) and v in INF_WORDS):
        return infinity_point(field)
    return simple_point(field, v)


# Internal representation: every point except the simple point at infinity
# is an x-chart ball (center, radius) with radius in Q union {inf}; negative
# radii encode balls properly containing the unit disk.  The simple point at
# infinity gets a sentinel.

_AT_INFINITY = "at-infinity"


def _as_xball(field, p: PLinePoint):
    if not isinstance(p, PLinePoint):
        raise PreconditionError(f"expected a PLinePoint, got {type(p).__name__}")
    if p.chart not in (STD, INV):
        raise PreconditionError(f"unknown chart {p.chart!r}")
    radius = as_gamma(p.radius)
    c = field.coerce(p.center)
    if p.chart == STD:
        return (c, radius)
    # inv chart: a ball in the coordinate y = 1/x
    if radius.is_inf:
        if c == field.zero:
            return _AT_INFINITY
        return (field.one / c, INF)
    if field.val(c) >= radius:
        # the y-ball contains y = 0; as a point it sits on the segment
        # between the Gauss point and infinity, at x-radius -radius
        return (field.zero, -radius)
    return (field.one / c, radius - 2 * field.val(c).finite)


def _from_xball(field, xb) -> PLinePoint:
    if xb == _AT_INFINITY:
        return PLinePoint(INV, field.zero, INF)
    c, r = xb
    if r.is_inf:
        if field.val(c) >= 0:
            return PLinePoint(STD, c, INF)
        return PLinePoint(INV, field.one / c, INF)
    v = field.val(c)
    if v >= r:
        # the ball contains 0; includes every ball with r < 0
        return PLinePoint(STD, field.zero, r)
    if v >= 0:
        return PLinePoint(STD, field.truncate(c, r), r)
    # val(center) < 0: the ball is disjoint from the unit disk and is a
    # y-chart ball around 1/center of radius r - 2 val(center)
    rp = r - 2 * v.finite
    return PLinePoint(INV, field.truncate(field.one / c, rp), rp)


def normalize_point(field, p: PLinePoint) -> PLinePoint:
    """Canonical representative of the ball described by ``p``.

    Idempotent; two raw triples describe the same point iff their normal
    forms are equal.
    """
    return _from_xball(field, _as_xball(field, p))


def depth(field, p: PLinePoint) -> Gamma:
    """Tree distance from the Gauss point; ``inf`` for simple points.

    Read from the x-ball (c, r) of ``p`` as r - 2 min(0, val c, r): r for a
    ball in the unit disk, -r for a ball around 0 of negative radius, and
    the y-radius r - 2 val c for a ball outside the unit disk.
    """
    xb = _as_xball(field, p)
    if xb == _AT_INFINITY or xb[1].is_inf:
        return INF
    c, r = xb
    return r - gmin([0, field.val(c), r]).scale(2)


# Wedge in the tree rooted at infinity: the smallest x-chart ball containing
# both arguments.  The root sentinel sits above every ball.

_ROOT = "above-everything"


def _wedge(field, a, b):
    if a == _AT_INFINITY or b == _AT_INFINITY:
        return _ROOT
    (c1, r1), (c2, r2) = a, b
    return (c1, gmin([r1, r2, field.val(c1 - c2)]))


def join(field, x: PLinePoint, y: PLinePoint) -> PLinePoint:
    """The median of x, y and the Gauss point: where the paths from x and y
    toward the root meet.  Equals the smallest ball containing both when
    that ball meets the closed unit disk of one of the charts."""
    xa = _as_xball(field, x)
    xb = _as_xball(field, y)
    if xa == _AT_INFINITY and xb == _AT_INFINITY:
        return infinity_point(field)
    xg = (field.zero, Gamma(0))
    wedges = [_wedge(field, xa, xb), _wedge(field, xa, xg), _wedge(field, xb, xg)]
    balls = [w for w in wedges if w != _ROOT]
    # at least one wedge involves the Gauss ball and is a true ball; any two
    # wedges share a point, so wedges of equal radius are one ball
    best = max(balls, key=lambda w: w[1]._key())
    return _from_xball(field, best)


def metric_d(field, x: PLinePoint, y: PLinePoint) -> Gamma:
    """The standard metric on simple points, the depth of ``join(x, y)``:
    val(x - y) when both values lie in the unit disk, val(1/x - 1/y) when
    both lie outside the open unit disk, 0 when the valuations have
    strictly different signs; d(x, x) = inf.
    """
    if not (depth(field, x).is_inf and depth(field, y).is_inf):
        raise PreconditionError("metric_d is defined on simple points only")
    return depth(field, join(field, x, y))


def psi(field, t, a: PLinePoint) -> PLinePoint:
    """Flow ``a`` toward the Gauss point, stopping at tree depth ``t``.

    In the point's own chart the ball B(c, r) moves to B(c, min(t, r)),
    which leaves points of depth <= t fixed.  psi(0, a) is the Gauss point
    for every a; negative t continues past it toward the chart's center of
    perspective (x = infinity for std, x = 0 for inv).
    """
    t = as_gamma(t)
    p = normalize_point(field, a)
    if p.chart == STD and p.radius < 0:
        # a ball straddling the unit circle flows in the inv chart, where
        # it is the y-ball around 0 of radius -r
        p = PLinePoint(INV, field.zero, -p.radius)
    moved = PLinePoint(p.chart, p.center, gmin([t, p.radius]))
    return normalize_point(field, moved)


def rho(field, a: PLinePoint, divisor: Sequence[PLinePoint]) -> Gamma:
    """Depth at which the path from ``a`` to the root meets the subtree
    spanned by the divisor and the root: max over d of depth(join(a, d))."""
    if not divisor:
        raise PreconditionError("rho needs a nonempty divisor")
    return gmax([depth(field, join(field, a, d)) for d in divisor])


def psi_divisor(field, t, a: PLinePoint, divisor: Sequence[PLinePoint]) -> PLinePoint:
    """The divisor-stopped flow: psi at time max(t, rho(a, divisor))."""
    t = as_gamma(t)
    return psi(field, gmax([t, rho(field, a, divisor)]), a)


def retract(field, a: PLinePoint, divisor: Sequence[PLinePoint]) -> PLinePoint:
    """Image of ``a`` under the retraction onto skeleton(divisor)."""
    return psi_divisor(field, Gamma(0), a, divisor)


def gauss_val(field, coeffs: Sequence, p: PLinePoint) -> Gamma:
    """Valuation of a polynomial at a ball point, in the point's own chart.

    ``coeffs`` is the little-endian coefficient list of a polynomial in the
    chart coordinate the point was handed in (x for std, y = 1/x for inv);
    the point is deliberately not normalized, since normalization may move
    it to the other chart and the polynomial does not move with it.  For a
    ball B(c, r) the value is min_i (val(a_i) + i*r) over the coefficients
    a_i of the expansion around c, which is valid for every center and
    radius; for a simple point it is val(f(center)).  The zero polynomial
    gives inf.
    """
    c = field.coerce(p.center)
    radius = as_gamma(p.radius)
    cs = [field.coerce(a) for a in coeffs]
    if all(a == field.zero for a in cs):
        return INF
    if radius.is_inf:
        return field.val(poly_eval(cs, c))
    shifted = taylor_shift(cs, c)
    r = radius.finite
    return gmin([field.val(b) + Gamma(i * r) for i, b in enumerate(shifted)])


def _point_sort_key(field, p: PLinePoint):
    g = depth(field, p)
    return (g._key(), 0 if p.chart == STD else 1, field.sort_key(p.center), as_gamma(p.radius)._key())


def skeleton(field, divisor: Sequence[PLinePoint], labels: Optional[Sequence[str]] = None) -> MetricTree:
    """The subtree spanned by the divisor and the Gauss point.

    It is the union of the paths from the divisor points to the root.  The
    vertices on the path above a divisor point a are a, the Gauss point and
    the joins join(a, b) with the other divisor points; ordered by depth,
    each is the parent of the next.  An edge's length is the depth
    difference (``inf`` into simple points).  Divisor labels become vertex
    tags; default labels are the list positions as strings.
    """
    if not divisor:
        raise PreconditionError("skeleton needs a nonempty divisor")
    if labels is None:
        labels = [str(i) for i in range(len(divisor))]
    if len(labels) != len(divisor):
        raise PreconditionError("one label per divisor point required")

    normalized = [normalize_point(field, d) for d in divisor]
    gauss = gauss_point(field)
    # above[a] is the set of vertices on the path from a to the root: a
    # vertex join(b, c) above a equals join(a, b) or join(a, c)
    above = {a: {a, gauss} for a in normalized}
    for a, b in combinations(above, 2):
        j = join(field, a, b)
        above[a].add(j)
        above[b].add(j)

    order = sorted(set().union(*above.values()), key=lambda q: _point_sort_key(field, q))
    index = {q: i for i, q in enumerate(order)}

    parent: list[Optional[int]] = [None] * len(order)
    for path in above.values():
        # the sort key puts depth first, so a sorted path runs root first
        chain = sorted(index[q] for q in path)
        for up, down in zip(chain, chain[1:]):
            parent[down] = up
    depths = [depth(field, q) for q in order]
    lengths = [None if up is None else depths[i] - depths[up] for i, up in enumerate(parent)]

    tags: list[tuple[str, ...]] = [()] * len(order)
    for label, q in zip(labels, normalized):
        i = index[q]
        tags[i] = tags[i] + (label,)

    return MetricTree(
        points=tuple(order),
        parent=tuple(parent),
        lengths=tuple(lengths),
        tags=tuple(tags),
        root=index[gauss],
    )


def skeleton_contains(field, tree: MetricTree, p: PLinePoint) -> bool:
    """Exact membership of a point in the union of the tree's edges.

    True when the point is a vertex or lies on the path between a vertex
    and its parent, infinite stretches toward simple leaves included.
    """
    q = normalize_point(field, p)
    if q in tree.points:
        return True
    for i, v in enumerate(tree.points):
        u_idx = tree.parent[i]
        if u_idx is None:
            continue
        u = tree.points[u_idx]
        if join(field, u, q) == u and join(field, q, v) == q:
            return True
    return False
