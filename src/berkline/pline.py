"""Ball-model points of the projective line over a valued field.

A point is a closed ball in one of two affine charts: ``std`` with
coordinate x, or ``inv`` with coordinate y = 1/x.  The data
``(chart, center, radius)`` stands for the chart values z with
val(z - center) >= radius; radius ``inf`` cuts the ball down to the single
value z = center, a simple point.  The simple point at infinity is
``(inv, 0, inf)``.

Different raw triples can describe one and the same point.  Inside the
module every operation reads its arguments as balls in the x coordinate
(x-balls, each carrying the valuation of its center) and computes on those:
:func:`depth`, :func:`join`, :func:`metric_d`, :func:`rho` and
:func:`skeleton_contains` take depths of x-ball joins without normalizing
anything, and :func:`skeleton` normalizes each vertex once.  ``PLinePoint``
is the boundary type: what the public functions take and return.  The
canonical form puts a ball in the std chart whenever it meets the closed
unit disk: balls containing 0 become ``(std, 0, r)`` (with r < 0 when the
ball straddles the unit circle), and balls of units keep a truncated
center.  Balls of elements of negative valuation live in the inv chart
with the radius rescaled to the y coordinate; see :func:`normalize_point`.
:func:`gauss_val` reads a polynomial's valuation at a point as given: on a
ball it is ``newton.coeff_val_path`` evaluated at the radius.

The tree order is rooted at the Gauss point, the radius-0 ball around 0.
:func:`depth` is the tree distance from that root, :func:`join` is the
median of two points and the root, :func:`psi` flows a point toward the
root, and :func:`rho`, :func:`psi_divisor`, :func:`retract` and
:func:`skeleton` implement the deformation retraction onto the subtree
spanned by a divisor together with the root, the union of the paths from
the divisor points to the root.  :func:`skeleton_contains` reads a tree's
edges as the paths from its childless vertices up to its root vertex, so it
needs a tree whose every vertex lies below its parent in this order, as
:func:`skeleton` builds them.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .errors import PreconditionError
from .gamma import INF, INF_WORDS, Gamma, as_gamma, gmax, gmin
from .newton import coeff_val_path
from .polys import poly_eval
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
    c = field.coerce(value)
    return _from_xball(field, (c, INF, field.val(c)))


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
# is an x-chart ball (center, radius, val(center)) with radius in Q union
# {inf}; negative radii encode balls properly containing the unit disk.  The
# valuation of the center rides along, so depths and the wedges with the
# Gauss ball need none.  The simple point at infinity gets a sentinel.

_AT_INFINITY = "at-infinity"


def _as_xball(field, p: PLinePoint):
    if not isinstance(p, PLinePoint):
        raise PreconditionError(f"expected a PLinePoint, got {type(p).__name__}")
    if p.chart not in (STD, INV):
        raise PreconditionError(f"unknown chart {p.chart!r}")
    radius = as_gamma(p.radius)
    c = field.coerce(p.center)
    v = field.val(c)
    if p.chart == STD:
        return (c, radius, v)
    # inv chart: a ball in the coordinate y = 1/x
    if radius.is_inf:
        if v.is_inf:
            return _AT_INFINITY
        return (field.one / c, INF, -v)
    if v >= radius:
        # the y-ball contains y = 0; as a point it sits on the segment
        # between the Gauss point and infinity, at x-radius -radius
        return (field.zero, -radius, INF)
    return (field.one / c, radius - 2 * v.finite, -v)


def _from_xball(field, xb) -> PLinePoint:
    if xb is _AT_INFINITY:
        return PLinePoint(INV, field.zero, INF)
    c, r, v = xb
    if r.is_inf:
        if v >= 0:
            return PLinePoint(STD, c, INF)
        return PLinePoint(INV, field.one / c, INF)
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
    return _xdepth(_as_xball(field, p))


_ZERO = Gamma(0)


def _xdepth(xb) -> Gamma:
    if xb is _AT_INFINITY or xb[1].is_inf:
        return INF
    _, r, v = xb
    return r - min(_ZERO, v, r, key=Gamma._key).scale(2)


def _gauss_wedge(xb):
    """The smallest x-ball containing xb and the Gauss ball."""
    c, r, v = xb
    return (c, min(r, _ZERO, v, key=Gamma._key), v)


def _xjoin(field, a, b):
    """The join of two x-balls as an x-ball, not normalized.

    Of the three wedges (smallest x-balls containing two of a, b and the
    Gauss ball) it is the one of largest radius; the wedge with infinity is
    no ball.  Any two wedges share a point, so wedges of equal radius are
    one ball, and the wedge of a and b is only needed when both radii exceed
    the Gauss wedges' radii.
    """
    if a is _AT_INFINITY:
        return a if b is _AT_INFINITY else _gauss_wedge(b)
    if b is _AT_INFINITY:
        return _gauss_wedge(a)
    ga, gb = _gauss_wedge(a), _gauss_wedge(b)
    best = ga if ga[1] >= gb[1] else gb
    (c1, r1, v1), (c2, r2, _) = a, b
    r = min(r1, r2, key=Gamma._key)
    if r > best[1]:
        r = min(r, field.val(c1 - c2), key=Gamma._key)
        if r > best[1]:
            return (c1, r, v1)
    return best


def join(field, x: PLinePoint, y: PLinePoint) -> PLinePoint:
    """The median of x, y and the Gauss point: where the paths from x and y
    toward the root meet.  Equals the smallest ball containing both when
    that ball meets the closed unit disk of one of the charts."""
    return _from_xball(field, _xjoin(field, _as_xball(field, x), _as_xball(field, y)))


def metric_d(field, x: PLinePoint, y: PLinePoint) -> Gamma:
    """The standard metric on simple points, the depth of ``join(x, y)``:
    val(x - y) when both values lie in the unit disk, val(1/x - 1/y) when
    both lie outside the open unit disk, 0 when the valuations have
    strictly different signs; d(x, x) = inf.
    """
    xa, xb = _as_xball(field, x), _as_xball(field, y)
    if not (_xdepth(xa).is_inf and _xdepth(xb).is_inf):
        raise PreconditionError("metric_d is defined on simple points only")
    return _xdepth(_xjoin(field, xa, xb))


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
    xa = _as_xball(field, a)
    return gmax([_xdepth(_xjoin(field, xa, _as_xball(field, d))) for d in divisor])


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
    radius, so it is ``coeff_val_path`` evaluated at the radius; for a simple
    point it is val(f(center)).  The zero polynomial gives inf.
    """
    c = field.coerce(p.center)
    radius = as_gamma(p.radius)
    if not radius.is_inf:
        return coeff_val_path(field, coeffs, c).eval(radius)
    cs = [field.coerce(a) for a in coeffs]
    if all(a == field.zero for a in cs):
        return INF
    return field.val(poly_eval(cs, c))


def _point_sort_key(field, p: PLinePoint, g: Gamma):
    """Depth ``g`` of ``p`` first, so a sorted root path runs root first."""
    return (g._key(), 0 if p.chart == STD else 1, field.sort_key(p.center), as_gamma(p.radius)._key())


def skeleton(field, divisor: Sequence[PLinePoint], labels: Optional[Sequence[str]] = None) -> MetricTree:
    """The subtree spanned by the divisor and the Gauss point.

    It is the union of the paths from the divisor points to the root.  The
    vertices on the path above a divisor point a are a, the Gauss point and
    the joins join(a, b) with the other divisor points.  On one path a
    vertex is fixed by its depth, and ordered by depth each is the parent
    of the next.  The vertex of depth g above a lies above b too iff g is at
    most the depth of join(a, b), so g and the first divisor point below the
    vertex name it.  The pairwise joins stay x-balls; each vertex is
    normalized once, one that is neither a divisor point nor the Gauss point
    by one call of :func:`join`.
    An edge's length is the depth difference (``inf`` into simple points).
    Divisor labels become vertex tags; default labels are the list
    positions as strings.
    """
    if not divisor:
        raise PreconditionError("skeleton needs a nonempty divisor")
    if labels is None:
        labels = [str(i) for i in range(len(divisor))]
    if len(labels) != len(divisor):
        raise PreconditionError("one label per divisor point required")

    # each distinct divisor point once, as an x-ball
    first: dict = {}
    slot = [first.setdefault(_as_xball(field, d), len(first)) for d in divisor]
    xs = list(first)
    described = dict(zip(slot, divisor))  # a divisor entry for each x-ball

    # paths[i]: depth -> (an x-ball of the vertex of that depth above point
    # i, the pair of points it joins or None);
    # lows[i]: depth g -> the first point j whose join with i has depth g
    # (combinations meets each i's partners in increasing order)
    paths = [{_ZERO: ((field.zero, _ZERO, INF), None), _xdepth(xb): (xb, None)} for xb in xs]
    lows: list[dict] = [{} for _ in xs]
    for i, j in combinations(range(len(xs)), 2):
        xb = _xjoin(field, xs[i], xs[j])
        g = _xdepth(xb)
        paths[i].setdefault(g, (xb, (i, j)))
        paths[j].setdefault(g, (xb, (i, j)))
        lows[i].setdefault(g, j)
        lows[j].setdefault(g, i)

    vertex: dict = {}  # (first divisor point below, depth) -> (x-ball, pair)
    parent_of: dict = {}
    own = []  # the vertex of each divisor point
    for i, path in enumerate(paths):
        low = i
        chain = []
        for g in sorted(path, key=Gamma._key, reverse=True):
            # the points below the vertex of depth g are those whose join
            # with i has depth g or more
            low = min(low, lows[i].get(g, i))
            vertex.setdefault((low, g), path[g])
            chain.append((low, g))
        own.append(chain[0])
        for down, up in zip(chain, chain[1:]):
            parent_of[down] = up

    # a vertex that only a join names comes out of the public join
    points = {
        key: _from_xball(field, xb) if pair is None else join(field, described[pair[0]], described[pair[1]])
        for key, (xb, pair) in vertex.items()
    }
    order = sorted(points, key=lambda key: _point_sort_key(field, points[key], key[1]))
    index = {key: i for i, key in enumerate(order)}
    parent = [index[parent_of[key]] if key in parent_of else None for key in order]
    lengths = [key[1] - parent_of[key][1] if key in parent_of else None for key in order]

    tags: list[tuple[str, ...]] = [()] * len(order)
    for label, s in zip(labels, slot):
        i = index[own[s]]
        tags[i] = tags[i] + (label,)

    return MetricTree(
        points=tuple(points[key] for key in order),
        parent=tuple(parent),
        lengths=tuple(lengths),
        tags=tuple(tags),
        root=index[(0, _ZERO)],
    )


def skeleton_contains(field, tree: MetricTree, p: PLinePoint) -> bool:
    """Exact membership of a point in the union of the tree's edges.

    The tree's vertices must be points with each vertex below its parent in
    the tree order rooted at the Gauss point, as :func:`skeleton` builds
    them.  The edges then cover exactly the paths from the childless
    vertices up to the root vertex, infinite stretches toward simple leaves
    included, so ``p`` lies on them iff it lies below the root vertex and
    above some childless vertex l, that is iff join(p, l) has the depth of
    ``p``.  A simple point passes only as a childless vertex itself.
    """
    xp = _as_xball(field, p)
    xr = _as_xball(field, tree.points[tree.root])
    if _xdepth(_xjoin(field, xp, xr)) != _xdepth(xr):
        return False
    g = _xdepth(xp)
    return any(
        _xdepth(_xjoin(field, xp, _as_xball(field, tree.points[i]))) == g
        for i in range(tree.n)
        if not tree.children(i)
    )
