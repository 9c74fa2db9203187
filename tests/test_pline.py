import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from berkline.errors import PreconditionError
from berkline.fields import PAdicField, RatFunc, TAdicField
from berkline.gamma import INF, Gamma, as_gamma, gmin
from berkline.pline import (
    INV,
    STD,
    PLinePoint,
    depth,
    gauss_point,
    gauss_val,
    infinity_point,
    join,
    metric_d,
    normalize_point,
    psi,
    psi_divisor,
    retract,
    rho,
    simple_point,
    skeleton,
    skeleton_contains,
)
from berkline import pline
from berkline.pline import _AT_INFINITY, _as_xball, _from_xball, _point_sort_key
from berkline.polys import poly_eval, taylor_shift
from berkline.tree import MetricTree

Q5 = PAdicField(5)
Q7 = PAdicField(7)
QT = TAdicField()

GAUSS = gauss_point(Q5)
INFTY = infinity_point(Q5)


def pt(chart, center, radius):
    r = radius if isinstance(radius, Gamma) else Gamma(radius)
    return PLinePoint(chart, Fraction(center), r)


def ball(center, radius):
    return pt(STD, center, radius)


centers = st.fractions(min_value=-60, max_value=60, max_denominator=50)
nonzero_centers = centers.filter(lambda x: x != 0)
radii = st.fractions(min_value=-8, max_value=8, max_denominator=6).map(Gamma)
radii_or_inf = st.one_of(radii, st.just(INF))
small_times = st.fractions(min_value=0, max_value=8, max_denominator=6)


@st.composite
def points(draw):
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return infinity_point(Q5)
    if kind == 1:
        return simple_point(Q5, draw(centers))
    chart = STD if kind == 2 else INV
    c = draw(centers)
    if chart == INV and c == 0:
        c = Fraction(1)
    return normalize_point(Q5, pt(chart, c, draw(radii)))


@st.composite
def simple_points(draw):
    if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
        return infinity_point(Q5)
    return simple_point(Q5, draw(centers))


def test_normalize_examples():
    assert normalize_point(Q7, pt(STD, 7, 1)) == pt(STD, 0, 1)
    # cross-chart form: B(1/7, 0) is the y-ball around 7 of radius 2
    assert normalize_point(Q7, pt(STD, Fraction(1, 7), 0)) == pt(INV, 7, 2)
    assert normalize_point(Q5, pt(STD, 0, INF)) == pt(STD, 0, INF)
    assert normalize_point(Q5, pt(STD, 26, 1)) == pt(STD, 1, 1)
    # simple points of negative valuation move to the inv chart
    assert normalize_point(Q5, pt(STD, Fraction(1, 5), INF)) == pt(INV, 5, INF)
    # balls straddling the unit circle: std chart, center 0, negative radius
    assert normalize_point(Q5, pt(INV, 10, 1)) == pt(STD, 0, -1)
    assert normalize_point(Q5, pt(STD, 7, -2)) == pt(STD, 0, -2)


def test_point_with_int_radius():
    # the API reads radii through as_gamma, so a raw int or Fraction radius
    # answers like the Gamma it names
    p = PLinePoint(STD, 0, 3)
    assert p.is_simple is False
    assert PLinePoint(STD, 0, Fraction(1, 2)).is_simple is False
    assert PLinePoint(STD, 0, INF).is_simple is True
    q = PLinePoint(STD, 0, Gamma(3))
    assert _point_sort_key(Q5, p, depth(Q5, p)) == _point_sort_key(Q5, q, depth(Q5, q))
    assert depth(Q5, p) == depth(Q5, PLinePoint(STD, 0, Gamma(3)))


@given(points())
def test_normalize_idempotent(p):
    assert normalize_point(Q5, p) == p


@given(centers, radii, st.integers(min_value=-40, max_value=40))
def test_equal_balls_normalize_equally(c, r, k):
    shift = Fraction(k) * Fraction(5) ** 3
    if Q5.val(shift) < r:
        shift = 0
    a = normalize_point(Q5, pt(STD, c, r))
    b = normalize_point(Q5, pt(STD, c + shift, r))
    assert a == b


@given(nonzero_centers, radii)
def test_cross_chart_descriptions_agree(c, r):
    v = Q5.val(c)
    if v < r:
        # ball without 0: same point described in the y = 1/x coordinate
        other = pt(INV, Fraction(1, 1) / c, r - 2 * v.finite)
        assert normalize_point(Q5, other) == normalize_point(Q5, pt(STD, c, r))
    if v >= r and r <= 0:
        other = pt(INV, 0, -r)
        assert normalize_point(Q5, other) == normalize_point(Q5, pt(STD, c, r))


def test_normalize_deep_ball():
    # a unit center whose 5-adic expansion never ends, at a deep radius
    deep = Gamma(10**4)
    want = PLinePoint(STD, Fraction(pow(3, -1, 5**10**4)), deep)
    assert normalize_point(Q5, pt(STD, Fraction(1, 3), deep)) == want
    assert normalize_point(Q5, want) == want
    assert retract(Q5, want, [simple_point(Q5, 0), INFTY]) == GAUSS


def test_depth_examples():
    assert depth(Q5, GAUSS) == Gamma(0)
    assert depth(Q5, ball(0, 2)) == Gamma(2)
    assert depth(Q5, ball(0, -3)) == Gamma(3)
    assert depth(Q5, normalize_point(Q5, pt(STD, Fraction(1, 5), 4))) == Gamma(6)
    assert depth(Q5, INFTY) == INF
    assert depth(Q5, simple_point(Q5, 3)) == INF


def test_metric_examples():
    one = simple_point(Q5, 1)
    assert metric_d(Q5, one, one) == INF
    assert metric_d(Q5, one, simple_point(Q5, 6)) == Gamma(1)
    assert metric_d(Q5, simple_point(Q5, Fraction(1, 5)), simple_point(Q5, 5)) == Gamma(0)
    assert metric_d(Q5, simple_point(Q5, Fraction(1, 5)), simple_point(Q5, Fraction(2, 5))) == Gamma(1)
    assert metric_d(Q5, simple_point(Q5, 5), INFTY) == Gamma(0)
    assert metric_d(Q5, simple_point(Q5, Fraction(1, 25)), INFTY) == Gamma(2)
    with pytest.raises(PreconditionError):
        metric_d(Q5, ball(0, 1), one)


@given(simple_points(), simple_points())
def test_metric_symmetry_and_separation(x, y):
    d = metric_d(Q5, x, y)
    assert d == metric_d(Q5, y, x)
    assert d >= 0
    assert (d == INF) == (x == y)


@given(simple_points(), simple_points(), simple_points())
def test_metric_ultrametric(x, y, z):
    dxz = metric_d(Q5, x, z)
    assert dxz >= min(metric_d(Q5, x, y), metric_d(Q5, y, z))


@given(simple_points(), simple_points())
def test_metric_equals_depth_of_join(x, y):
    assert metric_d(Q5, x, y) == depth(Q5, join(Q5, x, y))


def metric_d_by_charts(field, x, y):
    """metric_d before it became the depth of the join, kept as an oracle:
    a case analysis over the charts of the two values."""
    px = normalize_point(field, x)
    py = normalize_point(field, y)
    if not (px.is_simple and py.is_simple):
        raise PreconditionError("metric_d is defined on simple points only")
    if px == py:
        return INF
    xa = _as_xball(field, px)
    xb = _as_xball(field, py)
    if xa == _AT_INFINITY or xb == _AT_INFINITY:
        other = xb if xa == _AT_INFINITY else xa
        v = field.val(other[0])
        return Gamma(0) if v > 0 else -v
    a, b = xa[0], xb[0]
    va, vb = field.val(a), field.val(b)
    if va >= 0 and vb >= 0:
        return field.val(a - b)
    if va <= 0 and vb <= 0:
        return field.val(field.one / a - field.one / b)
    return Gamma(0)


@settings(max_examples=300)
@given(simple_points(), simple_points())
def test_metric_matches_chart_oracle_q5(x, y):
    assert metric_d(Q5, x, y) == metric_d_by_charts(Q5, x, y)


def test_metric_matches_chart_oracle_on_a_grid():
    # every pair from a grid of Q5 and Q(t) values, infinity and a point
    # given in the inv chart included
    t = RatFunc.t()
    q5 = [
        Fraction(k, d) * Fraction(5) ** e for k in (-2, 1, 3, 7) for d in (1, 3) for e in (-2, 0, 1)
    ]
    qt = [(t + k) * t**e for k in (0, 1, -2) for e in (-2, -1, 0, 2)]
    for field, values in ((Q5, q5), (QT, qt)):
        pts = [simple_point(field, v) for v in values] + [infinity_point(field)]
        pts.append(PLinePoint(INV, field.uniformizer_pow(3), INF))
        for x in pts:
            for y in pts:
                assert metric_d(field, x, y) == metric_d_by_charts(field, x, y), (x, y)


def test_join_examples():
    zero = simple_point(Q5, 0)
    assert join(Q5, zero, INFTY) == GAUSS
    assert join(Q5, simple_point(Q5, 1), simple_point(Q5, 6)) == ball(1, 1)
    x = simple_point(Q5, Fraction(1, 5))
    y = simple_point(Q5, Fraction(2, 5))
    assert join(Q5, x, y) == ball(0, -1)
    assert join(Q5, x, x) == x
    # one-sided pair through the region below the Gauss point
    assert join(Q5, x, INFTY) == ball(0, -1)
    assert join(Q5, zero, simple_point(Q5, 25)) == ball(0, 2)


@given(points(), points())
def test_join_laws(x, y):
    j = join(Q5, x, y)
    assert j == join(Q5, y, x)
    # the join is a common ancestor of both points
    assert join(Q5, j, x) == j
    assert join(Q5, j, y) == j
    assert depth(Q5, j) <= min(depth(Q5, x), depth(Q5, y))


@given(points())
def test_join_with_root_is_root(x):
    assert join(Q5, GAUSS, x) == GAUSS


def gauss_val_by_shift(field, coeffs, p):
    """The valuation of a polynomial at a ball point by its definition, the
    oracle of gauss_val and coeff_val_path: min_i (val(b_i) + i*r) over the
    Taylor coefficients b_i at the center of B(c, r), val(f(c)) at a simple
    point, inf for the zero polynomial."""
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


def test_gauss_val_examples():
    f = [Fraction(0), Fraction(-1), Fraction(1)]  # x(x-1)
    assert gauss_val(Q5, f, ball(0, 2)) == Gamma(2)
    assert gauss_val(Q5, [Fraction(7)], ball(0, 0)) == Gamma(0)
    assert gauss_val(Q5, [Fraction(-5), Fraction(0), Fraction(1)], ball(0, 0)) == Gamma(0)
    assert gauss_val(Q5, [], ball(0, 0)) == INF
    assert gauss_val(Q5, [Fraction(0)], ball(0, 0)) == INF
    # simple point: plain evaluation
    assert gauss_val(Q5, f, simple_point(Q5, 5)) == Gamma(1)
    # straddling ball: same formula with a negative radius
    assert gauss_val(Q5, [Fraction(0), Fraction(1)], ball(0, -2)) == Gamma(-2)


@given(
    st.lists(st.fractions(max_denominator=10), min_size=1, max_size=5),
    st.lists(st.fractions(max_denominator=10), min_size=1, max_size=5),
    centers,
    radii,
)
def test_gauss_val_is_a_valuation(f, g, c, r):
    from berkline.polys import poly_add, poly_mul

    b = normalize_point(Q5, pt(STD, c, r))
    if b.chart != STD:
        b = ball(c if Q5.val(Fraction(c)) >= 0 else 0, abs(r.finite))
    vf = gauss_val(Q5, f, b)
    vg = gauss_val(Q5, g, b)
    assert gauss_val(Q5, poly_mul(f, g), b) == vf + vg
    assert gauss_val(Q5, poly_add(f, g), b) >= min(vf, vg)


@given(
    st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=5), min_size=1, max_size=4),
    centers,
    radii,
)
def test_gauss_val_linear_factors(roots, c, r):
    from berkline.polys import poly_mul

    b = normalize_point(Q5, pt(STD, c, r))
    if b.chart != STD or b.radius < 0:
        b = ball(0, abs(r.finite))
    f = [Fraction(1)]
    for z in roots:
        f = poly_mul(f, [-Fraction(z), Fraction(1)])
    expected = Gamma(0)
    for z in roots:
        expected = expected + min(Q5.val(Fraction(b.center) - z), b.radius)
    assert gauss_val(Q5, f, b) == expected


def test_gauss_val_grid_attainment():
    # min over ball samples c + u * p^r equals the ball valuation
    f = [Fraction(-6), Fraction(1), Fraction(1)]  # x^2 + x - 6
    b = ball(1, 1)
    want = gauss_val(Q5, f, b)
    from berkline.polys import poly_eval

    samples = [Q5.val(poly_eval([Fraction(x) for x in f], Fraction(1) + Fraction(u) * 5)) for u in range(50)]
    assert min(samples, key=lambda g: g._key()) == want


def test_psi_examples():
    a = simple_point(Q5, 3)
    assert psi(Q5, INF, a) == a
    assert psi(Q5, 0, a) == GAUSS
    assert psi(Q5, 5, ball(0, 2)) == ball(0, 2)
    assert psi(Q5, 1, ball(0, 2)) == ball(0, 1)
    assert psi(Q5, 0, INFTY) == GAUSS
    assert psi(Q5, 2, INFTY) == ball(0, -2)
    assert psi(Q5, 1, ball(0, -2)) == ball(0, -1)
    assert psi(Q5, 3, ball(0, -2)) == ball(0, -2)
    # negative times continue past the root, direction set by the chart
    assert psi(Q5, -1, simple_point(Q5, 2)) == ball(0, -1)
    assert psi(Q5, -1, INFTY) == ball(0, 1)


@given(points())
def test_psi_identities(a):
    assert psi(Q5, INF, a) == a
    assert psi(Q5, 0, a) == GAUSS


@given(small_times, small_times, points())
def test_psi_semigroup(s, t, a):
    assert psi(Q5, s, psi(Q5, t, a)) == psi(Q5, min(s, t), a)


@given(small_times, points())
def test_psi_depth(t, a):
    assert depth(Q5, psi(Q5, t, a)) == min(Gamma(t), depth(Q5, a))


def divisor_examples():
    zero = simple_point(Q5, 0)
    return zero, simple_point(Q5, 1), simple_point(Q5, 25), INFTY


def test_rho_examples():
    zero, one, twentyfive, infty = divisor_examples()
    assert rho(Q5, one, [zero, one, infty]) == INF
    assert rho(Q5, one, [zero, infty]) == Gamma(0)
    assert rho(Q5, ball(0, 3), [zero]) == Gamma(3)
    assert rho(Q5, simple_point(Q5, 50), [zero, twentyfive, infty]) == Gamma(2)
    with pytest.raises(PreconditionError):
        rho(Q5, one, [])


def test_psi_divisor_examples():
    zero, one, _, infty = divisor_examples()
    D = [zero, infty]
    assert psi_divisor(Q5, 0, one, D) == GAUSS
    a = ball(3, Fraction(3, 2))
    assert psi_divisor(Q5, INF, a, D) == a
    for t in (0, 1, 7):
        assert psi_divisor(Q5, t, zero, D) == zero


def test_retract_examples():
    zero, one, twentyfive, infty = divisor_examples()
    D = [zero, twentyfive, infty]
    assert retract(Q5, simple_point(Q5, 50), D) == ball(0, 2)
    assert retract(Q5, simple_point(Q5, 26), D) == GAUSS
    assert retract(Q5, ball(50, 4), D) == ball(0, 2)
    # points already on the skeleton stay put
    for s in (GAUSS, ball(0, 1), ball(0, 2), ball(0, -1), zero, infty):
        assert retract(Q5, s, D) == normalize_point(Q5, s)


@settings(max_examples=60)
@given(points(), st.lists(simple_points(), min_size=1, max_size=4, unique=True), small_times)
def test_retraction_axioms(a, D, t):
    assert psi_divisor(Q5, INF, a, D) == a
    r = retract(Q5, a, D)
    assert retract(Q5, r, D) == r
    # condition (*): retracting any intermediate flow state gives the image
    assert retract(Q5, psi_divisor(Q5, t, a, D), D) == r
    tree = skeleton(Q5, D)
    assert skeleton_contains(Q5, tree, r)
    for d in D:
        assert retract(Q5, d, D) == normalize_point(Q5, d)


@given(centers, radii, st.lists(simple_points(), min_size=1, max_size=3, unique=True))
def test_retract_ball_matches_center(c, r, D):
    b = normalize_point(Q5, pt(STD, c, r))
    center = simple_point(Q5, c)
    if rho(Q5, center, D) <= r:
        assert retract(Q5, b, D) == retract(Q5, center, D)


def test_skeleton_two_point_divisor():
    zero, _, _, infty = divisor_examples()
    tree = skeleton(Q5, [zero, infty])
    tree.validate()
    assert tree.points == (GAUSS, zero, infty)
    assert tree.parent == (None, 0, 0)
    assert tree.lengths == (None, INF, INF)
    assert tree.degree(0) == 2


def test_skeleton_three_point_star():
    zero, one, _, infty = divisor_examples()
    tree = skeleton(Q5, [zero, one, infty])
    tree.validate()
    assert len(tree.points) == 4
    assert tree.points[0] == GAUSS
    assert tree.degree(0) == 3
    assert all(p == 0 for p in tree.parent[1:])
    assert all(length == INF for length in tree.lengths[1:])


def test_skeleton_with_finite_edge():
    zero, _, twentyfive, infty = divisor_examples()
    tree = skeleton(Q5, [zero, twentyfive, infty], labels=["0", "25", "inf"])
    tree.validate()
    assert tree.points == (GAUSS, ball(0, 2), zero, twentyfive, infty)
    assert tree.parent == (None, 0, 1, 1, 0)
    assert tree.lengths == (None, Gamma(2), INF, INF, INF)
    assert tree.tags == ((), (), ("0",), ("25",), ("inf",))


def test_skeleton_one_sided_divisor():
    # with no divisor point in the other chart the root is still a vertex,
    # so retractions of far-away points land on the tree
    zero, _, twentyfive, _ = divisor_examples()
    tree = skeleton(Q5, [zero, twentyfive])
    tree.validate()
    assert tree.points == (GAUSS, ball(0, 2), zero, twentyfive)
    assert skeleton_contains(Q5, tree, retract(Q5, INFTY, [zero, twentyfive]))


@settings(max_examples=40)
@given(st.lists(simple_points(), min_size=1, max_size=4, unique=True))
def test_skeleton_closed_under_join(D):
    tree = skeleton(Q5, D)
    tree.validate()
    pts = set(tree.points)
    for u in tree.points:
        for v in tree.points:
            assert join(Q5, u, v) in pts
    assert gauss_point(Q5) in pts


def skeleton_by_closure(field, divisor):
    """The earlier skeleton construction, kept as an oracle: close the vertex set
    under join to a fixpoint, then give each vertex its deepest proper
    ancestor found by scanning every vertex."""
    normalized = [normalize_point(field, d) for d in divisor]
    vertices = {gauss_point(field)}
    vertices.update(normalized)
    frontier = list(vertices)
    while frontier:
        new = set()
        for u in frontier:
            for v in list(vertices):
                j = join(field, u, v)
                if j not in vertices and j not in new:
                    new.add(j)
        vertices.update(new)
        frontier = list(new)
    order = sorted(vertices, key=lambda q: _point_sort_key(field, q, depth(field, q)))
    index = {q: i for i, q in enumerate(order)}
    root = index[gauss_point(field)]
    parent = [None] * len(order)
    lengths = [None] * len(order)
    for i, v in enumerate(order):
        if i == root:
            continue
        ancestors = [u for u in order if u != v and join(field, u, v) == u]
        best = max(ancestors, key=lambda u: depth(field, u)._key())
        parent[i] = index[best]
        lengths[i] = depth(field, v) - depth(field, best)
    tags = [()] * len(order)
    for label, q in zip((str(i) for i in range(len(divisor))), normalized):
        tags[index[q]] = tags[index[q]] + (label,)
    return MetricTree(
        points=tuple(order),
        parent=tuple(parent),
        lengths=tuple(lengths),
        tags=tuple(tags),
        root=root,
    )


small_radii = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(Gamma)


@st.composite
def tadic_elements(draw):
    # small Laurent polynomials in t, so valuations from -2 upward occur
    num = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
    return RatFunc(num) / RatFunc.t() ** draw(st.integers(0, 2))


@st.composite
def field_points(draw, field, elements):
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return infinity_point(field)
    c = field.coerce(draw(elements))
    if kind == 1:
        return simple_point(field, c)
    if kind == 3 and c == field.zero:
        c = field.one
    return PLinePoint(STD if kind == 2 else INV, c, draw(small_radii))


@st.composite
def divisors_with_repeats(draw, field, elements):
    D = draw(st.lists(field_points(field, elements), min_size=1, max_size=5))
    return D + draw(st.lists(st.sampled_from(D), max_size=2))


@settings(max_examples=60, deadline=None)
@given(divisors_with_repeats(Q5, centers))
def test_skeleton_matches_closure_oracle_q5(D):
    assert skeleton(Q5, D) == skeleton_by_closure(Q5, D)


@settings(max_examples=40, deadline=None)
@given(divisors_with_repeats(QT, tadic_elements()))
def test_skeleton_matches_closure_oracle_qt(D):
    assert skeleton(QT, D) == skeleton_by_closure(QT, D)


def test_tadic_smoke():
    t = RatFunc.t()
    g = gauss_point(QT)
    a = simple_point(QT, t)
    b = simple_point(QT, t + t * t)
    assert join(QT, a, b) == PLinePoint(STD, QT.truncate(t, 2), Gamma(2))
    assert metric_d(QT, a, b) == Gamma(2)
    assert retract(QT, simple_point(QT, 1 + t), [a, infinity_point(QT)]) == g
    assert gauss_val(QT, [t, QT.one], PLinePoint(STD, QT.zero, Gamma(2))) == Gamma(1)


# join, depth and skeleton as they were when every operation normalized its
# inputs first and skeleton looked up each vertex's parent by a second pass
# of joins against the divisor; kept as oracles for the x-ball reads and the
# one-pass parents


def depth_normalizing(field, p):
    q = normalize_point(field, p)
    if q.radius.is_inf:
        return INF
    if q.chart == INV:
        return q.radius
    return q.radius if q.radius >= 0 else -q.radius


def wedge(field, a, b):
    """The smallest x-ball (center, radius) containing both; None when one
    of them is infinity."""
    if a == _AT_INFINITY or b == _AT_INFINITY:
        return None
    (c1, r1), (c2, r2) = a[:2], b[:2]
    return (c1, min(r1, r2, field.val(c1 - c2), key=Gamma._key))


def join_normalizing(field, x, y):
    px = normalize_point(field, x)
    py = normalize_point(field, y)
    if px == py:
        return px
    xa = _as_xball(field, px)
    xb = _as_xball(field, py)
    xg = (field.zero, Gamma(0))
    wedges = [wedge(field, xa, xb), wedge(field, xa, xg), wedge(field, xb, xg)]
    balls = [w for w in wedges if w is not None]
    c, r = max(balls, key=lambda w: w[1]._key())
    return _from_xball(field, (c, r, field.val(c)))


def skeleton_by_ancestor_joins(field, divisor):
    labels = [str(i) for i in range(len(divisor))]
    normalized = [normalize_point(field, d) for d in divisor]
    points = set(normalized)
    gauss = gauss_point(field)
    vertices = points | {gauss} | {join_normalizing(field, u, v) for u, v in combinations(points, 2)}
    order = sorted(vertices, key=lambda q: _point_sort_key(field, q, depth(field, q)))
    index = {q: i for i, q in enumerate(order)}
    root = index[gauss]
    parent = [None] * len(order)
    lengths = [None] * len(order)
    for i, v in enumerate(order):
        if i == root:
            continue
        ancestors = ({gauss} | {join_normalizing(field, v, d) for d in points}) - {v}
        best = max(ancestors, key=lambda u: depth_normalizing(field, u)._key())
        parent[i] = index[best]
        lengths[i] = depth_normalizing(field, v) - depth_normalizing(field, best)
    tags = [()] * len(order)
    for label, q in zip(labels, normalized):
        i = index[q]
        tags[i] = tags[i] + (label,)
    return MetricTree(
        points=tuple(order),
        parent=tuple(parent),
        lengths=tuple(lengths),
        tags=tuple(tags),
        root=root,
    )


@st.composite
def tadic_series(draw):
    # Laurent polynomials over 1 + a t, so most centers have no finite expansion
    den = RatFunc([1, draw(st.sampled_from([0, 1, -2]))]) * RatFunc.t() ** draw(st.integers(0, 2))
    return RatFunc(draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))) / den


@st.composite
def raw_points(draw, field, elements):
    """Raw triples in both charts: untruncated centers, negative radii, inv
    balls around y = 0 (center 0 or of valuation above the radius), simple
    points on either side of the unit circle, and infinity as (inv, 0, inf)."""
    chart = draw(st.sampled_from([STD, INV]))
    c = field.coerce(draw(st.one_of(st.just(0), elements, elements.map(lambda e: e * 25))))
    return PLinePoint(chart, c, draw(st.one_of(small_radii, st.just(INF))))


@st.composite
def raw_divisors(draw, field, elements):
    # repeats both as the same triple and as its normal form
    D = draw(st.lists(raw_points(field, elements), min_size=1, max_size=5))
    again = draw(st.lists(st.sampled_from(D), max_size=2))
    return D + again + [normalize_point(field, d) for d in again]


def assert_tree_operations_match_oracles(field, x, y):
    assert depth(field, x) == depth_normalizing(field, x)
    assert join(field, x, y) == join_normalizing(field, x, y)
    assert join(field, x, x) == join_normalizing(field, x, x)
    assert join(field, x, normalize_point(field, x)) == normalize_point(field, x)
    if x.radius.is_inf and y.radius.is_inf:
        assert metric_d(field, x, y) == metric_d_by_charts(field, x, y)


@settings(max_examples=300, deadline=None)
@given(raw_points(Q5, centers), raw_points(Q5, centers))
def test_tree_operations_match_normalizing_oracles_q5(x, y):
    assert_tree_operations_match_oracles(Q5, x, y)


@settings(max_examples=200, deadline=None)
@given(raw_points(QT, tadic_series()), raw_points(QT, tadic_series()))
def test_tree_operations_match_normalizing_oracles_qt(x, y):
    assert_tree_operations_match_oracles(QT, x, y)


@settings(max_examples=80, deadline=None)
@given(raw_divisors(Q5, centers))
def test_skeleton_matches_ancestor_join_oracle_q5(D):
    assert skeleton(Q5, D) == skeleton_by_ancestor_joins(Q5, D)


@settings(max_examples=60, deadline=None)
@given(raw_divisors(QT, tadic_series()))
def test_skeleton_matches_ancestor_join_oracle_qt(D):
    assert skeleton(QT, D) == skeleton_by_ancestor_joins(QT, D)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(pline, name)
    monkeypatch.setattr(pline, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_skeleton_joins_each_pair_once(monkeypatch):
    values = [0, 1, 2, 5, 7, 25, Fraction(1, 5), Fraction(3, 25), 126]
    D = [simple_point(Q5, v) for v in values] + [INFTY]
    calls = _count_calls(monkeypatch, "_xjoin")
    joins = _count_calls(monkeypatch, "join")
    tree = skeleton(Q5, D + D[:3])
    # one public join, and its one _xjoin, per vertex that only a join names
    assert len(joins) == sum(1 for i in range(tree.n) if not tree.tags[i] and i != tree.root)
    assert len(calls) - len(joins) == 10 * 9 // 2
    assert tree == skeleton_by_ancestor_joins(Q5, D + D[:3])


def test_tree_operations_do_not_normalize(monkeypatch):
    pts = [
        pt(STD, Fraction(1, 3), 2), pt(INV, 25, 1), pt(INV, 0, 3), pt(STD, 7, -2),
        pt(STD, Fraction(1, 5), INF), pt(INV, 0, INF), GAUSS,
    ]
    simple = [pt(STD, 6, INF), pt(INV, 5, INF), pt(STD, Fraction(2, 25), INF), INFTY]
    calls = _count_calls(monkeypatch, "normalize_point")
    for x in pts:
        depth(Q5, x)
        for y in pts:
            join(Q5, x, y)
    for x in simple:
        for y in simple:
            metric_d(Q5, x, y)
    assert calls == []


# rho and skeleton_contains as they were before the queries read x-balls:
# rho took the depth of a normalized join per divisor point, and membership
# scanned every edge with two normalizing joins; kept as oracles


def rho_by_joins(field, a, divisor):
    return max((depth_normalizing(field, join_normalizing(field, a, d)) for d in divisor), key=Gamma._key)


def skeleton_contains_by_edges(field, tree, p):
    q = normalize_point(field, p)
    if q in tree.points:
        return True
    for i, v in enumerate(tree.points):
        u_idx = tree.parent[i]
        if u_idx is None:
            continue
        u = tree.points[u_idx]
        if join_normalizing(field, u, q) == u and join_normalizing(field, q, v) == q:
            return True
    return False


def queries_around_edges(field, tree):
    """For each edge (u, v): points on it (its ends, an inner point, points
    down an infinite stretch), above u toward the root, and balls just below
    v, around v's center and around centers one digit away."""
    out = []
    for u_idx, i, length in tree.edges():
        u, v = tree.points[u_idx], tree.points[i]
        top, bottom = depth(field, u), depth(field, v)
        out += [u, v, psi(field, top + 1 if length.is_inf else top + length.finite / 2, v)]
        if top > 0:
            out.append(psi(field, top - Fraction(1, 2), v))
        if not v.radius.is_inf:
            step = field.uniformizer_pow(math.ceil(v.radius.finite))
            for s in (0, 1, 2):
                out.append(PLinePoint(v.chart, field.coerce(v.center) + step * s, v.radius + 1))
        out.append(PLinePoint(v.chart, v.center, v.radius if v.radius.is_inf else v.radius + 3))
    return out


def assert_queries_match_oracles(field, D, extra):
    tree = skeleton(field, D)
    for q in queries_around_edges(field, tree) + list(extra):
        assert skeleton_contains(field, tree, q) == skeleton_contains_by_edges(field, tree, q), q
        assert rho(field, q, D) == rho_by_joins(field, q, D), q
        assert skeleton_contains(field, tree, retract(field, q, D))


@settings(max_examples=60, deadline=None)
@given(raw_divisors(Q5, centers), st.lists(raw_points(Q5, centers), max_size=4))
def test_queries_match_join_oracles_q5(D, extra):
    assert_queries_match_oracles(Q5, D, extra)


@settings(max_examples=40, deadline=None)
@given(raw_divisors(QT, tadic_series()), st.lists(raw_points(QT, tadic_series()), max_size=3))
def test_queries_match_join_oracles_qt(D, extra):
    assert_queries_match_oracles(QT, D, extra)


def test_skeleton_contains_single_vertex_tree():
    tree = skeleton(Q5, [GAUSS, pt(INV, 1, 0)])
    assert tree.n == 1
    assert skeleton_contains(Q5, tree, GAUSS)
    for q in (ball(0, 1), ball(0, -1), INFTY, simple_point(Q5, 3)):
        assert not skeleton_contains(Q5, tree, q)
        assert not skeleton_contains_by_edges(Q5, tree, q)


def test_skeleton_contains_stops_at_the_root_vertex():
    # a hand-built tree rooted below the Gauss point: the path from its leaf
    # continues above the root, but the tree's edges do not
    zero, twentyfive = simple_point(Q5, 0), simple_point(Q5, 25)
    tree = MetricTree(
        points=(ball(0, 1), ball(0, 2), zero, twentyfive),
        parent=(None, 0, 1, 1),
        lengths=(None, Gamma(1), INF, INF),
        tags=((), (), (), ()),
        root=0,
    )
    tree.validate()
    queries = [ball(0, Fraction(r, 2)) for r in (0, 1, 2, 3, 4, 10)]
    for q in queries + [ball(25, 3), zero, ball(5, 2), INFTY]:
        assert skeleton_contains(Q5, tree, q) == skeleton_contains_by_edges(Q5, tree, q), q
    assert not skeleton_contains(Q5, tree, GAUSS)
    assert skeleton_contains(Q5, tree, ball(0, 1))


def count_divisor():
    values = [0, 1, 2, 5, 7, 25, Fraction(1, 5), Fraction(3, 25), 126]
    D = [simple_point(Q5, v) for v in values] + [INFTY, ball(3, 2), pt(INV, 5, 1)]
    # repeats as the same triple and as another description of one ball
    return D + D[:3] + [pt(STD, 28, 2), pt(STD, Fraction(1, 5), 1)]


def test_skeleton_normalizes_once_per_vertex(monkeypatch):
    D = count_divisor()
    calls = _count_calls(monkeypatch, "_from_xball")
    tree = skeleton(Q5, D)
    assert len(calls) == tree.n
    assert tree == skeleton_by_ancestor_joins(Q5, D)


def test_skeleton_contains_takes_at_most_one_join_per_leaf(monkeypatch):
    D = count_divisor()
    tree = skeleton(Q5, D)
    leaves = sum(1 for i in range(tree.n) if not tree.children(i))
    queries = queries_around_edges(Q5, tree) + [simple_point(Q5, v) for v in (3, 11, Fraction(1, 7))]
    calls = _count_calls(monkeypatch, "_xjoin")
    for q in queries:
        before = len(calls)
        skeleton_contains(Q5, tree, q)
        assert len(calls) - before <= leaves + 1
