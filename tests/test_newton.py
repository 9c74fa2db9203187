import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from berkline import newton
from berkline.errors import PreconditionError
from berkline.fields import PAdicField, RatFunc, TAdicField
from berkline.gamma import INF, Gamma, MinAffine, lower_hull
from berkline.newton import (
    NewtonPolygon,
    RootProfile,
    _bivariate,
    _residue_poly_is_square,
    branch_events,
    coeff_val_path,
    newton_polygon,
    quadratic_residual_square,
    root_valuations_along_path,
)
from berkline.pline import PLinePoint, STD, gauss_val
from berkline.polys import DEGREE_CAP, poly_mul, poly_neg, poly_sub, taylor_shift, trim
from test_pline import gauss_val_by_shift, tadic_elements

Q3 = PAdicField(3)
Q5 = PAdicField(5)
QT = TAdicField()


def F(*nums):
    return [Fraction(n) for n in nums]


def aff(slope, offset=0):
    return MinAffine([(Fraction(slope), Fraction(offset))])


def test_newton_polygon_examples():
    assert newton_polygon([Gamma(1), INF, Gamma(0)]).segments == ((Fraction(1, 2), 2),)
    assert newton_polygon([Gamma(3), Gamma(0)]).segments == ((Fraction(3), 1),)
    assert newton_polygon([Gamma(2), Gamma(0), Gamma(1)]).segments == (
        (Fraction(-1), 1),
        (Fraction(2), 1),
    )
    assert newton_polygon([INF, INF, INF, Gamma(0)]).segments == ()
    with pytest.raises(PreconditionError):
        newton_polygon([INF, INF])


coeff_lists = st.lists(
    st.fractions(min_value=-40, max_value=40, max_denominator=25),
    min_size=1,
    max_size=6,
)


@given(coeff_lists)
def test_newton_polygon_mass(coeffs):
    vals = [Q5.val(c) for c in coeffs]
    finite = [i for i, v in enumerate(vals) if not v.is_inf]
    if not finite:
        return
    poly = newton_polygon(vals)
    assert sum(m for _, m in poly.segments) == max(finite) - min(finite)
    slopes = [s for s, _ in poly.segments]
    assert slopes == sorted(slopes)
    assert len(set(slopes)) == len(slopes)


@given(coeff_lists, coeff_lists)
def test_newton_polygon_product_rule(f, g):
    f, g = trim(f), trim(g)
    if not f or not g:
        return
    left = newton_polygon([Q5.val(c) for c in f]).segments
    right = newton_polygon([Q5.val(c) for c in g]).segments
    prod = newton_polygon([Q5.val(c) for c in poly_mul(f, g)]).segments
    combined = {}
    for s, m in left + right:
        combined[s] = combined.get(s, 0) + m
    assert dict(prod) == combined


def test_coeff_val_path_examples():
    assert coeff_val_path(Q5, F(0, -1, 1), 0).terms == ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0)))
    assert coeff_val_path(Q5, F(1), 0).terms == ((Fraction(0), Fraction(0)),)
    assert coeff_val_path(Q5, F(-5, 1), 0).terms == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert coeff_val_path(Q5, [], 0).is_infinite
    assert coeff_val_path(Q5, F(0, 0), 3).is_infinite


@given(
    st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=1, max_size=5),
    st.fractions(min_value=-20, max_value=20, max_denominator=10),
    st.lists(tadic_elements(), min_size=1, max_size=4),
    tadic_elements(),
    st.fractions(min_value=-7, max_value=7, max_denominator=4),
)
def test_coeff_val_path_matches_gauss_val(q5_coeffs, q5_c, qt_coeffs, qt_c, t):
    for field, coeffs, c in ((Q5, q5_coeffs, q5_c), (QT, qt_coeffs, qt_c)):
        fn = coeff_val_path(field, coeffs, c)
        ball = PLinePoint(STD, field.coerce(c), Gamma(t))
        assert fn.eval(t) == gauss_val_by_shift(field, coeffs, ball) == gauss_val(field, coeffs, ball)
        simple = PLinePoint(STD, field.coerce(c), INF)
        assert fn.eval(INF) == gauss_val_by_shift(field, coeffs, simple) == gauss_val(field, coeffs, simple)


def profile_of(field, rows, c):
    return root_valuations_along_path(field, rows, c)


def test_profile_single_piece():
    prof = profile_of(Q5, [F(0, 1, -1), [], F(1)], 0)  # y^2 - x(x-1)
    assert prof.pieces == ((Gamma(0), INF, ((aff(Fraction(1, 2)), 2),)),)
    assert branch_events(prof) == []


def test_profile_linear():
    prof = profile_of(Q5, [F(0, -1), F(1)], 0)  # y - x
    assert prof.pieces == ((Gamma(0), INF, ((aff(1), 1),)),)


def test_profile_branching_example():
    prof = profile_of(Q5, [F(0, 5, -1), [], F(1)], 0)  # y^2 - x(x-5)
    assert prof.pieces == (
        (Gamma(0), Gamma(1), ((aff(1), 2),)),
        (Gamma(1), INF, ((aff(Fraction(1, 2), Fraction(1, 2)), 2),)),
    )
    assert branch_events(prof) == [Gamma(1)]


def test_profile_pure_power():
    prof = profile_of(Q5, [[], [], [], F(1)], 0)  # y^3
    assert prof.pieces == ((Gamma(0), INF, ((MinAffine(), 3),)),)


def test_profile_escaping_root():
    # x*y^2 + y + x^2: one root valuation heads to -infinity
    prof = profile_of(Q5, [F(0, 0, 1), F(1), F(0, 1)], 0)
    assert prof.pieces == ((Gamma(0), INF, ((aff(-1), 1), (aff(2), 1))),)


def test_profile_degenerate():
    with pytest.raises(PreconditionError):
        profile_of(Q5, [F(1, 2)], 0)
    with pytest.raises(PreconditionError):
        profile_of(Q5, [], 0)


def test_profile_values_and_continuity():
    prof = profile_of(Q5, [F(0, 5, -1), [], F(1)], 0)
    assert prof.values_at(0) == ((Gamma(0), 2),)
    assert prof.values_at(Fraction(1, 2)) == ((Gamma(Fraction(1, 2)), 2),)
    assert prof.values_at(3) == ((Gamma(2), 2),)
    with pytest.raises(PreconditionError):
        prof.values_at(-1)


def bivariate_from_roots(field, root_polys):
    rows = [[field.one]]
    for g in root_polys:
        g = [field.coerce(a) for a in g]
        nxt = [poly_sub([], poly_mul(g, rows[0]))]
        for j in range(1, len(rows) + 1):
            above = rows[j - 1]
            cur = rows[j] if j < len(rows) else []
            nxt.append(poly_sub(above, poly_mul(g, cur)))
        rows = nxt
    return rows


small_polys = st.lists(
    st.fractions(min_value=-15, max_value=15, max_denominator=6),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_polys, min_size=1, max_size=4),
    st.fractions(min_value=-10, max_value=10, max_denominator=4),
    st.fractions(min_value=0, max_value=6, max_denominator=5),
)
def test_profile_factor_oracle(gs, c, t):
    rows = bivariate_from_roots(Q5, gs)
    prof = profile_of(Q5, rows, c)
    ball = PLinePoint(STD, Fraction(c), Gamma(t))
    expected = sorted(
        (gauss_val(Q5, g, ball)._key() for g in gs),
    )
    got = []
    for v, mult in prof.values_at(t):
        got.extend([v._key()] * mult)
    assert sorted(got) == expected
    events = branch_events(prof)
    assert all(0 < e and not e.is_inf for e in events)
    # boundary continuity: adjacent pieces agree where they meet
    def flat(roots, u):
        out = []
        for fn, m in roots:
            out.extend([fn.eval(u)._key()] * m)
        return sorted(out)

    for (lo1, hi1, r1), (lo2, hi2, r2) in zip(prof.pieces, prof.pieces[1:]):
        assert hi1 == lo2
        assert flat(r1, hi1) == flat(r2, lo2)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3), st.lists(small_polys, min_size=1, max_size=3))
def test_profile_mass_conservation(gs, hs):
    rows = bivariate_from_roots(Q5, gs + hs)
    prof = profile_of(Q5, rows, 0)
    for _, _, roots in prof.pieces:
        assert sum(m for _, m in roots) == len(gs) + len(hs)


def profile_by_triple_scan(field, F, center) -> RootProfile:
    """root_valuations_along_path before the sweep, kept as an oracle: cut
    each cell between row breakpoints at every zero of a cross product of
    three rows, build a hull at the midpoint of every refined cell, then
    merge neighbouring pieces with equal roots."""
    rows = _bivariate(field, F)
    m = len(rows) - 1
    if m < 1:
        raise PreconditionError("F must have positive y-degree")
    ord0 = 0
    while not rows[ord0]:
        ord0 += 1
    c = field.coerce(center)
    paths = {}
    for j in range(ord0, m + 1):
        fn = coeff_val_path(field, rows[j], c)
        if not fn.is_infinite:
            paths[j] = fn

    def cells(cuts):
        bounds = [Fraction(0)] + [Fraction(x) for x in cuts] + [None]
        return list(zip(bounds, bounds[1:]))

    def midpoint(lo, hi):
        return lo + 1 if hi is None else (lo + hi) / 2

    def active_term(fn, t):
        return min(fn.terms, key=lambda term: term[0] * t + term[1])

    cuts = set()
    for fn in paths.values():
        cuts.update(b for b in fn.breakpoints() if b > 0)
    for lo, hi in cells(sorted(cuts)):
        mid = midpoint(lo, hi)
        active = {j: active_term(fn, mid) for j, fn in paths.items()}
        for i, j, k in combinations(sorted(active), 3):
            si, oi = active[i]
            sj, oj = active[j]
            sk, ok = active[k]
            a = (sk - sj) * (j - i) - (sj - si) * (k - j)
            b = (ok - oj) * (j - i) - (oj - oi) * (k - j)
            if a != 0:
                t = -b / a
                if lo < t < (hi if hi is not None else t + 1):
                    cuts.add(t)

    pieces = []
    for lo, hi in cells(sorted(cuts)):
        mid = midpoint(lo, hi)
        active = {j: active_term(fn, mid) for j, fn in paths.items()}
        pts = [(Fraction(j), s * mid + o) for j, (s, o) in sorted(active.items())]
        hull = lower_hull(pts)
        roots = []
        for (i1, _), (i2, _) in zip(hull, hull[1:]):
            s1, o1 = active[int(i1)]
            s2, o2 = active[int(i2)]
            span = i2 - i1
            roots.append((MinAffine([((s1 - s2) / span, (o1 - o2) / span)]), int(span)))
        roots.reverse()
        if ord0:
            roots.append((MinAffine(), ord0))
        pieces.append((Gamma(lo), INF if hi is None else Gamma(hi), tuple(roots)))

    merged = [pieces[0]]
    for lo, hi, roots in pieces[1:]:
        plo, _, proots = merged[-1]
        if roots == proots:
            merged[-1] = (plo, hi, roots)
        else:
            merged.append((lo, hi, roots))
    return RootProfile(tuple(merged))


def assert_sweep_matches_triple_scan(field, rows, center):
    try:
        want = profile_by_triple_scan(field, rows, center)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            root_valuations_along_path(field, rows, center)
        return
    assert root_valuations_along_path(field, rows, center).pieces == want.pieces


@st.composite
def sparse_covers(draw):
    """A field and a table of rows over it: leading zero rows (a y^k factor),
    empty rows in between, and coefficients of assorted valuation, so that
    roots branch, sit at y = 0 and escape as t grows."""
    field = draw(st.sampled_from((Q3, Q5, QT)))

    def coeff():
        unit = draw(st.integers(min_value=-4, max_value=4))
        return field.coerce(unit) * field.uniformizer_pow(draw(st.integers(min_value=-1, max_value=3)))

    rows = [[] for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2))))]
    for _ in range(draw(st.integers(min_value=2, max_value=7))):
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            rows.append([])
        else:
            rows.append([coeff() for _ in range(draw(st.integers(min_value=1, max_value=4)))])
    center = field.coerce(draw(st.fractions(min_value=-6, max_value=6, max_denominator=4)))
    return field, rows, center


@settings(max_examples=300, deadline=None)
@given(sparse_covers())
def test_sweep_matches_triple_scan(cover):
    assert_sweep_matches_triple_scan(*cover)


def test_sweep_matches_triple_scan_on_factored_covers():
    # covers prod (y - g_i) with roots of valuations spread over 0..3, a y^2
    # factor in half of them, over each of Q3, Q5 and Q(t)
    rng = random.Random(1818)
    for k in range(60):
        field = (Q3, Q5, QT)[k % 3]
        pi = field.uniformizer_pow(1)
        gs = []
        for _ in range(rng.randint(2, 6)):
            g = [field.coerce(rng.randint(-5, 5)) * pi ** rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
            gs.append(g)
        rows = bivariate_from_roots(field, gs)
        if k % 2:
            rows = [[], []] + rows
        assert_sweep_matches_triple_scan(field, rows, field.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 2))))


def dense_table(rng, degree):
    return [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(3)] for _ in range(degree + 1)]


def test_sweep_matches_triple_scan_on_dense_tables():
    rng = random.Random(2024)
    for degree in (4, 8, 12, 16, 24, 32):
        for field in (Q3, Q5):
            assert_sweep_matches_triple_scan(field, dense_table(rng, degree), Fraction(1, 3))


def test_sweep_hull_count(monkeypatch):
    # one hull at t = 0 and one per event; an event is a row breakpoint or
    # a change of hull, and a change of hull starts a piece
    rng = random.Random(16)
    for _ in range(4):
        table = dense_table(rng, 16)
        builds = []

        def counting_hull(pts):
            builds.append(len(pts))
            return lower_hull(pts)

        monkeypatch.setattr(newton, "lower_hull", counting_hull)
        prof = root_valuations_along_path(Q5, table, Fraction(1, 3))
        monkeypatch.undo()
        breaks = sum(
            sum(1 for b in coeff_val_path(Q5, row, Fraction(1, 3)).breakpoints() if b > 0) for row in table
        )
        assert 1 <= len(builds) <= breaks + len(prof.pieces) + 1


def test_quadratic_residual_square():
    split = [F(0, 5, -1), [], F(1)]  # y^2 - x(x-5)
    assert quadratic_residual_square(Q5, split, 0, 0) is True
    assert quadratic_residual_square(Q5, split, 0, 2) is False
    inert = [F(0, 1, -1), [], F(1)]  # y^2 - x(x-1)
    assert quadratic_residual_square(Q5, inert, 0, 0) is False
    assert quadratic_residual_square(Q5, [F(-4), [], F(1)], 0, 0) is True
    assert quadratic_residual_square(Q5, [F(-2), [], F(1)], 0, 0) is False
    assert quadratic_residual_square(Q5, [[], [], F(1)], 0, 0) is False
    with pytest.raises(PreconditionError):
        quadratic_residual_square(PAdicField(2), [F(-1), [], F(1)], 0, 0)
    with pytest.raises(PreconditionError):
        quadratic_residual_square(Q5, split, 0, Fraction(1, 2))
    with pytest.raises(PreconditionError):
        quadratic_residual_square(Q5, [F(1), F(1)], 0, 0)


def test_quadratic_residual_square_large_p():
    # the residual of y^2 - a at t = 0 is the constant 4a; 3 is not a
    # square modulo the prime 2^61 - 1, which is 3 mod 4 and 1 mod 3
    big = PAdicField(2**61 - 1)
    assert quadratic_residual_square(big, [F(-3), [], F(1)], 0, 0) is False
    assert quadratic_residual_square(big, [F(-4), [], F(1)], 0, 0) is True


def quadratic_residual_square_by_gauss_val(field, F, center, t) -> bool:
    """quadratic_residual_square before it took one Taylor shift, kept as an
    oracle: the discriminant's valuation m from gauss_val, which shifts it
    once, then a second shift for the residual polynomial."""
    a0, a1, a2 = _bivariate(field, F)
    disc = trim(poly_sub(poly_mul(a1, a1), [4 * x for x in poly_mul(a0, a2)]))
    if not disc:
        return False
    c = field.coerce(center)
    t = Gamma(t)
    m = gauss_val(field, disc, PLinePoint(STD, c, t))
    if m.finite.numerator % 2:
        return False
    residual = []
    for i, b in enumerate(taylor_shift(disc, c)):
        if field.val(b) + t.scale(i) == m:
            unit = b * field.uniformizer_pow(int((t.scale(i) - m).finite))
            residual.append(Fraction(field.residue(unit)))
        else:
            residual.append(Fraction(0))
    return _residue_poly_is_square(field, trim(residual))


def test_quadratic_residual_square_matches_gauss_val_oracle():
    # random quadratics in y, half of them y^2 - u*g(x)^2 so that squares
    # occur, at random centers and integral radii, over Q5 and Q(t)
    rng = random.Random(2205)

    def q5():
        return Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 5, 25))) * 5 ** rng.randint(0, 2)

    def qt():
        num = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        return RatFunc(num) / RatFunc.t() ** rng.randint(0, 1)

    seen = {True: 0, False: 0}
    for field, elem in ((Q5, q5), (QT, qt)):
        for k in range(150):
            poly = [field.coerce(elem()) for _ in range(rng.randint(1, 3))]
            if k % 2:
                F = [poly_neg(poly_mul([field.coerce(elem())], poly_mul(poly, poly))), [], [field.one]]
            else:
                F = [[field.coerce(elem()) for _ in range(rng.randint(0, 3))] for _ in range(3)]
                if not any(F[2]):
                    F[2] = [field.one]
            center, t = field.coerce(elem()), rng.randint(-2, 4)
            want = quadratic_residual_square_by_gauss_val(field, F, center, t)
            assert quadratic_residual_square(field, F, center, t) is want, (field, F, center, t)
            seen[want] += 1
    assert min(seen.values()) >= 40, seen


def oracle_residue_poly_is_square(field, h: list) -> bool:
    """The square test before Euler's criterion, kept as an oracle: a
    square root of the leading coefficient by search, then the full root."""
    p = getattr(field, "p", 0)
    if not h:
        return False
    if len(h) % 2 == 0:
        return False
    half = (len(h) - 1) // 2
    lead = h[-1]
    top = _residue_sqrt(p, lead)
    if top is None:
        return False
    s = [Fraction(0)] * half + [top]
    for i in range(half - 1, -1, -1):
        acc = Fraction(0)
        for a in range(i + 1, half):
            b = half + i - a
            if b > half:
                continue
            acc += s[a] * s[b]
        num = h[half + i] - acc
        s[i] = _residue_div(p, num, 2 * top)
    square = poly_mul(s, s)
    diff = poly_sub(square, h)
    if p:
        return all(x.numerator % p == 0 for x in diff)
    return not trim(diff)


def _residue_sqrt(p: int, a: Fraction):
    """Square root in F_p (p odd) or Q; None when a is not a nonzero square."""
    if p:
        r = a.numerator * pow(a.denominator, -1, p) % p
        if r == 0:
            return None
        for s in range(1, p):
            if s * s % p == r:
                return Fraction(s)
        return None
    if a <= 0:
        return None
    n, d = a.numerator, a.denominator
    rn, rd = _isqrt_exact(n), _isqrt_exact(d)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def _isqrt_exact(n: int):
    from math import isqrt

    r = isqrt(n)
    return r if r * r == n else None


def _residue_div(p: int, a: Fraction, b: Fraction) -> Fraction:
    if p:
        bn = b.numerator * pow(b.denominator, -1, p) % p
        an = a.numerator * pow(a.denominator, -1, p) % p
        return Fraction(an * pow(bn, -1, p) % p)
    return a / b


def test_residue_square_matches_search_oracle():
    # residual polynomials over F_p as integers in [0, p) with a nonzero
    # lead, over Q as small fractions; half of them c * g^2, mostly squares
    rng = random.Random(4242)
    fields = [PAdicField(p) for p in (3, 5, 7, 11, 13)] + [QT]
    seen = {True: 0, False: 0}
    for k in range(3000):
        field = fields[k % len(fields)]
        p = field.residue_char

        def entry():
            return Fraction(rng.randrange(p)) if p else Fraction(rng.randint(-6, 6), rng.randint(1, 3))

        if k % 2:
            g = [entry() for _ in range(rng.randint(1, 3))] + [Fraction(rng.randint(1, 4))]
            c = Fraction(rng.choice((1, 4, 9, 2, 3))) if p == 0 else Fraction(rng.randrange(1, p))
            h = [c * x for x in poly_mul(g, g)]
            if p:
                h = [Fraction(x.numerator % p) for x in h]
        else:
            h = [entry() for _ in range(rng.randint(0, 6))]
        h = trim(h)
        want = oracle_residue_poly_is_square(field, h)
        assert _residue_poly_is_square(field, h) is want, (p, h)
        seen[want] += 1
    assert min(seen.values()) >= 500, seen


def test_taylor_shift_degree_cap():
    assert len(taylor_shift([Fraction(1)] * (DEGREE_CAP + 1), 1)) == DEGREE_CAP + 1
    with pytest.raises(PreconditionError, match="exceeds cap"):
        taylor_shift([Fraction(1)] * (DEGREE_CAP + 2), 1)


def test_quadratic_residual_square_tadic():
    x = [QT.zero, QT.one]
    assert quadratic_residual_square(QT, [poly_neg(x), [], [QT.one]], 0, 0) is False
    sq = poly_mul([QT.one, QT.one], [QT.one, QT.one])  # (1+x)^2
    assert quadratic_residual_square(QT, [poly_neg(sq), [], [QT.one]], 0, 0) is True


def test_profile_tadic_smoke():
    prof = profile_of(QT, [[QT.zero, QT.one], [QT.one]], 0)  # y + x
    assert prof.pieces == ((Gamma(0), INF, ((aff(1), 1),)),)
