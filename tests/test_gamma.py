from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations
from numbers import Number

import pytest
from hypothesis import example, given, settings, strategies as st

from berkline.errors import PreconditionError
from berkline.fields import PAdicField, RatFunc, TAdicField
from berkline.gamma import INF, Gamma, GammaError, MinAffine, as_gamma, gmax, gmin, rational
from berkline.gflow import (
    build_complex,
    core_bounds,
    exit_time,
    flow,
    lipschitz_bound,
    locate_cell,
    xi_value,
)
from berkline.newton import (
    coeff_val_path,
    newton_polygon,
    quadratic_residual_square,
    root_valuations_along_path,
)
from berkline.pline import (
    STD,
    PLinePoint,
    depth,
    gauss_val,
    metric_d,
    normalize_point,
    psi,
    psi_divisor,
    retract,
    rho,
    simple_point,
    skeleton,
)
from berkline.polyhedra import (
    canonical_ray,
    cone_generators,
    double_description,
    integer_row,
    lp_max,
    nullspace,
    over_common_denominator,
    strict_feasible,
)
from berkline.trop import polydisk_gauss_val, tau_h, trop_normalize
from test_acceptance import _gflow_instances
from test_pline import centers, raw_divisors, raw_points, tadic_elements, tadic_series

rationals = st.fractions(max_denominator=40)
gammas = st.one_of(rationals.map(Gamma), st.just(INF))


def test_basic_arithmetic():
    assert Gamma(2) + Gamma(Fraction(1, 2)) == Gamma(Fraction(5, 2))
    assert Gamma(2) + INF == INF
    assert INF + INF == INF
    assert (Gamma(3) - Gamma(5)) == Gamma(-2)
    assert INF - Gamma(7) == INF


def test_forbidden_operations():
    with pytest.raises(GammaError):
        INF - INF
    with pytest.raises(GammaError):
        Gamma(1) - INF
    with pytest.raises(GammaError):
        INF.scale(0)
    with pytest.raises(GammaError):
        INF.scale(-2)
    with pytest.raises(GammaError):
        -INF
    with pytest.raises(GammaError):
        INF.finite


def test_order_and_parse():
    assert Gamma(3) < INF
    assert gmin([Gamma(3), INF, Gamma(-1)]) == Gamma(-1)
    assert gmax([Gamma(3), INF]) == INF
    assert str(Gamma(Fraction(-7, 3))) == "-7/3"
    assert str(INF) == "inf"


@given(gammas, gammas, gammas)
def test_min_is_a_lattice_operation(a, b, c):
    assert gmin([a, b]) == gmin([b, a])
    assert gmin([gmin([a, b]), c]) == gmin([a, gmin([b, c])])
    assert gmin([a, b]) <= a


@given(gammas, gammas)
def test_addition_monotone(a, b):
    assert a + b >= a or b < 0
    assert (a + b) == (b + a)


@given(st.one_of(st.integers(), rationals))
@example(1)
def test_hash_agrees_with_eq(q):
    assert Gamma(q) == q and hash(Gamma(q)) == hash(q)
    assert len({Gamma(q), q, Fraction(q)}) == 1


@given(st.one_of(st.integers(), st.fractions()))
def test_rational_accepts_exact_input(q):
    assert rational(q) == q
    assert rational(str(q)) == q


@pytest.mark.parametrize("bad", [0.5, True, "1/0", "x", None])
def test_rational_rejects_inexact_input(bad):
    with pytest.raises(PreconditionError):
        rational(bad)


# --- MinAffine ---------------------------------------------------------------

term_lists = st.lists(
    st.tuples(rationals, st.one_of(rationals, st.just(INF))),
    max_size=6,
)


def _raw_min(terms, t):
    out = INF
    for m, b in terms:
        b = b if isinstance(b, Gamma) else Gamma(b)
        if b.is_inf:
            continue
        cand = Gamma(b.finite + Fraction(m) * t)
        if cand < out:
            out = cand
    return out


@given(term_lists, rationals)
def test_canonical_form_preserves_values(terms, t):
    f = MinAffine(terms)
    assert f.eval(t) == _raw_min(terms, t)


@given(term_lists)
def test_breakpoints_sorted_and_separating(terms):
    f = MinAffine(terms)
    pts = f.breakpoints()
    assert pts == sorted(pts)
    assert len(set(pts)) == len(pts)

    def attaining(t):
        vals = [(b + m * t, m) for m, b in f.terms]
        best = min(v for v, _ in vals)
        return {m for v, m in vals if v == best}

    # between consecutive breakpoints exactly one term attains
    if f.terms:
        probes = []
        if pts:
            probes.append(pts[0] - 1)
            probes.extend(
                (x + y) / 2 for x, y in zip(pts, pts[1:])
            )
            probes.append(pts[-1] + 1)
        else:
            probes.append(Fraction(0))
        seen = [attaining(t) for t in probes]
        assert all(len(s) == 1 for s in seen)
        slopes = [next(iter(s)) for s in seen]
        assert slopes == sorted(slopes, reverse=True)
        assert len(set(slopes)) == len(slopes)


@given(term_lists)
def test_terms_are_the_strictly_lowest_lines(terms):
    lines = {}
    for m, b in terms:
        if not isinstance(b, Gamma) and (m not in lines or b < lines[m]):
            lines[m] = b
    crossings = sorted(
        {(b2 - b1) / (m1 - m2) for (m1, b1), (m2, b2) in combinations(lines.items(), 2)}
    )
    probes = [Fraction(0)]
    if crossings:
        probes = [crossings[0] - 1, crossings[-1] + 1]
        probes += [(x + y) / 2 for x, y in zip(crossings, crossings[1:])]
    lowest = set()
    for t in probes:
        vals = {m: b + m * t for m, b in lines.items()}
        low = min(vals.values(), default=None)
        winners = [m for m, v in vals.items() if v == low]
        if len(winners) == 1:
            lowest.add((winners[0], lines[winners[0]]))
    assert MinAffine(terms).terms == tuple(sorted(lowest))


def test_eval_at_infinity():
    f = MinAffine([(1, 3), (0, 10)])
    assert f.eval(INF) == Gamma(10)
    g = MinAffine([(2, 0), (1, 5)])
    assert g.eval(INF) == INF
    h = MinAffine([(-1, 0), (0, 3)])
    with pytest.raises(GammaError):
        h.eval(INF)
    assert MinAffine().eval(INF) == INF


def test_known_envelope():
    # the middle line 1 + t never attains against min(0, 2t)
    f = MinAffine([(0, 0), (2, 0), (1, 1)])
    assert f.terms == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)))
    assert f.breakpoints() == [Fraction(0)]


Q5 = PAdicField(5)
QT = TAdicField()
PROFILE = root_valuations_along_path(Q5, [[0, 5, -1], [], [1]], 0)
BALL = PLinePoint(STD, Fraction(1), Gamma(1))
PLANE = build_complex({
    "w": ["a", "h"],
    "h": "h",
    "functionals": [{"alpha": {"a": 1, "h": -1}, "c": 0}, {"alpha": {"a": 1}, "c": 0}],
    "xi": [{"alpha": {"h": 1}, "c": 0}],
})

# every API entry that reads an element of the value group from its caller
GAMMA_READERS = {
    "ball radius": lambda g: normalize_point(Q5, PLinePoint(STD, 0, g)),
    "gauss_val radius": lambda g: gauss_val(Q5, [1, 1], PLinePoint(STD, 0, g)),
    "psi": lambda g: psi(Q5, g, BALL),
    "psi_divisor": lambda g: psi_divisor(Q5, g, BALL, [simple_point(Q5, 0)]),
    "trop_normalize": lambda g: trop_normalize([g, 2]),
    "polydisk_gauss_val": lambda g: polydisk_gauss_val(Q5, {(1,): 1}, [g]),
    "PAdicField.truncate": lambda g: Q5.truncate(Fraction(1, 3), g),
    "TAdicField.truncate": lambda g: TAdicField().truncate(1, g),
    "piece_at": lambda g: PROFILE.piece_at(g),
    "values_at": lambda g: PROFILE.values_at(g),
    "newton_polygon": lambda g: newton_polygon([g, 0]),
    "quadratic_residual_square": lambda g: quadratic_residual_square(Q5, [[-1], [], [1]], 0, g),
    "flow": lambda g: flow(PLANE, g, (1, 1)),
}


def _outcome(fn, g):
    try:
        return fn(g)
    except PreconditionError as exc:
        return str(exc)


@pytest.mark.parametrize("value", [0.5, True, "x", None, "3/4"])
@pytest.mark.parametrize("reader", sorted(GAMMA_READERS))
def test_value_group_inputs(reader, value):
    fn = GAMMA_READERS[reader]
    if value == "3/4":
        # the literal reads as the rational it spells, as in a scene file
        assert as_gamma(value) == Gamma(Fraction(3, 4))
        assert _outcome(fn, value) == _outcome(fn, Fraction(3, 4))
    else:
        with pytest.raises(PreconditionError, match="expected an exact rational|bad rational literal"):
            fn(value)


# every API entry that reads an exact rational (not a value-group element)
# from its caller
RATIONAL_READERS = {
    "RatFunc numerator": lambda q: RatFunc((1, q)),
    "RatFunc denominator": lambda q: RatFunc((1,), (q, 1)),
    "MinAffine slope": lambda q: MinAffine([(q, 0)]),
    "Gamma.scale": lambda q: Gamma(2).scale(q),
    "lp_max objective": lambda q: lp_max((q,), [], [((-1,), -2)], 1),
    "lp_max row": lambda q: lp_max((1,), [((q,), 1)], [], 1),
    "lp_max rhs": lambda q: lp_max((1,), [], [((-1,), q)], 1),
    "strict_feasible": lambda q: strict_feasible([], [], [((1,), q), ((-1,), -1)], 1),
    "integer_row": lambda q: integer_row((q, 1)),
    "over_common_denominator": lambda q: over_common_denominator((q, 1)),
    "double_description": lambda q: double_description([(q, 1), (1, 1)], (), 2),
    "nullspace": lambda q: nullspace([(q, 1)], 2),
    "cone_generators": lambda q: cone_generators([], [(q, 1)], 2),
    "canonical_ray": lambda q: canonical_ray((0, q, 1)),
}


@pytest.mark.parametrize("value", [0.5, True, "x", None, "3/4"])
@pytest.mark.parametrize("reader", sorted(RATIONAL_READERS))
def test_rational_inputs(reader, value):
    fn = RATIONAL_READERS[reader]
    if value == "3/4":
        assert fn(value) == fn(Fraction(3, 4))
    else:
        with pytest.raises(PreconditionError, match="expected an exact rational|bad rational literal"):
            fn(value)


def test_field_elements_refuse_bools():
    # True is an int to isinstance, but no field element: both fields and
    # the rational reader refuse it, and so does every path through coerce
    for fn in (
        rational,
        PAdicField(5).coerce,
        TAdicField().coerce,
        PAdicField(5).val,
        lambda x: coeff_val_path(PAdicField(5), [x, 5], 0),
        lambda x: coeff_val_path(PAdicField(5), [1, 5], x),
        lambda x: root_valuations_along_path(PAdicField(5), [[x], [1]], 0),
    ):
        with pytest.raises(PreconditionError):
            fn(True)


def count_exact_numbers(answer) -> int:
    """The numbers inside an answer, through containers and the attributes
    of objects, each asserted to be a Gamma, int, Fraction or RatFunc with
    exact parts: no float leaves the API."""
    todo, seen, count = [answer], set(), 0
    while todo:
        x = todo.pop()
        if x is None or isinstance(x, (str, bool)):
            continue
        if isinstance(x, Gamma):
            assert x.is_inf or type(x.finite) is Fraction, x
        elif isinstance(x, RatFunc):
            assert all(type(v) is Fraction for v in x.num + x.den), x
        elif isinstance(x, Number):
            assert type(x) in (int, Fraction), (type(x), x)
        elif id(x) not in seen:
            seen.add(id(x))
            if isinstance(x, Mapping):
                todo += [*x.keys(), *x.values()]
            elif isinstance(x, (tuple, list, set, frozenset)):
                todo += x
            else:
                slots = [n for c in type(x).__mro__ for n in getattr(c, "__slots__", ())]
                assert slots or hasattr(x, "__dict__"), type(x)
                todo += [getattr(x, n) for n in slots if hasattr(x, n)]
                todo += vars(x).values() if hasattr(x, "__dict__") else ()
            continue
        count += 1
    return count


def assert_pline_answers_exact(field, D, x, coeffs, a, b):
    ball = PLinePoint(STD, x.center, Gamma(0) if x.radius.is_inf else x.radius)
    answers = (
        depth(field, x),
        rho(field, x, D),
        gauss_val(field, coeffs, ball),
        metric_d(field, simple_point(field, a), simple_point(field, b)),
        retract(field, x, D),
        skeleton(field, D),
    )
    assert count_exact_numbers(answers) >= len(answers)


@settings(max_examples=60, deadline=None)
@given(raw_divisors(Q5, centers), raw_points(Q5, centers), st.lists(centers, min_size=1, max_size=4),
       centers, centers)
def test_pline_answers_are_exact_q5(D, x, coeffs, a, b):
    assert_pline_answers_exact(Q5, D, x, coeffs, a, b)


@settings(max_examples=40, deadline=None)
@given(raw_divisors(QT, tadic_series()), raw_points(QT, tadic_series()),
       st.lists(tadic_elements(), min_size=1, max_size=4), tadic_series(), tadic_series())
def test_pline_answers_are_exact_qt(D, x, coeffs, a, b):
    assert_pline_answers_exact(QT, D, x, coeffs, a, b)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_profile_and_trop_answers_are_exact(data):
    field, elements = data.draw(st.sampled_from([(Q5, centers), (QT, tadic_elements())]))
    lower = data.draw(st.lists(st.lists(elements, max_size=3), min_size=1, max_size=4))
    profile = root_valuations_along_path(field, lower + [[1]], data.draw(elements))
    point = data.draw(raw_points(field, elements))
    # x_0 and e x_0 + x_1 never vanish together
    image = tau_h(field, [[1, 0], [data.draw(elements), 1]], point)
    assert count_exact_numbers((profile, image)) >= 2


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_flow_answers_are_exact(data):
    K = data.draw(st.sampled_from(_gflow_instances()))
    coords = st.fractions(min_value=0, max_value=8, max_denominator=2)
    x = tuple(data.draw(coords) for _ in range(K.n))
    t = data.draw(st.one_of(st.just(INF), coords.map(Gamma)))
    e = tuple(data.draw(st.integers(-2, 2)) for _ in range(K.n - 1)) + (1,)
    answers = (
        flow(K, t, x),
        core_bounds(K),
        exit_time(K, locate_cell(K, x), e, x),
        lipschitz_bound(K),
        xi_value(K, 0, x),
    )
    assert count_exact_numbers(answers) >= len(answers)


small_rationals = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_polyhedra_answers_are_exact(data):
    n = data.draw(st.integers(1, 3))
    row = st.tuples(*[small_rationals] * n)
    eqs = data.draw(st.lists(st.tuples(row, small_rationals), max_size=1))
    ges = data.draw(st.lists(st.tuples(row, small_rationals), max_size=4))
    E, G = [a for a, _ in eqs], [a for a, _ in ges]
    answers = (lp_max(data.draw(row), eqs, ges, n), nullspace(E + G, n), cone_generators(E, G, n))
    count_exact_numbers(answers)
