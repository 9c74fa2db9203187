import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berkline import gflow
from berkline.errors import InconsistencyError, PreconditionError
from berkline.gamma import Gamma, INF, rational
from berkline.gflow import (
    Cell,
    FlowResult,
    FlowStep,
    _cell_constraints,
    _finite_coords,
    _m_bound,
    build_complex,
    cell_dimension,
    cells,
    classify_D0,
    core_bounds,
    exit_time,
    final_image_membership,
    flow,
    lipschitz_bound,
    locate_cell,
    recession_barycenter,
    xi_value,
)
from berkline.polyhedra import OPTIMAL, UNBOUNDED, dot, lp_max, strict_feasible
from test_acceptance import _gflow_layout


def fr(x):
    return Fraction(x)


def plane():
    return build_complex(
        {
            "w": ["a", "h"],
            "h": "h",
            "functionals": [
                {"alpha": {"a": 1, "h": -1}, "c": 0},
                {"alpha": {"a": 1}, "c": 0},
                {"alpha": {"h": 1}, "c": 0},
            ],
            "xi": [{"alpha": {"h": 1}, "c": 0}],
            "region": [{"alpha": {"a": 1}, "c": 0}, {"alpha": {"h": 1}, "c": 0}],
        }
    )


def three():
    return build_complex(
        {
            "w": ["a", "b", "h"],
            "h": "h",
            "functionals": [
                {"alpha": {"a": 1}, "c": 0},
                {"alpha": {"b": 1}, "c": 0},
                {"alpha": {"h": 1}, "c": 0},
                {"alpha": {"a": 1, "h": -1}, "c": 0},
                {"alpha": {"b": 1, "h": -1}, "c": 0},
                {"alpha": {"a": 1, "b": -1}, "c": 0},
            ],
            "xi": [{"alpha": {"h": 1}, "c": 0}],
            "region": [
                {"alpha": {"a": 1}, "c": 0},
                {"alpha": {"b": 1}, "c": 0},
                {"alpha": {"h": 1}, "c": 0},
            ],
        }
    )


PLANE = plane()
THREE = three()
BOUNDS3 = core_bounds(THREE)
L3 = lipschitz_bound(THREE)


def test_build_validation():
    with pytest.raises(PreconditionError):
        build_complex({"w": [], "h": "h"})
    with pytest.raises(PreconditionError):
        build_complex({"w": ["a"], "h": "b"})
    with pytest.raises(PreconditionError):
        build_complex({"w": ["a", "a"], "h": "a"})
    with pytest.raises(PreconditionError):
        build_complex({"w": ["a"], "h": "a", "functionals": [{"alpha": {"z": 1}, "c": 0}]})


@pytest.mark.parametrize(
    "layout, message",
    [
        ({"w": ["a", "h"], "h": "h", "functionals": [{"alpha": {"z": 1}}]},
         "functionals[0].alpha.z: unknown coordinate"),
        ({"w": ["a", "h"], "h": "h", "xi": [{"alpha": ["1"]}]}, "xi[0].alpha: expected a list of 2"),
        ({"w": ["a", "h"], "h": "h", "regon": []}, "regon: unknown key"),
        ({"w": ["a", "h"], "h": "h", "symmetry": [{"a": "a"}]}, "symmetry[0]: expected a permutation"),
    ],
)
def test_build_errors_name_the_layout_path(layout, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        build_complex(layout)


def test_symmetry_closure():
    K = build_complex(
        {
            "w": ["a", "b", "h"],
            "h": "h",
            "functionals": [{"alpha": {"a": 1}, "c": 0}],
            "symmetry": [{"a": "b", "b": "a", "h": "h"}],
        }
    )
    alphas = sorted(f.alpha for f in K.functionals)
    assert alphas == [(fr(0), fr(1), fr(0)), (fr(1), fr(0), fr(0))]


def test_duplicate_functionals_collapse():
    K = build_complex(
        {
            "w": ["a", "h"],
            "h": "h",
            "functionals": [
                {"alpha": {"a": 1}, "c": 0},
                {"alpha": {"a": 2}, "c": 0},
                {"alpha": {"a": -1}, "c": 0},
            ],
        }
    )
    assert len(K.functionals) == 2  # x_a and -x_a stay distinct, 2x_a folds


def test_thirteen_cells():
    assert len(cells(PLANE)) == 13


def test_empty_functional_list_single_cell():
    K = build_complex({"w": ["a", "h"], "h": "h"})
    assert cells(K) == (Cell(()),)


def test_locate_cell():
    K = PLANE
    assert locate_cell(K, [3, 1]).pattern == (">", ">", ">")
    assert locate_cell(K, [0, 0]).pattern == ("=", "=", "=")
    assert locate_cell(K, [1, 1]).pattern == ("=", ">", ">")
    with pytest.raises(PreconditionError):
        locate_cell(K, [INF, 1])


def test_classify_D0():
    K = PLANE
    assert classify_D0(K, locate_cell(K, [3, 1])) is False
    assert classify_D0(K, locate_cell(K, [1, 1])) is True
    assert classify_D0(K, locate_cell(K, [1, 2])) is True
    assert classify_D0(K, locate_cell(K, [0, 0])) is True
    assert classify_D0(K, locate_cell(K, [-3, 2])) is True


def test_barycenter_examples():
    K = PLANE
    assert recession_barycenter(K, locate_cell(K, [3, 1])) == (fr(1), fr(0))
    assert recession_barycenter(K, locate_cell(K, [1, 1])) == (fr(0), fr(0))
    T = THREE
    cell = locate_cell(T, [2, 3, 0])
    assert classify_D0(T, cell) is False
    assert recession_barycenter(T, cell) == (Fraction(1, 4), Fraction(3, 4), fr(0))


def test_exit_time_example():
    K = PLANE
    cell = locate_cell(K, [3, 1])
    e = recession_barycenter(K, cell)
    assert exit_time(K, cell, e, [3, 1]) == Gamma(2)
    with pytest.raises(PreconditionError):
        exit_time(K, cell, e, [1, 5])
    with pytest.raises(PreconditionError):
        exit_time(K, cell, (fr(0), fr(0)), [3, 1])
    # a direction off the affine hull of an = cell leaves it at once:
    # (1, 1) - t * (1, 0) already lies in the cell ('<', '>', '>')
    edge = locate_cell(K, [1, 1])
    assert edge.pattern == ("=", ">", ">")
    assert locate_cell(K, [Fraction(1, 2), 1]).pattern == ("<", ">", ">")
    assert exit_time(K, edge, (fr(1), fr(0)), [1, 1]) == Gamma(0)
    assert exit_time(K, edge, (fr(1), fr(1)), [1, 1]) == Gamma(1)


def test_point_reads_the_coordinate_spec():
    K = PLANE
    want = (Gamma(3), Gamma(1))
    assert K.point([3, 1]) == want
    assert K.point((Fraction(3), "1")) == want
    assert K.point({"a": "3", "h": 1}) == want
    assert K.point(flow(K, Fraction(1, 2), [3, 1]).endpoint) == (Gamma(Fraction(5, 2)), Gamma(1))
    assert K.point(["inf", 1]) == (INF, Gamma(1))
    for x, message in [
        ({"a": 3, "h": 1, "z": 0}, "point.z: unknown coordinate"),
        ({"a": 3}, "point.h: expected a rational or inf"),
        ([3, "x"], "point[1]: expected a rational or inf"),
        ([3, True], "point[1]: expected a rational or inf"),
        ([3], "point: expected a list of 2 entries"),
        ("31", "point: expected a list of 2 entries"),
        (range(2), "point: expected a list of 2 entries"),
    ]:
        with pytest.raises(PreconditionError, match=re.escape(message)):
            K.point(x)


def test_flow_running_example():
    K = PLANE
    res = flow(K, INF, [3, 1])
    assert res.endpoint == (Gamma(1), Gamma(1))
    assert len(res.steps) == 1
    assert res.steps[0].duration == Gamma(2)
    assert res.steps[0].direction == (fr(1), fr(0))
    assert final_image_membership(K, res.endpoint) is True
    assert final_image_membership(K, [3, 1]) is False


def test_flow_fixes_stable_points():
    K = PLANE
    for x in ([1, 2], [0, 0], [1, 1]):
        res = flow(K, INF, x)
        assert res.steps == ()
        assert res.endpoint == K.point(x)


def test_flow_infinite_height_fixed():
    K = PLANE
    res = flow(K, INF, [7, INF])
    assert res.steps == () and res.endpoint == (Gamma(7), INF)
    assert final_image_membership(K, [7, INF]) is True


def test_flow_partial_time():
    K = PLANE
    res = flow(K, Fraction(1, 2), [3, 1])
    assert res.endpoint == (Gamma(Fraction(5, 2)), Gamma(1))
    res2 = flow(K, Fraction(3, 2), res.endpoint)
    assert res2.endpoint == (Gamma(1), Gamma(1))


def test_flow_two_crossings_dims_decrease():
    T = THREE
    res = flow(T, INF, [2, 3, 0])
    assert res.endpoint == (Gamma(0), Gamma(0), Gamma(0))
    dims = [cell_dimension(T, s.cell) for s in res.steps]
    assert dims == sorted(dims, reverse=True)
    assert len(set(dims)) == len(dims)
    assert [s.duration for s in res.steps] == [Gamma(2), Gamma(3)]


def test_flow_region_check():
    K = PLANE
    with pytest.raises(PreconditionError):
        flow(K, INF, [-1, 2])
    with pytest.raises(PreconditionError):
        flow(K, -1, [1, 1])


def test_lineality_inconsistency():
    K = build_complex(
        {"w": ["a", "h"], "h": "h", "functionals": [{"alpha": {"h": 1}, "c": 0}]}
    )
    cell = locate_cell(K, [5, 0])
    assert classify_D0(K, cell) is False
    with pytest.raises(InconsistencyError):
        recession_barycenter(K, cell)
    with pytest.raises(InconsistencyError):
        flow(K, INF, [5, 0])


def test_pinned_noninteger_inconsistency():
    K = build_complex(
        {"w": ["a", "h"], "h": "h", "functionals": [{"alpha": {"a": 2, "h": -1}, "c": 0}]}
    )
    cell = locate_cell(K, [1, 2])
    assert classify_D0(K, cell) is False
    with pytest.raises(InconsistencyError):
        recession_barycenter(K, cell)


def test_unbounded_slice_inconsistency():
    K = build_complex(
        {
            "w": ["a", "b", "h"],
            "h": "h",
            "functionals": [
                {"alpha": {"a": 1, "b": 1}, "c": 0},
                {"alpha": {"a": 1}, "c": 0},
                {"alpha": {"h": 1}, "c": 0},
            ],
        }
    )
    cell = locate_cell(K, [4, -4, 0])
    assert classify_D0(K, cell) is False
    with pytest.raises(InconsistencyError):
        recession_barycenter(K, cell)


def test_core_bounds_plane():
    K = PLANE
    bounds = core_bounds(K)
    assert bounds["a"] == (1, fr(0))
    assert bounds["h"] == (1, fr(0))
    with pytest.raises(PreconditionError):
        core_bounds(build_complex({"w": ["a", "h"], "h": "h"}))


coords2 = st.fractions(min_value=0, max_value=8, max_denominator=6)
coords3 = st.tuples(coords2, coords2, coords2)


@settings(max_examples=60, deadline=None)
@given(coords3)
def test_flow_terminates_on_stable_set(xyz):
    T = THREE
    res = flow(T, INF, list(xyz))
    assert final_image_membership(T, res.endpoint) is True
    # endpoint respects the reported core bounds
    for name, (m, c) in BOUNDS3.items():
        i = T.w.index(name)
        xh = res.endpoint[T.h_index].finite
        assert res.endpoint[i].finite <= m * xh + c
    # visited cells are distinct with strictly decreasing dimension
    dims = [cell_dimension(T, s.cell) for s in res.steps]
    assert dims == sorted(dims, reverse=True) and len(set(dims)) == len(dims)
    # xi (the height) is preserved along every step
    for s in res.steps:
        assert s.direction[T.h_index] == 0


@settings(max_examples=40, deadline=None)
@given(coords3, st.fractions(min_value=0, max_value=5, max_denominator=4), st.fractions(min_value=0, max_value=5, max_denominator=4))
def test_flow_semigroup(xyz, s, t):
    T = THREE
    one = flow(T, Fraction(s) + Fraction(t), list(xyz))
    two = flow(T, s, flow(T, t, list(xyz)).endpoint)
    assert one.endpoint == two.endpoint


@settings(max_examples=40, deadline=None)
@given(coords3, st.integers(min_value=0, max_value=2), st.fractions(min_value=0, max_value=Fraction(1, 4), max_denominator=16))
def test_flow_continuity_bound(xyz, axis, eps):
    T = THREE
    L = L3
    x = list(xyz)
    y = list(xyz)
    y[axis] = y[axis] + eps
    ex = flow(T, INF, x).endpoint
    ey = flow(T, INF, y).endpoint
    gap = max(abs(u.finite - v.finite) for u, v in zip(ex, ey))
    assert gap <= L * eps


@st.composite
def small_complexes(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    w = ["a", "b", "h"][-n:]
    alphas = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    blocks = draw(st.lists(st.tuples(alphas, st.integers(-1, 1)), min_size=1, max_size=3))
    return build_complex(
        {"w": w, "h": "h", "functionals": [{"alpha": a, "c": c} for a, c in blocks]}
    )


def closure_constraints(K, cell):
    """(equalities, inequalities alpha . x >= c) of the cell's closure."""
    eqs, ges = [], []
    for f, s in zip(K.functionals, cell.pattern):
        if s == "=":
            eqs.append((f.alpha, f.c))
        elif s == ">":
            ges.append((f.alpha, f.c))
        else:
            ges.append((tuple(-a for a in f.alpha), -f.c))
    return eqs, ges


@settings(max_examples=25, deadline=None)
@given(small_complexes())
def test_classify_D0_matches_lp_definition(K):
    # stable means: for each i some m in N keeps x_i - m*x_h bounded above on
    # the cell.  With coefficients in [-2, 2] and at most three coordinates,
    # the ray ratios behind the least such m are at most 8.
    h = K.h_index
    for cell in cells(K):
        eqs, ges = closure_constraints(K, cell)

        def bounded(i):
            for m in range(9):
                obj = tuple(fr(j == i) - m * fr(j == h) for j in range(K.n))
                if lp_max(obj, eqs, ges, K.n)[0] != UNBOUNDED:
                    return True
            return False

        assert classify_D0(K, cell) == all(bounded(i) for i in range(K.n)), cell


def test_per_cell_memo_counts_cone_enumerations(monkeypatch):
    calls = []
    real = gflow.cone_generators

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gflow, "cone_generators", counting)
    K = plane()
    unstable = locate_cell(K, [3, 1])
    stable = locate_cell(K, [1, 1])
    # the recession cone, then the recession slice for the barycenter
    for _ in range(3):
        assert classify_D0(K, unstable) is False
        assert recession_barycenter(K, unstable) == (fr(1), fr(0))
    assert len(calls) == 2
    # a stable cell needs only its recession cone
    for _ in range(3):
        assert classify_D0(K, stable) is True
        assert recession_barycenter(K, stable) == (fr(0), fr(0))
    assert len(calls) == 3
    # a complex built again from the same layout starts with an empty memo
    assert classify_D0(plane(), unstable) is False
    assert len(calls) == 4


def test_xi_value():
    K = PLANE
    assert xi_value(K, 0, [3, 1]) == 1
    res = flow(K, INF, [3, 1])
    assert xi_value(K, 0, res.endpoint) == 1


def core_bounds_all_active(K):
    """core_bounds before the maximal-cell pruning, kept as an oracle:
    every stable cell runs the region test and the objective LPs."""
    if not K.region:
        raise PreconditionError("core bounds need a bounded-below region")
    active = []
    for cell in cells(K):
        if not classify_D0(K, cell):
            continue
        eqs, gts = _cell_constraints(K, cell)
        closure = [(a, r) for a, r in gts] + list(K.region)
        if strict_feasible(eqs, closure, [], K.n) is None:
            continue
        active.append((cell, eqs, closure))
    out = {}
    for i, name in enumerate(K.w):
        if not active:
            out[name] = (0, Fraction(0))
            continue
        m = max(_m_bound(K, cell, i) for cell, _, _ in active)
        best = None
        for _, eqs, closure in active:
            obj = tuple(
                Fraction(1 if j == i else 0) - m * Fraction(1 if j == K.h_index else 0)
                for j in range(K.n)
            )
            status, val, _ = lp_max(obj, eqs, closure, K.n)
            if status == UNBOUNDED:
                raise InconsistencyError(
                    "stable cell is unbounded above within the region"
                )
            if status == OPTIMAL and (best is None or val > best):
                best = val
        out[name] = (m, Fraction(0) if best is None else best)
    return out


def _outcome(fn, K):
    try:
        return fn(K)
    except (InconsistencyError, PreconditionError) as exc:
        return type(exc)


def test_core_bounds_matches_all_active_oracle():
    # acceptance-shape complexes in Q^2, Q^3 and Q^4; some keep one region
    # half-space only, and some keep none, which both versions must refuse
    rng = random.Random(8080)
    seen = {2: 0, 3: 0, 4: 0, PreconditionError: 0}
    for k in range(60):
        n = (2, 3, 4)[k % 3]
        layout = _gflow_layout(rng, n, rng.randint(0, (2, 4, 2)[n - 2]))
        if k % 5 == 4:
            layout["region"] = rng.sample(layout["region"], rng.randint(0, 1))
        K = build_complex(layout)
        want = _outcome(core_bounds_all_active, K)
        assert _outcome(core_bounds, K) == want, layout
        seen[want if want is PreconditionError else n] += 1
    assert min(seen.values()) >= 5, seen


def flow_relocating(K, t, x) -> FlowResult:
    """flow before steps carried their cell, kept as an oracle: every step
    relocates its point and checks the affine hull on its own."""
    t = t if isinstance(t, Gamma) else Gamma(rational(t))
    if t < 0:
        raise PreconditionError("flow time must be nonnegative")
    pt = K.point(x)
    if pt[K.h_index].is_inf:
        return FlowResult((), pt)
    coords = _finite_coords(K, pt)
    if K.region and not all(dot(a, coords) >= c for a, c in K.region):
        raise PreconditionError("start point lies outside the region")
    steps = []
    remaining = t
    prev_dim = None
    while True:
        cell = locate_cell(K, coords)
        dim = cell_dimension(K, cell)
        if prev_dim is not None and dim >= prev_dim:
            raise InconsistencyError(
                "flow re-entered a cell of equal or higher dimension"
            )
        prev_dim = dim
        if classify_D0(K, cell):
            break
        e = recession_barycenter(K, cell)
        eqs, _ = _cell_constraints(K, cell)
        if any(dot(alpha, e) != 0 for alpha, _ in eqs):
            raise InconsistencyError(
                "flow direction leaves the cell's affine hull"
            )
        tau = exit_time(K, cell, e, coords)
        if remaining.is_inf and tau.is_inf:
            raise InconsistencyError(
                "trajectory never reaches the stable set"
            )
        dt = tau if tau < remaining else remaining
        coords = tuple(c - dt.finite * ei for c, ei in zip(coords, e))
        steps.append(FlowStep(dt, cell, e))
        if remaining <= tau:
            break
        remaining = remaining - dt
    endpoint = tuple(Gamma(c) for c in coords)
    return FlowResult(tuple(steps), endpoint)


def _flow_outcome(fn, K, t, x):
    try:
        return fn(K, t, x)
    except (InconsistencyError, PreconditionError) as exc:
        return type(exc), str(exc)


def test_flow_matches_relocating_oracle():
    # complexes shaped like small_complexes, and acceptance-shape ones with
    # their region, from which runs cross two or more cells more often
    rng = random.Random(1212)
    seen = {"error": 0, "stop": 0, "one step": 0, "two or more steps": 0}
    for k in range(240):
        if k % 2:
            n = rng.randint(2, 3)
            blocks = [
                {"alpha": [rng.randint(-2, 2) for _ in range(n)], "c": rng.randint(-1, 1)}
                for _ in range(rng.randint(1, 3))
            ]
            K = build_complex({"w": ["a", "b", "h"][-n:], "h": "h", "functionals": blocks})
            lo = -8
        else:
            n = rng.randint(2, 4)
            K = build_complex(_gflow_layout(rng, n, rng.randint(0, (2, 4, 3)[n - 2])))
            lo = 0
        for _ in range(4):
            x = [Fraction(rng.randint(lo, 8), rng.choice((1, 2))) for _ in range(n)]
            t = INF if rng.random() < 0.5 else Fraction(rng.randint(0, 10), rng.choice((1, 2)))
            want = _flow_outcome(flow_relocating, K, t, x)
            assert _flow_outcome(flow, K, t, x) == want, (K.functionals, t, x)
            if not isinstance(want, FlowResult):
                seen["error"] += 1
            else:
                seen[("stop", "one step", "two or more steps")[min(len(want.steps), 2)]] += 1
    assert min(seen.values()) >= 20, seen


def test_flow_locates_only_its_start(monkeypatch):
    calls = []
    real = gflow.locate_cell

    def counting(K, x):
        calls.append(x)
        return real(K, x)

    monkeypatch.setattr(gflow, "locate_cell", counting)
    res = flow(three(), INF, [2, 3, 0])
    assert len(res.steps) == 2
    assert len(calls) == 1
