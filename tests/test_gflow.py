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
from berkline.polyhedra import (
    OPTIMAL,
    UNBOUNDED,
    canonical_ray,
    cone_generators,
    dot,
    lp_max,
    strict_feasible,
)
from berkline.spec import FLOW_LAYOUT, walk
from test_acceptance import _GFLOW_SIZES, _gflow_instances, _gflow_layout, _random_start
from test_polyhedra import rref_fraction


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


def functionals_by_canonical_ray(parts):
    """assemble_complex's functional list as it was keyed by canonical_ray,
    kept as the oracle of the integer-row key: the first functional on each
    positive ray of (alpha, c), closed under the symmetry permutations."""
    w = parts["w"]
    funcs, seen = [], set()

    def add(alpha, c) -> bool:
        key = canonical_ray(alpha + (c,))
        if key in seen:
            return False
        seen.add(key)
        funcs.append((alpha, c))
        return True

    for f in parts["functionals"]:
        add(f["alpha"], f["c"])
    changed = True
    while changed:
        changed = False
        for perm in parts["symmetry"]:
            source = {perm[name]: j for j, name in enumerate(w)}
            for alpha, c in list(funcs):
                changed |= add(tuple(alpha[source[name]] for name in w), c)
    return funcs


def test_functional_dedupe_matches_canonical_ray_key():
    # the 20 acceptance layouts, and copies with functionals scaled by
    # positive rationals, repeated (scaled again), and closed under a swap
    layout_rng, rng = random.Random(707), random.Random(26)

    def scaled(f):
        k = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        return {
            "alpha": {name: str(k * Fraction(v)) for name, v in f["alpha"].items()},
            "c": str(k * Fraction(f["c"])),
        }

    folded = 0
    for n, extra in _GFLOW_SIZES:
        layout = _gflow_layout(layout_rng, n, extra)
        variants = [layout]
        for _ in range(3):
            funcs = [scaled(f) if rng.random() < 0.5 else f for f in layout["functionals"]]
            for f in rng.sample(funcs, rng.randint(1, len(funcs))):
                funcs.insert(rng.randint(0, len(funcs)), scaled(f))
            copy = dict(layout, functionals=funcs)
            if n >= 3 and rng.random() < 0.5:
                a, b = layout["w"][:2]
                copy["symmetry"] = [{**{name: name for name in layout["w"]}, a: b, b: a}]
            variants.append(copy)
        for v in variants:
            parts = walk(FLOW_LAYOUT, v)
            K = gflow.assemble_complex(parts)
            want = functionals_by_canonical_ray(parts)
            assert [(f.alpha, f.c) for f in K.functionals] == want, v
            folded += any((f["alpha"], f["c"]) not in want for f in parts["functionals"])
    # every copy repeats a ray; it drops a functional unless all repeats
    # were scaled by 1
    assert folded >= 50, folded


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
    # a direction needs one entry per coordinate, not a prefix or an overrun
    inner = locate_cell(K, [1, 2])
    assert inner.pattern == ("<", ">", ">")
    for bad in ((fr(1),), (fr(1), fr(0), fr(5))):
        with pytest.raises(PreconditionError):
            exit_time(K, inner, bad, [1, 2])


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


def test_core_bounds_vacuous_when_no_stable_closure_meets_the_region():
    K = build_complex(
        {
            "w": ["a", "h"],
            "h": "h",
            "functionals": [{"alpha": {"a": 1}, "c": 0}],
            "region": [{"alpha": {"a": 1}, "c": 5}],
        }
    )
    # a < 0 and a = 0 are stable, a > 0 is not, and the region is a >= 5
    assert [classify_D0(K, cell) for cell in cells(K)] == [True, True, False]
    assert core_bounds(K) == {"a": (0, Fraction(0)), "h": (0, Fraction(0))}


def test_cell_dimension_matches_fraction_rank():
    # n minus the rank of the cell's = rows, read by the Fraction RREF from
    # the functionals as given
    for K in _gflow_instances():
        for cell in cells(K):
            eqs = [f.alpha for f, s in zip(K.functionals, cell.pattern) if s == "="]
            assert cell_dimension(K, cell) == K.n - len(rref_fraction(eqs, K.n)[0]), cell


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
    """(equalities, inequalities alpha . x >= c) of the cell's closure, read
    from the rational functionals; with > for >= they cut out the cell."""
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
    runs, steps = [], []
    real_run, real_step = gflow.double_description, gflow.dd_step

    def counting_run(*args):
        runs.append(args)
        return real_run(*args)

    def counting_step(*args):
        steps.append(args)
        return real_step(*args)

    monkeypatch.setattr(gflow, "double_description", counting_run)
    monkeypatch.setattr(gflow, "dd_step", counting_step)
    K = plane()
    unstable = locate_cell(K, [3, 1])
    stable = locate_cell(K, [1, 1])
    # one DD run on the equality rows, then one DD step per strict sign (3
    # here); the recession slice is one more DD step, not a second run, and
    # the dimension reads the run's state after the equality rows
    for _ in range(3):
        assert classify_D0(K, unstable) is False
        assert recession_barycenter(K, unstable) == (fr(1), fr(0))
        assert cell_dimension(K, unstable) == 2
    assert (len(runs), len(steps)) == (1, 4)
    # a stable cell (one = sign, two strict) needs only its recession cone
    for _ in range(3):
        assert classify_D0(K, stable) is True
        assert recession_barycenter(K, stable) == (fr(0), fr(0))
        assert cell_dimension(K, stable) == 1
    assert (len(runs), len(steps)) == (2, 6)
    # a complex built again from the same layout starts with an empty memo
    assert classify_D0(plane(), unstable) is False
    assert (len(runs), len(steps)) == (3, 9)


def test_xi_value():
    K = PLANE
    assert xi_value(K, 0, [3, 1]) == 1
    res = flow(K, INF, [3, 1])
    assert xi_value(K, 0, res.endpoint) == 1


def test_xi_value_checks_its_index():
    bare = build_complex({"w": ["a", "h"], "h": "h"})
    with pytest.raises(PreconditionError, match="the complex has 0 xis"):
        xi_value(bare, 0, [3, 1])
    for index in (-1, 1, True, False, "0", 0.0, None):
        with pytest.raises(PreconditionError, match="the complex has 1 xis"):
            xi_value(PLANE, index, [3, 1])


def test_exit_time_reads_direction_as_rationals():
    K = PLANE
    cell = locate_cell(K, [3, 1])
    assert exit_time(K, cell, ("1/2", 0), [3, 1]) == Gamma(4)
    assert exit_time(K, cell, [Fraction(1, 2), "0"], [3, 1]) == Gamma(4)
    for bad in ((True, 0), (1, False), (0.5, 0), (None, 0), ("x", 0)):
        with pytest.raises(PreconditionError):
            exit_time(K, cell, bad, [3, 1])


@pytest.mark.parametrize("entry", [classify_D0, cell_dimension, recession_barycenter])
def test_per_cell_entry_points_refuse_a_bare_pattern(entry):
    # a pattern tuple or a Cell of a list is not a cell; a Cell of the wrong
    # length is refused by the pattern check
    K = PLANE
    for bad in ((">", ">", ">"), Cell([">", ">", ">"]), Cell((">", ">")), None):
        with pytest.raises(PreconditionError):
            entry(K, bad)
    assert entry(K, Cell((">", ">", ">"))) == entry(K, locate_cell(K, [3, 1]))


def test_exit_time_refuses_a_non_sequence_direction():
    K = PLANE
    cell = locate_cell(K, [3, 1])
    for bad in (5, Fraction(1), None, {"a": 1, "h": 0}, iter((1, 0))):
        with pytest.raises(PreconditionError):
            exit_time(K, cell, bad, [3, 1])
    assert exit_time(K, cell, [1, 0], [3, 1]) == exit_time(K, cell, (1, 0), [3, 1])
    assert exit_time(K, cell, range(1, -1, -1), [3, 1]) == exit_time(K, cell, (1, 0), [3, 1])


def sign_at(f, x):
    """Sign of alpha . x - c for a rational functional."""
    v = dot(f.alpha, x) - f.c
    return "=" if v == 0 else (">" if v > 0 else "<")


def exit_by_fractions(K, cell, e, coords):
    """_exit over the rational functionals, kept as an oracle for the
    integer rows: the least f(x) / (alpha . e) over the functionals moving
    toward zero, and the cell entered then."""
    hits = {}
    for i, (f, s) in enumerate(zip(K.functionals, cell.pattern)):
        ae = dot(f.alpha, e)
        if (ae > 0 and s != "<") or (ae < 0 and s != ">"):
            hits[i] = (dot(f.alpha, coords) - f.c) / ae
    if not hits:
        return INF, cell
    tau = min(hits.values())
    pattern = tuple("=" if hits.get(i) == tau else s for i, s in enumerate(cell.pattern))
    return Gamma(tau), Cell(pattern)


def test_integer_rows_match_fraction_functionals():
    # rational alphas and constants, so the integer rows are true rescalings,
    # and points and directions with mixed denominators
    rng = random.Random(1996)

    def q(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice((1, 2, 3, 4, 6)))

    signs = set()
    entered = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        blocks = [
            {"alpha": [str(q(-3, 3)) for _ in range(n)], "c": str(q(-2, 2))}
            for _ in range(rng.randint(1, 5))
        ]
        blocks = [b for b in blocks if any(Fraction(a) for a in b["alpha"])]
        K = build_complex({"w": ["a", "b", "c", "h"][-n:], "h": "h", "functionals": blocks})
        for _ in range(4):
            x = tuple(q(-4, 4) for _ in range(n))
            if rng.random() < 0.3 and K.functionals:
                # put the point on a hyperplane, so = signs occur
                f = rng.choice(K.functionals)
                j = next(j for j, a in enumerate(f.alpha) if a != 0)
                rest = sum(a * v for k, (a, v) in enumerate(zip(f.alpha, x)) if k != j)
                x = x[:j] + ((f.c - rest) / f.alpha[j],) + x[j + 1:]
            cell = locate_cell(K, x)
            assert cell.pattern == tuple(sign_at(f, x) for f in K.functionals)
            signs.update(cell.pattern)
            e = tuple(q(-3, 3) for _ in range(n))
            if any(e):
                got = gflow._exit(K, cell, e, x)
                assert got == exit_by_fractions(K, cell, e, x), (K.functionals, x, e)
                entered += got[1] != cell
    assert signs == {"<", "=", ">"} and entered >= 100, (signs, entered)


def core_bounds_all_active(K):
    """core_bounds before the maximal-cell pruning, kept as an oracle:
    every stable cell runs the region test and the objective LPs."""
    if not K.region:
        raise PreconditionError("core bounds need a bounded-below region")
    active = []
    for cell in cells(K):
        if not classify_D0(K, cell):
            continue
        eqs, ges = closure_constraints(K, cell)
        closure = ges + list(K.region)
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


def recession_by_fractions(K, cell, extra_eqs=()):
    """cone_generators over the cell's rational recession rows."""
    eqs, ges = closure_constraints(K, cell)
    return cone_generators([a for a, _ in eqs] + list(extra_eqs), [a for a, _ in ges], K.n)


def m_bound_by_fractions(K, cell, i):
    """_m_bound before it read the integer DD state, kept as an oracle: the
    ratios g_i / g_h as Fractions over cone_generators' lineality basis and
    canonical rays, the cone kept in the complex's memo under this oracle."""
    key = (m_bound_by_fractions, cell.pattern)
    if key not in K._memo:
        K._memo[key] = recession_by_fractions(K, cell)
    lin, rays = K._memo[key]
    hi = None
    lo = Fraction(0)
    for g in rays + lin + [tuple(-a for a in l) for l in lin]:
        gh = g[K.h_index]
        if gh > 0:
            lo = max(lo, g[i] / gh)
        elif gh == 0:
            if g[i] > 0:
                return None
        else:
            bound = g[i] / gh
            hi = bound if hi is None else min(hi, bound)
    m = -((-lo.numerator) // lo.denominator)
    if hi is not None and m > hi:
        return None
    return m


def classify_by_fractions(K, cell):
    return all(m_bound_by_fractions(K, cell, i) is not None for i in range(K.n))


def barycenter_by_two_runs(K, cell):
    """recession_barycenter before the slice v_h = 0 was one more DD step,
    kept as an oracle: a second cone_generators run over the cell's rows
    plus e_h."""
    if classify_by_fractions(K, cell):
        return tuple(Fraction(0) for _ in range(K.n))
    unit_h = tuple(int(j == K.h_index) for j in range(K.n))
    lin, rays = recession_by_fractions(K, cell, [unit_h])
    if lin:
        raise InconsistencyError(
            "recession slice of an unstable cell has a lineality direction"
        )
    if not rays:
        raise InconsistencyError("recession slice of an unstable cell is empty")
    vertices = []
    for r in rays:
        s = sum(r)
        if s <= 0:
            raise InconsistencyError(
                "recession slice of an unstable cell is unbounded"
            )
        vertices.append(tuple(x / s for x in r))
    k = Fraction(len(vertices))
    e = tuple(sum(col, Fraction(0)) / k for col in zip(*vertices))
    if any(x < 0 for x in e):
        raise InconsistencyError("flow direction has a negative component")
    return e


def _answer(fn, *args):
    try:
        return fn(*args)
    except (InconsistencyError, PreconditionError) as exc:
        return type(exc), str(exc)


def test_cone_answers_match_fraction_oracles(monkeypatch):
    # every cell of the 20 acceptance complexes and of ten complexes in the
    # gflow_flow workload's shapes (4-6 coordinates)
    rng = random.Random(2323)
    flow_shaped = [
        build_complex(_gflow_layout(rng, n, extra))
        for n, extra in ((4, 2), (4, 3), (5, 1), (5, 2), (6, 1)) * 2
    ]
    complexes = _gflow_instances() + flow_shaped
    seen = {"stable": 0, "moving": 0, "error": 0, "no m": 0}
    for K in complexes:
        for cell in cells(K):
            bounds = [_m_bound(K, cell, i) for i in range(K.n)]
            assert bounds == [m_bound_by_fractions(K, cell, i) for i in range(K.n)], cell
            stable = classify_D0(K, cell)
            assert stable == classify_by_fractions(K, cell), cell
            want = _answer(barycenter_by_two_runs, K, cell)
            assert _answer(recession_barycenter, K, cell) == want, cell
            seen["no m"] += None in bounds
            seen["stable" if stable else "moving" if isinstance(want[0], Fraction) else "error"] += 1
    native = [_answer(core_bounds, K) for K in complexes]
    # core_bounds again on fresh memos, with every m taken by the oracle
    monkeypatch.setattr(gflow, "_m_bound", m_bound_by_fractions)
    for K, bounds in zip(complexes, native):
        fresh = gflow.CellComplex(K.w, K.h, K.functionals, K.xis, K.region)
        fresh._cells = K._cells
        assert _answer(core_bounds, fresh) == bounds, K.functionals
    assert min(seen.values()) >= 20, seen


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
    coords = _finite_coords(pt)
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
        eqs, _ = closure_constraints(K, cell)
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
    # the start's signs are read once, on the coordinates flow already
    # holds; every later cell is carried from the step before
    located, signs = [], []
    real_locate, real_pattern = gflow.locate_cell, gflow._pattern_at

    def counting_locate(K, x):
        located.append(x)
        return real_locate(K, x)

    def counting_pattern(rows, coords):
        signs.append(coords)
        return real_pattern(rows, coords)

    monkeypatch.setattr(gflow, "locate_cell", counting_locate)
    monkeypatch.setattr(gflow, "_pattern_at", counting_pattern)
    res = flow(three(), INF, [2, 3, 0])
    assert len(res.steps) == 2
    assert (len(located), len(signs)) == (0, 1)


def count_point_reads(monkeypatch):
    calls = []
    real = gflow.CellComplex.point

    def counting(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(gflow.CellComplex, "point", counting)
    return calls


def test_flow_reads_its_start_once(monkeypatch):
    K = three()
    calls = count_point_reads(monkeypatch)
    flow(K, INF, [2, 3, 0])
    assert len(calls) == 1


def test_exit_time_reads_its_point_once(monkeypatch):
    K = PLANE
    cell = locate_cell(K, [3, 1])
    calls = count_point_reads(monkeypatch)
    assert exit_time(K, cell, (1, 0), [3, 1]) == Gamma(2)
    assert len(calls) == 1


def test_final_image_membership_reads_its_point_once(monkeypatch):
    K = PLANE
    calls = count_point_reads(monkeypatch)
    assert final_image_membership(K, [1, 2]) is True
    assert final_image_membership(K, [3, 1]) is False
    assert final_image_membership(K, [3, INF]) is True
    assert len(calls) == 3


def test_answers_are_invariant_under_positive_row_scaling():
    # the 20 acceptance layouts with every functional and region block
    # multiplied by its own positive rational: a positive multiple of a
    # row changes no sign, feasible set, LP optimum or stretch factor
    rng = random.Random(2202)
    layouts = random.Random(707)
    for K, (n, extra) in zip(_gflow_instances(), _GFLOW_SIZES):
        layout = _gflow_layout(layouts, n, extra)
        for block in layout["functionals"] + layout["region"]:
            q = rng.choice((Fraction(2, 3), Fraction(7, 4), Fraction(5), Fraction(1, 6)))
            block["alpha"] = {nm: str(q * Fraction(a)) for nm, a in block["alpha"].items()}
            block["c"] = str(q * Fraction(block["c"]))
        S = build_complex(layout)
        assert S.functionals != K.functionals
        assert [c.pattern for c in cells(S)] == [c.pattern for c in cells(K)]
        assert core_bounds(S) == core_bounds(K)
        assert lipschitz_bound(S) == lipschitz_bound(K)
        for _ in range(5):
            x = _random_start(K, rng)
            assert flow(S, INF, x).endpoint == flow(K, INF, x).endpoint, (layout, x)
