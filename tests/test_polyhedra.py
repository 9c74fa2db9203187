import random
from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from berkline import polyhedra
from berkline.polyhedra import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    _rref,
    canonical_ray,
    cone_generators,
    dot,
    lp_max,
    nullspace,
    rank,
    reduce_against,
    strict_feasible,
)


def V(*xs):
    return tuple(Fraction(x) for x in xs)


def test_rank_and_nullspace():
    rows = [V(1, 2, 3), V(2, 4, 6), V(0, 1, 1)]
    assert rank(rows, 3) == 2
    ns = nullspace(rows, 3)
    assert len(ns) == 1
    assert all(dot(r, ns[0]) == 0 for r in rows)
    assert nullspace([], 2) == [V(1, 0), V(0, 1)]


def test_lp_basic():
    # maximize x + y subject to x <= 2, y <= 3 (as -x >= -2 etc.)
    status, val, pt = lp_max(V(1, 1), [], [(V(-1, 0), -2), (V(0, -1), -3)], 2)
    assert status == OPTIMAL and val == 5 and pt == V(2, 3)


def test_lp_negative_region():
    # maximize x with x <= -4: free variables reach negative optima
    status, val, pt = lp_max(V(1), [], [(V(-1), 4)], 1)
    assert status == OPTIMAL and val == -4 and pt == V(-4)


def test_lp_unbounded_and_infeasible():
    assert lp_max(V(1, 0), [], [(V(0, 1), 0)], 2)[0] == UNBOUNDED
    status, _, _ = lp_max(V(1), [(V(1), 0)], [(V(1), 1)], 1)
    assert status == INFEASIBLE


def test_lp_with_equalities():
    # maximize y on the segment x + y = 1, x >= 0, y >= 0
    status, val, pt = lp_max(V(0, 1), [(V(1, 1), 1)], [(V(1, 0), 0), (V(0, 1), 0)], 2)
    assert status == OPTIMAL and val == 1 and pt == V(0, 1)


def test_strict_feasible():
    pt = strict_feasible([], [], [(V(1, -1), 0), (V(1, 0), 0), (V(0, 1), 0)], 2)
    assert pt is not None
    x, y = pt
    assert x - y > 0 and x > 0 and y > 0
    assert strict_feasible([(V(1), 0)], [], [(V(1), 0)], 1) is None
    # non-strict boundary together with a strict side
    pt = strict_feasible([], [(V(1, 0), 0)], [(V(0, 1), 5)], 2)
    assert pt is not None and pt[0] >= 0 and pt[1] > 5


def test_cone_generators_orthant():
    lin, rays = cone_generators([], [V(1, 0), V(0, 1)], 2)
    assert lin == []
    assert sorted(rays) == [V(0, 1), V(1, 0)]


def test_cone_generators_halfplane():
    lin, rays = cone_generators([], [V(1, 0)], 2)
    assert len(lin) == 1 and lin[0][0] == 0
    assert rays == [V(1, 0)]


def test_cone_generators_subspace_and_point():
    lin, rays = cone_generators([V(1, 1)], [], 2)
    assert len(lin) == 1 and rays == []
    lin, rays = cone_generators([V(1, 0), V(0, 1)], [], 2)
    assert lin == [] and rays == []


def test_cone_generators_pinched():
    # v >= 0, v_1 + v_2 = 0 forces the origin
    lin, rays = cone_generators([V(1, 1)], [V(1, 0), V(0, 1)], 2)
    assert lin == [] and rays == []


def test_cone_three_dim():
    lin, rays = cone_generators([V(0, 0, 1)], [V(1, 0, 0), V(0, 1, 0)], 3)
    assert lin == []
    assert sorted(rays) == [V(0, 1, 0), V(1, 0, 0)]


vecs = st.tuples(*(st.integers(min_value=-4, max_value=4) for _ in range(3)))


@settings(max_examples=40, deadline=None)
@given(st.lists(vecs, min_size=0, max_size=4))
def test_cone_generators_sound(ges):
    G = [V(*g) for g in ges]
    lin, rays = cone_generators([], G, 3)
    for v in lin:
        assert all(dot(g, v) == 0 for g in G)
    for r in rays:
        assert all(dot(g, r) >= 0 for g in G)
        assert any(x != 0 for x in r)
        assert r == canonical_ray(r)


def fm_feasible(ges, n):
    """Fourier-Motzkin: is {x : a . x >= b for (a, b) in ges} nonempty?"""
    rows = [(tuple(a), Fraction(b)) for a, b in ges]
    for j in range(n):
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        rows = [r for r in rows if r[0][j] == 0]
        # each lower bound on x_j must stay below each upper bound
        for (ap, bp), (aq, bq) in ((p, q) for p in pos for q in neg):
            lp, lq = ap[j], -aq[j]
            rows.append((tuple(lq * x + lp * y for x, y in zip(ap, aq)), lq * bp + lp * bq))
    return all(b <= 0 for _, b in rows)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(vecs, st.integers(-3, 3)), min_size=0, max_size=4),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
)
@example([((1, 0, 0), 1), ((-1, 0, 0), 0)], (0, 0, 0))
@example([((1, 1, 0), 2), ((-1, 0, 0), 0), ((0, -1, 0), -1)], (1, 0, 0))
def test_lp_optimum_is_feasible_and_tight(cons, obj):
    ges = [(V(*a), Fraction(b)) for a, b in cons]
    status, val, pt = lp_max(V(*obj), [], ges, 3)
    assert (status == INFEASIBLE) == (not fm_feasible(ges, 3))
    if status == OPTIMAL:
        assert all(dot(a, pt) >= b for a, b in ges)
        assert dot(V(*obj), pt) == val


def cone_generators_all_sizes(eqs, ges, n):
    """The subset enumerator over every size 0..n, kept as an oracle."""
    E = [tuple(map(Fraction, row)) for row in eqs]
    G = [tuple(map(Fraction, row)) for row in ges]
    lin = nullspace(E + G, n)
    lin_rref, lin_piv = _rref(lin, n)
    target = len(lin) + 1
    rays = {}
    max_size = min(len(G), n)
    for size in range(0, max_size + 1):
        for S in combinations(range(len(G)), size):
            ns = nullspace(E + [G[j] for j in S], n)
            if len(ns) != target:
                continue
            cand = None
            for v in ns:
                red = reduce_against(lin_rref, lin_piv, v)
                if any(x != 0 for x in red):
                    cand = red
                    break
            if cand is None:
                continue
            for r in (cand, tuple(-x for x in cand)):
                if all(dot(g, r) >= 0 for g in G):
                    rays[canonical_ray(r)] = None
                    break
    return lin, list(rays)


def random_cone(rng):
    n = rng.randint(1, 5)

    def row():
        return V(*(rng.randint(-2, 2) for _ in range(n)))

    eqs = [row() for _ in range(rng.randint(0, 2))]
    ges = [row() for _ in range(rng.randint(0, 7))]
    kind = rng.randrange(4)
    if kind == 1 and ges:
        # a row together with its negation: an equality hidden in G
        ges.append(tuple(-x for x in rng.choice(ges)))
    elif kind == 2:
        # equalities forcing the origin pin the cone
        eqs = [V(*(int(i == j) for j in range(n))) for i in range(n)]
    elif kind == 3:
        ges = []
    rng.shuffle(ges)
    return eqs, ges, n


def test_cone_generators_matches_all_sizes_oracle():
    rng = random.Random(20101)
    kinds = {"lineality": 0, "rays": 0, "pinned": 0}
    for _ in range(400):
        eqs, ges, n = random_cone(rng)
        lin, rays = cone_generators(eqs, ges, n)
        assert (lin, rays) == cone_generators_all_sizes(eqs, ges, n), (eqs, ges, n)
        kinds["lineality"] += bool(lin)
        kinds["rays"] += bool(rays)
        kinds["pinned"] += not lin and not rays
    assert min(kinds.values()) >= 20, kinds


def test_cone_generators_nullspace_count(monkeypatch):
    # pointed cone in R^6 with 10 rows: k = 5, so one lineality nullspace
    # plus C(10, 5) subsets; every size 0..6 would take 1 + 848
    units = [V(*(int(i == j) for j in range(6))) for i in range(6)]
    ges = list(units)
    ges += [(1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 0), (1, 0, 0, 0, 1, 1)]
    calls = []
    real = polyhedra.nullspace

    def counted(rows, width):
        calls.append(None)
        return real(rows, width)

    monkeypatch.setattr(polyhedra, "nullspace", counted)
    lin, rays = cone_generators([], ges, 6)
    assert len(calls) == 253
    assert lin == [] and sorted(rays) == sorted(units)
