import random
from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from berkline import polyhedra
from berkline.polyhedra import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    canonical_ray,
    cone_generators,
    dot,
    double_description,
    lp_max,
    nullspace,
    strict_feasible,
)


def V(*xs):
    return tuple(Fraction(x) for x in xs)


def test_rank_and_nullspace():
    rows = [V(1, 2, 3), V(2, 4, 6), V(0, 1, 1)]
    assert 3 - len(double_description(rows, (), 3)[0]) == 2
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


def reduce_against(basis_rref, pivots, v):
    out = list(map(Fraction, v))
    for row, p in zip(basis_rref, pivots):
        if out[p] != 0:
            f = out[p]
            out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)


def cone_generators_by_subsets(eqs, ges, n):
    """cone_generators before double description, kept as an oracle: a
    nullspace for every rank-sized row subset, rays in subset order."""
    E = [tuple(map(Fraction, row)) for row in eqs]
    G = [tuple(map(Fraction, row)) for row in ges]
    lin = nullspace_by_rref(E + G, n)
    lin_rref, lin_piv = rref_fraction(lin, n)
    # a ray is cut out by E and k rows of G independent modulo E; a larger
    # subset has the row space, hence the RREF and candidate, of k of them
    k = n - len(lin) - 1 - len(rref_fraction(E, n)[0])
    rays = {}
    for S in combinations(range(len(G)), k) if k >= 0 else ():
        ns = nullspace_by_rref(E + [G[j] for j in S], n)
        if len(ns) != len(lin) + 1:
            continue
        # lin lies in ns, so some basis vector of ns reduces to nonzero
        reduced = (reduce_against(lin_rref, lin_piv, v) for v in ns)
        cand = next(red for red in reduced if any(x != 0 for x in red))
        for r in (cand, tuple(-x for x in cand)):
            if all(dot(g, r) >= 0 for g in G):
                rays[canonical_ray(r)] = None
                break
    return lin, list(rays)


def cone_generators_all_sizes(eqs, ges, n):
    """The subset enumerator over every size 0..n, kept as an oracle."""
    E = [tuple(map(Fraction, row)) for row in eqs]
    G = [tuple(map(Fraction, row)) for row in ges]
    lin = nullspace_by_rref(E + G, n)
    lin_rref, lin_piv = rref_fraction(lin, n)
    target = len(lin) + 1
    rays = {}
    max_size = min(len(G), n)
    for size in range(0, max_size + 1):
        for S in combinations(range(len(G)), size):
            ns = nullspace_by_rref(E + [G[j] for j in S], n)
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
        want_lin, want_rays = cone_generators_all_sizes(eqs, ges, n)
        assert (lin, rays) == (want_lin, sorted(want_rays)), (eqs, ges, n)
        kinds["lineality"] += bool(lin)
        kinds["rays"] += bool(rays)
        kinds["pinned"] += not lin and not rays
    assert min(kinds.values()) >= 20, kinds


def random_dd_cone(rng):
    """Up to 10 rows in Q^n, n <= 6, with rational entries: hidden
    equalities, positively scaled duplicate rows, pinned cones and
    cones with a lineality space."""
    n = rng.randint(1, 6)

    def row():
        return tuple(Fraction(rng.choice((-1, 0, 0, 1, 1, 2)), rng.choice((1, 1, 2, 3))) for _ in range(n))

    eqs = [row() for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    ges = [row() for _ in range(rng.randint(0, 8 - len(eqs)))]
    kind = rng.randrange(5)
    if kind == 1 and ges:
        ges.append(tuple(-x for x in rng.choice(ges)))
    elif kind == 2 and ges:
        k = Fraction(rng.choice((2, 3, 5)), rng.choice((1, 2)))
        ges.append(tuple(k * x for x in rng.choice(ges)))
    elif kind == 3:
        eqs = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    elif kind == 4:
        ges = ges[: rng.randint(0, n - 1)]
    rng.shuffle(ges)
    return eqs, ges[: 10 - len(eqs)], n


def test_cone_generators_matches_subset_oracle():
    rng = random.Random(1953)
    kinds = {"lineality": 0, "rays": 0, "pinned": 0, "lineality and rays": 0}
    for _ in range(600):
        eqs, ges, n = random_dd_cone(rng)
        lin, rays = cone_generators(eqs, ges, n)
        want_lin, want_rays = cone_generators_by_subsets(eqs, ges, n)
        assert lin == want_lin, (eqs, ges, n)
        assert rays == sorted(want_rays), (eqs, ges, n)
        # integer rows give the same answer as the rationals they scale
        ints = [[polyhedra.integer_row(r) for r in rows] for rows in (eqs, ges)]
        assert cone_generators(*ints, n) == (lin, rays)
        kinds["lineality"] += bool(lin)
        kinds["rays"] += bool(rays)
        kinds["pinned"] += not lin and not rays
        kinds["lineality and rays"] += bool(lin) and bool(rays)
    assert min(kinds.values()) >= 40, kinds


def test_dd_step_matches_a_fresh_run():
    # one more row on a finished DD state gives the cone of a fresh run over
    # every row, and leaves the state it started from as it was
    rng = random.Random(1996)
    kinds = {"equality": 0, "inequality": 0, "lineality": 0, "rays": 0}
    for _ in range(400):
        eqs, ges, n = random_dd_cone(rng)
        row = polyhedra.integer_row([rng.choice((-1, 0, 1, 1, 2)) for _ in range(n)])
        is_eq = rng.random() < 0.5
        cone = polyhedra.double_description(eqs, ges, n)
        before = polyhedra.generators(cone, n)
        got = polyhedra.generators(polyhedra.dd_step(cone, row, is_eq), n)
        want = cone_generators(eqs + [row], ges, n) if is_eq else cone_generators(eqs, ges + [row], n)
        assert got == want, (eqs, ges, row, is_eq)
        assert polyhedra.generators(cone, n) == before == cone_generators(eqs, ges, n)
        kinds["equality" if is_eq else "inequality"] += 1
        kinds["lineality"] += bool(got[0])
        kinds["rays"] += bool(got[1])
    assert min(kinds.values()) >= 40, kinds


def test_integer_row():
    assert polyhedra.integer_row(V("2/3", -4, 0)) == (1, -6, 0)
    assert polyhedra.integer_row(V("-1/2", "1/3")) == (-3, 2)
    assert polyhedra.integer_row(V(0, 0)) == (0, 0)
    assert polyhedra.over_common_denominator(V("1/2", 3, "-1/6")) == ([3, 18, -1], 6)


def test_cone_generators_nullspace_count(monkeypatch):
    # pointed cone in R^6 with 10 rows: at most one nullspace (none since
    # the lineality space is read off the DD basis); the subset enumerator
    # took 1 + C(10, 5) = 253
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
    assert len(calls) <= 1
    assert lin == [] and rays == sorted(units)


# The Fraction simplex and row reduction that the integer-row pivot
# replaced, and strict_feasible over that simplex, kept verbatim (renamed)
# as differential oracles.


def _pivot_fraction(rows: list, r: int, col: int) -> None:
    """Gauss-Jordan step: scale row r to a unit at col, clear col elsewhere."""
    piv = rows[r][col]
    row = rows[r] = [v / piv for v in rows[r]]
    for i, other in enumerate(rows):
        f = other[col]
        if i != r and f != 0:
            rows[i] = [v - f * w for v, w in zip(other, row)]


def rref_fraction(rows, width: int) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        _pivot_fraction(mat, r, col)
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def nullspace_by_rref(rows, width: int) -> list:
    """The nullspace basis read off the Fraction RREF, kept as the oracle of
    nullspace: for each free column f, the vector with 1 at f, 0 at the
    other free columns, and minus the RREF's column f at the pivots."""
    reduced, pivots = rref_fraction(rows, width)
    basis = []
    for f in (c for c in range(width) if c not in pivots):
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def lp_max_fraction(objective, eqs, ges, n: int) -> tuple:
    """Maximize objective . x subject to the constraints, x free.

    Returns (status, value, point) with status one of optimal,
    unbounded, infeasible; value and point are None unless optimal.
    """
    rows = []
    for coeffs, rhs in eqs:
        rows.append((list(coeffs), Fraction(rhs), True))
    for coeffs, rhs in ges:
        rows.append((list(coeffs), Fraction(rhs), False))
    m = len(rows)
    nslack = sum(0 if is_eq else 1 for _, _, is_eq in rows)
    ncols = 2 * n + nslack + m
    tableau = []
    basis = []
    si = 0
    for ridx, (coeffs, rhs, is_eq) in enumerate(rows):
        row = [Fraction(0)] * (ncols + 1)
        for j in range(n):
            c = Fraction(coeffs[j]) if j < len(coeffs) else Fraction(0)
            row[j] = c
            row[n + j] = -c
        if not is_eq:
            row[2 * n + si] = Fraction(-1)
            si += 1
        row[-1] = rhs
        if rhs < 0:
            row = [-v for v in row]
        art = 2 * n + nslack + ridx
        row[art] = Fraction(1)
        tableau.append(row)
        basis.append(art)

    def run_phase(costs, active_cols):
        # objective row kept reduced against the basis, so each iteration
        # reads Bland's entering column in one scan instead of recomputing
        zrow = list(costs)
        for i, b in enumerate(basis):
            if zrow[b] != 0:
                f = zrow[b]
                zrow = [v - f * w for v, w in zip(zrow, tableau[i])]
        while True:
            enter = next((j for j in range(active_cols) if zrow[j] > 0), None)
            if enter is None:
                return OPTIMAL, -zrow[-1]
            best = None
            for i in range(m):
                coef = tableau[i][enter]
                if coef > 0:
                    ratio = tableau[i][-1] / coef
                    key = (ratio, basis[i])
                    if best is None or key < best[0]:
                        best = (key, i)
            if best is None:
                return UNBOUNDED, None
            _, leave = best
            _pivot_fraction(tableau, leave, enter)
            f = zrow[enter]
            if f != 0:
                zrow = [v - f * w for v, w in zip(zrow, tableau[leave])]
            basis[leave] = enter

    phase1 = [Fraction(0)] * ncols
    for a in range(2 * n + nslack, ncols):
        phase1[a] = Fraction(-1)
    status, val = run_phase(phase1 + [Fraction(0)], ncols)
    if val != 0:
        return INFEASIBLE, None, None
    # pivot artificials out of the basis; drop rows that are fully redundant
    for i in range(m):
        if basis[i] >= 2 * n + nslack:
            enter = next((j for j in range(2 * n + nslack) if tableau[i][j] != 0), None)
            if enter is None:
                continue
            _pivot_fraction(tableau, i, enter)
            basis[i] = enter
    phase2 = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        c = Fraction(objective[j]) if j < len(objective) else Fraction(0)
        phase2[j] = c
        phase2[n + j] = -c
    # artificial columns are excluded from entering, so they stay at zero
    status, val = run_phase(phase2, 2 * n + nslack)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    point = [Fraction(0)] * (2 * n)
    for i, b in enumerate(basis):
        if b < 2 * n:
            point[b] = tableau[i][-1]
    x = tuple(point[j] - point[n + j] for j in range(n))
    return OPTIMAL, dot(objective, x), x


def strict_feasible_fraction(eqs, ges, gts, n: int):
    """A point satisfying eqs, ges (>=) and gts (>) exactly, or None."""
    obj = [Fraction(0)] * n + [Fraction(1)]
    eqs2 = [(list(coeffs) + [Fraction(0)], rhs) for coeffs, rhs in eqs]
    ges2 = [(list(coeffs) + [Fraction(0)], rhs) for coeffs, rhs in ges]
    for coeffs, rhs in gts:
        ges2.append((list(coeffs) + [Fraction(-1)], rhs))
    ges2.append(([Fraction(0)] * n + [Fraction(-1)], Fraction(-1)))  # delta <= 1
    status, val, point = lp_max_fraction(obj, eqs2, ges2, n + 1)
    if status != OPTIMAL or val <= 0:
        return None
    return point[:n]


def random_system(rng):
    """A random LP with rational data: equalities, redundant and negated
    rows, duplicated rows, and bounds that may be missing or crossing."""
    n = rng.randint(1, 4)

    def q():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))

    def row():
        return tuple(q() for _ in range(n))

    eqs = [(row(), q()) for _ in range(rng.choice((0, 0, 1, 2)))]
    ges = [(row(), q()) for _ in range(rng.randint(0, 6))]
    kind = rng.randrange(4)
    if kind == 1 and eqs:
        # a redundant equality: a rational multiple of one already present
        a, b = rng.choice(eqs)
        k = Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 3)))
        eqs.append((tuple(k * x for x in a), k * b))
    elif kind == 2 and ges:
        # a row and its negation with a shifted constant: a slab or nothing
        a, b = rng.choice(ges)
        ges.append((tuple(-x for x in a), -b + rng.randint(-2, 1)))
    elif kind == 3:
        # a bounding box keeps most objectives finite
        for j in range(n):
            e = tuple(Fraction(int(i == j)) for i in range(n))
            ges.append((e, Fraction(-rng.randint(0, 3))))
            ges.append((tuple(-x for x in e), Fraction(-rng.randint(0, 3))))
    if ges and rng.random() < 0.3:
        ges.append(rng.choice(ges))
    rng.shuffle(ges)
    return row(), eqs, ges, n


# Degenerate systems with a whole optimal face, on which the returned
# optimum depends on how the ratio test breaks ties; random systems
# almost never hit such a case.
TIE_SENSITIVE = (
    (
        V(0, -1, -1),
        [],
        [(V(1, 1, -1), 1), (V(0, -1, 1), 0), (V(-1, 1, 1), -1), (V(1, 0, 1), -1), (V(0, 1, 0), 1)],
        3,
    ),
    (
        V(1, 1, -1),
        [],
        [(V(0, 1, 0), -1), (V(-1, -1, 0), 1), (V(1, 0, 1), 0), (V(-1, 0, 1), 0), (V(0, 0, 1), 1)],
        3,
    ),
)


def test_lp_max_matches_fraction_oracle():
    rng = random.Random(31337)
    statuses = {OPTIMAL: 0, UNBOUNDED: 0, INFEASIBLE: 0}
    systems = [random_system(rng) for _ in range(400)] + list(TIE_SENSITIVE)
    for obj, eqs, ges, n in systems:
        got = lp_max(obj, eqs, ges, n)
        assert got == lp_max_fraction(obj, eqs, ges, n), (obj, eqs, ges, n)
        statuses[got[0]] += 1
        gts, rest = ges[: len(ges) // 2], ges[len(ges) // 2 :]
        want = strict_feasible_fraction(eqs, rest, gts, n)
        assert strict_feasible(eqs, rest, gts, n) == want
    assert min(statuses.values()) >= 40, statuses


def test_rref_matches_fraction_oracle():
    rng = random.Random(4242)
    deficient = 0
    for _ in range(600):
        width = rng.randint(1, 6)
        rows = [
            tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5))) for _ in range(width))
            for _ in range(rng.randint(0, 5))
        ]
        if rows and rng.random() < 0.4:
            # redundant rows: a combination of two rows already present
            a, b = rng.choice(rows), rng.choice(rows)
            k = Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            rows.insert(rng.randrange(len(rows) + 1), tuple(x + k * y for x, y in zip(a, b)))
        if rng.random() < 0.2:
            rows.append(tuple(Fraction(0) for _ in range(width)))
        got = width - len(double_description(rows, (), width)[0])
        assert got == len(rref_fraction(rows, width)[0]), (rows, width)
        basis = nullspace(rows, width)
        assert basis == nullspace_by_rref(rows, width), (rows, width)
        assert all(type(v) is Fraction for row in basis for v in row)
        deficient += got < len(rows)
    assert deficient >= 100, deficient
