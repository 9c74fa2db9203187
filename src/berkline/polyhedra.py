"""Exact rational linear algebra, linear programming, and cone geometry.

Vectors are tuples of exact rationals: int, Fraction, or what
gamma.rational reads, so a float raises PreconditionError.  Constraint
systems are (coefficients, rhs) pairs: equalities mean coeffs . x = rhs
and inequalities mean coeffs . x >= rhs.  Everything is exact; the simplex
uses Bland's rule, so it terminates on every input.  The simplex and the
row reduction in ``generators`` pivot on integer rows with one denominator
each and convert to Fraction only at their results.  Cones are built by the
double description method on primitive integer rows and rays, one row at
a time, with the combinatorial adjacency test on tight-row sets.  A DD
state can take one more row later; a cone's lineality basis is read off
its final DD basis, and ``nullspace`` is that basis with no inequalities.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .gamma import rational

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _norm(row: list, den: int) -> tuple:
    """The pair (row, den) divided by its gcd, with den made positive."""
    if den < 0:
        row, den = [-v for v in row], -den
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def over_common_denominator(values: Sequence) -> tuple:
    """Exact rationals as (integer list, d): the values times d, their
    least common denominator.  An int or a Fraction is used as it is, any
    other value (a bool too) is read by gamma.rational."""
    ratios = [
        (v if type(v) in (int, Fraction) else rational(v)).as_integer_ratio()
        for v in values
    ]
    den = lcm(*(q for _, q in ratios))
    return [p * (den // q) for p, q in ratios], den


def _int_row(values: Sequence) -> tuple:
    """Exact rationals as (integer row, positive denominator) in lowest terms."""
    if all(type(v) is int for v in values):
        return list(values), 1
    return _norm(*over_common_denominator(values))


def _primitive(ints) -> tuple:
    """An integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def integer_row(values: Sequence) -> tuple:
    """The primitive integer vector on the ray of a rational vector: the
    values times the lcm of their denominators, divided by their gcd."""
    return _primitive(over_common_denominator(values)[0])


def _pivot(rows: list, r: int, col: int) -> None:
    """Gauss-Jordan step: scale row r to a unit at col, clear col elsewhere.

    Each row is a pair (integer list, positive denominator) standing for
    the rationals entry / denominator, so one gcd per row and step keeps
    the entries small; signs and ratios read off the integers directly.
    """
    prow, _ = rows[r]
    piv = prow[col]
    rows[r] = _norm(prow, piv)
    for i, (other, den) in enumerate(rows):
        f = other[col]
        if i != r and f != 0:
            rows[i] = _norm([v * piv - f * w for v, w in zip(other, prow)], den * piv)


def _reduce(mat: list, columns) -> tuple:
    """Gauss-Jordan on integer rows (list, den), pivoting on the columns in
    the order given; returns (the nonzero reduced rows, their pivots)."""
    pivots = []
    r = 0
    for col in columns:
        if r == len(mat):
            break
        sel = next((i for i in range(r, len(mat)) if mat[i][0][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        _pivot(mat, r, col)
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def nullspace(rows: Sequence, width: int) -> list:
    """Basis of {x : row . x = 0 for every row}, the identity on the free
    columns of the rows' RREF: cone_generators' lineality basis."""
    return cone_generators(rows, (), width)[0]


def canonical_ray(v: Sequence) -> tuple:
    """Scale by a positive rational so the first nonzero entry is +-1."""
    v = tuple(map(rational, v))
    lead = next((x for x in v if x != 0), None)
    if lead is None:
        return v
    return tuple(x / abs(lead) for x in v)


def lp_max(objective: Sequence, eqs: Sequence, ges: Sequence, n: int) -> tuple:
    """Maximize objective . x subject to the constraints, x free.

    Returns (status, value, point) with status one of optimal,
    unbounded, infeasible; value and point are None unless optimal.
    """
    rows = [(coeffs, rhs, True) for coeffs, rhs in eqs]
    rows += [(coeffs, rhs, False) for coeffs, rhs in ges]
    m = len(rows)
    nslack = len(ges)
    ncols = 2 * n + nslack + m
    # rows 0..m-1 are the constraints, row m the objective row of the
    # running phase, which every pivot keeps reduced against the basis
    tableau = []
    basis = []
    si = 0
    for ridx, (coeffs, rhs, is_eq) in enumerate(rows):
        ints, den = _int_row(list(coeffs[:n]) + [0] * (n - len(coeffs)) + [rhs])
        sign = -1 if ints[-1] < 0 else 1
        a = [sign * v for v in ints]
        row = a[:n] + [-v for v in a[:n]] + [0] * (nslack + m) + a[n:]
        if not is_eq:
            row[2 * n + si] = -sign * den
            si += 1
        art = 2 * n + nslack + ridx
        row[art] = den
        tableau.append((row, den))
        basis.append(art)

    def run_phase(costs, active_cols):
        # basic columns are unit columns, so pivoting on one again only
        # clears it from the new objective row
        tableau.append(_int_row(costs))
        for i, b in enumerate(basis):
            if tableau[m][0][b] != 0:
                _pivot(tableau, i, b)
        while True:
            zrow = tableau[m][0]
            enter = next((j for j in range(active_cols) if zrow[j] > 0), None)
            if enter is None:
                return OPTIMAL, tableau.pop()
            # Bland's leaving row: least ratio rhs / coef, ties to the least
            # basic column; denominators cancel, so compare cross products
            leave = None
            for i in range(m):
                row = tableau[i][0]
                if row[enter] > 0:
                    if leave is None:
                        leave = i
                        continue
                    best = tableau[leave][0]
                    lhs, rhs = row[-1] * best[enter], best[-1] * row[enter]
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave is None:
                tableau.pop()
                return UNBOUNDED, None
            _pivot(tableau, leave, enter)
            basis[leave] = enter

    phase1 = [0] * (2 * n + nslack) + [-1] * m + [0]
    _, (zrow, _) = run_phase(phase1, ncols)
    if zrow[-1] != 0:
        return INFEASIBLE, None, None
    # pivot artificials out of the basis; drop rows that are fully redundant
    for i in range(m):
        if basis[i] >= 2 * n + nslack:
            enter = next((j for j in range(2 * n + nslack) if tableau[i][0][j] != 0), None)
            if enter is None:
                continue
            _pivot(tableau, i, enter)
            basis[i] = enter
    # the objective as integers over d: same signs and pivots, optimum / d
    cost, d = _int_row(list(objective[:n]) + [0] * (n - len(objective)))
    phase2 = cost + [-c for c in cost] + [0] * (nslack + m + 1)
    # artificial columns are excluded from entering, so they stay at zero
    status, zrow = run_phase(phase2, 2 * n + nslack)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    point = [Fraction(0)] * (2 * n)
    for i, b in enumerate(basis):
        if b < 2 * n:
            row, den = tableau[i]
            point[b] = Fraction(row[-1], den)
    x = tuple(point[j] - point[n + j] for j in range(n))
    return OPTIMAL, Fraction(-zrow[0][-1], zrow[1] * d), x


def strict_feasible(eqs: Sequence, ges: Sequence, gts: Sequence, n: int):
    """A point satisfying eqs, ges (>=) and gts (>) exactly, or None."""
    obj = [0] * n + [1]
    eqs2 = [(list(coeffs) + [0], rhs) for coeffs, rhs in eqs]
    ges2 = [(list(coeffs) + [0], rhs) for coeffs, rhs in ges]
    for coeffs, rhs in gts:
        ges2.append((list(coeffs) + [-1], rhs))
    ges2.append(([0] * n + [-1], -1))  # delta <= 1
    status, val, point = lp_max(obj, eqs2, ges2, n + 1)
    if status != OPTIMAL or val <= 0:
        return None
    return point[:n]


def _int_dot(a: Sequence, b: Sequence) -> int:
    return sum(x * y for x, y in zip(a, b))


def _int_rows(rows: Sequence) -> list:
    return [row if all(type(v) is int for v in row) else integer_row(row) for row in rows]


def _combine(a: int, u: tuple, b: int, v: tuple) -> tuple:
    """The primitive integer vector on the ray of a*u + b*v."""
    return _primitive([a * x + b * y for x, y in zip(u, v)])


def double_description(eqs: Sequence, ges: Sequence, n: int) -> tuple:
    """{x : eqs . x = 0, ges . x >= 0} from Q^n by one dd_step per row, the
    rows of eqs first, as a DD state (basis, rays, rows): a basis of the
    lineality space and the rays, as primitive integer vectors, each ray
    paired with the bit mask of the rows tight on it (bit k for the k-th row
    added), and the number of rows added.  A row of ints is used as it is,
    any other row is scaled to its primitive integer row."""
    E = _int_rows(eqs)
    cone = ([tuple(int(i == j) for j in range(n)) for i in range(n)], [], 0)
    for k, row in enumerate(E + _int_rows(ges)):
        cone = dd_step(cone, row, k < len(E))
    return cone


def dd_step(cone: tuple, row: Sequence, is_eq: bool) -> tuple:
    """The DD state of the cone cut by one more integer row: row . x = 0
    when is_eq, else row . x >= 0.  The given state is left as it is.

    Double description (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda &
    Prodon 1996): a row that some lineality vector l0 does not annihilate
    is met by projecting along l0; an inequality then adds l0, oriented
    into the half-space, as a new ray.  Otherwise the rays split by the
    sign of their product with the row, and each adjacent (+, -) pair
    gives a ray on the row's hyperplane.  Two rays are adjacent iff no
    third ray is tight on every row both are tight on.
    """
    basis, rays, k = cone
    bit = 1 << k
    prods = [_int_dot(row, l) for l in basis]
    piv = next((i for i, v in enumerate(prods) if v), None)
    if piv is not None:
        l0, p0 = basis[piv], prods[piv]
        if p0 < 0:
            l0, p0 = tuple(-v for v in l0), -p0
        basis = [
            _combine(p0, l, -v, l0) if v else l
            for i, (l, v) in enumerate(zip(basis, prods))
            if i != piv
        ]
        moved = []
        for r, z in rays:
            v = _int_dot(row, r)
            moved.append((_combine(p0, r, -v, l0) if v else r, z | bit))
        if not is_eq:
            # l0 was lineality, so it is tight on every earlier row
            moved.append((l0, bit - 1))
        return basis, moved, k + 1
    signed = [(r, z, _int_dot(row, r)) for r, z in rays]
    kept = [(r, z | bit) for r, z, v in signed if v == 0]
    if not is_eq:
        kept += [(r, z) for r, z, v in signed if v > 0]
    for p, zp, vp in signed:
        if vp <= 0:
            continue
        for q, zq, vq in signed:
            if vq >= 0:
                continue
            common = zp & zq
            # adjacent: no ray but p and q is tight on all of common
            if sum((z & common) == common for _, z in rays) == 2:
                kept.append((_combine(vp, q, -vq, p), common | bit))
    return basis, kept, k + 1


def cone_generators(eqs: Sequence, ges: Sequence, n: int) -> tuple:
    """Lineality basis and extreme rays of {x : eqs . x = 0, ges . x >= 0},
    read off one double_description run.

    lin is nullspace(eqs + ges): the final DD basis spans that space, and
    reduced with its columns taken from the last it becomes the one basis
    equal to the identity on the free columns of the rows' RREF.  The rays
    are sorted, each reduced modulo lin and scaled so its first nonzero
    entry is +-1; every ray r satisfies ges . r >= 0.
    """
    return generators(double_description(eqs, ges, n), n)


def generators(cone: tuple, n: int) -> tuple:
    """(lin, rays) of the DD state of a cone in Q^n, as cone_generators
    returns them."""
    basis, rays, _ = cone
    red, _ = _reduce([(list(l), 1) for l in basis], range(n - 1, -1, -1))
    lin = [tuple(Fraction(v, den) for v in row) for row, den in reversed(red)]
    out = [r for r, _ in rays]
    if basis and out:
        # the representative modulo lin with zeros at the pivots of its RREF
        red, pivots = _reduce([(list(l), 1) for l in basis], range(n))
        for (row, den), p in zip(red, pivots):
            out = [_combine(den, v, -v[p], row) if v[p] else v for v in out]
    return lin, sorted(canonical_ray(v) for v in out)
