"""Exact rational linear algebra, linear programming, and cone geometry.

Vectors are tuples of Fraction.  Constraint systems are given as
(coefficients, rhs) pairs: equalities mean coeffs . x = rhs and
inequalities mean coeffs . x >= rhs.  Everything is exact; the simplex
uses Bland's rule, so it terminates on every input.  Row reduction and
the simplex pivot on integer rows with one denominator each and convert
to Fraction only at their results.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

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


def _int_row(values: Sequence) -> tuple:
    """Exact rationals as (integer row, positive denominator)."""
    fr = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in fr))
    return _norm([v.numerator * (den // v.denominator) for v in fr], den)


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


def _rref(rows: Sequence, width: int) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mat = [_int_row(r) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        sel = next((i for i in range(r, len(mat)) if mat[i][0][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        _pivot(mat, r, col)
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(Fraction(v, den) for v in row) for row, den in mat[:r]], pivots


def rank(rows: Sequence, width: int) -> int:
    return len(_rref(rows, width)[0])


def nullspace(rows: Sequence, width: int) -> list:
    """Basis of {x : row . x = 0 for every row}."""
    reduced, pivots = _rref(rows, width)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(tuple(vec))
    return basis


def reduce_against(basis_rref: Sequence, pivots: Sequence, v: Sequence) -> tuple:
    out = list(map(Fraction, v))
    for row, p in zip(basis_rref, pivots):
        if out[p] != 0:
            f = out[p]
            out = [a - f * b for a, b in zip(out, row)]
    return tuple(out)


def canonical_ray(v: Sequence) -> tuple:
    """Scale by a positive rational so the first nonzero entry is +-1."""
    lead = next((x for x in v if x != 0), None)
    if lead is None:
        return tuple(map(Fraction, v))
    scale = Fraction(1) / abs(lead)
    return tuple(x * scale for x in v)


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
                return OPTIMAL, tableau.pop()[0]
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
    _, zrow = run_phase(phase1, ncols)
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
    cost = list(objective[:n]) + [0] * (n - len(objective))
    phase2 = cost + [-c for c in cost] + [0] * (nslack + m + 1)
    # artificial columns are excluded from entering, so they stay at zero
    status, _ = run_phase(phase2, 2 * n + nslack)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    point = [Fraction(0)] * (2 * n)
    for i, b in enumerate(basis):
        if b < 2 * n:
            row, den = tableau[i]
            point[b] = Fraction(row[-1], den)
    x = tuple(point[j] - point[n + j] for j in range(n))
    return OPTIMAL, dot(objective, x), x


def strict_feasible(eqs: Sequence, ges: Sequence, gts: Sequence, n: int):
    """A point satisfying eqs, ges (>=) and gts (>) exactly, or None."""
    obj = [Fraction(0)] * n + [Fraction(1)]
    eqs2 = [(list(coeffs) + [Fraction(0)], rhs) for coeffs, rhs in eqs]
    ges2 = [(list(coeffs) + [Fraction(0)], rhs) for coeffs, rhs in ges]
    for coeffs, rhs in gts:
        ges2.append((list(coeffs) + [Fraction(-1)], rhs))
    ges2.append(([Fraction(0)] * n + [Fraction(-1)], Fraction(-1)))  # delta <= 1
    status, val, point = lp_max(obj, eqs2, ges2, n + 1)
    if status != OPTIMAL or val <= 0:
        return None
    return point[:n]


def cone_generators(eqs: Sequence, ges: Sequence, n: int) -> tuple:
    """Lineality basis and extreme rays of {x : eqs . x = 0, ges . x >= 0}.

    Ray representatives are canonical up to positive scaling and modulo
    the lineality space; every ray r satisfies ges . r >= 0.
    """
    E = [tuple(map(Fraction, row)) for row in eqs]
    G = [tuple(map(Fraction, row)) for row in ges]
    lin = nullspace(E + G, n)
    lin_rref, lin_piv = _rref(lin, n)
    # a ray is cut out by E and k rows of G independent modulo E; a larger
    # subset has the row space, hence the RREF and candidate, of k of them
    k = n - len(lin) - 1 - rank(E, n)
    rays = {}
    for S in combinations(range(len(G)), k) if k >= 0 else ():
        ns = nullspace(E + [G[j] for j in S], n)
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
