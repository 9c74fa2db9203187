"""Exact rational linear algebra, linear programming, and cone geometry.

Vectors are tuples of Fraction.  Constraint systems are given as
(coefficients, rhs) pairs: equalities mean coeffs . x = rhs and
inequalities mean coeffs . x >= rhs.  Everything is exact; the simplex
uses Bland's rule, so it terminates on every input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def dot(a: Sequence, b: Sequence) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _pivot(rows: list, r: int, col: int) -> None:
    """Gauss-Jordan step: scale row r to a unit at col, clear col elsewhere."""
    piv = rows[r][col]
    row = rows[r] = [v / piv for v in rows[r]]
    for i, other in enumerate(rows):
        f = other[col]
        if i != r and f != 0:
            rows[i] = [v - f * w for v, w in zip(other, row)]


def _rref(rows: Sequence, width: int) -> tuple:
    """Reduced row echelon form; returns (rows, pivot column list)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    r = 0
    for col in range(width):
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        _pivot(mat, r, col)
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


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
            _pivot(tableau, leave, enter)
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
            _pivot(tableau, i, enter)
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
