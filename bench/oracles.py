"""Answers computed apart from berkline, used to check its outputs.

Nothing here imports the package.  Every oracle works on plain data:
rationals as ``Fraction``, polynomials in t as tuples of ``Fraction``
(little-endian), affine functionals as ``(alpha, c)`` pairs.  ``None``
stands for an infinite valuation or radius.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

LT, EQ, GT = "<", "=", ">"


# --- valuations -------------------------------------------------------------


def int_val(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val(p: int, x):
    """p-adic valuation of a rational (p > 0) or t-adic order of a
    polynomial in t given as a coefficient tuple (p == 0); None for 0."""
    if p:
        x = Fraction(x)
        if x == 0:
            return None
        return int_val(abs(x.numerator), p) - int_val(x.denominator, p)
    return next((i for i, c in enumerate(x) if c != 0), None)


def tpoly(*coeffs) -> tuple:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def tadd(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    return tpoly(*((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)))


def tneg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def tmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tpoly(*out)


class Ring:
    """Element arithmetic of Q (p > 0) or Q[t] (p == 0) on plain data."""

    def __init__(self, p: int):
        self.p = p
        self.zero = Fraction(0) if p else ()
        self.one = Fraction(1) if p else (Fraction(1),)

    def add(self, a, b):
        return a + b if self.p else tadd(a, b)

    def sub(self, a, b):
        return a - b if self.p else tadd(a, tneg(b))

    def mul(self, a, b):
        return a * b if self.p else tmul(a, b)

    def scale(self, k: int, a):
        return k * a if self.p else tuple(k * x for x in a)

    def val(self, a):
        return val(self.p, a)


# --- affine arrangements ----------------------------------------------------


def dot(a, x) -> Fraction:
    return sum((Fraction(u) * v for u, v in zip(a, x)), Fraction(0))


def sign_pattern(funcs, x) -> tuple:
    out = []
    for alpha, c in funcs:
        v = dot(alpha, x) - c
        out.append(EQ if v == 0 else (GT if v > 0 else LT))
    return tuple(out)


def _normalize_row(a: list, c: Fraction):
    lead = next((abs(v) for v in a if v != 0), None)
    if lead is None or lead == 1:
        return tuple(a), c
    return tuple(v / lead for v in a), c / lead


def fm_feasible(eqs, ges, gts, n: int) -> bool:
    """Exact feasibility of alpha.x = c, alpha.x >= c and alpha.x > c by
    substitution of the equalities and Fourier-Motzkin elimination."""
    eqs = [(list(map(Fraction, a)), Fraction(c)) for a, c in eqs]
    rows = [(list(map(Fraction, a)), Fraction(c), False) for a, c in ges]
    rows += [(list(map(Fraction, a)), Fraction(c), True) for a, c in gts]
    while eqs:
        a, c = eqs.pop()
        j = next((k for k in range(n) if a[k] != 0), None)
        if j is None:
            if c != 0:
                return False
            continue
        inv = 1 / a[j]
        a = [v * inv for v in a]
        c = c * inv

        def sub(b, d):
            f = b[j]
            if f == 0:
                return b, d
            return [u - f * v for u, v in zip(b, a)], d - f * c

        eqs = [sub(b, d) for b, d in eqs]
        rows = [sub(b, d) + (s,) for b, d, s in rows]
    for j in range(n):
        pos, neg, rest = [], [], {}
        for a, c, s in rows:
            if a[j] > 0:
                pos.append((a, c, s))
            elif a[j] < 0:
                neg.append((a, c, s))
            else:
                key = _normalize_row(a, c)
                rest[key] = rest.get(key, False) or s
        for ap, cp, sp in pos:
            for aq, cq, sq in neg:
                fp, fq = -aq[j], ap[j]
                a = [fp * u + fq * v for u, v in zip(ap, aq)]
                key = _normalize_row(a, fp * cp + fq * cq)
                rest[key] = rest.get(key, False) or sp or sq
        rows = [(list(a), c, s) for (a, c), s in rest.items()]
    return all((0 > c) if s else (0 >= c) for _, c, s in rows)


def pattern_constraints(funcs, pattern) -> tuple:
    eqs, gts = [], []
    for (alpha, c), s in zip(funcs, pattern):
        if s == EQ:
            eqs.append((alpha, c))
        elif s == GT:
            gts.append((alpha, c))
        else:
            gts.append((tuple(-a for a in alpha), -c))
    return eqs, gts


def arrangement_cells(funcs, n: int) -> set:
    """Every nonempty sign pattern of the affine functionals on Q^n."""
    partial = [()]
    for k in range(len(funcs)):
        grown = []
        for pattern in partial:
            for s in (LT, EQ, GT):
                eqs, gts = pattern_constraints(funcs[: k + 1], pattern + (s,))
                if fm_feasible(eqs, [], gts, n):
                    grown.append(pattern + (s,))
        partial = grown
    return set(partial)


def rank(rows, n: int) -> int:
    mat = [list(map(Fraction, r)) for r in rows]
    r = 0
    for col in range(n):
        sel = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col] / mat[r][col]
                mat[i] = [u - f * v for u, v in zip(mat[i], mat[r])]
        r += 1
    return r


def cell_dim(funcs, pattern, n: int) -> int:
    return n - rank([a for (a, _), s in zip(funcs, pattern) if s == EQ], n)


def grid_points(n: int, hi: int, halves: bool = True):
    """All points of [0, hi]^n with coordinates in (1/2)Z (or Z)."""
    step = 2 if halves else 1
    vals = [Fraction(k, step) for k in range(hi * step + 1)]
    return [tuple(p) for p in product(vals, repeat=n)]


# --- ball trees -------------------------------------------------------------


def ball_members(ring: Ring, pts, center, radius) -> frozenset:
    """Indices of the points inside B(center, radius); radius None means
    the simple point itself."""
    out = []
    for k, a in enumerate(pts):
        v = ring.val(ring.sub(a, center))
        if (v is None) or (radius is not None and v >= radius):
            out.append(k)
    return frozenset(out)


def skeleton_oracle(ring: Ring, pts) -> dict:
    """Vertex -> (parent vertex, edge length) of the skeleton spanned by
    distinct simple points of the closed unit disk and the Gauss point.

    A vertex is (radius, member indices): the Gauss point is radius 0,
    simple points have radius None, every other vertex is the ball
    B(a_i, val(a_i - a_j)) of a pair.  The parent of a vertex is the
    deepest strictly larger ball among the vertices; lengths are radius
    differences, None (infinite) into simple points.
    """
    everyone = frozenset(range(len(pts)))
    verts = {(0, everyone)}
    for i, a in enumerate(pts):
        verts.add((None, frozenset([i])))
        for j in range(i + 1, len(pts)):
            r = ring.val(ring.sub(a, pts[j]))
            verts.add((r, ball_members(ring, pts, a, r)))
    out = {}
    for key in verts:
        r, mem = key
        if key == (0, everyone):
            continue
        best = None
        for other in verts:
            ro, mo = other
            if ro is None or other == key or not mem <= mo:
                continue
            if r is not None and ro >= r:
                continue
            if best is None or ro > best[0]:
                best = other
        out[key] = (best, None if r is None else r - best[0])
    return out


def retract_oracle(ring: Ring, pts, a) -> tuple:
    """Image of the unit-disk simple point a (not among pts) on the
    skeleton of pts: the ball B(a, max_k val(a - a_k))."""
    r = max(ring.val(ring.sub(a, b)) for b in pts)
    return r, ball_members(ring, pts, a, r)


def leg_rule(p: int, b: Fraction) -> str:
    """Where the third point of [0, 1, b, inf] meets the Gauss star."""
    vb = val(p, b)
    if vb > 0:
        return "zero-leg"
    if vb < 0:
        return "infinity-leg"
    if val(p, b - 1) > 0:
        return "one-leg"
    return "gauss-vertex"


# --- root valuations ------------------------------------------------------------


def binomial_shift(ring: Ring, coeffs, c) -> list:
    """Coefficients of g(c + s) as a polynomial in s, by binomials."""
    out = []
    for j in range(len(coeffs)):
        b = ring.zero
        for i in range(j, len(coeffs)):
            term = coeffs[i]
            for _ in range(i - j):
                term = ring.mul(term, c)
            b = ring.add(b, ring.scale(math.comb(i, j), term))
        out.append(b)
    return out


def root_valuations(ring: Ring, roots, c, t: Fraction) -> list:
    """Sorted valuations of the y-roots g_i(x) of prod (y - g_i(x)) over
    the ball B(c, t): min_j val(b_j) + j t over the shifted g_i."""
    out = []
    for g in roots:
        best = None
        for j, b in enumerate(binomial_shift(ring, g, c)):
            v = ring.val(b)
            if v is not None and (best is None or v + j * t < best):
                best = v + j * t
        out.append(best)
    return sorted(out, key=lambda v: (v is None, v))


def product_rows(ring: Ring, roots) -> list:
    """Rows by y-power of prod (y - g_i(x)), each row little-endian in x."""
    def pmul(a, b):
        if not a or not b:
            return []
        out = [ring.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = ring.add(out[i + j], ring.mul(x, y))
        return out

    def psub(a, b):
        n = max(len(a), len(b))
        return [
            ring.sub(a[i] if i < len(a) else ring.zero, b[i] if i < len(b) else ring.zero)
            for i in range(n)
        ]

    rows = [[ring.one]]
    for g in roots:
        out = []
        for i in range(len(rows) + 1):
            above = rows[i] if i < len(rows) else []
            below = rows[i - 1] if i >= 1 else []
            out.append(psub(below, pmul(list(g), above)))
        rows = out
    return rows
