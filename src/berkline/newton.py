"""Newton polygons and root-valuation tracking along outward paths.

A polynomial F(x, y) with positive y-degree is followed along the family
of ball points B(c, t) for t running from 0 to infinity.  At each t the
coefficient valuations b_j(t) = gauss_val(a_j, B(c, t)) are piecewise
affine in t, so the Newton polygon of F in y over the moving point has a
fixed combinatorial shape on finitely many parameter intervals.  On each
interval the valuations of the y-roots are affine functions of t; the
interval boundaries where the multiset of those functions changes are
the candidate branching radii of the cover along the path.

Slope convention: a polygon segment from (i1, w1) to (i2, w2) with
i1 < i2 is reported as slope (w1 - w2) / (i2 - i1), so the reported
slope equals the common valuation of the corresponding roots.

Bivariate polynomials are sequences of coefficient polynomials in x,
little-endian in y, each little-endian in x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import Sequence

from .errors import PreconditionError
from .gamma import INF, Gamma, MinAffine, lower_hull
from .pline import PLinePoint, STD, gauss_val
from .polys import poly_mul, poly_sub, taylor_shift, trim


@dataclass(frozen=True, slots=True)
class NewtonPolygon:
    """Lower hull of coefficient valuations, as (slope, multiplicity) pairs.

    Slopes are strictly increasing and multiplicities sum to the degree
    of the input minus its order of vanishing at y = 0.
    """

    segments: tuple


@dataclass(frozen=True, slots=True)
class RootProfile:
    """Root valuations of a cover along an outward path.

    ``pieces`` is a tuple of (lo, hi, roots) triples whose closed
    intervals [lo, hi] cover [0, infinity] and overlap only at
    endpoints.  Each entry of ``roots`` is (fn, multiplicity) where fn
    is a one-term envelope giving the root valuation as an affine
    function of the path parameter; the empty envelope stands for the
    constant-infinity valuation of roots at y = 0.  Entries are sorted
    by their value on the piece interior, infinite last.
    """

    pieces: tuple

    def piece_at(self, t: "Gamma | Fraction | int") -> tuple:
        t = t if isinstance(t, Gamma) else Gamma(t)
        if t < 0:
            raise PreconditionError("path parameter must be >= 0")
        for lo, hi, roots in self.pieces:
            if lo <= t <= hi:
                return (lo, hi, roots)
        raise PreconditionError("path parameter outside the profile range")

    def values_at(self, t: "Gamma | Fraction | int") -> tuple:
        """Multiset of (root valuation, multiplicity) at one parameter."""
        _, _, roots = self.piece_at(t)
        t = t if isinstance(t, Gamma) else Gamma(t)
        return tuple((fn.eval(t), mult) for fn, mult in roots)


def newton_polygon(coeff_vals: Sequence) -> NewtonPolygon:
    """Polygon of a polynomial given only its coefficient valuations."""
    pts = []
    for i, v in enumerate(coeff_vals):
        g = v if isinstance(v, Gamma) else Gamma(v)
        if not g.is_inf:
            pts.append((Fraction(i), g.finite))
    if not pts:
        raise PreconditionError("all coefficient valuations are infinite")
    hull = lower_hull(pts)
    segments = []
    for (i1, w1), (i2, w2) in zip(hull, hull[1:]):
        segments.append(((w1 - w2) / (i2 - i1), int(i2 - i1)))
    segments.reverse()
    return NewtonPolygon(tuple(segments))


def coeff_val_path(field, coeffs: Sequence, center) -> MinAffine:
    """The function t -> gauss_val(a_j, B(c, t)) in canonical form."""
    cs = trim([field.coerce(a) for a in coeffs])
    if not cs:
        return MinAffine()
    c = field.coerce(center)
    shifted = taylor_shift(cs, c)
    terms = []
    for i, b in enumerate(shifted):
        v = field.val(b)
        if not v.is_inf:
            terms.append((Fraction(i), v.finite))
    return MinAffine(terms)


def _bivariate(field, F: Sequence) -> list:
    rows = [trim([field.coerce(a) for a in row]) for row in F]
    while rows and not rows[-1]:
        rows.pop()
    return rows


def root_valuations_along_path(field, F: Sequence, center) -> RootProfile:
    """Track the y-root valuations of F(x, y) = 0 over the path B(c, t)."""
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

    cuts = set()
    for fn in paths.values():
        cuts.update(b for b in fn.breakpoints() if b > 0)
    base = sorted(cuts)
    for lo, hi in _cells(base):
        mid = _midpoint(lo, hi)
        active = {j: _active_term(fn, mid) for j, fn in paths.items()}
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
    for lo, hi in _cells(sorted(cuts)):
        mid = _midpoint(lo, hi)
        active = {j: _active_term(fn, mid) for j, fn in paths.items()}
        pts = [(Fraction(j), s * mid + o) for j, (s, o) in sorted(active.items())]
        hull = lower_hull(pts)
        roots = []
        for (i1, _), (i2, _) in zip(hull, hull[1:]):
            s1, o1 = active[int(i1)]
            s2, o2 = active[int(i2)]
            span = i2 - i1
            fn = MinAffine([((s1 - s2) / span, (o1 - o2) / span)])
            roots.append((fn, int(span)))
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


def _cells(cuts: list) -> list:
    bounds = [Fraction(0)] + [Fraction(c) for c in cuts] + [None]
    return list(zip(bounds, bounds[1:]))


def _midpoint(lo: Fraction, hi) -> Fraction:
    return lo + 1 if hi is None else (lo + hi) / 2


def _active_term(fn: MinAffine, t: Fraction) -> tuple:
    return min(fn.terms, key=lambda term: term[0] * t + term[1])


def branch_events(profile: RootProfile) -> list:
    """Interior piece boundaries: candidate branching radii on the path."""
    return [hi for _, hi, _ in profile.pieces[:-1]]


def quadratic_residual_square(field, F: Sequence, center, t) -> bool:
    """Residual test for a quadratic cover at the ball point B(c, t).

    True when the discriminant of F in y has even valuation at the point
    and its residual polynomial is a nonzero square in the residue
    field, so the two sheets of the cover are residually distinct there.
    The valuation profile alone cannot see this.  Requires an integral
    parameter t and an invertible 2 in the residue field.
    """
    rows = _bivariate(field, F)
    if len(rows) - 1 != 2:
        raise PreconditionError("residual square test needs y-degree exactly 2")
    if field.residue_char == 2:
        raise PreconditionError("residual square test needs odd residue characteristic")
    t = t if isinstance(t, Gamma) else Gamma(t)
    if t.is_inf or t.finite.denominator != 1:
        raise PreconditionError("residual square test needs an integral radius")
    a0, a1, a2 = rows[0], rows[1], rows[2]
    disc = poly_sub(poly_mul(a1, a1), [4 * x for x in poly_mul(a0, a2)])
    disc = trim(disc)
    if not disc:
        return False
    c = field.coerce(center)
    m = gauss_val(field, disc, PLinePoint(STD, c, t))
    if m.finite.numerator % 2:
        return False
    shifted = taylor_shift(disc, c)
    residual = []
    for i, b in enumerate(shifted):
        if field.val(b) + t.scale(i) == m:
            unit = b * field.uniformizer_pow(int((t.scale(i) - m).finite))
            residual.append(Fraction(field.residue(unit)))
        else:
            residual.append(Fraction(0))
    return _residue_poly_is_square(field, trim(residual))


def _residue_poly_is_square(field, h: list) -> bool:
    """Exact square test in k[u] for k the residue field (odd or zero char):
    h is a nonzero square exactly when its leading coefficient is one and
    h divided by it is the square of a monic polynomial."""
    p = field.residue_char
    if not h or len(h) % 2 == 0:
        return False
    lead = h[-1]
    if p:
        # Euler's criterion on num * den, a square exactly when num / den is
        if pow(lead.numerator * lead.denominator, (p - 1) // 2, p) != 1:
            return False
    elif lead <= 0 or any(isqrt(n) ** 2 != n for n in (lead.numerator, lead.denominator)):
        return False
    monic = [_residue_div(p, a, lead) for a in h]
    half = (len(h) - 1) // 2
    # the monic root s, from the top coefficients down: the u^(half + i)
    # coefficient of s^2 is 2 s_i plus products of s_(i+1..half-1)
    s = [Fraction(0)] * half + [Fraction(1)]
    for i in range(half - 1, -1, -1):
        acc = sum((s[a] * s[half + i - a] for a in range(i + 1, half)), Fraction(0))
        s[i] = _residue_div(p, monic[half + i] - acc, Fraction(2))
    diff = poly_sub(poly_mul(s, s), monic)
    if p:
        return all(x.numerator % p == 0 for x in diff)
    return not trim(diff)


def _residue_div(p: int, a: Fraction, b: Fraction) -> Fraction:
    if p:
        bn = b.numerator * pow(b.denominator, -1, p) % p
        an = a.numerator * pow(a.denominator, -1, p) % p
        return Fraction(an * pow(bn, -1, p) % p)
    return a / b
