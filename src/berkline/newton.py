"""Newton polygons and root-valuation tracking along outward paths.

A polynomial F(x, y) with positive y-degree is followed along the family
of ball points B(c, t) for t running from 0 to infinity.  At each t the
coefficient valuations b_j(t) = gauss_val(a_j, B(c, t)) are piecewise
affine in t, so the Newton polygon of F in y over the moving point has a
fixed combinatorial shape on finitely many parameter intervals.  On each
interval the valuations of the y-roots are affine functions of t; the
interval boundaries where the multiset of those functions changes are
the candidate branching radii of the cover along the path.

The profile comes from one sweep in t over the lower hull of the moving
points (j, b_j(t)), a kinetic hull in the sense of Basch, Guibas and
Hershberger.  The hull is rebuilt only at events, of three kinds: a
breakpoint of some b_j, a hull vertex that becomes collinear with its
two neighbours, and a point strictly between two adjacent hull vertices
that reaches the edge joining them.

Slope convention: a polygon segment from (i1, w1) to (i2, w2) with
i1 < i2 is reported as slope (w1 - w2) / (i2 - i1), so the reported
slope equals the common valuation of the corresponding roots.

Bivariate polynomials are sequences of coefficient polynomials in x,
little-endian in y, each little-endian in x.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import PreconditionError
from .gamma import INF, Gamma, MinAffine, as_gamma, gmin, lower_hull
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
        t = as_gamma(t)
        if t < 0:
            raise PreconditionError("path parameter must be >= 0")
        for lo, hi, roots in self.pieces:
            if lo <= t <= hi:
                return (lo, hi, roots)
        raise PreconditionError("path parameter outside the profile range")

    def values_at(self, t: "Gamma | Fraction | int") -> tuple:
        """Multiset of (root valuation, multiplicity) at one parameter."""
        t = as_gamma(t)
        _, _, roots = self.piece_at(t)
        return tuple((fn.eval(t), mult) for fn, mult in roots)


def newton_polygon(coeff_vals: Sequence) -> NewtonPolygon:
    """Polygon of a polynomial given only its coefficient valuations."""
    pts = []
    for i, v in enumerate(coeff_vals):
        g = as_gamma(v)
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
    """The Gauss valuation t -> min_i (val b_i + i*t) on B(c, t), b_i the
    Taylor coefficients at c, in canonical form; gauss_val reads it too."""
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
    """Track the y-root valuations of F(x, y) = 0 over the path B(c, t).

    One sweep in t from 0.  Each nonzero row j is the point (j, y_j) with
    y_j the term of its envelope that attains the minimum just after t.
    The lower hull just after t compares heights by (value at t, slope).
    Every row strictly inside the hull's range has an affine height over
    the chord of its hull neighbours, and the hull keeps its shape up to
    the least event after t, of three kinds:

    - a row's next breakpoint, where its attaining term changes;
    - a hull vertex whose height over its neighbours' chord falls to 0;
    - a row strictly between two adjacent vertices that reaches their edge.

    A piece starts only where the roots differ from the previous piece's,
    so the pieces come out merged.
    """
    rows = _bivariate(field, F)
    m = len(rows) - 1
    if m < 1:
        raise PreconditionError("F must have positive y-degree")
    ord0 = 0
    while not rows[ord0]:
        ord0 += 1
    c = field.coerce(center)
    # per nonzero row: its terms in attainment order and the breakpoints
    # between them; at[r] indexes the term that attains just after t
    xs, terms, cuts = [], [], []
    for j in range(ord0, m + 1):
        fn = coeff_val_path(field, rows[j], c)
        if not fn.is_infinite:
            xs.append(j)
            terms.append(fn.terms[::-1])
            cuts.append(fn.breakpoints())
    at = [bisect_right(bps, 0) for bps in cuts]
    t = Fraction(0)
    starts = []
    while True:
        active = {j: ts[pos] for j, ts, pos in zip(xs, terms, at)}
        hull = [p[0] for p in lower_hull([(j, s * t + o, s) for j, (s, o) in active.items()])]
        roots = tuple(_edge_roots(active[i], active[k], k - i) for i, k in zip(hull, hull[1:]))
        if not starts or roots != starts[-1][1]:
            starts.append((t, roots))
        events = [bps[pos] for bps, pos in zip(cuts, at) if pos < len(bps)]
        for i, j, k in _hull_neighbours(xs, hull):
            (si, oi), (sj, oj), (sk, ok) = active[i], active[j], active[k]
            # (k - i) times the height of j over the chord from i to k is
            # affine in t with this rate; its zero is the event
            rate = (k - i) * (sj - si) - (j - i) * (sk - si)
            if rate:
                zero = ((j - i) * (ok - oi) - (k - i) * (oj - oi)) / rate
                if zero > t:
                    events.append(zero)
        if not events:
            break
        t = min(events)
        at = [pos + (pos < len(bps) and bps[pos] == t) for bps, pos in zip(cuts, at)]

    tail = ((MinAffine(), ord0),) if ord0 else ()
    pieces = []
    for (lo, roots), (hi, _) in zip(starts, starts[1:] + [(None, None)]):
        fns = tuple((MinAffine([(s, o)]), span) for s, o, span in reversed(roots))
        pieces.append((Gamma(lo), INF if hi is None else Gamma(hi), fns + tail))
    return RootProfile(tuple(pieces))


def _edge_roots(left: tuple, right: tuple, span: int) -> tuple:
    """(slope, intercept, multiplicity) of the roots one hull edge carries."""
    (s1, o1), (s2, o2) = left, right
    return ((s1 - s2) / span, (o1 - o2) / span, span)


def _hull_neighbours(xs: list, hull: list) -> list:
    """(i, j, k) for each j of xs strictly inside the hull's range, with i
    and k the hull vertices next to j on either side."""
    out, h = [], 0
    for j in xs[1:-1]:
        if j == hull[h + 1]:
            h += 1
            out.append((hull[h - 1], j, hull[h + 1]))
        else:
            out.append((hull[h], j, hull[h + 1]))
    return out


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
    t = as_gamma(t)
    if t.is_inf or t.finite.denominator != 1:
        raise PreconditionError("residual square test needs an integral radius")
    a0, a1, a2 = rows[0], rows[1], rows[2]
    disc = poly_sub(poly_mul(a1, a1), [4 * x for x in poly_mul(a0, a2)])
    disc = trim(disc)
    if not disc:
        return False
    shifted = taylor_shift(disc, field.coerce(center))
    # val(b_i) + i*t for the coefficients b_i around the center; their
    # minimum m is the discriminant's valuation at B(center, t)
    terms = [field.val(b) + t.scale(i) for i, b in enumerate(shifted)]
    m = gmin(terms)
    if m.finite.numerator % 2:
        return False
    residual = []
    for i, (b, v) in enumerate(zip(shifted, terms)):
        if v == m:
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

    def div(a, b) -> Fraction:
        # a / b in k, through the field's own residue map
        return Fraction(field.residue(field.coerce(Fraction(a) / b)))

    monic = [div(a, lead) for a in h]
    half = (len(h) - 1) // 2
    # the monic root s, from the top coefficients down: the u^(half + i)
    # coefficient of s^2 is 2 s_i plus products of s_(i+1..half-1)
    s = [Fraction(0)] * half + [Fraction(1)]
    for i in range(half - 1, -1, -1):
        acc = sum((s[a] * s[half + i - a] for a in range(i + 1, half)), Fraction(0))
        s[i] = div(monic[half + i] - acc, 2)
    return not any(div(x, 1) for x in poly_sub(poly_mul(s, s), monic))
