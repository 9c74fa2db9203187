"""Tropical projective points and valuation images of polynomial tuples.

A tuple h = (h_0, ..., h_m) of homogeneous polynomials of one common
degree, with no common zero at the points of interest, sends a point x
to the tropical projective point obtained by normalizing the valuation
tuple (val h_0(x), ..., val h_m(x)).  Ball points of the projective line
are supported through per-chart dehomogenization and gauss_val.

Bivariate tuples are lists c_0..c_d of coefficients of x_0^(d-j) x_1^j.
General tuples are monomial maps {exponents: coefficient}.  The polydisk
valuation of a polynomial at a nonnegative radius vector realizes the
monomial semi-lattices used for membership tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import PreconditionError
from .gamma import Gamma, as_gamma, gmin
from .pline import INV, PLinePoint, gauss_val, infinity_point, normalize_point, simple_point


@dataclass(frozen=True, slots=True)
class TropPoint:
    """Point of tropical projective space: coordinates with minimum 0."""

    coords: tuple

    def __post_init__(self):
        if not self.coords:
            raise PreconditionError("tropical point needs at least one coordinate")
        if gmin(self.coords) != Gamma(0):
            raise PreconditionError("tropical coordinates must have minimum 0")


def trop_normalize(raw: Sequence) -> TropPoint:
    """Subtract the minimum coordinate; infinity absorbs the shift."""
    vals = [as_gamma(v) for v in raw]
    if not vals:
        raise PreconditionError("tropical point needs at least one coordinate")
    low = gmin(vals)
    if low.is_inf:
        raise PreconditionError("all tropical coordinates are infinite")
    return TropPoint(tuple(v - low for v in vals))


def _dehomogenize(row: list, chart: str) -> list:
    return row if chart != INV else row[::-1]


def _bivariate_tuple(field, polys: Sequence) -> list:
    rows = [[field.coerce(a) for a in row] for row in polys]
    if not rows:
        raise PreconditionError("polynomial tuple is empty")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise PreconditionError("tuple entries must share one homogeneous degree")
    for r in rows:
        if all(a == field.zero for a in r):
            raise PreconditionError("tuple entries must be nonzero")
    return rows


def tau_h(field, polys, x) -> TropPoint:
    """Tropical image of a point under a homogeneous polynomial tuple.

    ``x`` is a PLinePoint, or a pair of homogeneous coordinates for a
    simple point of the projective line, or a longer coordinate list
    when the tuple is given in monomial form.
    """
    if isinstance(x, PLinePoint):
        return _tau_line(field, polys, x)
    coords = [field.coerce(a) for a in x]
    if all(a == field.zero for a in coords):
        raise PreconditionError("homogeneous coordinates must not all vanish")
    if polys and isinstance(polys[0], Mapping):
        return _tau_simple(field, polys, coords)
    if len(coords) != 2:
        raise PreconditionError("coefficient-list tuples need projective-line points")
    if coords[0] == field.zero:
        return _tau_line(field, polys, infinity_point(field))
    return _tau_line(field, polys, simple_point(field, coords[1] / coords[0]))


def _tau_line(field, polys, x: PLinePoint) -> TropPoint:
    rows = _bivariate_tuple(field, polys)
    q = normalize_point(field, x)
    vals = [gauss_val(field, _dehomogenize(row, q.chart), q) for row in rows]
    if all(v.is_inf for v in vals):
        raise PreconditionError("every tuple entry vanishes at the point")
    return trop_normalize(vals)


def _monomial_map(field, h) -> dict:
    if isinstance(h, Mapping):
        items = h.items()
    else:
        items = h
    out = {}
    for exps, coeff in items:
        e = tuple(int(k) for k in exps)
        if any(k < 0 for k in e):
            raise PreconditionError("monomial exponents must be nonnegative")
        c = field.coerce(coeff)
        if c != field.zero:
            out[e] = out.get(e, field.zero) + c
    return {e: c for e, c in out.items() if c != field.zero}


def _tau_simple(field, polys, coords: list) -> TropPoint:
    degrees = set()
    maps = []
    for h in polys:
        mono = _monomial_map(field, h)
        if not mono:
            raise PreconditionError("tuple entries must be nonzero")
        for e in mono:
            if len(e) != len(coords):
                raise PreconditionError("monomial arity must match the point")
            degrees.add(sum(e))
        maps.append(mono)
    if len(degrees) != 1:
        raise PreconditionError("tuple entries must share one homogeneous degree")
    vals = []
    for mono in maps:
        total = field.zero
        for e, c in mono.items():
            term = c
            for xi, k in zip(coords, e):
                for _ in range(k):
                    term = term * xi
            total = total + term
        vals.append(field.val(total))
    if all(v.is_inf for v in vals):
        raise PreconditionError("every tuple entry vanishes at the point")
    return trop_normalize(vals)


def polydisk_gauss_val(field, h, gamma: Sequence) -> Gamma:
    """Minimal valuation of h on the polydisk of radius vector gamma.

    gamma entries are nonnegative (infinity allowed); h is a nonzero
    polynomial in monomial form over len(gamma) variables.  The value is
    min over monomials of val(coefficient) + exponents . gamma.
    """
    radii = [as_gamma(g) for g in gamma]
    if any(g < 0 for g in radii):
        raise PreconditionError("polydisk radii must be nonnegative")
    mono = _monomial_map(field, h)
    if not mono:
        raise PreconditionError("polynomial must be nonzero")
    best = []
    for e, c in mono.items():
        if len(e) != len(radii):
            raise PreconditionError("monomial arity must match the radius vector")
        acc = field.val(c)
        for k, g in zip(e, radii):
            if k:
                acc = acc + g.scale(k)
        best.append(acc)
    return gmin(best)


def semilattice_member(field, h, gamma: Sequence, d: int) -> bool:
    """Membership of h in the degree-d monomial semi-lattice at gamma."""
    mono = _monomial_map(field, h)
    if not mono:
        return True
    if max(sum(e) for e in mono) > d:
        raise PreconditionError("polynomial degree exceeds the lattice degree")
    return polydisk_gauss_val(field, mono, gamma) >= 0
