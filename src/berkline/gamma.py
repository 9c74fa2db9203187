"""Exact value-group arithmetic: rationals extended by an absorbing infinity.

``Gamma`` models Q together with a top element ``inf``.  Sums involving
``inf`` are ``inf``; operations that would escape downward (``inf - inf``,
``0 * inf``, negative multiples of ``inf``) raise :class:`GammaError`
because the extended group has no bottom element.

``MinAffine`` models pointwise minima of finitely many affine maps
``t -> intercept + slope * t`` on the value group.  The module also holds
the package's one coercion of input to an exact rational
(:func:`rational`) and to the value group (:func:`as_gamma`), and the
lower convex hull shared with Newton polygons (:func:`lower_hull`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import PreconditionError

__all__ = [
    "Gamma", "GammaError", "INF", "INF_WORDS", "MinAffine", "Rational", "as_gamma",
    "gmax", "gmin", "lower_hull", "rational",
]

Rational = Union[int, Fraction]


def rational(x) -> Fraction:
    """Exact rational from an int (not a bool), a Fraction, or a literal like "3/4"."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    if not isinstance(x, str):
        raise PreconditionError(f"expected an exact rational, got {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError(f"bad rational literal {x!r}") from exc


class GammaError(ArithmeticError):
    """An operation left the extended value group."""


class Gamma:
    """An element of Q union {inf}, totally ordered with inf on top."""

    __slots__ = ("_value",)

    def __init__(self, value: "Rational | Gamma | None" = None):
        if isinstance(value, Gamma):
            self._value = value._value
        elif value is None:
            self._value = None
        elif isinstance(value, (int, Fraction)):
            self._value = Fraction(value)
        else:
            raise TypeError(f"not a rational or inf: {value!r}")

    @property
    def is_inf(self) -> bool:
        return self._value is None

    @property
    def finite(self) -> Fraction:
        if self._value is None:
            raise GammaError("expected a finite value, got inf")
        return self._value

    def __add__(self, other: "Gamma | Rational") -> "Gamma":
        other = _coerce(other)
        if self._value is None or other._value is None:
            return INF
        return Gamma(self._value + other._value)

    __radd__ = __add__

    def __sub__(self, other: "Gamma | Rational") -> "Gamma":
        other = _coerce(other)
        if other._value is None:
            raise GammaError("cannot subtract inf")
        if self._value is None:
            return INF
        return Gamma(self._value - other._value)

    def __neg__(self) -> "Gamma":
        if self._value is None:
            raise GammaError("cannot negate inf")
        return Gamma(-self._value)

    def scale(self, factor: Rational) -> "Gamma":
        """Multiply by a rational scalar; 0 * inf and negative * inf are errors."""
        if type(factor) is not int:
            factor = rational(factor)
        if self._value is None:
            if factor <= 0:
                raise GammaError("cannot scale inf by a nonpositive factor")
            return INF
        return Gamma(self._value * factor)

    def _key(self) -> tuple:
        # inf sorts above every rational
        if self._value is None:
            return _INF_KEY
        return (0, self._value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Gamma(other)
        if not isinstance(other, Gamma):
            return NotImplemented
        return self._value == other._value

    def __hash__(self) -> int:
        # equal to its int/Fraction value, so it must hash like it
        return hash(self._value)

    def __lt__(self, other: "Gamma | Rational") -> bool:
        return self._key() < _coerce(other)._key()

    def __le__(self, other: "Gamma | Rational") -> bool:
        return self._key() <= _coerce(other)._key()

    def __gt__(self, other: "Gamma | Rational") -> bool:
        return self._key() > _coerce(other)._key()

    def __ge__(self, other: "Gamma | Rational") -> bool:
        return self._key() >= _coerce(other)._key()

    def __str__(self) -> str:
        if self._value is None:
            return "inf"
        return str(self._value)

    def __repr__(self) -> str:
        return f"Gamma({str(self)!r})"


# one key for every inf: `_key` orders radii in the ball tree's inner loops
_INF_KEY = (1, Fraction(0))


def _coerce(x: "Gamma | Rational") -> Gamma:
    return x if isinstance(x, Gamma) else Gamma(x)


INF = Gamma(None)
INF_WORDS = ("inf", "oo")


def as_gamma(x) -> Gamma:
    """An element of Gamma: a Gamma as it is, a :func:`rational`, or inf
    spelled as one of INF_WORDS; anything else is a PreconditionError."""
    if isinstance(x, Gamma):
        return x
    return INF if isinstance(x, str) and x in INF_WORDS else Gamma(rational(x))


def gmin(items: Iterable["Gamma | Rational"]) -> Gamma:
    values = [_coerce(x) for x in items]
    if not values:
        raise ValueError("gmin of empty sequence")
    return min(values, key=Gamma._key)


def gmax(items: Iterable["Gamma | Rational"]) -> Gamma:
    values = [_coerce(x) for x in items]
    if not values:
        raise ValueError("gmax of empty sequence")
    return max(values, key=Gamma._key)


class MinAffine:
    """Pointwise minimum of affine maps t -> intercept + slope * t.

    The canonical form keeps exactly the terms that attain the minimum on
    an interval of positive length, sorted by slope.  Terms with infinite
    intercept are dropped; the empty term list is the constant-inf map.
    Equality of canonical forms coincides with pointwise equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[Rational, "Rational | Gamma"]] = ()):
        finite: dict[Fraction, Fraction] = {}
        for slope, intercept in terms:
            g = _coerce(intercept)
            if g.is_inf:
                continue
            s = rational(slope)
            if s not in finite or g.finite < finite[s]:
                finite[s] = g.finite
        # t -> b + m*t is minimal exactly where (m, b) minimizes (t, 1) . (m, b)
        self._terms = tuple(lower_hull(sorted(finite.items())))

    @property
    def terms(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Canonical (slope, intercept) pairs, sorted by slope."""
        return self._terms

    @property
    def is_infinite(self) -> bool:
        return not self._terms

    def __call__(self, t: "Gamma | Rational") -> Gamma:
        return self.eval(t)

    def eval(self, t: "Gamma | Rational") -> Gamma:
        if not self._terms:
            return INF
        t = _coerce(t)
        if t.is_inf:
            # limit along t -> inf: the term of smallest slope wins
            slope, intercept = self._terms[0]
            if slope > 0:
                return INF
            if slope == 0:
                return Gamma(intercept)
            raise GammaError("min-affine map diverges to -inf at t = inf")
        tv = t.finite
        return Gamma(min(b + m * tv for m, b in self._terms))

    def breakpoints(self) -> list[Fraction]:
        """Arguments where the attaining term changes, strictly increasing."""
        # attainment order as t increases runs through slopes in decreasing order
        pts = []
        ordered = list(reversed(self._terms))
        for (m1, b1), (m2, b2) in zip(ordered, ordered[1:]):
            pts.append((b2 - b1) / (m1 - m2))
        return pts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinAffine):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(("MinAffine", self._terms))

    def __iter__(self) -> Iterator[tuple[Fraction, Fraction]]:
        return iter(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "MinAffine(inf)"
        parts = " , ".join(f"{b}+{m}t" for m, b in self._terms)
        return f"MinAffine({parts})"


def lower_hull(pts: list) -> list:
    """Vertices of the lower convex hull of points with strictly increasing x.

    A point is (x, y), or (x, y, s) for a point moving as (x, y + e s):
    the hull of moving points is the one they keep for every small enough
    e > 0, so heights compare by (y, s) lexicographically.  Collinear
    points are dropped, so every vertex is strictly lowest for some
    direction.
    """
    hull = []
    for p in pts:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            u, w = b[0] - a[0], p[0] - a[0]
            lhs, rhs = u * (p[1] - a[1]), (b[1] - a[1]) * w
            if lhs <= rhs and (lhs < rhs or len(p) == 2 or u * (p[2] - a[2]) <= (b[2] - a[2]) * w):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull
