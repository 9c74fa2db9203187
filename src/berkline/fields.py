"""Valued base fields with exact arithmetic.

Two desk-scale fields are provided: the rationals with a p-adic
valuation, and rational functions Q(t) with the t-adic valuation.
p-adic elements are plain ``Fraction`` objects; t-adic elements are
:class:`RatFunc`, a reduced fraction of polynomials with monic
denominator, so equality is structural and values hash.

Both fields expose the same small surface: ``coerce``, ``val``,
``truncate`` (the expansion below a cut level, in closed form: p^v (u mod
p^m) for v = val(a), u = a / p^v and m = ceil(level) - v in Q_p, the
Laurent terms a_i t^i with i < level in Q(t)), residue-field helpers, and
JSON round-tripping for scene files.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import PreconditionError, SceneError
from .gamma import INF, Gamma, Rational, as_gamma, rational
from .polys import poly_add, poly_divmod, poly_gcd, poly_mul, poly_neg, trim
from .spec import FIELD, walk

__all__ = ["PAdicField", "TAdicField", "RatFunc", "ValuedField", "field_from_json"]


_ONE = (Fraction(1),)


class RatFunc:
    """A reduced rational function in t over Q with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence[Rational] = (), den: Sequence[Rational] = (1,)):
        n = trim(tuple(x if type(x) is Fraction else rational(x) for x in num))
        d = trim(tuple(x if type(x) is Fraction else rational(x) for x in den))
        if not d:
            raise ZeroDivisionError("rational function with zero denominator")
        if not n:
            self.num, self.den = (), _ONE
            return
        if len(d) == 1:
            # a constant denominator has gcd 1 with every numerator
            lead = d[0]
            self.num = n if lead == 1 else tuple(x / lead for x in n)
            self.den = _ONE
            return
        g = poly_gcd(n, d)
        if len(g) > 1:
            n = poly_divmod(n, g)[0]
            d = poly_divmod(d, g)[0]
        lead = d[-1]
        self.num = tuple(x / lead for x in n)
        self.den = tuple(x / lead for x in d)

    @staticmethod
    def t() -> "RatFunc":
        return RatFunc((0, 1))

    @staticmethod
    def _coerce(x: "RatFunc | Rational") -> "RatFunc":
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc((x,))
        return NotImplemented  # type: ignore[return-value]

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        o = RatFunc._coerce(other)  # type: ignore[arg-type]
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def _combine(self, o: "RatFunc", onum: Sequence) -> "RatFunc":
        """self + onum / o.den; equal denominators add the numerators as they are."""
        if self.den == o.den:
            return RatFunc(poly_add(self.num, onum), self.den)
        num = poly_add(poly_mul(self.num, o.den), poly_mul(onum, self.den))
        return RatFunc(num, poly_mul(self.den, o.den))

    def __add__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._combine(o, o.num)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(poly_neg(self.num), self.den)

    def __sub__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._combine(o, poly_neg(o.num))

    def __rsub__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RatFunc(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(poly_mul(self.num, o.den), poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = RatFunc._coerce(other)
        return NotImplemented if o is NotImplemented else o / self

    def __pow__(self, k: int):
        if k < 0:
            return 1 / (self ** (-k))
        out = RatFunc((1,))
        for _ in range(k):
            out = out * self
        return out

    def order(self) -> "int | None":
        """t-adic order; None for the zero function."""
        if not self.num:
            return None
        n = next(i for i, c in enumerate(self.num) if c)
        d = next(i for i, c in enumerate(self.den) if c)
        return n - d

    def series(self, upto: int) -> dict[int, Fraction]:
        """Laurent coefficients a_i for all i < upto (finitely many nonzero)."""
        if not self.num:
            return {}
        k = next(i for i, c in enumerate(self.num) if c)
        l = next(i for i, c in enumerate(self.den) if c)
        n0 = self.num[k:]
        d0 = self.den[l:]
        shift = k - l
        count = upto - shift
        if count <= 0:
            return {}
        coeffs: list[Fraction] = []
        for j in range(count):
            acc = n0[j] if j < len(n0) else Fraction(0)
            for i in range(max(0, j - len(d0) + 1), j):
                acc -= coeffs[i] * d0[j - i]
            coeffs.append(acc / d0[0])
        return {j + shift: c for j, c in enumerate(coeffs) if c}

    def __repr__(self) -> str:
        def side(c: tuple[Fraction, ...]) -> str:
            if not c:
                return "0"
            parts = []
            for i, x in enumerate(c):
                if not x:
                    continue
                if i == 0:
                    parts.append(str(x))
                elif i == 1:
                    parts.append(f"{x}*t" if x != 1 else "t")
                else:
                    parts.append(f"{x}*t^{i}" if x != 1 else f"t^{i}")
            return " + ".join(parts)

        if self.den == _ONE:
            return f"RatFunc({side(self.num)})"
        return f"RatFunc(({side(self.num)})/({side(self.den)}))"


# Miller-Rabin with these bases decides primality exactly below _PRIME_LIMIT
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    # n passes base a when a^d = 1 or a^(d * 2^i) = -1 for some i < s
    return all(
        pow(a, d, n) == 1 or n - 1 in (pow(a, d << i, n) for i in range(s)) for a in _PRIME_BASES
    )


def _int_val(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero integer")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class PAdicField:
    """Q with the p-adic valuation; value group Z inside Q."""

    kind = "padic"

    def __init__(self, p: int):
        if isinstance(p, int) and p >= _PRIME_LIMIT:
            raise ValueError(f"p must be below {_PRIME_LIMIT} for an exact primality test")
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"p not prime: {p!r}")
        self.p = p
        self.residue_char = p

    def __repr__(self) -> str:
        return f"PAdicField({self.p})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PAdicField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("padic", self.p))

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, x) -> Fraction:
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise PreconditionError(f"not a p-adic field element: {x!r}")

    def val(self, a) -> Gamma:
        a = self.coerce(a)
        if a == 0:
            return INF
        return Gamma(_int_val(a.numerator, self.p) - _int_val(a.denominator, self.p))

    def uniformizer_pow(self, k: int) -> Fraction:
        return Fraction(self.p) ** k

    def residue(self, a) -> int:
        """Image in F_p of an element of nonnegative valuation, as 0..p-1."""
        a = self.coerce(a)
        if self.val(a) < 0:
            raise PreconditionError("residue of an element with negative valuation")
        num = a.numerator % self.p
        den = a.denominator % self.p
        return (num * pow(den, -1, self.p)) % self.p

    def truncate(self, a, level: "Gamma | Rational") -> Fraction:
        """Canonical digit expansion of ``a`` below ``level``: p^v (u mod p^m)
        for v = val(a), u = a / p^v and m = ceil(level) - v, or 0 if m <= 0.

        The result r is the unique finite digit sum with val(a - r) >= level,
        so centers of equal balls truncate identically.
        """
        a = self.coerce(a)
        level = as_gamma(level)
        if a == 0 or level.is_inf:
            return a
        v = int(self.val(a).finite)
        m = math.ceil(level.finite) - v
        if m <= 0:
            return Fraction(0)
        pv = Fraction(self.p) ** v
        u = a / pv
        # a nonnegative integer u below 2^(m (bits(p) - 1)) <= p^m is its own
        # residue, and p^m need not be formed
        n = u.numerator
        if u.denominator == 1 and n >= 0 and n.bit_length() <= m * (self.p.bit_length() - 1):
            return a
        mod = self.p**m
        return n * pow(u.denominator, -1, mod) % mod * pv

    def elem_to_json(self, a) -> str:
        return str(self.coerce(a))

    def elem_from_json(self, obj) -> Fraction:
        return rational(obj)

    def sort_key(self, a):
        a = self.coerce(a)
        return (a.numerator, a.denominator)


class TAdicField:
    """Q(t) with the t-adic valuation; value group Z inside Q."""

    kind = "tadic"

    def __init__(self) -> None:
        self.residue_char = 0

    def __repr__(self) -> str:
        return "TAdicField()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TAdicField)

    def __hash__(self) -> int:
        return hash("tadic")

    @property
    def zero(self) -> RatFunc:
        return RatFunc()

    @property
    def one(self) -> RatFunc:
        return RatFunc((1,))

    def coerce(self, x) -> RatFunc:
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc((x,))
        raise PreconditionError(f"not a t-adic field element: {x!r}")

    def val(self, a) -> Gamma:
        a = self.coerce(a)
        o = a.order()
        return INF if o is None else Gamma(o)

    def uniformizer_pow(self, k: int) -> RatFunc:
        return RatFunc.t() ** k

    def residue(self, a) -> Fraction:
        """Value at t = 0 of an element of nonnegative valuation."""
        a = self.coerce(a)
        v = self.val(a)
        if v < 0:
            raise PreconditionError("residue of an element with negative valuation")
        if v > 0:
            return Fraction(0)
        return a.series(1)[0]

    def truncate(self, a, level: "Gamma | Rational") -> RatFunc:
        a = self.coerce(a)
        level = as_gamma(level)
        if level.is_inf:
            return a
        # series(ceil(level)) holds exactly the coefficients a_i with i < level
        coeffs = a.series(math.ceil(level.finite))
        shift = min(0, min(coeffs, default=0))
        num = [Fraction(0)] * (max(coeffs, default=0) - shift + 1)
        for i, c in coeffs.items():
            num[i - shift] = c
        return RatFunc(num, [Fraction(0)] * (-shift) + [Fraction(1)])

    def elem_to_json(self, a):
        a = self.coerce(a)
        if a.den == _ONE and len(a.num) <= 1:
            return str(a.num[0]) if a.num else "0"
        return {
            "num": [str(c) for c in a.num],
            "den": [str(c) for c in a.den],
        }

    def elem_from_json(self, obj) -> RatFunc:
        """A rational, or {"num": [...], "den": [...]} coefficient lists."""
        if not isinstance(obj, dict):
            return RatFunc((rational(obj),))
        num, den = obj.get("num", []), obj.get("den", ["1"])
        if not (set(obj) <= {"num", "den"} and isinstance(num, list) and isinstance(den, list)):
            raise PreconditionError(f"bad t-adic element {obj!r}")
        den = [rational(c) for c in den]
        if not any(den):
            raise PreconditionError("t-adic element with zero denominator")
        return RatFunc([rational(c) for c in num], den)

    def sort_key(self, a):
        a = self.coerce(a)
        return (len(a.num), len(a.den), a.num, a.den)


ValuedField = Union[PAdicField, TAdicField]


def field_from_json(obj) -> ValuedField:
    """The field of a scene's "field" description, read by ``spec.FIELD``."""
    desc = walk(FIELD, obj, "field")
    if desc["kind"] == "tadic":
        return TAdicField()
    try:
        return PAdicField(desc["p"])
    except ValueError as exc:
        raise SceneError(f"field.p: {exc}") from exc
