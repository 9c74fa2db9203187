"""Univariate polynomial helpers over any exact coefficient ring.

Polynomials are little-endian coefficient lists.  Coefficients only need
ring arithmetic through the usual operators plus equality with 0, so the
same helpers serve Fraction coefficients and rational-function
coefficients alike; division and gcd also need an exact ``/``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import PreconditionError

DEFAULT_DEGREE_CAP = 64


def trim(coeffs: Sequence) -> Sequence:
    """Drop trailing zeros; a slice, so a list stays a list and a tuple a tuple."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


def poly_add(a: Sequence, b: Sequence) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(x + y)
    return trim(out)


def poly_neg(a: Sequence) -> list:
    return [-x for x in a]

def poly_sub(a: Sequence, b: Sequence) -> list:
    return poly_add(a, poly_neg(b))


def poly_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    # zero-padded inputs only add zeros that the output trim removes
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def poly_divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder with a = q*b + r and deg r < deg b.

    The divisor's leading coefficient needs an exact inverse, so pass
    Fraction or RatFunc coefficients, not ints.
    """
    b = trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    shift = len(b) - 1
    rem = list(a)
    quot = [0] * max(0, len(a) - shift)
    inv_lead = 1 / b[-1]
    for top in range(len(a) - 1, shift - 1, -1):
        factor = rem[top] * inv_lead
        if factor != 0:
            quot[top - shift] = factor
            for j, y in enumerate(b):
                rem[top - shift + j] -= factor * y
    return trim(quot), trim(rem)


def poly_gcd(a: Sequence, b: Sequence) -> list:
    """Monic greatest common divisor; [] when both inputs are zero."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if not a:
        return []
    lead = a[-1]
    return [x / lead for x in a]


def poly_eval(a: Sequence, x):
    acc = None
    for c in reversed(list(a)):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return 0
    return acc


def taylor_shift(coeffs: Sequence, c, max_degree: int = DEFAULT_DEGREE_CAP) -> list:
    """Coefficients a_i with f(x) = sum a_i (x - c)^i, exactly.

    Runs repeated synthetic division by (x - c); O(d^2) ring operations.
    """
    work = trim(coeffs)
    if len(work) - 1 > max_degree:
        raise PreconditionError(
            f"polynomial degree {len(work) - 1} exceeds cap {max_degree}"
        )
    out = []
    while work:
        if len(work) == 1:
            out.append(work[0])
            break
        quot = [None] * (len(work) - 1)
        acc = work[-1]
        for j in range(len(work) - 2, -1, -1):
            quot[j] = acc
            acc = work[j] + c * acc
        out.append(acc)
        work = quot
    return out
