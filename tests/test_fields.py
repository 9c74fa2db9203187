import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from berkline.errors import PreconditionError
from berkline.fields import (
    PAdicField,
    RatFunc,
    TAdicField,
    _int_val,
    _is_prime,
    field_from_json,
)
from berkline.gamma import INF, Gamma
from berkline.polys import (
    poly_add,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_neg,
    taylor_shift,
    trim,
)

Q5 = PAdicField(5)
Q2 = PAdicField(2)
QT = TAdicField()

rationals = st.fractions(max_denominator=60)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def ratfuncs():
    coeff = st.fractions(max_denominator=8)
    polys = st.lists(coeff, min_size=1, max_size=4)
    return st.builds(
        lambda n, d: RatFunc(n, d),
        polys,
        polys.filter(lambda d: any(d)),
    )


def test_padic_val_examples():
    assert Q5.val(Fraction(50)) == Gamma(2)
    assert Q5.val(Fraction(1, 5)) == Gamma(-1)
    assert Q5.val(Fraction(3, 7)) == Gamma(0)
    assert Q5.val(Fraction(0)) == INF
    assert Q2.val(Fraction(12)) == Gamma(2)


def test_padic_prime_check():
    with pytest.raises(ValueError):
        PAdicField(6)
    with pytest.raises(ValueError):
        PAdicField(1)
    with pytest.raises(ValueError):
        PAdicField(10**400 + 1)  # above the exact range of the primality test
    PAdicField(2)
    PAdicField(97)
    PAdicField(2**61 - 1)  # trial division up to its square root takes minutes


def test_primality_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if _is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to the bases 2..7 and 2..23, and Carmichael numbers
    for n in (3215031751, 3825123056546413051, 561, 41041, 2**61 + 1, 2**67 - 1):
        assert not _is_prime(n)
    for n in (10**9 + 7, 2**31 - 1, 2**61 - 1):
        assert _is_prime(n)


def test_field_literals_are_exact_rationals():
    # one rational coercion: a bool is not a field element
    for field in (Q5, QT):
        with pytest.raises(PreconditionError):
            field.elem_from_json(True)
        with pytest.raises(PreconditionError):
            field.elem_from_json("1/0")
    with pytest.raises(PreconditionError):
        QT.elem_from_json({"num": ["1"], "den": ["0"]})
    with pytest.raises(PreconditionError):
        QT.elem_from_json({"num": "12"})


@given(nonzero_rationals, nonzero_rationals)
def test_padic_valuation_axioms(a, b):
    v = Q5.val
    assert v(a * b) == v(a) + v(b)
    if a + b != 0:
        assert v(a + b) >= min(v(a), v(b))
    if v(a) != v(b):
        assert v(a + b) == min(v(a), v(b))


def test_padic_truncate():
    # 50 = 2*25 has digits only at level 2
    assert Q5.truncate(Fraction(50), 2) == 0
    assert Q5.truncate(Fraction(50), 3) == 50
    assert Q5.truncate(Fraction(26), 1) == 1
    assert Q5.truncate(Fraction(1, 5), 1) == Fraction(1, 5)
    assert Q5.truncate(Fraction(1, 5), -1) == 0
    # 1/3 = 2 + 3*5 + ... in Q_5
    t = Q5.truncate(Fraction(1, 3), 2)
    assert t == 17
    assert Q5.val(Fraction(1, 3) - t) >= 2


@given(rationals, st.integers(min_value=-3, max_value=5))
def test_padic_truncate_is_canonical(a, level):
    t = Q5.truncate(a, level)
    assert Q5.val(a - t) >= level or a == t
    # truncation is idempotent and only uses digits below the level
    assert Q5.truncate(t, level) == t
    # two centers of the same ball truncate identically
    b = a + Fraction(7) * Fraction(5) ** max(level, 0)
    assert Q5.val(a - b) >= level
    assert Q5.truncate(b, level) == t


def truncate_by_digits(field, a, level):
    """PAdicField.truncate before the closed form, kept as an oracle: peel
    off one digit at a time until the next digit sits at or above level."""
    a = field.coerce(a)
    level = level if isinstance(level, Gamma) else Gamma(level)
    if level.is_inf:
        return a
    out = Fraction(0)
    work = a
    while work != 0:
        i = _int_val(work.numerator, field.p) - _int_val(work.denominator, field.p)
        if i >= level.finite:
            break
        digit = field.residue(work / Fraction(field.p) ** i)
        term = Fraction(digit) * Fraction(field.p) ** i
        out += term
        work -= term
    return out


def test_padic_truncate_matches_digit_oracle():
    # denominators divisible by p, negative numerators, levels that are
    # non-integer, negative or below val(a); the oracle only runs at
    # levels <= 40, where its digit loop stays cheap
    rng = random.Random(1414)
    fields = [PAdicField(p) for p in (2, 3, 5, 7, 13)]
    for k in range(2500):
        field = fields[k % len(fields)]
        p = field.p
        num = rng.randint(-10**6, 10**6)
        den = rng.randint(1, 400) * p ** rng.randint(0, 4)
        a = Fraction(num, den) * Fraction(p) ** rng.randint(-3, 3)
        level = Fraction(rng.randint(-12 * 6, 40 * 6), rng.choice((1, 2, 3, 6)))
        if k % 7 == 0 and a:
            # a level at or below val(a) truncates to zero
            level = field.val(a).finite - rng.randint(0, 3)
        got = field.truncate(a, level)
        assert got == truncate_by_digits(field, a, level), (p, a, level)
        assert isinstance(got, Fraction)
    assert Q5.truncate(Fraction(3, 7), INF) == Fraction(3, 7)
    assert Q5.truncate(Fraction(0), 3) == 0


def test_padic_truncate_deep_level():
    # centers whose 5-adic expansion never ends, 10^4 and 3000 digits deep
    assert PAdicField(5).truncate(Fraction(1, 3), 10**4) == Fraction(pow(3, -1, 5**10**4))
    assert PAdicField(5).truncate(Fraction(-2, 75), 3000) == Fraction(
        -2 * pow(3, -1, 5**3002) % 5**3002, 25
    )


def test_padic_truncate_short_integers():
    # a nonnegative integer unit part below p^m is its own truncation; the
    # short-cut answers without forming p^m, so a level of 10^6 is cheap
    assert Q5.truncate(7, 10**6) == 7
    assert Q5.truncate(Fraction(50), 10**6) == 50
    assert Q2.truncate(Fraction(15, 2), 10**6) == Fraction(15, 2)
    # at and around the edge of the bit-length bound, against the digit loop
    for p in (2, 3, 5, 7, 13):
        field = PAdicField(p)
        for u in range(0, 4 * p * p):
            for level in range(-1, 4):
                want = truncate_by_digits(field, u, level)
                assert field.truncate(u, level) == want, (p, u, level)
                assert field.truncate(Fraction(u, p), level) == truncate_by_digits(field, Fraction(u, p), level)


def test_padic_coerce_keeps_fractions():
    f = Fraction(3, 4)
    assert Q5.coerce(f) is f
    assert type(Q5.coerce(3)) is Fraction and Q5.coerce(3) == 3
    with pytest.raises(PreconditionError):
        Q5.coerce(0.75)


def test_ratfunc_normal_form():
    t = RatFunc.t()
    a = (t * t + t) / (t + 1)
    assert a == t
    b = (2 * t + 2) / (t + 1)
    assert b == RatFunc((2,))
    # denominator is monic after reduction
    c = RatFunc((1,), (0, 2))
    assert c.den == (Fraction(0), Fraction(1))
    assert c.num == (Fraction(1, 2),)
    assert RatFunc((0,)) == 0
    assert not RatFunc((0,))


@pytest.mark.parametrize("other", [2.5, "a"])
def test_ratfunc_reflected_division_by_a_non_element(other):
    # __rtruediv__ declines like the other operators, so Python raises
    # TypeError instead of recursing
    with pytest.raises(TypeError):
        other / RatFunc((1, 1))
    assert 1 / RatFunc((1, 1)) == RatFunc((1,), (1, 1))


def normal_form_by_gcd(num, den):
    """(num, den) of a RatFunc as the constructor made it for every
    denominator before constant denominators skipped the gcd; kept as the
    oracle for the short-cuts."""
    n = trim(tuple(Fraction(x) for x in num))
    d = trim(tuple(Fraction(x) for x in den))
    if not n:
        return (), (Fraction(1),)
    g = poly_gcd(n, d)
    if len(g) > 1:
        n = poly_divmod(n, g)[0]
        d = poly_divmod(d, g)[0]
    lead = d[-1]
    return tuple(x / lead for x in n), tuple(x / lead for x in d)


def assert_same_ratfunc(a, b):
    assert (a.num, a.den) == (b.num, b.den)
    assert all(type(x) is Fraction for x in a.num + a.den)
    assert a == b and hash(a) == hash(b)


def _random_poly(rng, size):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(size)]


def test_ratfunc_constant_denominator_matches_gcd_path():
    # RatFunc(n, (c,)) takes no gcd; RatFunc(n g, c g) with g non-constant
    # must, and both must land on the same normal form
    rng = random.Random(2020)
    for _ in range(400):
        n = _random_poly(rng, rng.randint(0, 4))
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
        g = _random_poly(rng, rng.randint(2, 3))
        if not trim(g):
            g = [Fraction(1), Fraction(1)]
        short = RatFunc(n, (c,))
        general = RatFunc(poly_mul(n, g), poly_mul([c], g))
        assert_same_ratfunc(short, general)
        assert (short.num, short.den) == normal_form_by_gcd(n, (c,))
        assert len({short, general}) == 1
        # ints and Fractions read the same
        ints = [rng.randint(-4, 4) for _ in range(3)]
        assert_same_ratfunc(RatFunc(ints, (3,)), RatFunc([Fraction(x) for x in ints], (Fraction(3),)))
    assert RatFunc((Fraction(2), Fraction(4)), (2,)).num == (Fraction(1), Fraction(2))
    assert RatFunc((), (7,)).den == (Fraction(1),)


def test_ratfunc_sum_and_difference_match_gcd_formulas():
    # the parent formulas: a + b over the product of the denominators, and
    # a - b as a + (-b) with -b normalized on its own
    rng = random.Random(2021)

    def sample():
        kind = rng.randrange(4)
        if kind == 0:
            return RatFunc(_random_poly(rng, rng.randint(0, 4)))
        den = [Fraction(1), Fraction(0), Fraction(-2)] if kind == 1 else _random_poly(rng, 2)
        if not trim(den):
            den = [Fraction(1)]
        return RatFunc(_random_poly(rng, rng.randint(0, 4)), den)

    def check(got, num, den):
        assert (got.num, got.den) == normal_form_by_gcd(num, den)
        assert all(type(x) is Fraction for x in got.num + got.den)

    for _ in range(600):
        a = sample()
        # equal denominators half of the time
        b = RatFunc(_random_poly(rng, 3), a.den) if rng.random() < 0.5 else sample()
        check(a + b, poly_add(poly_mul(a.num, b.den), poly_mul(b.num, a.den)), poly_mul(a.den, b.den))
        nb_num, nb_den = normal_form_by_gcd(poly_neg(b.num), b.den)
        check(a - b, poly_add(poly_mul(a.num, nb_den), poly_mul(nb_num, a.den)), poly_mul(a.den, nb_den))
        k = rng.randint(-3, 3)
        check(a - k, poly_add(a.num, poly_mul([-k], a.den)), a.den)
        check(k - a, poly_add(poly_mul([k], a.den), poly_neg(a.num)), a.den)
        check(a - a, (), (1,))


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ratfunc_field_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    if b != 0:
        assert (a / b) * b == a


@given(ratfuncs(), ratfuncs())
def test_tadic_valuation_axioms(a, b):
    v = QT.val
    assert v(a * b) == v(a) + v(b) if (a != 0 and b != 0) else True
    if a + b != 0 and a != 0 and b != 0:
        assert v(a + b) >= min(v(a), v(b))
        if v(a) != v(b):
            assert v(a + b) == min(v(a), v(b))


def test_tadic_val_examples():
    t = RatFunc.t()
    assert QT.val(t * t / (1 + t)) == Gamma(2)
    assert QT.val(1 / t) == Gamma(-1)
    assert QT.val(RatFunc()) == INF


def test_tadic_series_and_truncate():
    t = RatFunc.t()
    a = 1 / (1 - t)
    s = a.series(4)
    assert s == {0: 1, 1: 1, 2: 1, 3: 1}
    assert QT.truncate(a, 2) == 1 + t
    assert QT.val(a - QT.truncate(a, 3)) >= 3
    b = 1 / t + 2
    assert QT.truncate(b, 0) == 1 / t
    assert QT.truncate(b, 1) == b


@given(ratfuncs(), st.integers(min_value=-2, max_value=4))
def test_tadic_truncate_is_canonical(a, level):
    tr = QT.truncate(a, level)
    assert QT.val(a - tr) >= level or a == tr
    assert QT.truncate(tr, level) == tr
    shift = RatFunc.t() ** max(level, 0) * 3
    assert QT.truncate(a + shift, level) == tr


def truncate_two_branch(a, level):
    """TAdicField.truncate before the one-branch form, kept as an oracle."""
    a = QT.coerce(a)
    level = level if isinstance(level, Gamma) else Gamma(level)
    if level.is_inf:
        return a
    cut = math.ceil(level.finite)
    coeffs = a.series(cut)
    coeffs = {i: c for i, c in coeffs.items() if Fraction(i) < level.finite}
    if not coeffs:
        return RatFunc()
    low = min(coeffs)
    if low >= 0:
        num = [Fraction(0)] * (max(coeffs) + 1)
        for i, c in coeffs.items():
            num[i] = c
        return RatFunc(num)
    num = [Fraction(0)] * (max(coeffs) - low + 1)
    for i, c in coeffs.items():
        num[i - low] = c
    den = [Fraction(0)] * (-low) + [Fraction(1)]
    return RatFunc(num, den)


def test_tadic_truncate_matches_two_branch_oracle():
    # Laurent tails from powers of t in the denominator, non-polynomial
    # denominators, and non-integer, negative and sub-valuation levels
    rng = random.Random(2828)
    t = RatFunc.t()

    def poly(size):
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(size)]

    for k in range(1500):
        den = poly(rng.randint(1, 3))
        if not any(den):
            den = [Fraction(1)]
        a = RatFunc(poly(rng.randint(1, 4)), den) / t ** rng.randint(0, 3)
        level = Fraction(rng.randint(-5 * 6, 8 * 6), rng.choice((1, 2, 3, 6)))
        if k % 7 == 0 and a:
            level = QT.val(a).finite - rng.randint(0, 2)
        assert QT.truncate(a, level) == truncate_two_branch(a, level), (a, level)
    assert QT.truncate(t + 1, INF) == t + 1


def test_residues():
    assert Q5.residue(Fraction(7)) == 2
    assert Q5.residue(Fraction(1, 3)) == 2
    with pytest.raises(PreconditionError):
        Q5.residue(Fraction(1, 5))
    t = RatFunc.t()
    assert QT.residue((1 + t) / (2 - t)) == Fraction(1, 2)
    assert QT.residue(t) == 0


def test_json_roundtrip():
    assert Q5.elem_from_json(Q5.elem_to_json(Fraction(-7, 3))) == Fraction(-7, 3)
    t = RatFunc.t()
    x = (1 + t) / (t * t)
    assert QT.elem_from_json(QT.elem_to_json(x)) == x
    assert QT.elem_to_json(RatFunc((5,))) == "5"
    f = field_from_json({"kind": "padic", "p": 7})
    assert f == PAdicField(7)
    assert field_from_json({"kind": "tadic"}) == QT


def test_polys_taylor_shift():
    # f(x) = x^2 - 5 around c = 1: (x-1)^2 + 2(x-1) - 4
    out = taylor_shift([Fraction(-5), Fraction(0), Fraction(1)], Fraction(1))
    assert out == [Fraction(-4), Fraction(2), Fraction(1)]
    t = RatFunc.t()
    out2 = taylor_shift([t, RatFunc((1,))], t)
    assert out2 == [t + t, RatFunc((1,))]
    with pytest.raises(PreconditionError):
        taylor_shift([Fraction(1)] * 70, Fraction(0))


@given(
    st.lists(st.fractions(max_denominator=10), min_size=1, max_size=7),
    st.fractions(max_denominator=10),
    st.fractions(max_denominator=10),
)
def test_taylor_shift_agrees_with_evaluation(coeffs, c, x):
    shifted = taylor_shift(coeffs, c)
    assert poly_eval(shifted, x - c) == poly_eval(coeffs, x)


@given(
    st.lists(st.fractions(max_denominator=6), max_size=5),
    st.lists(st.fractions(max_denominator=6), max_size=5),
    st.fractions(max_denominator=6),
)
def test_poly_mul_agrees_with_evaluation(a, b, x):
    assert poly_eval(poly_mul(a, b), x) == poly_eval(a, x) * poly_eval(b, x)
    # untrimmed and tuple inputs give the same trimmed product
    assert poly_mul(tuple(a) + (Fraction(0),), b + [0]) == poly_mul(a, b)


small_polys = st.lists(st.fractions(max_denominator=6), max_size=5)
nonzero_polys = small_polys.filter(any)


@given(small_polys, nonzero_polys)
def test_poly_divmod_definition(a, b):
    q, r = poly_divmod(a, b)
    assert poly_add(poly_mul(q, b), r) == trim(a)
    assert len(r) < len(trim(b))  # deg r < deg b, with deg 0 = -infinity


@given(small_polys, small_polys, nonzero_polys)
def test_poly_gcd_is_monic_common_divisor(a, b, c):
    a, b = poly_mul(a, c), poly_mul(b, c)
    g = poly_gcd(a, b)
    if not a and not b:
        assert g == []
        return
    assert g[-1] == 1
    assert poly_divmod(a, g)[1] == [] and poly_divmod(b, g)[1] == []
    # every common divisor divides the gcd
    assert poly_divmod(g, c)[1] == []
