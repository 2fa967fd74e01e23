import math
import random
import time
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, strategies as st

from ech_staircase.core import accumulation_point
from ech_staircase.render import decimal_str
from ech_staircase.surd import MAX_RADICAND, QuadraticSurd, _square_split


def test_normalization_reduces_and_extracts_squares():
    assert QuadraticSurd(14, 6, 5, 4) == QuadraticSurd(7, 3, 5, 2)
    # sqrt(8) = 2 sqrt(2)
    s = QuadraticSurd(24, 8, 8, 8)
    assert (s.p, s.q, s.d, s.r) == (3, 2, 2, 1)
    # perfect square radicand collapses to a rational
    s = QuadraticSurd(1, 3, 9, 2)
    assert s.is_rational and s.as_fraction() == F(10, 2)


def _trial_division_split(n):
    """Reference f*f*d split: divide out k*k for every k with k*k <= the rest."""
    f, d, k = 1, n, 2
    while k * k <= d:
        while d % (k * k) == 0:
            d //= k * k
            f *= k
        k += 1
    return f, d


def test_square_split_matches_trial_division():
    rng = random.Random(7)
    values = list(range(3000)) + [rng.randrange(10**8) for _ in range(100)]
    values += [rng.randrange(1, 10**4) * rng.randrange(1, 10**3) ** 2 for _ in range(100)]
    for n in values:
        assert _square_split(n) == _trial_division_split(n), n
    # cofactors left past the cube-root bound: prime squares and prime pairs
    p, q = 999_983, 1_000_003
    assert _square_split(p * p) == (p, 1)
    assert _square_split(12 * p * p) == (2 * p, 3)
    assert _square_split(p * q) == (1, p * q)
    assert _square_split(8 * p * q) == (2, 2 * p * q)
    assert _square_split(p**3) == (p, p)


def test_accumulation_point_with_large_prime_k():
    # the radicand is about 10**18; trial division to its square root never ended
    data = accumulation_point(10**9 + 7, 2)
    a0 = data.a0
    assert not a0.is_rational
    assert a0 * a0 - (data.per**2 / data.vol - 2) * a0 + 1 == 0


def test_radicand_past_the_limit_fails_fast():
    # a radicand near 4 * 10**26: without the limit, trial division ran past 30 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match="radicand"):
        accumulation_point(10**13 + 37, 2)
    assert time.perf_counter() - start < 5
    assert _square_split(MAX_RADICAND) == (2**32, 1)


def test_arithmetic_does_not_resplit_known_radicands():
    x = QuadraticSurd(7, 3, 5, 2)
    misses = _square_split.cache_info().misses
    for y in (x * x + 1, x - 3, x / F(2, 3), -x, (x + x) * x):
        assert y.d == 5
    assert _square_split.cache_info().misses == misses
    # a radicand reduced by a square factor is split once more, on first use
    a0 = accumulation_point(10**9 + 7, 2).a0
    misses = _square_split.cache_info().misses
    for _ in range(5):
        a0 = a0 * a0 + 1
    assert _square_split.cache_info().misses <= misses + 1


def test_rational_roundtrip():
    assert QuadraticSurd.from_rational(F(22, 7)).as_fraction() == F(22, 7)
    assert QuadraticSurd.sqrt_of(F(9, 4)).as_fraction() == F(3, 2)
    assert QuadraticSurd.sqrt_of(F(2)).d == 2


def test_signs_and_comparisons():
    sqrt2 = QuadraticSurd.sqrt_of(2)
    assert sqrt2 > F(7, 5) and sqrt2 < F(3, 2)
    assert -sqrt2 < 0 < sqrt2
    # sqrt(2) - 1 > 0, 1 - sqrt(2) < 0
    assert (sqrt2 - 1)._sign() == 1
    assert (1 - sqrt2)._sign() == -1
    assert QuadraticSurd(7, -3, 5, 2) < 1  # (7 - 3 sqrt 5)/2 ~ 0.146, between 0 and 1
    assert QuadraticSurd(7, -3, 5, 2) > 0


def test_arithmetic_against_floats():
    x = QuadraticSurd(3, 2, 7, 5)
    y = QuadraticSurd(-1, 4, 7, 3)
    for expr, ref in [
        (x + y, float(x) + float(y)),
        (x - y, float(x) - float(y)),
        (x * y, float(x) * float(y)),
        (x * F(3, 4), float(x) * 0.75),
        (x / F(2, 3), float(x) * 1.5),
    ]:
        assert math.isclose(float(expr), ref, rel_tol=1e-12)


def test_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        QuadraticSurd.sqrt_of(2) + QuadraticSurd.sqrt_of(3)


def test_floor_and_decimal():
    x = QuadraticSurd(7, 3, 5, 2)
    assert x.__floor__() == 6
    assert x.decimal(10) == "6.854101966"
    assert QuadraticSurd(3, 2, 2, 1).decimal(10) == "5.828427125"
    assert QuadraticSurd.from_rational(F(3)).decimal(10) == "3"
    # trailing zeros of the significand are stripped
    assert (-x).decimal(6) == "-6.8541"


def test_str_forms():
    assert str(QuadraticSurd(7, 3, 5, 2)) == "(7+3√5)/2"
    assert str(QuadraticSurd(3, 2, 2, 1)) == "3+2√2"
    assert str(QuadraticSurd(0, 1, 5, 1)) == "√5"
    assert str(QuadraticSurd(2, -1, 3, 1)) == "2-√3"
    assert str(QuadraticSurd.from_rational(F(4, 3))) == "4/3"


@given(
    p=st.integers(-50, 50),
    q=st.integers(-20, 20),
    d=st.integers(0, 60),
    r=st.integers(1, 30),
    num=st.integers(-200, 200),
    den=st.integers(1, 40),
)
def test_comparison_matches_floats(p, q, d, r, num, den):
    x = QuadraticSurd(p, q, d, r)
    t = F(num, den)
    approx = (p + q * math.sqrt(d)) / r
    if abs(approx - float(t)) > 1e-6:
        assert (x < t) == (approx < float(t))


# Rounding oracle from the stdlib decimal module.  The cancellation in
# p + q*sqrt(d) costs at most 13 digits for the ranges drawn (|p| + |q|*sqrt(d)
# <= 2e6), so 40 guard digits leave about 27 correct ones past the last rounded.
def _half_up(x: Decimal, digits: int) -> Decimal:
    if x == 0:
        return x
    return x.quantize(Decimal(1).scaleb(x.adjusted() + 1 - digits), rounding=ROUND_HALF_UP)


@given(
    p=st.integers(-10**6, 10**6),
    q=st.integers(-10**4, 10**4).filter(bool),
    d=st.integers(2, 10**4),
    r=st.integers(1, 10**6),
    digits=st.integers(1, 40),
)
def test_surd_rounding_matches_decimal_module(p, q, d, r, digits):
    assume(math.isqrt(d) ** 2 != d)
    x = QuadraticSurd(p, q, d, r)
    with localcontext() as ctx:
        ctx.prec = digits + 40
        value = (p + q * Decimal(d).sqrt()) / r
        assert F(x.decimal(digits)) == F(_half_up(value, digits))
        assert math.floor(x) == int(value.to_integral_value(rounding=ROUND_FLOOR))
        assert float(x) == float(value)


# exact ties, which random rationals seldom hit, must round away from zero
@example(num=15, den=1000, digits=1)
@example(num=25, den=10, digits=1)
@example(num=-25, den=1000, digits=1)
@example(num=125, den=1, digits=2)
@example(num=-35, den=10**9, digits=1)
@example(num=9995, den=1000, digits=3)
@given(
    num=st.integers(-10**12, 10**12),
    den=st.integers(1, 10**12),
    digits=st.integers(1, 40),
)
def test_decimal_str_matches_decimal_module(num, den, digits):
    with localcontext() as ctx:
        ctx.prec = digits + 40
        assert F(decimal_str(F(num, den), digits)) == F(_half_up(Decimal(num) / den, digits))
