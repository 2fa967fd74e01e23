import math
from fractions import Fraction as F

import pytest

from ech_staircase.intervals import (
    MAX_BITS,
    AdaptiveScalar,
    Interval,
    PrecisionError,
)


def test_interval_arithmetic():
    iv = Interval(F(1, 3), F(1, 2))
    assert (iv + 1).lo == F(4, 3)
    assert (-iv).hi == -F(1, 3)
    assert iv.scaled(-2) == Interval(-1, -F(2, 3))
    assert iv.width == F(1, 6)


def test_interval_floor():
    assert Interval(F(5, 2), F(13, 5)).floor_or_none() == 2
    assert Interval(F(5, 2), F(7, 2)).floor_or_none() is None


def test_sqrt_scalar_brackets_tighten():
    s = AdaptiveScalar.sqrt(2)
    w64 = s.enclosure(64).width
    w128 = s.enclosure(128).width
    assert w128 < w64 <= F(1, 2**64)
    iv = s.enclosure(100)
    assert float(iv.lo) <= math.sqrt(2) <= float(iv.hi)


def test_sqrt_exact_square_is_degenerate():
    s = AdaptiveScalar.sqrt(F(49, 4))
    iv = s.enclosure(10)
    assert iv.lo == iv.hi == F(7, 2)


def test_pi_brackets():
    pi = AdaptiveScalar.pi()
    iv = pi.enclosure(96)
    assert iv.width <= F(1, 2**96)
    assert float(iv.lo) <= math.pi <= float(iv.hi)
    assert pi.floor() == 3


def test_affine_combinations():
    a = 3 + AdaptiveScalar.sqrt(2) * F(1, 10)
    iv = a.enclosure(64)
    assert F(3) < iv.lo < iv.hi < F(16, 5)
    b = 4 - AdaptiveScalar.sqrt(2) * F(1, 10)
    assert math.isclose(float(b), 4 - math.sqrt(2) / 10, rel_tol=1e-9)


def test_floor_of_irrational_multiple():
    x = AdaptiveScalar.pi() * F(7, 10)
    assert x.floor() == 2  # 7 pi / 10 ~ 2.199


def test_floor_precision_error_for_stuck_enclosure():
    stuck = AdaptiveScalar(
        lambda bits: Interval(3 - F(1, 2 ** (bits // 2)), 3 + F(1, 2 ** (bits // 2))),
        "fuzzy 3",
    )
    with pytest.raises(PrecisionError):
        stuck.floor()
    assert MAX_BITS == 256
