from fractions import Fraction as F

import pytest

from ech_staircase.render import decimal_str
from ech_staircase.surd import QuadraticSurd


def test_decimal_str_basic():
    assert decimal_str(F(4, 3), 12) == "1.33333333333"
    assert decimal_str(F(3, 2), 4) == "1.5"
    assert decimal_str(F(0), 5) == "0"
    assert decimal_str(F(-22, 7), 6) == "-3.14286"
    assert decimal_str(F(4), 12) == "4"


def test_decimal_str_rounding_carries():
    assert decimal_str(F(9999, 10000), 3) == "1"
    assert decimal_str(F(999999, 1000), 4) == "1000"
    assert decimal_str(F(15, 1000), 1) == "0.02"  # half-up


def test_decimal_str_extremes():
    assert decimal_str(F(1, 10**9), 3) == "1e-9"
    assert decimal_str(F(12345678901234), 4) == "12350000000000"
    assert decimal_str(F(1, 2**10), 6) == "0.000976563"


def test_surd_decimal_small_magnitudes():
    half_sqrt2 = QuadraticSurd(0, 1, 2, 2)
    assert half_sqrt2.decimal(4) == "0.7071"
    tiny = QuadraticSurd(0, 1, 2, 10**8)
    assert tiny.decimal(5) == "1.4142e-8"
