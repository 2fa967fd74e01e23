"""Decimal rendering of exact real values at a chosen number of significant digits."""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction


def place_decimal(digits: str, e: int) -> str:
    """Lay out significant digits around the decimal point for exponent e.

    `digits` holds the significant digits of a value in [10**e, 10**(e+1)).
    """
    n = len(digits)
    if e >= n:
        return digits + "0" * (e + 1 - n)
    if e >= 0:
        head, tail = digits[: e + 1], digits[e + 1 :].rstrip("0")
        return head + "." + tail if tail else head
    if e >= -6:
        tail = ("0" * (-e - 1) + digits).rstrip("0")
        return "0." + tail if tail else "0"
    # very small magnitudes fall back to scientific form
    tail = digits[1:].rstrip("0")
    mant = digits[0] + ("." + tail if tail else "")
    return f"{mant}e{e}"


def round_significant(sign: int, floor_abs: Callable[[int, int], int], digits: int) -> str:
    """Round a real v half-up to `digits` significant digits, rendered positionally.

    `sign` is the sign of v and floor_abs(num, den) the exact floor of
    |v|*num/den for positive ints num and den; no other access to v is needed.
    """
    if digits < 1:
        raise ValueError("need at least one significant digit")
    if sign == 0:
        return "0"
    k = 0
    while (f := floor_abs(10**k, 1)) == 0:
        k = 2 * k + 1
    # 10**(n-1) <= f <= |v|*10**k < f + 1 <= 10**n for the n digits of f
    e = len(str(f)) - 1 - k
    j = digits - 1 - e
    m = (floor_abs(2 * 10 ** max(j, 0), 10 ** max(-j, 0)) + 1) // 2
    if m >= 10**digits:
        m //= 10
        e += 1
    return ("-" if sign < 0 else "") + place_decimal(str(m), e)


def decimal_str(x: Fraction | int, digits: int = 12) -> str:
    """Round x half-up to `digits` significant digits, rendered positionally."""
    x = Fraction(x)
    n, m = abs(x.numerator), x.denominator
    return round_significant((x > 0) - (x < 0), lambda num, den: n * num // (m * den), digits)
