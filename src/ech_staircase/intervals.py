"""Adaptive-precision real scalars backed by exact rational enclosures.

Irrational parameters enter the lattice-counting machinery as numbers that
can produce arbitrarily tight [lo, hi] brackets with Fraction endpoints.
Consumers refine through AdaptiveScalar.resolve, which asks for more bits
while their decision on the bracket is ambiguous; a bracket that refuses to
resolve by MAX_BITS signals a degenerate (secretly rational) input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable, TypeVar

MAX_BITS = 256
START_BITS = 64

T = TypeVar("T")


class PrecisionError(ArithmeticError):
    """An enclosure could not be refined enough to decide a floor or ceiling."""


@dataclass(frozen=True)
class Interval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        other = Fraction(other)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def scaled(self, c: Fraction) -> "Interval":
        c = Fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)

    def floor_or_none(self) -> int | None:
        """Common floor of every point in the interval, or None if ambiguous."""
        f = self.lo.__floor__()
        return f if f == self.hi.__floor__() else None


class AdaptiveScalar:
    """A real number queryable for rational enclosures of any requested tightness.

    Wraps a bits -> Interval generator; affine combinations with rationals
    are supported so samples like 3 + frac(sqrt(m)) stay refinable.
    """

    def __init__(self, brackets: Callable[[int], Interval], label: str = "scalar"):
        self._brackets = brackets
        self._cache: dict[int, Interval] = {}
        self.label = label

    def enclosure(self, bits: int) -> Interval:
        iv = self._cache.get(bits)
        if iv is None:
            iv = self._cache[bits] = self._brackets(bits)
        return iv

    def __add__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        return AdaptiveScalar(lambda b: self._brackets(b) + c, f"({self.label}+{c})")

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self + (-Fraction(other))

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        return AdaptiveScalar(lambda b: -self._brackets(b) + c, f"({c}-{self.label})")

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        c = Fraction(other)
        return AdaptiveScalar(lambda b: self._brackets(b).scaled(c), f"({c}*{self.label})")

    __rmul__ = __mul__

    def resolve(self, decide: Callable[[Interval], T | None]) -> T:
        """decide(enclosure) from START_BITS, doubling the bits while it
        returns None; PrecisionError past MAX_BITS."""
        bits = START_BITS
        while True:
            result = decide(self.enclosure(bits))
            if result is not None:
                return result
            if bits >= MAX_BITS:
                raise PrecisionError(f"{self.label} did not resolve at {MAX_BITS} bits")
            bits *= 2

    def floor(self) -> int:
        """Exact floor, refining as needed; PrecisionError past MAX_BITS."""
        return self.resolve(Interval.floor_or_none)

    def __float__(self) -> float:
        iv = self.enclosure(START_BITS)
        return float((iv.lo + iv.hi) / 2)

    def __repr__(self) -> str:
        return f"AdaptiveScalar({self.label} ~ {float(self):.6f})"

    # -- constructors -------------------------------------------------------

    @staticmethod
    def of(x: Fraction | int) -> "AdaptiveScalar":
        x = Fraction(x)
        return AdaptiveScalar(lambda bits: Interval(x, x), str(x))

    @staticmethod
    def sqrt(x: Fraction | int) -> "AdaptiveScalar":
        """sqrt(x) for rational x >= 0, exact when x is a perfect square."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        n = x.numerator * x.denominator
        s0 = isqrt(n)
        if s0 * s0 == n:
            return AdaptiveScalar.of(Fraction(s0, x.denominator))

        def brackets(bits: int) -> Interval:
            s = isqrt(n << (2 * bits))
            den = x.denominator << bits
            return Interval(Fraction(s, den), Fraction(s + 1, den))

        return AdaptiveScalar(brackets, f"sqrt({x})")

    @staticmethod
    def pi() -> "AdaptiveScalar":
        def brackets(bits: int) -> Interval:
            eps = Fraction(1, 1 << (bits + 6))
            a = _atan_inv(5, eps / 32)
            b = _atan_inv(239, eps / 8)
            return Interval(16 * a.lo - 4 * b.hi, 16 * a.hi - 4 * b.lo)

        return AdaptiveScalar(brackets, "pi")


def _atan_inv(x: int, eps: Fraction) -> Interval:
    """Bracket atan(1/x) via its alternating series; width at most eps."""
    s = Fraction(0)
    term = Fraction(1, x)
    k = 0
    while term > eps:
        s += term if k % 2 == 0 else -term
        k += 1
        term = Fraction(1, (2 * k + 1) * x ** (2 * k + 1))
    if k % 2 == 0:
        return Interval(s, s + term)
    return Interval(s - term, s)
