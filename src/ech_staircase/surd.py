"""Exact arithmetic and comparison for quadratic surds (p + q*sqrt(d)) / r.

Accumulation points of embedding functions are quadratic irrationals, and
several bound lemmas need their exact position relative to rational
thresholds.  Everything here decides signs and floors by integer arithmetic
(a floor takes one isqrt); floating point appears only in __float__.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .render import round_significant

# Largest radicand split: a prime near it takes 1.2 s (CPython 3.11, one Xeon core);
# accumulation_point(k, l) stays below 2**35 for k <= 10**5, below 2**61 for k = 10**9 + 7.
MAX_RADICAND = 2**64


# arithmetic results re-normalise an operand's radicand, so recent splits are kept
@lru_cache(maxsize=64)
def _square_split(n: int) -> tuple[int, int]:
    """Write n >= 0 as f*f*d with d squarefree; returns (f, d), and (1, 0) for n = 0.

    Trial division runs only while k**3 <= the cofactor m, so it costs
    O(n**(1/3)): what is left of m then has no prime factor below k and is
    below k**3, so it is 1, a prime, two distinct primes or a prime square.
    Raises ValueError above MAX_RADICAND.
    """
    if n > MAX_RADICAND:
        raise ValueError(f"radicand {n} exceeds the normalisation limit 2**64")
    f, d, m, k = 1, 1, n, 2
    while k * k * k <= m:
        while m % (k * k) == 0:
            m //= k * k
            f *= k
        if m % k == 0:
            m //= k
            d *= k
        k += 1
    r = isqrt(m)
    if m > 1 and r * r == m:
        return f * r, d
    return f, d * m


class QuadraticSurd:
    """The real number (p + q*sqrt(d)) / r, normalized.

    Canonical form: r > 0, gcd(p, q, r) == 1, d squarefree, and d == 0
    exactly when the value is rational (then q == 0).  Two surds are equal
    iff their canonical tuples match, so equality and hashing are structural.
    Arithmetic mixes freely with ints and Fractions; combining two
    irrational surds requires a common radicand.
    """

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int = 0, d: int = 0, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("surd denominator is zero")
        if d < 0:
            raise ValueError("negative radicand")
        if r < 0:
            p, q, r = -p, -q, -r
        if q == 0 or d == 0:
            q, d = 0, 0
        else:
            f, d = _square_split(d)
            q *= f
            if d == 1:
                p, q, d = p + q, 0, 0
        g = gcd(gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "r", r)

    def __setattr__(self, *args):
        raise AttributeError("QuadraticSurd is immutable")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rational(cls, x: Fraction | int) -> "QuadraticSurd":
        x = Fraction(x)
        return cls(x.numerator, 0, 0, x.denominator)

    @classmethod
    def sqrt_of(cls, x: Fraction | int) -> "QuadraticSurd":
        """Exact square root of a nonnegative rational: sqrt(n/m) = sqrt(n*m)/m."""
        x = Fraction(x)
        if x < 0:
            raise ValueError("square root of a negative rational")
        return cls(0, 1, x.numerator * x.denominator, x.denominator)

    # -- predicates and conversion ----------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.p, self.r)

    def _sign(self) -> int:
        """Exact sign of the value (r > 0, so only p + q*sqrt(d) matters)."""
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return (q > 0) - (q < 0)
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        s = p * p - q * q * d
        s = (s > 0) - (s < 0)
        return s if p > 0 else -s

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "QuadraticSurd | None":
        if isinstance(other, QuadraticSurd):
            if self.d and other.d and self.d != other.d:
                raise ValueError("cannot combine surds over different radicands")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d or o.d
        return QuadraticSurd(
            self.p * o.r + o.p * self.r,
            self.q * o.r + o.q * self.r,
            d,
            self.r * o.r,
        )

    __radd__ = __add__

    def __neg__(self):
        return QuadraticSurd(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d or o.d
        return QuadraticSurd(
            self.p * o.p + self.q * o.q * d,
            self.p * o.q + self.q * o.p,
            d,
            self.r * o.r,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("division by zero")
        return QuadraticSurd(
            self.p * other.denominator,
            self.q * other.denominator,
            self.d,
            self.r * other.numerator,
        )

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- comparisons --------------------------------------------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare surd with {type(other).__name__}")
        return (self - o)._sign()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadraticSurd)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.is_rational:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.d, self.r))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- rounding and rendering ---------------------------------------------

    def _floor_scaled(self, num: int, den: int) -> int:
        """floor(self * num / den) for positive ints num and den, by one isqrt.

        With c = q*num the value is (p*num + c*sqrt(d)) / (r*den), and
        floor(c*sqrt(d)) may stand in for c*sqrt(d).  d is squarefree, so
        c*sqrt(d) is never an integer when c != 0.
        """
        c = self.q * num
        root = isqrt(c * c * self.d)
        if c < 0:
            root = -root - 1
        return (self.p * num + root) // (self.r * den)

    def __floor__(self) -> int:
        return self._floor_scaled(1, 1)

    def __float__(self) -> float:
        """The double nearest the value."""
        if self.is_rational:
            return self.p / self.r
        # |value| > 2**-s for s the bit lengths of p, q, d and r summed, since
        # |p*p - q*q*d| >= 1 bounds the cancellation.  Doubles there round at
        # multiples of 2**-(s + 53), so the value and the midpoint of its cell
        # (f, f + 1) / 2**k round alike, and int division rounds correctly.
        k = 53 + sum(x.bit_length() for x in (self.p, self.q, self.d, self.r))
        return (2 * self._floor_scaled(1 << k, 1) + 1) / (2 << k)

    def decimal(self, digits: int = 12) -> str:
        """Exact half-up rounding to `digits` significant digits."""
        sign = self._sign()
        return round_significant(sign, (-self if sign < 0 else self)._floor_scaled, digits)

    def __str__(self) -> str:
        if self.is_rational:
            return str(Fraction(self.p, self.r))
        root = f"√{self.d}"
        if self.q == 1:
            qpart = root
        elif self.q == -1:
            qpart = "-" + root
        else:
            qpart = f"{self.q}{root}"
        if self.p == 0:
            core = qpart
        elif self.q < 0:
            core = f"{self.p}-{qpart.lstrip('-')}"
        else:
            core = f"{self.p}+{qpart}"
        if self.r == 1:
            return core
        return f"({core})/{self.r}"

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.p}, {self.q}, {self.d}, {self.r})"
