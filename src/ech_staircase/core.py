"""Ellipsoids, triangle weight decompositions, and accumulation points.

All quantities are exact: rational data lives in fractions.Fraction and the
irrational accumulation points are quadratic surds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .surd import QuadraticSurd


@dataclass(frozen=True)
class Ellipsoid:
    """Open four-dimensional ellipsoid E(a, b), normalized so 0 < a <= b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        a, b = Fraction(self.a), Fraction(self.b)
        if a <= 0 or b <= 0:
            raise ValueError("ellipsoid parameters must be positive")
        if b < a:
            a, b = b, a
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def scaled(self, factor: Fraction) -> "Ellipsoid":
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Ellipsoid(self.a * factor, self.b * factor)

    def __str__(self) -> str:
        return f"E({self.a}, {self.b})"


def _corner_weights(u: int, v: int) -> list[tuple[int, int]]:
    """Stages (n, reps) of the right triangle with integer legs u, v under greedy
    corner removal: reps isoceles corners of leg n, with n strictly decreasing.

    Each stage removes the largest inscribed isoceles right triangle and
    recurses on the remainder; arithmetically this is the Euclidean algorithm
    run with multiplicities, so it ends after O(log max(u, v)) stages, with
    sum(reps * n) = u + v - gcd(u, v) and sum(reps * n**2) = u * v.
    """
    u, v = min(u, v), max(u, v)
    stages: list[tuple[int, int]] = []
    while u > 0:
        reps, rem = divmod(v, u)
        stages.append((u, reps))
        u, v = rem, u
    return stages


def _scaled_weights(stages: list[tuple[int, int]], q: int) -> list[Fraction]:
    """The weights n/q of `stages`, one Fraction shared by each stage's repeats."""
    weights: list[Fraction] = []
    for n, reps in stages:
        weights.extend([Fraction(n, q)] * reps)
    return weights


def weight_sequence(value: Fraction) -> list[Fraction]:
    """Weight sequence of the triangle with legs 1 and value, for value >= 1.

    The result is non-increasing and satisfies, for value = p/q in lowest
    terms, sum(w) = p/q + 1 - 1/q and sum(w**2) = p/q.
    """
    value = Fraction(value)
    if value < 1:
        raise ValueError(f"weight sequence needs a value >= 1, got {value}")
    p, q = value.numerator, value.denominator
    return _scaled_weights(_corner_weights(q, p), q)


@dataclass(frozen=True)
class WeightExpansion:
    """Head weight w together with the non-increasing tail (w1, ..., wk)."""

    head: Fraction
    tail: tuple[Fraction, ...]

    def __post_init__(self):
        head = Fraction(self.head)
        tail = tuple(w if isinstance(w, Fraction) else Fraction(w) for w in self.tail)
        if head <= 0 or any(w <= 0 for w in tail):
            raise ValueError("weights must be positive")
        if any(tail[i] < tail[i + 1] for i in range(len(tail) - 1)):
            raise ValueError("tail weights must be non-increasing")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)


def negative_weight_sequence(value: Fraction) -> WeightExpansion:
    """Expansion (w; w1, ..., wk) of E(1, value): head w = value, tail from
    the complement of the leg-(1, value) triangle inside the leg-(value, value) one.

    value == 1 has an empty complement and yields (1; ).
    """
    value = Fraction(value)
    if value < 1:
        raise ValueError(f"negative weight sequence needs a value >= 1, got {value}")
    if value == 1:
        return WeightExpansion(Fraction(1), ())
    p, q = value.numerator, value.denominator
    return WeightExpansion(value, tuple(_scaled_weights(_corner_weights(p - q, p), q)))


def per_vol(expansion: WeightExpansion) -> tuple[Fraction, Fraction]:
    """Normalized perimeter and volume: (3w - sum(wi), w**2 - sum(wi**2)).

    The tail sums run over integer numerators n_i = wi * d, d the lcm of the
    tail denominators."""
    w = expansion.head
    # a loop, not lcm(*...), which would build a tuple as long as the tail
    d = 1
    for t in expansion.tail:
        d = lcm(d, t.denominator)
    nums = [t.numerator * (d // t.denominator) for t in expansion.tail]
    return (
        3 * w - Fraction(sum(nums), d),
        w * w - Fraction(sum(n * n for n in nums), d * d),
    )


@dataclass(frozen=True)
class AccumulationData:
    """Accumulation point a0 of E(1, k/l) with its per/vol invariants.

    a0 is the root >= 1 of x**2 - (per**2/vol - 2) x + 1 = 0, stored exactly.
    """

    k: int
    l: int
    per: Fraction
    vol: Fraction
    a0: QuadraticSurd


def accumulation_point(k: int, l: int) -> AccumulationData:
    """Exact accumulation point for eccentricity k/l, gcd(k, l) = 1, k >= l >= 1.

    a0 = (k/l) * ((s + sqrt(s**2 - 4kl)) / (2k))**2 with s = k + l + 1,
    expanded to the surd (s**2 + disc + 2 s sqrt(disc)) / (4 k l).
    """
    if not (isinstance(k, int) and isinstance(l, int)):
        raise ValueError("k and l must be integers")
    if k < l or l < 1:
        raise ValueError(f"need k >= l >= 1, got ({k}, {l})")
    if gcd(k, l) != 1:
        raise ValueError(f"({k}, {l}) are not coprime")
    s = k + l + 1
    disc = s * s - 4 * k * l
    # disc = (k - l)**2 + 2(k + l) + 1, so it is always positive here
    if disc <= 0:
        raise ArithmeticError("degenerate discriminant")
    a0 = QuadraticSurd(s * s + disc, 2 * s, disc, 4 * k * l)
    return AccumulationData(k, l, Fraction(s, l), Fraction(k, l), a0)
