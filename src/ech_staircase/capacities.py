"""ECH capacity sequences of ellipsoids and the sup-ratio embedding lower bound.

c_k(E(a, b)) is the (k+1)-st smallest element of the multiset
{m*a + n*b : m, n >= 0}, ties counted with multiplicity.  Generation is an
incremental min-frontier over the lattice, run in scaled integers.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .core import Ellipsoid


class CapacitySequence:
    """Lazily extendable nondecreasing sequence c_0 <= c_1 <= ... of an ellipsoid.

    Internally stateful (a heap frontier); not for concurrent writers.  Use a
    fresh instance per worker, or the pure helpers below.
    """

    def __init__(self, ellipsoid: Ellipsoid):
        self.ellipsoid = ellipsoid
        scale = lcm(ellipsoid.a.denominator, ellipsoid.b.denominator)
        self._scale = scale
        self._a = int(ellipsoid.a * scale)
        self._b = int(ellipsoid.b * scale)
        self._values: list[Fraction] = []
        # frontier entries: (scaled value, m, n); (m, n+1) is pushed on every
        # pop and (m+1, n) only from n == 0, so each lattice point enters once
        self._frontier: list[tuple[int, int, int]] = [(0, 0, 0)]

    def extend_to(self, count: int) -> "CapacitySequence":
        """Ensure at least `count` values are materialized."""
        values, frontier = self._values, self._frontier
        a, b, scale = self._a, self._b, self._scale
        while len(values) < count:
            v, m, n = heapq.heappop(frontier)
            values.append(Fraction(v, scale))
            if n == 0:
                heapq.heappush(frontier, (v + a, m + 1, 0))
            heapq.heappush(frontier, (v + b, m, n + 1))
        return self

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise IndexError("capacity index must be nonnegative")
        self.extend_to(k + 1)
        return self._values[k]

    def prefix(self, count: int) -> list[Fraction]:
        self.extend_to(count)
        return self._values[:count]


def capacity(ellipsoid: Ellipsoid, k: int) -> Fraction:
    """Exact c_k of the ellipsoid, k >= 0."""
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    return CapacitySequence(ellipsoid)[k]


def capacity_prefix(ellipsoid: Ellipsoid, count: int) -> list[Fraction]:
    """First `count` capacities c_0, ..., c_{count-1}."""
    if count < 1:
        raise ValueError("need at least one capacity")
    return CapacitySequence(ellipsoid).prefix(count)


def max_capacity_ratio(
    source_prefix: Sequence[Fraction], target_prefix: Sequence[Fraction]
) -> Fraction:
    """max over k >= 1 of source[k] / target[k], over the common prefix length."""
    n = min(len(source_prefix), len(target_prefix))
    if n < 2:
        raise ValueError("prefixes must cover k = 1")
    return max(source_prefix[k] / target_prefix[k] for k in range(1, n))


@lru_cache(maxsize=4)
def _target_prefix(b: Fraction, count: int) -> tuple[Fraction, ...]:
    return tuple(capacity_prefix(Ellipsoid(Fraction(1), b), count))


def capacity_lower_bound(a: Fraction, b: Fraction, n: int) -> Fraction:
    """Certified lower bound for the embedding function at (a, b):
    max over 1 <= k <= n of c_k(E(1, a)) / c_k(E(1, b)).

    A lower bound only; exact decisions go through the lattice-count
    criterion in the ehrhart module.  The target prefix is cached per (b, n),
    since grid scans ask for many a against one b.
    """
    a, b = Fraction(a), Fraction(b)
    if a < 1 or b < 1:
        raise ValueError("parameters must be at least 1")
    if n < 1:
        raise ValueError("need n >= 1")
    src = capacity_prefix(Ellipsoid(Fraction(1), a), n + 1)
    return max_capacity_ratio(src, _target_prefix(b, n + 1))
