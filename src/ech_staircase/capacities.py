"""ECH capacity sequences of ellipsoids and the sup-ratio embedding lower bound.

c_k(E(a, b)) is the (k+1)-st smallest element of the multiset
{m*a + n*b : m, n >= 0}, ties counted with multiplicity.  Generation runs in
integers scaled by the common denominator of a and b: every lattice value up
to a cutoff is listed and sorted once, and no request may ask for more than
MAX_TERMS values.  Ratios are compared by cross-multiplication, so a Fraction
is built only for the results.

The sup-ratio bound compares only where the target's capacities step up.  For
k >= 1 the target c_k(E(1, b)) is positive and constant on each run of equal
values, while the source never decreases, so the largest ratio of a run sits
at its last index; the bound reads the source there and at k = n alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from operator import itemgetter

from .core import Ellipsoid

MAX_TERMS = 10**6  # the most capacities one request may materialize


def check_budget(count: int) -> None:
    """Refuse a request for more than MAX_TERMS capacities (ValueError)."""
    if count > MAX_TERMS:
        raise ValueError(f"asked for {count} capacities; at most {MAX_TERMS} per request")


class CapacitySequence:
    """The nondecreasing capacities c_0 <= c_1 <= ... of an ellipsoid, listed once.

    After `extend_to(count)`, `scaled` holds at least the first `count` values
    times `scale`, as ints.  Each call lists afresh; callers build one
    sequence per request.
    """

    def __init__(self, ellipsoid: Ellipsoid):
        self.ellipsoid = ellipsoid
        self.scale = lcm(ellipsoid.a.denominator, ellipsoid.b.denominator)
        self._a = int(ellipsoid.a * self.scale)
        self._b = int(ellipsoid.b * self.scale)
        self.scaled: list[int] = []

    def extend_to(self, count: int) -> "CapacitySequence":
        """List at least the first `count` values, count <= MAX_TERMS."""
        check_budget(count)
        a, b = self._a, self._b
        # Every value <= cap is listed, so the sorted list is a prefix of the
        # sequence.  It has at least `count` entries: the triangle
        # m*a + n*b <= cap has area cap**2 / (2ab) > count and lies in the unit
        # squares of its lattice points; and the row n = 0 alone reaches
        # (count - 1)*a, which keeps E(1, 10**12) to `count` values.
        cap = min(isqrt(2 * count * a * b) + 1, (count - 1) * a)
        values: list[int] = []
        for nb in range(0, cap + 1, b):
            values.extend(range(nb, cap + 1, a))
        values.sort()
        self.scaled = values
        return self


def capacity(ellipsoid: Ellipsoid, k: int) -> Fraction:
    """Exact c_k of the ellipsoid, k >= 0."""
    if k < 0:
        raise ValueError("capacity index must be nonnegative")
    seq = CapacitySequence(ellipsoid).extend_to(k + 1)
    return Fraction(seq.scaled[k], seq.scale)


def capacity_prefix(ellipsoid: Ellipsoid, count: int) -> list[Fraction]:
    """First `count` capacities c_0, ..., c_{count-1}."""
    if count < 1:
        raise ValueError("need at least one capacity")
    seq = CapacitySequence(ellipsoid).extend_to(count)
    return [Fraction(v, seq.scale) for v in seq.scaled[:count]]


def max_capacity_ratio(
    source_prefix: Sequence[Fraction | int], target_prefix: Sequence[Fraction | int]
) -> Fraction:
    """max over k >= 1 of source[k] / target[k], over the common prefix length.

    The argmax is found by cross-multiplying, so scaled-int prefixes build a
    Fraction only for the result; the targets must be positive for k >= 1.
    """
    n = min(len(source_prefix), len(target_prefix))
    if n < 2:
        raise ValueError("prefixes must cover k = 1")
    s_best, t_best = source_prefix[1], target_prefix[1]
    for s, t in zip(source_prefix[2:n], target_prefix[2:n]):
        if s * t_best > s_best * t:
            s_best, t_best = s, t
    return Fraction(s_best) / Fraction(t_best)


@lru_cache(maxsize=4)
def _target_run_ends(b: Fraction, count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices 0, the last index of each run of equal values among
    c_1..c_{count-1} of E(1, b), and count - 1; with c_k there, scaled by
    b.denominator."""
    scaled = CapacitySequence(Ellipsoid(Fraction(1), b)).extend_to(count).scaled
    last = count - 1
    ends = (0, *(k for k in range(1, last) if scaled[k] != scaled[k + 1]), last)
    return ends, tuple(scaled[k] for k in ends)


def capacity_lower_bound(a: Fraction, b: Fraction, n: int) -> Fraction:
    """Certified lower bound for the embedding function at (a, b):
    max over 1 <= k <= n of c_k(E(1, a)) / c_k(E(1, b)).

    Only the last index of each run of equal target values, and k = n, are
    compared: the target is positive and constant on a run and the source is
    nondecreasing, so no other index of the run can give a larger ratio.
    A lower bound only; exact decisions go through the lattice-count
    criterion in the ehrhart module.  The run ends are cached per (b, n),
    since grid scans ask for many a against one b.
    """
    a, b = Fraction(a), Fraction(b)
    if a < 1 or b < 1:
        raise ValueError("parameters must be at least 1")
    if n < 1:
        raise ValueError("need n >= 1")
    ends, target = _target_run_ends(b, n + 1)
    src = CapacitySequence(Ellipsoid(Fraction(1), a)).extend_to(n + 1)
    ratio = max_capacity_ratio(itemgetter(*ends)(src.scaled), target)
    return ratio * Fraction(b.denominator, src.scale)
