"""Lattice-point counts of dilated rational right triangles, quasi-polynomial
fits, the domination criterion for ellipsoid embeddings, and the horizontal
slice machinery of the eccentricity-4/3 analysis (one row pass serves both).

Counting uses exact integer arithmetic throughout; irrational parameters go
through adaptive rational enclosures (see intervals).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, gcd, lcm

from .capacities import MAX_TERMS
from .core import Ellipsoid
from .intervals import AdaptiveScalar


@dataclass(frozen=True)
class RightTriangle:
    """Right triangle with legs on the axes: vertices (0,0), (u,0), (0,v)."""

    u: Fraction
    v: Fraction

    def __post_init__(self):
        u, v = Fraction(self.u), Fraction(self.v)
        if u <= 0 or v <= 0:
            raise ValueError("triangle legs must be positive")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __str__(self) -> str:
        return f"T({self.u}, {self.v})"


TRIANGLE_HALF_SIXTH = RightTriangle(Fraction(1, 2), Fraction(1, 6))
TRIANGLE_THIRD_QUARTER = RightTriangle(Fraction(1, 3), Fraction(1, 4))


def parameter_triangle(a: Fraction) -> RightTriangle:
    """Reciprocal-leg triangle of the normalized source ellipsoid for parameter a:
    legs (a+3)/12 and (a+3)/(12a).  At a = 3 this degenerates to legs (1/2, 1/6).
    """
    a = Fraction(a)
    if a <= 0:
        raise ValueError("parameter must be positive")
    return RightTriangle((a + 3) / 12, (a + 3) / (12 * a))


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i=0}^{n-1} (a + b*i) // m for n >= 0, m >= 1, a >= 0, b >= 0."""
    total = 0
    while True:
        if a >= m:
            total += n * (a // m)
            a %= m
        if b >= m:
            total += n * (n - 1) // 2 * (b // m)
            b %= m
        y_max = (a + b * n) // m
        if y_max == 0:
            return total
        x_max = y_max * m - a
        total += y_max * (n - (x_max + b - 1) // b)
        n, m, a, b = y_max, b, (b - x_max % b) % b, m


def triangle_count(tri: RightTriangle, t: int) -> int:
    """Lattice points in the t-fold dilate of tri; t = 0 counts just the origin."""
    if t < 0:
        raise ValueError("dilation must be nonnegative")
    if t == 0:
        return 1
    u, v = tri.u, tri.v
    # iterate over the shorter leg
    if u < v:
        u, v = v, u
    # row y holds floor(t*u - y*u/v) + 1 points; in integers over beta*B:
    alpha, beta = u.numerator, u.denominator
    gamma, delta = v.numerator, v.denominator
    g = gcd(alpha * delta, beta * gamma)
    slope_num = alpha * delta // g
    slope_den = beta * gamma // g
    m = beta * slope_den
    rows = (t * gamma) // delta + 1
    top = t * alpha * slope_den - (rows - 1) * slope_num * beta
    return rows + _floor_sum(rows, m, top, slope_num * beta)


class FitConsistencyError(RuntimeError):
    """A fitted quasi-polynomial failed its hold-out verification (counting bug)."""


@dataclass(frozen=True)
class QuasiPolynomial:
    """Degree-2 quasi-polynomial A t^2 + B_r t + C_r with r = t mod period."""

    period: int
    leading: Fraction
    linear: tuple[Fraction, ...]
    constant: tuple[Fraction, ...]

    def __call__(self, t: int) -> Fraction:
        r = t % self.period
        return self.leading * t * t + self.linear[r] * t + self.constant[r]


def fit_quasi_polynomial(tri: RightTriangle) -> QuasiPolynomial:
    """Fit the Ehrhart quasi-polynomial of tri exactly.

    The leading coefficient is the area u*v/2, so two counts per residue pin
    the linear and constant terms; the counts at r + 2p and r + 3p must show
    the second difference 2 * area * p**2 = (u*p) * (v*p), an integer.

    The counts come from the triangle's shift symmetry.  With u = alpha/beta
    and v = gamma/delta, a lattice point (x, y) lies at level
    x*beta/alpha + y*delta/gamma, so moving it alpha columns lowers its level
    by beta and moving it gamma rows lowers it by delta.  By inclusion-exclusion
    only the alpha-by-gamma corner box is left, and all of it lies below level
    beta + delta; so the step s(t) = count(t) - count(t-1) obeys
    s(t) = s(t-beta) + s(t-delta) - s(t-beta-delta) for every t > beta + delta.
    Seeding s(1..beta+delta) with triangle_count gives every level below 4p.

    The recurrence also runs backwards, from the beta + delta steps past the
    seeds down to the seeds themselves.  So recounting levels beta + delta + 1
    through 2 * (beta + delta) with triangle_count and matching the derived
    counts checks every seed; a mismatch, like a wrong second difference,
    raises FitConsistencyError (a counting bug, not bad input).  A fit of
    period p costs 2 * (beta + delta) counts plus O(p) additions, not 4p counts;
    a fit whose 4p steps exceed MAX_TERMS is refused (ValueError).
    """
    beta, delta = tri.u.denominator, tri.v.denominator
    period = lcm(beta, delta)
    if 4 * period > MAX_TERMS:
        raise ValueError(f"a fit of period {period} lists {4 * period} steps; "
                         f"at most {MAX_TERMS} per request")
    second = int(tri.u * period * tri.v * period)
    den = 2 * period * period  # leading = second / den
    box = beta + delta  # <= 2 * period
    steps = [1]  # s(0) = count(0)
    count = 1
    for t in range(1, box + 1):
        steps.append(triangle_count(tri, t) - count)
        count += steps[t]
    # the hold-out reaches level 2 * box, one past 4 * period - 1 when beta == delta
    for t in range(box + 1, max(4 * period, 2 * box + 1)):
        steps.append(steps[t - beta] + steps[t - delta] - steps[t - box])
    for t in range(box + 1, 2 * box + 1):
        count += steps[t]
        if count != triangle_count(tri, t):
            raise FitConsistencyError(f"fit for {tri} fails hold-out at level {t}")
    # l_j runs through count(r + j*period); it starts at count(j*period - 1)
    l0, l1, l2, l3 = (sum(islice(steps, j * period)) for j in range(4))
    linear: list[Fraction] = []
    constant: list[Fraction] = []
    shifted = zip(islice(steps, period), islice(steps, period, None),
                  islice(steps, 2 * period, None), islice(steps, 3 * period, None))
    for r, (s0, s1, s2, s3) in enumerate(shifted):
        l0, l1, l2, l3 = l0 + s0, l1 + s1, l2 + s2, l3 + s3
        if l2 - 2 * l1 + l0 != second or l3 - 2 * l2 + l1 != second:
            raise FitConsistencyError(f"fit for {tri} fails hold-out at residue {r}")
        b_num = 2 * period * (l1 - l0) - second * (2 * r + period)
        linear.append(Fraction(b_num, den))
        constant.append(Fraction(den * l0 - second * r * r - b_num * r, den))
    return QuasiPolynomial(period, Fraction(second, den), tuple(linear), tuple(constant))


@dataclass(frozen=True)
class DominationVerdict:
    """Outcome of a lattice-count comparison at every level t > 0.

    fails_at is the smallest failing level, a Fraction; checked_through is the
    t_max of a truncated verdict, or None when every level is covered.
    """

    holds: bool
    fails_at: Fraction | None
    checked_through: int | None

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        if self.holds:
            scope = "for all t" if self.checked_through is None else f"through t={self.checked_through}"
            return f"holds {scope}"
        return f"fails at t={self.fails_at}"


def _first_failure(lhs: RightTriangle, rhs: RightTriangle, last: int) -> int | None:
    """Smallest s in [1, last] with count(lhs, s) < count(rhs, s), or None.

    Both counts never decrease, so count(lhs, lo) >= count(rhs, hi) settles
    all of [lo, hi]; the range doubles while that holds and halves when not.
    """
    lo, width = 1, 1
    while lo <= last:
        have = triangle_count(lhs, lo)
        hi = min(lo + width, last)
        while triangle_count(rhs, hi) > have:
            if hi == lo:
                return lo
            hi = lo + (hi - lo) // 2
        lo, width = hi + 1, 2 * (hi - lo) + 1
    return None


def _first_failure_equal_area(lhs: RightTriangle, rhs: RightTriangle) -> int | None:
    """Smallest s >= 1 with count(lhs, s) < count(rhs, s) when the areas agree:
    on each class s = r + j*P, P the common period, the two quasi-polynomials
    differ by a linear function of j, so its values at r and r + P decide it."""
    period = lcm(lhs.u.denominator, lhs.v.denominator, rhs.u.denominator, rhs.v.denominator)
    first = None
    for r in range(1, period + 1):
        if first is not None and r >= first:
            break
        f0 = triangle_count(lhs, r) - triangle_count(rhs, r)
        drop = f0 - triangle_count(lhs, r + period) + triangle_count(rhs, r + period)
        if f0 < 0 or drop > 0:
            s = r if f0 < 0 else r + (f0 // drop + 1) * period
            first = s if first is None else min(first, s)
    return first


def ehrhart_dominates(
    lhs: RightTriangle, rhs: RightTriangle, t_max: int | None = None
) -> DominationVerdict:
    """Decide count(lhs, t) >= count(rhs, t) at every real level 0 < t (<= t_max).

    count(rhs, .) jumps only at levels in (1/d)Z, d = lcm of the numerators
    of rhs's legs, and count(lhs, .) never decreases, so the levels s/d decide
    every t; level s/d of a triangle is dilation s of its 1/d-scaled copy.
    With unequal areas, t^2 uv <= 2 count(T, t) <= (t + 1/u + 1/v)^2 uv gives
    a level past which the larger triangle's count stays ahead.
    """
    if t_max is not None and t_max < 1:
        raise ValueError("t_max must be positive")
    d = lcm(rhs.u.numerator, rhs.v.numerator)
    lhs = RightTriangle(lhs.u / d, lhs.v / d)
    rhs = RightTriangle(rhs.u / d, rhs.v / d)
    last = None if t_max is None else t_max * d
    area_l, area_r = lhs.u * lhs.v, rhs.u * rhs.v
    if area_l == area_r:
        s = _first_failure_equal_area(lhs, rhs)
    else:
        # (small, big) areas; sqrt(big * small) < (big + small) / 2 keeps the level rational
        tri, small, big = (rhs, area_r, area_l) if area_l > area_r else (lhs, area_l, area_r)
        settled = ceil((1 / tri.u + 1 / tri.v) * (big + 3 * small) / (2 * (big - small)))
        s = _first_failure(lhs, rhs, settled if last is None else min(settled, last))
    if s is None or (last is not None and s > last):
        return DominationVerdict(True, None, t_max)
    return DominationVerdict(False, Fraction(s, d), t_max)


def embedding_decision(
    source: Ellipsoid, target: Ellipsoid, t_max: int = 300, exact: bool = False
) -> DominationVerdict:
    """Decide whether source embeds into target via reciprocal-leg domination.

    The embedding exists iff the lattice counts of the source's reciprocal
    triangle dominate the target's at every level (McDuff's criterion);
    rational inputs make both triangles rational.  Default mode certifies
    every level up to t_max and says so; exact mode certifies every level.
    """
    lhs = RightTriangle(1 / source.a, 1 / source.b)
    rhs = RightTriangle(1 / target.a, 1 / target.b)
    return ehrhart_dominates(lhs, rhs, None if exact else t_max)


# -- the horizontal-slice machinery ------------------------------------------
#
# For 3 < a <= 4 and a positive integer t, the plane region between the
# reference edge 2x + 6y = t and the parameter edge
# (12/(a+3)) x + (12a/(a+3)) y = t splits at their crossing (t/4, t/12) into
# an upper wedge (against the y-axis) and a lower wedge (against the x-axis).
# Slice x-bounds at integer height y are rational for the reference edge and
# affine in a for the parameter edge:
#
#     parameter edge:  x = t/4 + a * (t - 12 y) / 12     (exact t/4 at y = t/12)
#     reference edge:  x = (t - 6 y) / 2
#
# Counting conventions (fixed by requiring the exact difference identity
# count_parameter(t) = count_reference(t) + lower - upper - boundary):
# the lower wedge is counted closed; the upper wedge excludes lattice points
# that fall on the parameter edge except the crossing point itself, which is
# counted in both wedges; `boundary` counts reference-edge lattice points
# strictly below the crossing, ceil(t/12) of them for even t and none for odd.


@dataclass(frozen=True)
class SliceCounts:
    """Lattice tallies of the two wedges for one dilation t."""

    t: int
    a: object
    upper: int
    lower: int
    boundary: int


def boundary_lattice_count(t: int) -> int:
    """Reference-edge lattice points strictly below the crossing: ceil(t/12)
    for even t, 0 for odd t."""
    return (t + 11) // 12 if t % 2 == 0 else 0


def _wedge_rows(n_lo: int, n_hi: int, den: int, t: int):
    """Per-height wedge tallies with a enclosed in [n_lo, n_hi] / den, or None
    when the enclosure leaves some row ambiguous; n_lo == n_hi means a is
    exactly that rational.

    Returns (upper, lower, on_edge): upper[i] tallies height ceil(t/12) + i,
    lower[y] tallies height y <= floor(t/12), and on_edge is the first upper
    height whose exact bound is a lattice point on the parameter edge, which
    the upper wedge leaves out (None if there is none).
    """
    m = 12 * den
    base = 3 * t * den
    upper: list[int] = []
    on_edge = None
    for y in range((t + 11) // 12, t // 6 + 1):
        c1 = t - 12 * y
        if c1 == 0:
            upper.append(1)  # crossing point, a lattice point exactly when 12 | t
            continue
        # ceil(max(0, x)) for the parameter-edge bound x in [lo, hi] / m (c1 < 0)
        lo, hi = base + c1 * n_hi, base + c1 * n_lo
        if hi < 0:
            ce = 0
        elif lo > 0 and lo % m and hi % m and lo // m == hi // m:
            ce = lo // m + 1
        elif n_lo != n_hi:
            return None
        else:
            ce = lo // m + 1  # on the parameter edge: excluded from the upper wedge
            on_edge = y if on_edge is None else on_edge
        upper.append(max(0, (t - 6 * y) // 2 - ce + 1))
    lower: list[int] = []
    for y in range(t // 12 + 1):
        fl = (base + (t - 12 * y) * n_lo) // m
        if fl != (base + (t - 12 * y) * n_hi) // m:
            return None
        lower.append(max(0, fl - (t - 6 * y + 1) // 2 + 1))
    return upper, lower, on_edge


def _on_parameter(a, t: int):
    """(a, _wedge_rows(..., t)) for 3 < a <= 4 and t >= 1: a rational a (returned
    as a Fraction) is walked exactly, an AdaptiveScalar is refined until its
    enclosure lies in (3, 4] and every row resolves."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    if isinstance(a, AdaptiveScalar):

        def decide(iv):
            if iv.hi <= 3 or iv.lo > 4:
                raise ValueError(f"parameter {a} lies outside (3, 4]")
            if iv.lo <= 3 or iv.hi > 4:
                return None
            den = lcm(iv.lo.denominator, iv.hi.denominator)
            n_lo = iv.lo.numerator * (den // iv.lo.denominator)
            n_hi = iv.hi.numerator * (den // iv.hi.denominator)
            return _wedge_rows(n_lo, n_hi, den, t)

        return a, a.resolve(decide)
    if not isinstance(a, (int, Fraction)):
        raise TypeError(f"unsupported scalar type {type(a).__name__}")
    a = Fraction(a)
    if not 3 < a <= 4:
        raise ValueError(f"parameter {a} lies outside (3, 4]")
    return a, _wedge_rows(a.numerator, a.numerator, a.denominator, t)


def region_counts(a, t: int) -> SliceCounts:
    """Exact lattice tallies (upper, lower, boundary) for 3 < a <= 4 and t >= 1.

    a may be a rational (exact path) or an AdaptiveScalar enclosing an
    irrational; enclosures are refined until every slice floor resolves.
    """
    a, (upper, lower, _) = _on_parameter(a, t)
    return SliceCounts(t, a, sum(upper), sum(lower), boundary_lattice_count(t))


@dataclass(frozen=True)
class SliceCheck:
    """One matched pair of slice counts: upper height y0 against lower height y1."""

    y0: int
    y1: int
    lhs: int
    rhs: int
    ok: bool


@dataclass(frozen=True)
class SliceInequalityReport:
    t: int
    a: object
    slices: tuple[SliceCheck, ...]
    vacuous: bool

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.slices)


def verify_slice_inequality(a, t: int) -> SliceInequalityReport:
    """Per-slice count comparison pairing upper height y0 with y1 = floor(t/6) - y0.

    Asserts floor(x2) - ceil(max(0, x1)) + 1 <= floor(x4) - ceil(x3) + 1 for
    every integer y0 in [t/12, t/6]; an empty height range is reported as
    vacuous.  Rational a must keep the upper parameter-edge bound
    non-integral away from the crossing (otherwise ValueError).
    """
    a, (upper, lower, on_edge) = _on_parameter(a, t)
    if on_edge is not None:
        raise ValueError(
            f"slice bound is integral at t={t}, y0={on_edge}; "
            "the per-slice inequality needs a with non-integral bounds"
        )
    y_top = t // 6
    rows = []
    for y0, lhs in enumerate(upper, (t + 11) // 12):
        rhs = lower[y_top - y0]
        rows.append(SliceCheck(y0, y_top - y0, lhs, rhs, lhs <= rhs))
    return SliceInequalityReport(t, a, tuple(rows), vacuous=not rows)


def verify_diff_identity() -> tuple[tuple[int, int, int], ...]:
    """Prove that count(T(1/2,1/6), t) - count(T(1/3,1/4), t) equals
    boundary_lattice_count(t), less one exactly when t = 4 mod 12, for every
    t >= 1; returns the violations (t, observed, expected), empty when proved.

    Both counts are Ehrhart quasi-polynomials of period dividing 12 with the
    same leading term t^2/24, so on each class t = r + 12j (1 <= r <= 12,
    j >= 0) their difference is linear in j, and so is the expected side.
    Two lines agreeing at j = 0 and j = 1 agree everywhere: t = 1..24 decide.
    """
    violations = []
    for t in range(1, 25):
        observed = triangle_count(TRIANGLE_HALF_SIXTH, t) - triangle_count(TRIANGLE_THIRD_QUARTER, t)
        expected = boundary_lattice_count(t) - (1 if t % 12 == 4 else 0)
        if observed != expected:
            violations.append((t, observed, expected))
    return tuple(violations)
