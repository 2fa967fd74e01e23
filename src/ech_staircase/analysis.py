"""Bound lemmas and case analysis for embedding functions into E(1, b).

Explicit capacity-derived lower bounds (the seven bullet bounds), their
tangency points with the volume curve, the accumulation-point inequality
lemmas with exact surd comparisons, the eccentricity-4/3 case, and a
per-(k, l) report of the evidence.  `bound_case` is the one place that
decides which argument covers a given b = k/l; the grid scan printed next to
a report is `scan_rows`, which the report itself never calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor, gcd

from .capacities import capacity_lower_bound
from .core import Ellipsoid, accumulation_point
from .ehrhart import DominationVerdict, embedding_decision
from .surd import QuadraticSurd

EXCEPTIONAL_PAIRS = frozenset({(5, 2), (5, 3), (5, 4)})
STAIRCASE_PAIRS = frozenset({(1, 1), (2, 1), (3, 2)})  # b = 1, 2 and 3/2


@dataclass(frozen=True)
class BulletBound:
    """One piece of the staircase of capacity lower bounds for fixed b.

    On [lo, hi] the embedding function is at least `value(a)`, which is the
    constant c (kind "const") or the line a/c (kind "linear").  The witness
    capacity index reproduces the bound as a single-k ratio.
    """

    index: int
    b: Fraction
    lo: Fraction
    hi: Fraction
    kind: str
    c: Fraction
    witness: int

    def value(self, a: Fraction) -> Fraction:
        return self.c if self.kind == "const" else Fraction(a) / self.c

    def contains(self, a: Fraction) -> bool:
        return self.lo <= a <= self.hi

    def touch_point(self) -> Fraction:
        """The unique a where value(a)**2 == a/b: c*c*b for constants, c*c/b for lines."""
        return self.c * self.c * self.b if self.kind == "const" else self.c * self.c / self.b


@lru_cache(maxsize=16)
def _bullet_table(b: Fraction) -> tuple[BulletBound, ...]:
    """Every bullet bound for eccentricity b >= 1, inverted domains included;
    the two extra bullets exist only for integer b.  Cached, since a grid scan
    asks for one b at every row."""
    b = Fraction(b)
    if b < 1:
        raise ValueError("eccentricity must be at least 1")
    f = b.__floor__()
    raw = [
        (1, Fraction(1), b, "const", Fraction(1), 1),
        (2, b, Fraction(f + 1), "linear", b, f + 1),
        (3, Fraction(f + 1), Fraction(f + 1) ** 2 / b, "const", Fraction(f + 1) / b, f + 1),
        (4, Fraction(f + 1) ** 2 / b, Fraction(f + 2), "linear", Fraction(f + 1), f + 2),
        (5, Fraction(f + 2), b * Fraction(f + 2) ** 2 / (f + 1) ** 2, "const",
         Fraction(f + 2, f + 1), f + 2),
    ]
    if b.denominator == 1:
        n = b.numerator
        raw += [
            (6, Fraction(n + 1) ** 2 / b, Fraction(n + 3), "linear", Fraction(n + 1), n + 3),
            (7, Fraction(n + 3), b * Fraction(n + 3) ** 2 / (n + 1) ** 2, "const",
             Fraction(n + 3, n + 1), n + 3),
        ]
    return tuple(BulletBound(i, b, lo, hi, kind, c, w) for (i, lo, hi, kind, c, w) in raw)


def bullets_for(b: Fraction) -> list[BulletBound]:
    """The applicable bullet bounds for eccentricity b >= 1, inverted domains
    dropped (they are vacuous)."""
    return [bl for bl in _bullet_table(b) if bl.lo <= bl.hi]


def bullet_lower_bound(b: Fraction, a: Fraction) -> Fraction:
    """Best bullet bound at a, carried forward past each domain.

    The embedding function is monotone in a, so a bullet's value at its right
    endpoint stays a valid lower bound beyond the domain; this keeps the
    reported bound nondecreasing and floored at 1 (the a <= b plateau).
    """
    a, b = Fraction(a), Fraction(b)
    if a < 1 or b < 1:
        raise ValueError("parameters must be at least 1")
    best = Fraction(1)
    for bl in bullets_for(b):
        if bl.lo <= a:
            v = bl.value(a if a <= bl.hi else bl.hi)
            if v > best:
                best = v
    return best


def intersection_points(b: Fraction) -> list[tuple[int, Fraction]]:
    """The tangency values a_1..a_7 where each bullet bound meets the volume
    curve (a_6, a_7 only for integer b), inverted domains included; each value
    is checked to satisfy bound(a_i)**2 == a_i / b exactly."""
    pts = []
    for bl in _bullet_table(b):
        a = bl.touch_point()
        if bl.value(a) ** 2 != a / bl.b:
            raise ArithmeticError(f"tangency identity failed at a_{bl.index} for b={bl.b}")
        pts.append((bl.index, a))
    return pts


@dataclass(frozen=True)
class BoundCase:
    """How the theorem treats one b = k/l.

    A staircase b (1, 2 or 3/2) and b = 4/3 are special.  Every other b is
    "general": one bound lemma puts a0 below the top of the governing bullets,
    which then rule out an accumulation of singular points at a0.
    """

    category: str  # "staircase" | "four-thirds" | "general"
    lemma: str | None  # "integral" | "exceptional" | "nicebound" when general
    governing: tuple[int, ...]  # bullet indices; every bullet when special


# the five cases, built once: verify_nicebound's guard asks bound_case on every
# call, and building a frozen dataclass costs more than the rest of the split
_STAIRCASE, _FOUR_THIRDS, _INTEGRAL, _EXCEPTIONAL, _NICEBOUND = (
    BoundCase("staircase", None, (1, 2, 3, 4, 5, 6, 7)),
    BoundCase("four-thirds", None, (1, 2, 3, 4, 5, 6, 7)),
    BoundCase("general", "integral", (1, 2, 3, 6, 7)),
    BoundCase("general", "exceptional", (1, 2, 3, 4, 5)),
    BoundCase("general", "nicebound", (1, 2, 3, 4, 5)),
)


def bound_case(k: int, l: int) -> BoundCase:
    """The paper's case split for b = k/l: integer b >= 3 by the integral lemma
    and bullets 1-3, 6, 7; every other general b by bullets 1-5 and the
    exceptional lemma on EXCEPTIONAL_PAIRS, the nicebound lemma elsewhere."""
    if l < 1 or k < l or gcd(k, l) != 1:
        raise ValueError(f"need coprime k >= l >= 1, got ({k}, {l})")
    if (k, l) in STAIRCASE_PAIRS:
        return _STAIRCASE
    if (k, l) == (4, 3):
        return _FOUR_THIRDS
    if l == 1:
        return _INTEGRAL
    return _EXCEPTIONAL if (k, l) in EXCEPTIONAL_PAIRS else _NICEBOUND


@dataclass(frozen=True)
class LemmaCheck:
    """Exact surd-vs-rational comparison a0 < bound for one (k, l)."""

    name: str
    k: int
    l: int
    verdict: str  # "pass" | "fail" | "excluded"
    bound: Fraction | None = None
    a0: QuadraticSurd | None = None
    margin: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


_LEMMA_BOUNDS = {
    "nicebound": lambda k, l: Fraction(k + l + 1, l),
    "exceptional": lambda k, l: Fraction(k, l) * Fraction(k // l + 2, k // l + 1) ** 2,
    "integral": lambda k, l: Fraction(k * (k + 3) ** 2, (k + 1) ** 2),
}


def _lemma_check(case: BoundCase, k: int, l: int, a0: QuadraticSurd | None = None) -> LemmaCheck:
    """a0 < the bound of the lemma that `case` gives (k, l), with no second
    case split; a0 is computed unless the caller already holds it."""
    bound = _LEMMA_BOUNDS[case.lemma](k, l)
    if a0 is None:
        a0 = accumulation_point(k, l).a0
    strict = a0 < bound
    margin = (QuadraticSurd.from_rational(bound) - a0).decimal(12)
    return LemmaCheck(case.lemma, k, l, "pass" if strict else "fail", bound, a0, margin)


def verify_nicebound(k: int, l: int) -> LemmaCheck:
    """a0(k, l) < (k + l + 1)/l, for every pair that bound_case gives this lemma."""
    case = bound_case(k, l)
    if case.lemma != "nicebound":
        return LemmaCheck("nicebound", k, l, "excluded")
    return _lemma_check(case, k, l)


def verify_exceptional(k: int, l: int) -> LemmaCheck:
    """The two stragglers: a0 < b(floor(b)+2)^2/(floor(b)+1)^2 for the three
    exceptional pairs, and a0 < k(k+3)^2/(k+1)^2 for integer b = k >= 3."""
    case = bound_case(k, l)
    if case.lemma not in ("exceptional", "integral"):
        raise ValueError(f"({k}, {l}) is outside both exceptional families")
    return _lemma_check(case, k, l)


@dataclass(frozen=True)
class ClaimSweep:
    hypothesis: str
    checked: int
    first_violation: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None


@dataclass(frozen=True)
class ClaimsReport:
    claim_low_l: ClaimSweep
    claim_wide_gap: ClaimSweep
    quadratic_step: ClaimSweep

    @property
    def ok(self) -> bool:
        return self.claim_low_l.ok and self.claim_wide_gap.ok and self.quadratic_step.ok


def _discriminant_claim_holds(k: int, l: int) -> bool:
    # (k+l+1)^2 - 4kl <= (k - l/4 - 2/5)^2, cleared to integers by 400
    return 400 * ((k + l + 1) ** 2 - 4 * k * l) <= (20 * k - 5 * l - 8) ** 2


def _sweep(hypothesis: str, pairs, holds) -> ClaimSweep:
    """Count the (k, l) pairs checked and keep the first one where holds(k, l) fails."""
    checked, first = 0, None
    for k, l in pairs:
        checked += 1
        if first is None and not holds(k, l):
            first = (k, l)
    return ClaimSweep(hypothesis, checked, first)


def verify_claim_steps(range_k: int, range_l: int) -> ClaimsReport:
    """Exhaustive exact check of the two discriminant claims and the l = 2
    quadratic step over their hypothesis regions intersected with the bounds."""
    return ClaimsReport(
        _sweep("l >= 7, k >= l+1",
               ((k, l) for l in range(7, range_l + 1) for k in range(l + 1, range_k + 1)),
               _discriminant_claim_holds),
        _sweep("l >= 3, k >= l+6",
               ((k, l) for l in range(3, range_l + 1) for k in range(l + 6, range_k + 1)),
               _discriminant_claim_holds),
        _sweep("l = 2, k >= 6: k^2-2k+9 < (k-1/4)^2",
               ((k, 2) for k in range(6, range_k + 1)),
               lambda k, l: 16 * (k * k - 2 * k + 9) < (4 * k - 1) ** 2),
    )


STEP5_LEFTOVERS = (
    (7, 2), (7, 3), (8, 3), (7, 4), (9, 4),
    (6, 5), (7, 5), (8, 5), (9, 5), (7, 6), (11, 6),
)


@dataclass(frozen=True)
class Case43Row:
    a: Fraction
    claimed: Fraction
    lower: Fraction
    lower_ok: bool
    upper: DominationVerdict

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper.holds


@dataclass(frozen=True)
class Case43Report:
    t_max: int | None
    rows: tuple[Case43Row, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def _grid(lo: Fraction, hi, step: Fraction) -> list[Fraction]:
    """The rationals lo, lo + step, ... not exceeding hi, which may be a surd;
    one exact floor gives their number."""
    lo, step = Fraction(lo), Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    return [lo + i * step for i in range(floor((hi - lo) / step) + 1)]


def grid_43(step: Fraction = Fraction(1, 20)) -> list[Fraction]:
    return _grid(Fraction(2), Fraction(4), step)


def claimed_value_43(a: Fraction) -> Fraction:
    """The embedding function into E(1, 4/3) on [2, 4]: 3/2 up to a = 3, then
    the line (a + 3)/4."""
    a = Fraction(a)
    return Fraction(3, 2) if a <= 3 else (a + 3) / 4


def verify_43_case(t_max: int | None, a_grid: list[Fraction] | None = None) -> Case43Report:
    """Pin the embedding function for b = 4/3 on a grid in [2, 4].

    Lower side: the k <= 10 capacity ratio must equal the claimed value
    exactly (k = 2 carries the plateau, k = 10 the line).  Upper side: the
    lattice counts must confirm the matching embedding at every level <= t_max,
    or at every level when t_max is None.  The exact check is cheap on
    theorem_report's nine-point grid, but the default 41-point grid needs 12
    times as many lattice counts exact as at t_max = 300 (533,279 against
    43,986; a = 61/20 alone takes 337,076), so report-43 and the case-43
    suite stay truncated.
    """
    grid = grid_43() if a_grid is None else [Fraction(a) for a in a_grid]
    if any(not 2 <= a <= 4 for a in grid):
        raise ValueError("grid values must lie in [2, 4]")
    target = Ellipsoid(Fraction(1), Fraction(4, 3))
    rows = []
    for a in grid:
        claimed = claimed_value_43(a)
        lower = capacity_lower_bound(a, target.b, 10)
        upper = embedding_decision(Ellipsoid(Fraction(1), a), target.scaled(claimed), t_max)
        rows.append(Case43Row(a, claimed, lower, lower == claimed, upper))
    return Case43Report(t_max, tuple(rows))


@dataclass(frozen=True)
class NamedCheck:
    """One verification outcome in the machine-readable report schema."""

    name: str
    hypothesis: str
    verdict: str  # "pass" | "fail" | "info"
    witness: str

    @classmethod
    def judged(cls, name: str, hypothesis: str, ok: bool, witness: str) -> "NamedCheck":
        return cls(name, hypothesis, "pass" if ok else "fail", witness)

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


@dataclass(frozen=True)
class ScanRow:
    a: Fraction
    volume: QuadraticSurd
    bullet: Fraction
    capacity: Fraction


def scan_rows(
    b: Fraction,
    a_lo: Fraction,
    a_hi,
    step: Fraction,
    n_cap: int,
) -> list[ScanRow]:
    """Grid scan of the three bounds: volume sqrt(a/b), best bullet bound,
    and the k <= n_cap capacity ratio.  a_hi may be a surd; grid points are
    the rationals a_lo, a_lo + step, ... not exceeding it."""
    b, a_lo, step = Fraction(b), Fraction(a_lo), Fraction(step)
    if a_lo < 1 or step <= 0:
        raise ValueError("need a_lo >= 1 and a positive step")
    return [
        ScanRow(
            a,
            QuadraticSurd.sqrt_of(a / b),
            bullet_lower_bound(b, a),
            capacity_lower_bound(a, b, n_cap),
        )
        for a in _grid(a_lo, a_hi, step)
    ]


@dataclass(frozen=True)
class TheoremReport:
    """Assembled evidence that (k, l) admits no accumulation of singular points,
    or a flag that it is one of the special eccentricities where it does."""

    k: int
    l: int
    b: Fraction
    category: str  # bound_case's category
    a0: QuadraticSurd
    per: Fraction
    vol: Fraction
    lemma: str | None
    governing: tuple[BulletBound, ...]
    checks: tuple[NamedCheck, ...]

    @property
    def special(self) -> bool:
        return self.category != "general"

    @property
    def ok(self) -> bool:
        return not any(c.failed for c in self.checks)


def _coverage_check(bullets: list[BulletBound], a0: QuadraticSurd) -> NamedCheck:
    """Bullets must chain from 1 past a0 with strict headroom at the top."""
    hypothesis = "bullet domains cover [1, a0] with a0 < sup"
    chain = sorted(bullets, key=lambda bl: (bl.lo, bl.hi))
    reach = Fraction(1)
    for bl in chain:
        if bl.lo > reach:
            break
        reach = max(reach, bl.hi)
    return NamedCheck.judged("bullet-coverage", hypothesis, a0 < reach,
                             f"covered through {reach}, a0 ~ {a0.decimal(10)}")


def _touch_classification(
    bullets: list[BulletBound], a0: QuadraticSurd, b: Fraction
) -> NamedCheck:
    """Classify a0 against the volume curve on the governing bullets.

    Either some bullet bound strictly exceeds the volume at a0 (the direct
    contradiction with an accumulation of singular points), or a0 equals a
    tangency value and sits strictly inside the flanked union, where the
    monotonicity/subscaling upgrade rules out accumulation instead.
    """
    hypothesis = "at a0: bullet bound > volume, or a0 is a flanked tangency value"
    touches = {bl.index: bl.touch_point() for bl in bullets}
    hit = next((i for i, v in touches.items() if a0 == v), None)
    if hit is not None:
        lo = min(bl.lo for bl in bullets)
        hi = max(bl.hi for bl in bullets)
        return NamedCheck.judged("volume-touch-classification", hypothesis, lo < a0 < hi,
                                 f"a0 = {a0} equals the tangency of bullet {hit}; "
                                 f"flanking domains span [{lo}, {hi}]")
    for bl in bullets:
        if not (bl.lo <= a0 <= bl.hi):
            continue
        # tangency values sit at domain endpoints, and a0 differs from all of
        # them, so strict exceedance reduces to one exact comparison
        if bl.kind == "const":
            strict = QuadraticSurd.from_rational(bl.c * bl.c * b) > a0
        else:
            strict = a0 > bl.c * bl.c / b
        if strict:
            return NamedCheck.judged(
                "volume-touch-classification", hypothesis, True,
                f"bullet {bl.index} bound strictly exceeds the volume at a0 ~ {a0.decimal(10)}",
            )
    return NamedCheck.judged("volume-touch-classification", hypothesis, False,
                             f"no bullet separates a0 ~ {a0.decimal(10)} from the volume curve")


def theorem_report(k: int, l: int) -> TheoremReport:
    """Per-(k, l) evidence: a0 solves its quadratic, and then, by bound_case's
    category, the staircase consistency at a0, the pinned 4/3 function, or the
    governing bound lemma checked exactly with bullet coverage up to a0 and
    the separation from the volume curve at a0."""
    data = accumulation_point(k, l)
    case = bound_case(k, l)
    b = Fraction(k, l)
    a0 = data.a0
    residue = a0 * a0 - (data.per**2 / data.vol - 2) * a0 + 1
    checks = [NamedCheck.judged("accumulation-quadratic",
                                "a0 solves x^2 - (per^2/vol - 2) x + 1 = 0",
                                residue == 0, f"residue {residue}")]
    governing = [bl for bl in bullets_for(b) if bl.index in case.governing]
    if case.category == "staircase":
        checks.append(NamedCheck(
            "special-eccentricity",
            "b in {1, 2, 3/2}: an infinite staircase exists",
            "info",
            f"a0 = {a0} ~ {a0.decimal(10)}; no contradiction attempted",
        ))
        # bounded consistency: the 2000-term certified lower bound at the last
        # multiple of 1/60 below the irrational a0 must stay within the volume
        # value at a0, where the function meets the volume curve
        a_probe = Fraction(floor(a0 * 60), 60)
        lb = capacity_lower_bound(a_probe, b, 2000)
        checks.append(NamedCheck.judged(
            "volume-consistency-at-a0",
            f"capacity bound at a = {a_probe} squared stays within a0/b",
            QuadraticSurd.from_rational(lb * lb * b) <= a0,
            f"bound {lb}, a0 ~ {a0.decimal(10)}",
        ))
    elif case.category == "four-thirds":
        case43 = verify_43_case(None, grid_43(Fraction(1, 4)))
        checks.append(NamedCheck.judged(
            "four-thirds-case",
            "embedding function pinned on [2, 4]; a0 = 3 is the unique singular point nearby",
            case43.ok,
            f"{len(case43.rows)} grid points, every level t",
        ))
        lb = capacity_lower_bound(Fraction(3), b, 10)
        checks.append(NamedCheck.judged(
            "volume-equality-at-a0",
            "a0 = 3: the certified bound meets the volume exactly",
            lb * lb * b == 3 and a0 == 3,
            f"bound {lb}, bound^2 * b = {lb * lb * b}",
        ))
    else:
        check = _lemma_check(case, k, l, a0)
        checks += [
            NamedCheck.judged(f"bound-lemma-{case.lemma}", f"a0 < {check.bound}",
                              check.passed, f"margin {check.margin}"),
            _coverage_check(governing, a0),
            _touch_classification(governing, a0, b),
        ]

    return TheoremReport(
        k, l, b, case.category, a0, data.per, data.vol, case.lemma,
        tuple(governing), tuple(checks),
    )
