"""Seeded task lists and their correctness oracles, one function per workload.

Each turns (seed, smoke, pass_index) into a list of Tasks.  ``Task.run`` is the timed
call into the package; it looks every package function up through its module
at call time, so the traced run sees the wrapped names.  ``Task.check`` is the
oracle, run after the timed region: it returns None for a correct result or a
short reason.  The reason ``KNOWN_DEFECT`` marks a wrong "holds" verdict of
``embedding_decision`` that is refuted only between integer levels: the
integer-t-only comparison described as item 1 of ROADMAP.md.  It counts as a
failed task like any other reason.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, isqrt, lcm, sqrt
from typing import Callable

from ech_staircase import analysis, capacities, cli, core, ehrhart, intervals, suites

KNOWN_DEFECT = "wrong-holds"

# (k, l) pairs outside the nicebound lemma's hypotheses (l >= 2 and not one of these)
NICEBOUND_EXCLUDED = frozenset({(3, 2), (5, 2), (4, 3), (5, 3), (5, 4)})


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# -- verify-all ---------------------------------------------------------------

VERIFY_ROWS = {"all": 12, "ehrhart-tables": 2}


def check_verify(result, suite: str) -> str | None:
    rc, text = result
    lines = text.splitlines()
    if rc != 0:
        return f"exit code {rc}"
    if len(lines) != VERIFY_ROWS[suite]:
        return f"{len(lines)} rows, expected {VERIFY_ROWS[suite]}"
    bad = [line for line in lines if not line.startswith("PASS ")]
    return f"row not passing: {bad[0]}" if bad else None


def verify_all(seed: int, smoke: bool, pass_index: int = 0) -> list[Task]:
    suite = "ehrhart-tables" if smoke else "all"
    s = str(_rng("verify-all", seed).randrange(10**6))
    argv = ["verify", "--suite", suite, "--seed", s]
    return [Task(f"verify --suite {suite} --seed {s}", lambda: _cli(argv),
                 lambda r: check_verify(r, suite))]


# -- theorem-sweep ------------------------------------------------------------

# one pair per category of theorem_report: (k, l) -> (category, lemma)
THEOREM_FIXED = {
    (2, 1): ("staircase", None),
    (4, 3): ("four-thirds", None),
    (5, 1): ("general", "integral"),
    (5, 2): ("general", "exceptional"),
}
THEOREM_STRATA = 4
THEOREM_A0_SLACK = 0.03
N_CAP = 2000  # the theorem-report default for --n-cap


def _a0_float(k: int, l: int) -> float:
    s = k + l + 1
    d = s * s - 4 * k * l
    return (s * s + d + 2 * s * sqrt(d)) / (4 * k * l)


def nicebound_pool(k_max: int = 12) -> list[tuple[int, int]]:
    """Coprime (k, l), 2 <= l < k <= k_max, under the nicebound lemma, by ascending a0."""
    pool = [(k, l) for k in range(3, k_max + 1) for l in range(2, k)
            if gcd(k, l) == 1 and (k, l) not in NICEBOUND_EXCLUDED]
    return sorted(pool, key=lambda kl: _a0_float(*kl))


_SURD = re.compile(r"\(?(?:(-?\d+)(?=[+-]))?([+-]?\d*)√(\d+)\)?(?:/(\d+))?")


def parse_surd(text: str) -> tuple[int, int, int, int]:
    """(p, q, d, r) of a surd printed as (p+q√d)/r by QuadraticSurd.__str__."""
    if "√" not in text:
        x = Fraction(text)
        return x.numerator, 0, 0, x.denominator
    m = _SURD.fullmatch(text)
    if m is None:
        raise ValueError(f"unparsable surd {text!r}")
    p, q, d, r = m.groups()
    q = {"": 1, "+": 1, "-": -1}.get(q, None) or int(q)
    return int(p or 0), q, int(d), int(r or 1)


def a0_residue(k: int, l: int, p: int, q: int, d: int, r: int) -> tuple[Fraction, Fraction]:
    """Rational and sqrt(d) parts of x^2 - (per^2/vol - 2) x + 1 at x = (p + q sqrt(d))/r,
    with per = (k+l+1)/l and vol = k/l in closed form."""
    c = Fraction((k + l + 1) ** 2, k * l) - 2
    if q and isqrt(d) ** 2 == d:
        p, q, d = p + q * isqrt(d), 0, 0
    rational = Fraction(p * p + q * q * d, r * r) - c * Fraction(p, r) + 1
    irrational = Fraction(2 * p * q, r * r) - c * Fraction(q, r)
    return rational, irrational


def _brute_ratio(a: Fraction, b: Fraction, count: int) -> Fraction:
    src = suites.brute_capacities(core.Ellipsoid(Fraction(1), a), count)
    tgt = suites.brute_capacities(core.Ellipsoid(Fraction(1), b), count)
    return max(src[k] / tgt[k] for k in range(1, count))


def check_theorem(result, k: int, l: int, expected: tuple, row_pick: int | None) -> str | None:
    rc, text = result
    if rc != 0:
        return f"exit code {rc}"
    rep = json.loads(text)
    if any(c["verdict"] == "fail" for c in rep["checks"]):
        return "report not ok"
    if (rep["category"], rep["lemma"]) != expected:
        return f"category {rep['category']}/{rep['lemma']}, expected {expected}"
    if a0_residue(k, l, *parse_surd(rep["a0"])) != (0, 0):
        return "a0 does not solve its quadratic"
    if not rep["grid"]:
        return "empty grid"
    if row_pick is None:
        return None
    row = rep["grid"][row_pick % len(rep["grid"])]
    if Fraction(row["capacity_bound"]) != _brute_ratio(Fraction(row["a"]), Fraction(k, l), N_CAP + 1):
        return f"capacity bound at a = {row['a']} disagrees with the sorted sum-set"
    return None


def nicebound_draw(rng: random.Random, pool: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """One pair from each a0 stratum of the pool, redrawn until the total a0 is within
    THEOREM_A0_SLACK of its mean.  A report scans a grid of length a0, so every seed
    asks for the same amount of work while the pairs themselves vary."""
    edges = [round(i * len(pool) / THEOREM_STRATA) for i in range(THEOREM_STRATA + 1)]
    strata = [pool[lo:hi] for lo, hi in zip(edges, edges[1:])]
    target = sum(sum(_a0_float(*kl) for kl in st) / len(st) for st in strata)
    while True:
        draw = [rng.choice(st) for st in strata]
        if abs(sum(_a0_float(*kl) for kl in draw) - target) <= THEOREM_A0_SLACK * target:
            return draw


def theorem_sweep(seed: int, smoke: bool, pass_index: int = 0) -> list[Task]:
    rng = _rng("theorem-sweep", seed)
    pool = nicebound_pool()
    pairs = dict(THEOREM_FIXED)
    if smoke:
        pairs = {(12, 11): ("general", "nicebound")}
    else:
        pairs.update(dict.fromkeys(nicebound_draw(rng, pool), ("general", "nicebound")))
    tasks = []
    # the sorted sum-set oracle costs about a third of a report, so each pass
    # runs it on one report, a different one in each pass
    for i, ((k, l), expected) in enumerate(pairs.items()):
        argv = ["theorem-report", "--k", str(k), "--l", str(l), "--format", "json"]
        pick = rng.randrange(10**6) if i == pass_index % len(pairs) else None
        tasks.append(Task(f"theorem-report {k} {l}",
                          lambda argv=argv: _cli(argv),
                          lambda r, k=k, l=l, e=expected, p=pick: check_theorem(r, k, l, e, p)))
    return tasks


# -- exact-decisions ----------------------------------------------------------

DECISIONS = 400
FITS = 4
FIT_PERIODS = (8600, 9000)  # period band of the fitted triangles, around 97*89 = 8633
DECISION_POOL = 8
CAPACITY_TERMS = 3000  # termwise capacity comparison depth for "holds" verdicts


def _rand_rational(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    q = rng.randrange(1, max_den + 1)
    return Fraction(rng.randrange(lo * q + 1, hi * q + 1), q)


def decision_pair(rng: random.Random, sign: int) -> tuple:
    """Source E(1, a) and target lam * E(1, b), lam in (1/12)Z, whose volume ratio
    lam^2 b / a is 1 + sign * [2%, 15%]."""
    while True:
        a = _rand_rational(rng, 1, 4, 6)
        b = _rand_rational(rng, 1, 3, 6)
        lam = Fraction(max(1, round(sqrt((1 + sign * rng.uniform(0.02, 0.15)) * a / b) * 12)), 12)
        if Fraction(2, 100) <= sign * (lam * lam * b / a - 1) <= Fraction(15, 100):
            return core.Ellipsoid(Fraction(1), a), core.Ellipsoid(lam, lam * b)


def _fit_periods(pair: tuple) -> int:
    """lcm period of the two fits plus the two periods: the decision's counting work, roughly."""
    p, q = (lcm(e.a.numerator, e.b.numerator) for e in pair)
    return lcm(p, q) + p + q


def decision_pairs(rng: random.Random, n: int) -> list[tuple]:
    """n pairs, half with the target's volume larger.  Each half is a systematic
    sample, ordered by fitted period, of DECISION_POOL times as many candidates, so
    that every seed gets the same spread of cheap and expensive decisions."""
    out = []
    for sign in (1, -1):
        pool = sorted((decision_pair(rng, sign) for _ in range(DECISION_POOL * n // 2)),
                      key=_fit_periods)
        out += pool[rng.randrange(DECISION_POOL)::DECISION_POOL]
    return out


def lattice_count(e, t: int) -> int:
    """#{(m, n) >= 0 : m a + n b <= t} by rows; independent of the floor-sum kernel."""
    return sum((t - m * e.a) // e.b + 1 for m in range(int(t // e.a) + 1))


def check_decision(verdict, src, tgt, prefixes: dict) -> str | None:
    """A "holds" must survive the termwise capacity comparison through CAPACITY_TERMS,
    or be refuted only between integer levels (KNOWN_DEFECT); a "fails at t" must
    be a lattice-count violation at t.  ``prefixes`` caches
    capacity prefixes across the tasks of one pass."""
    if verdict.holds:
        if verdict.checked_through is not None:
            return "exact decision reported a truncated verdict"
        for e in (src, tgt):
            if e not in prefixes:
                prefixes[e] = capacities.capacity_prefix(e, CAPACITY_TERMS)
        broken = [(x, y) for x, y in zip(prefixes[src], prefixes[tgt]) if x > y]
        if not broken:
            return None
        # c_k(src) > c_k(tgt) puts count(src, L) < count(tgt, L) at every level
        # L in [c_k(tgt), c_k(src)).  Only when that range holds no integer is
        # the wrong "holds" the integer-t defect; otherwise the scan missed a
        # violation at an integer t.
        missed = min((ceil(y) for x, y in broken if ceil(y) < x), default=None)
        if missed is not None:
            return f"holds, but the counts break at integer t={missed}"
        return KNOWN_DEFECT
    t = verdict.fails_at
    if t is None or lattice_count(src, t) >= lattice_count(tgt, t):
        return f"fails at t={t} is not a count violation"
    return None


def triangle_points(tri, t: int) -> int:
    """Lattice points of the t-dilate of tri by rows; independent of the floor-sum kernel."""
    return sum((tri.v * (t - x / tri.u)).__floor__() + 1 for x in range(int(t * tri.u) + 1))


def check_fit(qp, tri, probes: list[int]) -> str | None:
    if qp.period != lcm(tri.u.denominator, tri.v.denominator) or qp.leading != tri.u * tri.v / 2:
        return "period or leading term wrong"
    for r in range(qp.period):
        t = r + 5 * qp.period
        if qp(t) != ehrhart.triangle_count(tri, t):
            return f"fit disagrees with the count at t={t}"
    for t in probes:
        if qp(t) != triangle_points(tri, t):
            return f"fit disagrees with the row count at t={t}"
    return None


def fit_triangles(rng: random.Random, n: int, band: tuple[int, int]) -> list:
    primes = [p for p in range(11, 200) if all(p % d for d in range(2, isqrt(p) + 1))]
    pairs = [(p, q) for p in primes for q in primes if p < q and band[0] <= p * q <= band[1]]
    out = []
    for _ in range(n):
        p, q = rng.choice(pairs)
        out.append(ehrhart.RightTriangle(Fraction(rng.randrange(1, 4), p), Fraction(rng.randrange(1, 4), q)))
    return out


def exact_decisions(seed: int, smoke: bool, pass_index: int = 0) -> list[Task]:
    rng = _rng("exact-decisions", seed)
    tasks, prefixes = [], {}
    for src, tgt in decision_pairs(rng, 8 if smoke else DECISIONS):
        tasks.append(Task(f"embedding_decision {src} -> {tgt}",
                          lambda s=src, g=tgt: ehrhart.embedding_decision(s, g, exact=True),
                          lambda v, s=src, g=tgt: check_decision(v, s, g, prefixes)))
    band = (300, 400) if smoke else FIT_PERIODS
    for tri in fit_triangles(rng, 1 if smoke else FITS, band):
        period = lcm(tri.u.denominator, tri.v.denominator)
        probes = [rng.randrange(1, 4 * period) for _ in range(3)]
        tasks.append(Task(f"fit_quasi_polynomial {tri}",
                          lambda tri=tri: ehrhart.fit_quasi_polynomial(tri),
                          lambda qp, tri=tri, pr=probes: check_fit(qp, tri, pr)))
    return tasks


# -- irrational-sweep ---------------------------------------------------------

SLICE_PARAMS = 12  # three of each kind
NEAR_RATIONAL_BITS = 80  # offset of a near-rational parameter from its rational, about 2^-81
SLICE_T_MAX = 300
SURD_ITEMS = 96
SURD_K = (3.0, 5.0)  # log10 range of k, sampled one item per equal-width stratum
LARGE_PRIME_DENOMINATORS = (3607, 4001, 4999)


def near_rational_offset(rng: random.Random) -> tuple[int, Fraction]:
    """(m, r) with r = floor(sqrt(m) 2^B) / 2^B, B = NEAR_RATIONAL_BITS, and
    sqrt(m) - r in [2^-B / 4, 2^-B): far below a START_BITS enclosure's width,
    far above a 2 * START_BITS one's."""
    bits = NEAR_RATIONAL_BITS
    while True:
        m = rng.randrange(2, 10**6)
        s = isqrt(m << 2 * bits)
        if (4 * s + 1) ** 2 <= m << (2 * bits + 4):
            return m, Fraction(s, 1 << bits)


def slice_parameter(rng: random.Random, kind: int):
    """A parameter in (3, 4): 3 + frac(sqrt(m)), p/q with a large prime q,
    3 + frac(j pi/10), or p/q + (sqrt(m) - r) with q <= 25 and r as in
    near_rational_offset.  For the last kind the lower slice bound at y = 0 is
    integral at p/q when t = 12q <= SLICE_T_MAX, so the START_BITS enclosure
    straddles it and the slice calls refine."""
    scalar = intervals.AdaptiveScalar
    if kind == 0:
        m = rng.randrange(2, 10**6)
        if isqrt(m) ** 2 == m:
            m += 1
        return f"3+frac(sqrt({m}))", scalar.sqrt(m) + (3 - isqrt(m))
    if kind == 1:
        q = rng.choice(LARGE_PRIME_DENOMINATORS)
        p = rng.randrange(3 * q + 1, 4 * q)
        return f"{p}/{q}", Fraction(p, q)
    if kind == 2:
        j = rng.randrange(1, 120)
        x = scalar.pi() * Fraction(j, 10)
        return f"3+frac({j}*pi/10)", x - x.floor() + 3
    q = rng.randrange(2, 26)
    p = rng.randrange(3 * q + 1, 4 * q)
    m, r = near_rational_offset(rng)
    return f"{Fraction(p, q)}+(sqrt({m})-r)", scalar.sqrt(m) - r + Fraction(p, q)


def run_slices(a, t_max: int) -> list:
    return [(ehrhart.region_counts(a, t), ehrhart.verify_slice_inequality(a, t))
            for t in range(1, t_max + 1)]


def check_slices(result, t_max: int) -> str | None:
    if len(result) != t_max:
        return f"{len(result)} dilations, expected {t_max}"
    for t, (rc, rep) in enumerate(result, start=1):
        if rc.t != t or rep.t != t:
            return f"result out of order at t={t}"
        if rc.upper > rc.lower - (t % 12 == 4):
            return f"slice lemma fails at t={t}"
        if any(s.lhs > s.rhs or s.ok != (s.lhs <= s.rhs) for s in rep.slices):
            return f"per-slice inequality fails at t={t}"
    return None


def primes_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p in range(n + 1) if sieve[p]]


def surd_item(rng: random.Random, lo: float, hi: float, primes: list[int]) -> tuple[int, int]:
    """Coprime (k, l), log10 k uniform in [lo, hi], 2 <= l <= 9, whose radicand
    d = (k+l+1)^2 - 4kl is squarefree.  A squarefree d makes every surd
    construction run its trial division to sqrt(d), so an item's cost follows k."""
    while True:
        k, l = round(10 ** rng.uniform(lo, hi)), rng.randrange(2, 10)
        d = (k + l + 1) ** 2 - 4 * k * l
        if gcd(k, l) == 1 and all(d % (p * p) for p in primes if p * p <= d):
            return k, l


def run_surd(k: int, l: int):
    data = core.accumulation_point(k, l)
    return data, analysis.verify_nicebound(k, l), data.a0.decimal()


def check_surd(result, k: int, l: int) -> str | None:
    data, lemma, text = result
    a0 = data.a0
    if a0_residue(k, l, a0.p, a0.q, a0.d, a0.r) != (0, 0):
        return "a0 does not solve its quadratic"
    if lemma.verdict != "pass":
        return f"nicebound verdict {lemma.verdict}"
    # a0 to 40 fractional digits, then the 12-significant-digit rounding
    scale = 10**40
    approx = Fraction(a0.p * scale + a0.q * isqrt(a0.d * scale * scale), a0.r * scale)
    e = len(str(int(approx))) - 1
    if abs(Fraction(text) - approx) > Fraction(10) ** (e - 11) / 2 + Fraction(1, 10**30):
        return f"decimal {text} is not a0 rounded to 12 digits"
    return None


def irrational_sweep(seed: int, smoke: bool, pass_index: int = 0) -> list[Task]:
    rng = _rng("irrational-sweep", seed)
    n_params, t_max, n_surd = (4, 24, 3) if smoke else (SLICE_PARAMS, SLICE_T_MAX, SURD_ITEMS)
    lo, hi = (3.0, 3.3) if smoke else SURD_K
    tasks = []
    for i in range(n_params):
        label, a = slice_parameter(rng, i % 4)
        tasks.append(Task(f"slices {label}", lambda a=a: run_slices(a, t_max),
                          lambda r: check_slices(r, t_max)))
    width = (hi - lo) / n_surd
    primes = primes_to(isqrt(int(2 * 10 ** (2 * hi))) + 1)
    for i in range(n_surd):
        k, l = surd_item(rng, lo + i * width, lo + (i + 1) * width, primes)
        tasks.append(Task(f"surd {k} {l}", lambda k=k, l=l: run_surd(k, l),
                          lambda r, k=k, l=l: check_surd(r, k, l)))
    return tasks


WORKLOADS = {
    "verify-all": verify_all,
    "theorem-sweep": theorem_sweep,
    "exact-decisions": exact_decisions,
    "irrational-sweep": irrational_sweep,
}
