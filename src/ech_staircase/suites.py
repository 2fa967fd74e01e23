"""Batch verification suites: each returns NamedCheck rows for the CLI and tests.

These are the independent oracles of the project.  Where an operation has a
clever path (scaled-int capacity cutoff, closed-form identities, slice
tallies), the suite recomputes the answer by brute force and compares exactly.
The weight identities are integer facts about the Euclid stages behind every
weight sequence, and the capacity oracle sorts a box of scaled integers, so
neither builds a Fraction per item.  The lemma suite runs each bound lemma on
the pairs that `analysis.bound_case` assigns to it, the same case split that
theorem reports use.  A seeded suite names its seed in its hypothesis.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt

from .analysis import (
    NamedCheck,
    STEP5_LEFTOVERS,
    _lemma_check,
    bound_case,
    grid_43,
    verify_43_case,
    verify_claim_steps,
    verify_nicebound,
)
from .capacities import capacity_prefix
from .core import Ellipsoid, _corner_weights
from .ehrhart import (
    TRIANGLE_HALF_SIXTH,
    TRIANGLE_THIRD_QUARTER,
    fit_quasi_polynomial,
    region_counts,
    verify_diff_identity,
)
from .intervals import AdaptiveScalar

HALF_SIXTH_CONSTANTS = (
    Fraction(1), Fraction(5, 8), Fraction(1), Fraction(5, 8), Fraction(2, 3), Fraction(7, 24),
)
THIRD_QUARTER_CONSTANTS = (
    Fraction(1), Fraction(5, 8), Fraction(1, 6), Fraction(5, 8), Fraction(1), Fraction(7, 24),
    Fraction(1, 2), Fraction(5, 8), Fraction(2, 3), Fraction(5, 8), Fraction(1, 2), Fraction(7, 24),
)

_LARGE_PRIME_DENOMINATORS = (3607, 4001, 4999)


def brute_capacities(ellipsoid: Ellipsoid, count: int) -> list[Fraction]:
    """Materialize-and-sort oracle for the first `count` capacities.

    Works in integers: a and b times the product of their denominators.  Sorts
    the whole box i*a + j*b, 0 <= i, j <= m, and doubles m until the candidate
    value is certainly below every excluded lattice point; shares no code with
    the isqrt cutoff of CapacitySequence.
    """
    scale = ellipsoid.a.denominator * ellipsoid.b.denominator
    a = ellipsoid.a.numerator * ellipsoid.b.denominator
    b = ellipsoid.b.numerator * ellipsoid.a.denominator
    m = 1
    while True:
        if (m + 1) ** 2 >= count:
            values = sorted(
                x + y
                for x in range(0, (m + 1) * a, a)
                for y in range(0, (m + 1) * b, b)
            )[:count]
            if values[-1] < m * a and values[-1] < m * b:
                return [Fraction(v, scale) for v in values]
        m *= 2


def sample_scalars(count: int, seed: int) -> list[tuple[str, object]]:
    """Deterministic mix of parameters in (3, 4): sqrt- and pi-based
    irrationals plus rationals with a large prime denominator."""
    rng = random.Random(seed)
    out: list[tuple[str, object]] = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            m = rng.randrange(2, 10**6)
            r = isqrt(m)
            if r * r == m:
                m += 1
                r = isqrt(m)
            out.append((f"3+frac(sqrt({m}))", AdaptiveScalar.sqrt(m) + (3 - r)))
        elif kind == 1:
            q = rng.choice(_LARGE_PRIME_DENOMINATORS)
            p = rng.randrange(3 * q + 1, 4 * q)
            out.append((f"{p}/{q}", Fraction(p, q)))
        else:
            j = rng.randrange(1, 120)
            x = AdaptiveScalar.pi() * Fraction(j, 10)
            out.append((f"3+frac({j}*pi/10)", x - x.floor() + 3))
    return out


def weight_identity_checks(max_value: int = 200) -> list[NamedCheck]:
    """sum(w) = p/q + 1 - 1/q and sum(w^2) = p/q for every p/q in lowest terms,
    plus the per/vol closed forms (k+l+1)/l and k/l, checked in integers on the
    Euclid stages that the weight sequences are built from."""
    bad_sum = bad_pv = None
    pairs = 0
    for q in range(1, max_value + 1):
        for p in range(q, max_value + 1):
            if gcd(p, q) != 1:
                continue
            pairs += 1
            # weight_sequence(p/q) is the weights n/q of the legs (q, p)
            stages = _corner_weights(q, p)
            if (sum(r * n for n, r in stages) != p + q - 1
                    or sum(r * n * n for n, r in stages) != p * q):
                bad_sum = bad_sum or (p, q)
            # negative_weight_sequence(p/q) is the head p/q and the weights n/q of the
            # legs (p - q, p): q*per = 3p - sum(n) and q^2*vol = p^2 - sum(n^2)
            tail = _corner_weights(p - q, p)
            if (3 * p - sum(r * n for n, r in tail) != p + q + 1
                    or p * p - sum(r * n * n for n, r in tail) != p * q):
                bad_pv = bad_pv or (p, q)
    return [
        NamedCheck.judged(
            "weight-sum-identities",
            f"all p/q >= 1 with p, q <= {max_value}",
            bad_sum is None,
            f"{pairs} expansions" if bad_sum is None else f"first failure {bad_sum}",
        ),
        NamedCheck.judged(
            "per-vol-closed-forms",
            f"per = (k+l+1)/l and vol = k/l, k, l <= {max_value}",
            bad_pv is None,
            f"{pairs} expansions" if bad_pv is None else f"first failure {bad_pv}",
        ),
    ]


def capacity_oracle_checks(k_max: int = 300, seed: int = 0, pairs: int = 10) -> list[NamedCheck]:
    """Generated capacities against the materialize-and-sort oracle, on the two
    reference ellipsoids and seeded random ones."""
    rng = random.Random(seed)
    ellipsoids = [Ellipsoid(Fraction(1), Fraction(1)), Ellipsoid(Fraction(1), Fraction(4, 3))]
    while len(ellipsoids) < pairs:
        num = rng.randrange(1, 13)
        den = rng.randrange(1, 20 - num)
        a = Fraction(num, den)
        if a < Fraction(1, 8) or a > 8:
            continue
        ellipsoids.append(Ellipsoid(Fraction(1), a))
    first_bad = None
    for e in ellipsoids:
        if capacity_prefix(e, k_max + 1) != brute_capacities(e, k_max + 1):
            first_bad = e
            break
    return [
        NamedCheck.judged(
            "capacity-oracle",
            f"{len(ellipsoids)} ellipsoids, seed {seed}, k <= {k_max}",
            first_bad is None,
            "capacity prefix equals sorted sum-set" if first_bad is None else f"mismatch at {first_bad}",
        )
    ]


def ehrhart_table_checks() -> list[NamedCheck]:
    """Exact constant tables and linear terms of the two reference triangles."""
    qp1 = fit_quasi_polynomial(TRIANGLE_HALF_SIXTH)
    qp2 = fit_quasi_polynomial(TRIANGLE_THIRD_QUARTER)
    ok_const = qp1.constant == HALF_SIXTH_CONSTANTS and qp2.constant == THIRD_QUARTER_CONSTANTS
    ok_lead = qp1.leading == Fraction(1, 24) and qp2.leading == Fraction(1, 24)
    ok_linear = all(b == Fraction(1, 3) for b in qp2.linear) and all(
        qp1.linear[r] == (Fraction(5, 12) if r % 2 == 0 else Fraction(1, 3))
        for r in range(6)
    )
    return [
        NamedCheck.judged("ehrhart-constant-tables", "periods 6 and 12", ok_const,
                          "both constant tables exact"),
        NamedCheck.judged("ehrhart-leading-linear", "leading 1/24; linear 5/12|1/3 and 1/3",
                          ok_lead and ok_linear, "leading and linear terms exact"),
    ]


def diff_identity_checks() -> list[NamedCheck]:
    violations = verify_diff_identity()
    return [
        NamedCheck.judged(
            "count-difference-identity",
            "difference equals the boundary count (less 1 when t = 4 mod 12), every t >= 1",
            not violations,
            "identity exact" if not violations else f"violations {violations[:3]}",
        )
    ]


def slice_checks(samples: int = 40, t_max: int = 300, seed: int = 0) -> list[NamedCheck]:
    """Wedge-count comparison on sampled parameters: upper <= lower always,
    and upper <= lower - 1 when t = 4 mod 12."""
    first_bad = None
    for label, a in sample_scalars(samples, seed):
        for t in range(1, t_max + 1):
            rc = region_counts(a, t)
            slack = 1 if t % 12 == 4 else 0
            if rc.upper > rc.lower - slack:
                first_bad = (label, t)
                break
        if first_bad:
            break
    return [
        NamedCheck.judged(
            "slice-lemma",
            f"{samples} sampled parameters in (3, 4), seed {seed}, t <= {t_max}",
            first_bad is None,
            "upper wedge never outcounts" if first_bad is None else f"failure at {first_bad}",
        )
    ]


def lemma_checks(k_max: int = 60, claims_k: int = 200, claims_l: int = 50) -> list[NamedCheck]:
    """Each bound lemma on the coprime pairs with k <= k_max that bound_case
    gives it, then the discriminant claims and the finite leftover list."""
    family: dict = {None: [], "nicebound": [], "exceptional": [], "integral": []}
    for k in range(1, k_max + 1):
        for l in range(1, k + 1):
            if gcd(k, l) == 1:
                case = bound_case(k, l)
                family[case.lemma].append((case, k, l))
    out = []
    bad = [(k, l) for case, k, l in family["nicebound"] if not _lemma_check(case, k, l).passed]
    out.append(
        NamedCheck.judged("nicebound", f"coprime (k, l), l >= 2, k <= {k_max}, outside exclusions",
                          not bad, "all strict" if not bad else f"failures {bad[:3]}")
    )
    bad = [
        (k, l) for case, k, l in family["exceptional"] + family["integral"]
        if not _lemma_check(case, k, l).passed
    ]
    out.append(
        NamedCheck.judged("exceptional-and-integral",
                          f"(5,2),(5,3),(5,4) and l = 1, 3 <= k <= {k_max}",
                          not bad, "all strict" if not bad else f"failures {bad[:3]}")
    )
    rep = verify_claim_steps(claims_k, claims_l)
    out.append(
        NamedCheck.judged("discriminant-claims", f"k <= {claims_k}, l <= {claims_l}", rep.ok,
                          f"{rep.claim_low_l.checked}+{rep.claim_wide_gap.checked}"
                          f"+{rep.quadratic_step.checked} inequalities")
    )
    leftovers_ok = all(verify_nicebound(k, l).passed for k, l in STEP5_LEFTOVERS)
    out.append(
        NamedCheck.judged("finite-leftover-list", "the eleven directly-checked pairs",
                          leftovers_ok, "all strict")
    )
    return out


def case43_checks(step: Fraction = Fraction(1, 20)) -> list[NamedCheck]:
    rep = verify_43_case(grid_43(step))
    bad = [r.a for r in rep.rows if not r.ok]
    return [
        NamedCheck.judged(
            "four-thirds-function",
            "plateau 3/2 on [2,3], line (a+3)/4 on [3,4]; upper side by the slice lemma",
            rep.ok,
            f"{len(rep.rows)} grid points" if rep.ok else f"failures at a = {bad[:3]}",
        )
    ]


# each suite reads what it needs from the options mapping built by run_suites
SUITES = {
    "weights": lambda o: weight_identity_checks(),
    "capacities": lambda o: capacity_oracle_checks(seed=o["seed"]),
    "ehrhart-tables": lambda o: ehrhart_table_checks(),
    "diff-identity": lambda o: diff_identity_checks(),
    "slices": lambda o: slice_checks(samples=o["samples"], t_max=o["t_max"], seed=o["seed"]),
    "lemmas": lambda o: lemma_checks(),
    "case-43": lambda o: case43_checks(),
}


def run_suites(
    names: list[str],
    t_max: int = 300,
    seed: int = 0,
    samples: int = 40,
) -> list[NamedCheck]:
    options = {"t_max": t_max, "seed": seed, "samples": samples}
    return [check for name in names for check in SUITES[name](options)]
