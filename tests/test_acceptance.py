"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints a single PASS line (run pytest with -s to see them inline).
"""

import random
import time
from fractions import Fraction as F
from math import gcd

from ech_staircase.analysis import (
    grid_43,
    verify_43_case,
    verify_exceptional,
    verify_nicebound,
)
from ech_staircase.capacities import capacity, capacity_prefix
from ech_staircase.core import (
    Ellipsoid,
    accumulation_point,
    negative_weight_sequence,
    per_vol,
    weight_sequence,
)
from ech_staircase.ehrhart import (
    TRIANGLE_HALF_SIXTH,
    TRIANGLE_THIRD_QUARTER,
    RightTriangle,
    boundary_lattice_count,
    embedding_decision,
    fit_quasi_polynomial,
    region_counts,
    triangle_count,
    verify_diff_identity,
)
from ech_staircase.suites import brute_capacities, sample_scalars
from ech_staircase.surd import QuadraticSurd

SEED = 20250809


def _report(number: int, description: str, started: float, limit: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_acceptance_1_ehrhart_constant_tables():
    started = time.monotonic()
    qp = fit_quasi_polynomial(TRIANGLE_HALF_SIXTH)
    assert qp.constant == (F(1), F(5, 8), F(1), F(5, 8), F(2, 3), F(7, 24))
    qp = fit_quasi_polynomial(TRIANGLE_THIRD_QUARTER)
    assert qp.constant == (
        F(1), F(5, 8), F(1, 6), F(5, 8), F(1), F(7, 24),
        F(1, 2), F(5, 8), F(2, 3), F(5, 8), F(1, 2), F(7, 24),
    )
    _report(1, "both quasi-polynomial constant tables exact", started, 1.0)


def test_acceptance_2_capacity_spot_values():
    started = time.monotonic()
    e = Ellipsoid(F(1), F(4, 3))
    assert capacity(e, 10) == 4
    assert capacity(e, 2) == F(4, 3)
    rng = random.Random(SEED)
    for _ in range(20):
        a = 3 + F(rng.randrange(0, 101), 100)  # [3, 4]
        assert capacity(Ellipsoid(F(1), a), 10) == a + 3
    for _ in range(20):
        a = 2 + F(rng.randrange(0, 601), 100)  # [2, 8]
        assert capacity(Ellipsoid(F(1), a), 2) == 2
    _report(2, "capacity spot values and 20-sample windows exact", started, 1.0)


def test_acceptance_3_difference_identity():
    started = time.monotonic()
    assert verify_diff_identity() == ()
    # oracle: a direct scan far past the two periods the proof reads
    for t in range(1, 1001):
        observed = triangle_count(TRIANGLE_HALF_SIXTH, t) - triangle_count(TRIANGLE_THIRD_QUARTER, t)
        assert observed == boundary_lattice_count(t) - (t % 12 == 4), t
    _report(3, "count difference identity proved, scanned through t = 1000", started, 5.0)


def test_acceptance_4_slice_lemma():
    started = time.monotonic()
    samples = sample_scalars(200, SEED)
    for label, a in samples:
        for t in range(1, 301):
            rc = region_counts(a, t)
            assert rc.upper <= rc.lower, (label, t)
            if t % 12 == 4:
                assert rc.upper <= rc.lower - 1, (label, t)
    _report(4, "upper wedge never outcounts on 200 samples, t <= 300", started, 60.0)


def test_acceptance_5_four_thirds_function():
    started = time.monotonic()
    rep = verify_43_case(grid_43(F(1, 20)))
    assert len(rep.rows) == 41 and rep.ok
    target = Ellipsoid(F(1), F(4, 3))
    for row in rep.rows:
        assert row.lower == row.claimed, row.a
        # the domination walk through t = 300, an oracle for the slice lemma's upper side
        assert embedding_decision(Ellipsoid(F(1), row.a), target.scaled(row.claimed), 300), row.a
    _report(5, "4/3 function: upper side by the slice lemma, lower side and a t <= 300 "
               "walk on the 41-point grid", started, 120.0)


def test_acceptance_6_inequality_lemmas():
    started = time.monotonic()
    for k in range(2, 61):
        for l in range(2, k):
            if gcd(k, l) != 1 or (k, l) in {(3, 2), (5, 2), (4, 3), (5, 3), (5, 4)}:
                continue
            assert verify_nicebound(k, l).passed, (k, l)
    for k, l in ((5, 2), (5, 3), (5, 4)):
        assert verify_exceptional(k, l).passed, (k, l)
    for k in range(3, 61):
        assert verify_exceptional(k, 1).passed, k
    _report(6, "nicebound/exceptional/integral lemmas strict, k <= 60", started, 10.0)


def test_acceptance_7_accumulation_points():
    started = time.monotonic()
    assert accumulation_point(1, 1).a0 == QuadraticSurd(7, 3, 5, 2)
    rng = random.Random(SEED)
    seen = 0
    while seen < 50:
        k = rng.randrange(1, 1000)
        l = rng.randrange(1, k + 1)
        if gcd(k, l) != 1:
            continue
        seen += 1
        data = accumulation_point(k, l)
        coeff = data.per**2 / data.vol - 2
        assert data.a0 * data.a0 - coeff * data.a0 + 1 == 0, (k, l)
        assert data.a0 >= 1
    _report(7, "symbolic accumulation point and 50 exact zero residues", started, 1.0)


def test_acceptance_8_property_suites():
    started = time.monotonic()
    # weight identities for every p/q >= 1 in lowest terms, p, q <= 200
    for q in range(1, 201):
        for p in range(q, 201):
            if gcd(p, q) != 1:
                continue
            x = F(p, q)
            ws = weight_sequence(x)
            assert sum(ws) == x + 1 - F(1, q), (p, q)
            assert sum(w * w for w in ws) == x, (p, q)
            per, vol = per_vol(negative_weight_sequence(x))
            assert (per, vol) == (F(p + q + 1, q), x), (p, q)

    # capacity oracle equivalence for k <= 500 on a small panel
    panel = [
        (1, 1), (1, F(4, 3)), (1, 2), (1, F(5, 2)), (1, F(7, 3)),
        (F(3, 2), F(5, 2)), (2, 7), (F(4, 3), F(9, 5)), (1, F(13, 6)), (3, 4),
    ]
    for a, b in panel:
        e = Ellipsoid(F(a), F(b))
        assert capacity_prefix(e, 501) == brute_capacities(e, 501), e

    # capacity/count domination cross-check on 30 integer-leg pairs
    rng = random.Random(SEED)
    k_top = 200
    both = {True: 0, False: 0}
    for _ in range(30):
        e1 = Ellipsoid(F(rng.randrange(1, 7)), F(rng.randrange(1, 8)))
        e2 = Ellipsoid(F(rng.randrange(1, 7)), F(rng.randrange(1, 8)))
        c1 = capacity_prefix(e1, k_top + 1)
        c2 = capacity_prefix(e2, k_top + 1)
        t_top = int(min(c1[k_top], c2[k_top])) - 1
        tri1 = RightTriangle(1 / e1.a, 1 / e1.b)
        tri2 = RightTriangle(1 / e2.a, 1 / e2.b)
        cap_violation = any(c1[k] > c2[k] and c2[k] <= t_top for k in range(k_top + 1))
        ehr_violation = any(
            triangle_count(tri1, t) < triangle_count(tri2, t) for t in range(1, t_top + 1)
        )
        assert cap_violation == ehr_violation, (e1, e2)
        both[cap_violation] += 1
    assert both[True] and both[False]
    _report(8, "weight identities, capacity oracle, domination cross-check", started, 60.0)
