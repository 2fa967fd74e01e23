from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from ech_staircase import analysis
from ech_staircase.analysis import (
    STEP5_LEFTOVERS,
    BoundCase,
    bound_case,
    bullet_lower_bound,
    bullets_for,
    claimed_value_43,
    grid_43,
    intersection_points,
    scan_rows,
    theorem_report,
    verify_43_case,
    verify_claim_steps,
    verify_exceptional,
    verify_nicebound,
)
from ech_staircase.capacities import capacity
from ech_staircase.core import Ellipsoid, accumulation_point
from ech_staircase.ehrhart import (
    TRIANGLE_THIRD_QUARTER,
    embedding_decision,
    parameter_triangle,
    region_counts,
    triangle_count,
)
from ech_staircase.surd import QuadraticSurd

# the paper's list of l >= 2 pairs outside the nicebound lemma, stated here
# independently of analysis.bound_case
NICEBOUND_EXCLUDED = {(3, 2), (5, 2), (4, 3), (5, 3), (5, 4)}


def test_bullet_lower_bound_examples():
    assert bullet_lower_bound(F(4, 3), F(5, 4)) == 1
    assert bullet_lower_bound(F(4, 3), F(3)) == F(3, 2)
    # the sixth bullet a/(b+1) at (b, a) = (3, 6); the single-capacity oracle
    # c_{b+3} ratio confirms 3/2
    assert bullet_lower_bound(F(3), F(6)) == F(3, 2)
    e6 = Ellipsoid(F(1), F(6))
    e3 = Ellipsoid(F(1), F(3))
    assert capacity(e6, 6) / capacity(e3, 6) == F(3, 2)


def test_bullets_skip_inverted_domains():
    # for b = 1.2 the fourth domain is inverted and must be dropped
    idx = [bl.index for bl in bullets_for(F(6, 5))]
    assert 4 not in idx and 1 in idx
    # integer b gains bullets 6 and 7
    idx = [bl.index for bl in bullets_for(F(5))]
    assert {6, 7} <= set(idx)
    with pytest.raises(ValueError):
        bullets_for(F(1, 2))


def test_witness_capacity_ratio_reproduces_each_bullet():
    for b in (F(4, 3), F(5, 2), F(3), F(7, 2), F(5)):
        target = Ellipsoid(F(1), b)
        for bl in bullets_for(b):
            if bl.lo > bl.hi:
                continue
            for a in {bl.lo, (bl.lo + bl.hi) / 2, bl.hi}:
                if a < 1:
                    continue
                ratio = capacity(Ellipsoid(F(1), a), bl.witness) / capacity(target, bl.witness)
                assert ratio == bl.value(a), (b, bl.index, a)


def test_intersection_points_examples():
    pts = dict(intersection_points(F(4, 3)))
    assert pts[5] == 3
    pts = dict(intersection_points(F(1)))
    assert pts[3] == 4
    pts = dict(intersection_points(F(3)))
    assert pts[7] == F(27, 4)
    assert pts[6] == F(16, 3)


def test_bullets_strictly_exceed_volume_away_from_tangency():
    for b in (F(4, 3), F(5, 2), F(3)):
        for bl in bullets_for(b):
            touch = bl.touch_point()
            for a in {bl.lo, (3 * bl.lo + bl.hi) / 4, (bl.lo + bl.hi) / 2, bl.hi}:
                if not bl.contains(a):
                    continue
                v = bl.value(a)
                if a == touch:
                    assert v * v == a / b
                else:
                    assert v * v > a / b, (b, bl.index, a)


def test_bullet_lower_bound_nondecreasing():
    for b in (F(4, 3), F(5, 2), F(3), F(8, 5)):
        hi = max(bl.hi for bl in bullets_for(b)) + 1
        prev = None
        a = F(1)
        while a <= hi:
            cur = bullet_lower_bound(b, a)
            if prev is not None:
                assert cur >= prev, (b, a)
            prev = cur
            a += F(1, 60)


def test_nicebound_examples():
    assert verify_nicebound(7, 2).verdict == "pass"
    assert verify_nicebound(3, 2).verdict == "excluded"
    assert verify_nicebound(100, 7).verdict == "pass"
    assert verify_nicebound(9, 1).verdict == "excluded"  # l = 1 is out of hypothesis


def test_nicebound_sweep():
    for k in range(2, 61):
        for l in range(2, k):
            if gcd(k, l) != 1:
                continue
            check = verify_nicebound(k, l)
            if (k, l) in NICEBOUND_EXCLUDED:
                assert check.verdict == "excluded"
            else:
                assert check.passed, (k, l)


def test_excluded_pairs_genuinely_fail_the_nicebound_inequality():
    # the exclusions are not spurious: a0 >= (k+l+1)/l on each of them
    for k, l in NICEBOUND_EXCLUDED:
        a0 = accumulation_point(k, l).a0
        assert not a0 < F(k + l + 1, l), (k, l)


def test_exceptional_examples():
    assert verify_exceptional(5, 2).passed
    assert verify_exceptional(5, 3).passed
    assert verify_exceptional(5, 4).passed
    assert verify_exceptional(3, 1).passed
    assert verify_exceptional(10, 1).passed
    with pytest.raises(ValueError):
        verify_exceptional(6, 4)
    with pytest.raises(ValueError):
        verify_exceptional(2, 1)


def test_claim_steps():
    rep = verify_claim_steps(200, 50)
    assert rep.ok
    assert rep.claim_low_l.checked > 0
    assert rep.claim_wide_gap.checked > 0
    assert rep.quadratic_step.checked == 195
    # hypothesis filter: no l < 7 pairs in the first sweep
    tiny = verify_claim_steps(20, 6)
    assert tiny.claim_low_l.checked == 0


def test_step5_leftovers_pass():
    for k, l in STEP5_LEFTOVERS:
        assert verify_nicebound(k, l).passed, (k, l)


def test_verify_43_case_spot_values():
    rep = verify_43_case([F(2), F(3), F(7, 2), F(4)])
    assert rep.ok
    by_a = {r.a: r for r in rep.rows}
    assert by_a[F(3)].claimed == F(3, 2)
    assert by_a[F(7, 2)].claimed == F(13, 8)
    assert by_a[F(7, 2)].lower == F(13, 8)
    assert all(r.upper_ok for r in rep.rows)
    with pytest.raises(ValueError):
        verify_43_case([F(5)])


def test_verify_43_case_upper_side_rests_on_the_identity(monkeypatch):
    # the slice lemma's one computed premise: a broken identity fails every row
    monkeypatch.setattr(analysis, "verify_diff_identity", lambda: ((4, 1, 0),))
    rep = verify_43_case(grid_43(F(1, 2)))
    assert not rep.ok and not any(r.upper_ok for r in rep.rows)
    assert all(r.lower_ok for r in rep.rows)


def test_four_thirds_case_exact_on_the_report_grid():
    # the exact domination walk is the oracle for the slice lemma's upper side
    target = Ellipsoid(F(1), F(4, 3))
    for a in grid_43(F(1, 4)):
        verdict = embedding_decision(Ellipsoid(F(1), a), target.scaled(claimed_value_43(a)), None)
        assert verdict.holds and verdict.checked_through is None, a
        assert str(verdict) == "holds for all t"
    rep = theorem_report(4, 3)
    (check,) = [c for c in rep.checks if c.name == "four-thirds-case"]
    assert check.verdict == "pass"
    assert check.witness == "upper side by the slice lemma for every a, lower side at 9 grid points"


# a = 3 + p/q in (3, 4] with q < 60
_RATIONALS_3_4 = st.integers(1, 59).flatmap(
    lambda q: st.integers(1, q).map(lambda p: 3 + F(p, q))
)


@given(a=_RATIONALS_3_4, t=st.integers(1, 200))
@example(a=F(4), t=12)  # every upper bound X_P is a lattice point on the parameter edge
@settings(max_examples=400, deadline=None)
def test_slice_lemma_count_difference(a, t):
    rc = region_counts(a, t)
    diff = triangle_count(parameter_triangle(a), t) - triangle_count(TRIANGLE_THIRD_QUARTER, t)
    assert diff == rc.lower - rc.upper - (t % 12 == 4)
    assert diff >= 0


@given(a=st.integers(1, 59).flatmap(lambda q: st.integers(4 * q, 12 * q).map(lambda p: F(p, q))),
       t=st.integers(1, 200))
@settings(max_examples=200, deadline=None)
def test_slice_lemma_holds_past_four(a, t):
    assert triangle_count(parameter_triangle(a), t) >= triangle_count(TRIANGLE_THIRD_QUARTER, t)


def test_grid_43():
    grid = grid_43(F(1, 2))
    assert grid[0] == 2 and grid[-1] == 4 and len(grid) == 5


def test_theorem_report_categories():
    rep = theorem_report(1, 1)
    assert rep.category == "staircase" and rep.special and rep.ok
    assert rep.a0 == QuadraticSurd(7, 3, 5, 2)

    rep = theorem_report(4, 3)
    assert rep.category == "four-thirds" and rep.special and rep.ok

    rep = theorem_report(5, 1)
    assert rep.category == "general" and not rep.special
    assert rep.lemma == "integral" and rep.ok
    assert {bl.index for bl in rep.governing} == {1, 2, 3, 6, 7}

    rep = theorem_report(5, 2)
    assert rep.lemma == "exceptional" and rep.ok
    assert {bl.index for bl in rep.governing} == {1, 2, 3, 4, 5}

    rep = theorem_report(7, 2)
    assert rep.lemma == "nicebound" and rep.ok


def test_staircase_probe_is_the_last_sixtieth_below_a0():
    for k, l in ((1, 1), (2, 1), (3, 2)):
        rep = theorem_report(k, l)
        (check,) = [c for c in rep.checks if c.name == "volume-consistency-at-a0"]
        probe = F(check.hypothesis.split()[5])
        assert probe < rep.a0 < probe + F(1, 60), (k, l)


def test_bound_case_rejects_pairs_outside_the_theorem():
    for k, l in ((4, 2), (2, 3), (3, 0)):
        with pytest.raises(ValueError):
            bound_case(k, l)


def test_theorem_report_rational_accumulation_point():
    # (8, 5) has a0 = 5/2, exactly the tangency of bullets 3 and 4
    rep = theorem_report(8, 5)
    assert rep.a0 == F(5, 2)
    assert rep.ok
    touch = [c for c in rep.checks if c.name == "volume-touch-classification"]
    assert touch and "tangency" in touch[0].witness


def test_theorem_report_sweep():
    # the full evidence for every coprime b = k/l with k <= 100
    reports = 0
    for k in range(1, 101):
        for l in range(1, k + 1):
            if gcd(k, l) != 1:
                continue
            rep = theorem_report(k, l)
            assert rep.ok, (k, l)
            reports += 1
    assert reports == 3044


def test_exactly_one_lemma_covers_each_nonspecial_pair():
    # mirror of the case split: every non-special coprime pair with k <= 60,
    # l <= 40 is claimed by exactly one lemma, that lemma is the one
    # bound_case names, and it is strict
    special = {(1, 1): "staircase", (2, 1): "staircase", (3, 2): "staircase",
               (4, 3): "four-thirds"}
    for k in range(1, 61):
        for l in range(1, min(k, 40) + 1):
            if gcd(k, l) != 1:
                continue
            if (k, l) in special:
                assert bound_case(k, l).category == special[k, l], (k, l)
                assert bound_case(k, l).lemma is None, (k, l)
                continue
            integral = l == 1 and k >= 3
            exceptional = (k, l) in {(5, 2), (5, 3), (5, 4)}
            nice = l >= 2 and (k, l) not in NICEBOUND_EXCLUDED
            assert integral + exceptional + nice == 1, (k, l)
            lemma = "integral" if integral else "exceptional" if exceptional else "nicebound"
            governing = (1, 2, 3, 6, 7) if integral else (1, 2, 3, 4, 5)
            assert bound_case(k, l) == BoundCase("general", lemma, governing), (k, l)
            if integral or exceptional:
                assert verify_exceptional(k, l).passed, (k, l)
            else:
                assert verify_nicebound(k, l).passed, (k, l)


def test_scan_rows_capacity_dominates_bullets():
    rows = scan_rows(F(5), F(1), F(12), F(1, 10), 500)
    assert all(row.capacity >= row.bullet for row in rows)
    # volume column is an exact surd: squared, it returns a/b
    for row in rows[:5]:
        assert row.volume * row.volume == row.a / 5


def test_scan_rows_single_point():
    rows = scan_rows(F(1), F(1), F(1), F(1), 10)
    assert len(rows) == 1
    row = rows[0]
    assert row.volume == 1 and row.bullet == 1 and row.capacity == 1


def test_scan_capacity_column_matches_43_function():
    rows = scan_rows(F(4, 3), F(2), F(4), F(1, 20), 200)
    assert len(rows) == 41
    for row in rows:
        assert row.capacity == claimed_value_43(row.a), row.a
