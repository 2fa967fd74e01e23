from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ech_staircase.core import Ellipsoid
from ech_staircase.ehrhart import (
    TRIANGLE_HALF_SIXTH,
    TRIANGLE_THIRD_QUARTER,
    RightTriangle,
    boundary_lattice_count,
    ehrhart_dominates,
    embedding_decision,
    fit_quasi_polynomial,
    parameter_triangle,
    region_counts,
    triangle_count,
    verify_diff_identity,
    verify_slice_inequality,
)
from ech_staircase.intervals import AdaptiveScalar, Interval, PrecisionError


def brute_triangle_count(tri, t):
    """Oracle: test every lattice point in the bounding box."""
    if t == 0:
        return 1
    xmax = int(t * tri.u) + 1
    ymax = int(t * tri.v) + 1
    return sum(
        1
        for x in range(xmax + 1)
        for y in range(ymax + 1)
        if F(x) / (t * tri.u) + F(y) / (t * tri.v) <= 1
    )


def brute_wedges(a, t):
    """Oracle: direct membership tests for the two wedges, rational a; returns
    per-height tallies {y: count} of the upper and the lower wedge.

    Lower wedge closed; upper wedge drops parameter-edge points except the
    crossing, which both wedges count.
    """
    upper, lower = {}, {}
    for y in range(0, t // 6 + 1):
        slant = F(t, 4) + a * F(t - 12 * y, 12)
        ref = F(t - 6 * y, 2)
        xs = range(0, max(int(slant), int(ref)) + 2)
        if 12 * y >= t:
            # the only parameter-edge point kept is the crossing (t/4, t/12)
            upper[y] = sum(1 for x in xs if slant <= x <= ref and (x != slant or 12 * y == t))
        if 12 * y <= t:
            lower[y] = sum(1 for x in xs if ref <= x <= slant)
    return upper, lower


def test_unit_triangle_counts():
    tri = RightTriangle(F(1), F(1))
    assert [triangle_count(tri, t) for t in range(5)] == [1, 3, 6, 10, 15]


def test_reference_triangle_spot_values():
    counts = [triangle_count(TRIANGLE_HALF_SIXTH, t) for t in range(6)]
    assert counts == [1, 1, 2, 2, 3, 3]
    assert triangle_count(TRIANGLE_THIRD_QUARTER, 2) == 1


def test_counts_match_brute_force():
    tris = [
        TRIANGLE_HALF_SIXTH,
        TRIANGLE_THIRD_QUARTER,
        RightTriangle(F(3, 7), F(5, 2)),
        RightTriangle(F(11, 4), F(2, 9)),
        RightTriangle(F(1), F(1, 5)),
    ]
    for tri in tris:
        for t in range(0, 40):
            assert triangle_count(tri, t) == brute_triangle_count(tri, t)


@given(
    un=st.integers(1, 8), ud=st.integers(1, 8),
    vn=st.integers(1, 8), vd=st.integers(1, 8),
    t=st.integers(0, 25),
)
@settings(max_examples=80, deadline=None)
def test_transpose_symmetry(un, ud, vn, vd, t):
    tri = RightTriangle(F(un, ud), F(vn, vd))
    assert triangle_count(tri, t) == triangle_count(RightTriangle(tri.v, tri.u), t)


def test_fit_tables():
    qp = fit_quasi_polynomial(TRIANGLE_HALF_SIXTH)
    assert qp.period == 6
    assert qp.leading == F(1, 24)
    assert qp.constant == (F(1), F(5, 8), F(1), F(5, 8), F(2, 3), F(7, 24))
    assert qp.linear == (F(5, 12), F(1, 3), F(5, 12), F(1, 3), F(5, 12), F(1, 3))

    qp = fit_quasi_polynomial(TRIANGLE_THIRD_QUARTER)
    assert qp.period == 12
    assert qp.leading == F(1, 24)
    assert qp.constant == (
        F(1), F(5, 8), F(1, 6), F(5, 8), F(1), F(7, 24),
        F(1, 2), F(5, 8), F(2, 3), F(5, 8), F(1, 2), F(7, 24),
    )
    assert all(b == F(1, 3) for b in qp.linear)

    qp = fit_quasi_polynomial(RightTriangle(F(1), F(1)))
    assert (qp.period, qp.leading, qp.linear[0], qp.constant[0]) == (1, F(1, 2), F(3, 2), F(1))


def test_fit_evaluates_like_counts():
    # T(38/7, 58/21) has 1/u + 1/v < 1; T(13/7, 11/5) has large numerators on both legs
    for tri in (TRIANGLE_HALF_SIXTH, TRIANGLE_THIRD_QUARTER, RightTriangle(F(2, 5), F(7, 3)),
                RightTriangle(F(38, 7), F(58, 21)), RightTriangle(F(13, 7), F(11, 5))):
        qp = fit_quasi_polynomial(tri)
        for t in range(0, 4 * qp.period + 1):
            assert qp(t) == triangle_count(tri, t)


def test_fit_counts_only_seeds_and_hold_out(monkeypatch):
    # with u = alpha/beta and v = gamma/delta, the steps of the count obey a
    # recurrence past level beta + delta, so only levels 1..beta + delta are
    # counted as seeds and the next beta + delta levels are recounted to check them
    from ech_staircase import ehrhart

    calls = []

    def counting(tri, t):
        calls.append(t)
        return triangle_count(tri, t)

    monkeypatch.setattr(ehrhart, "triangle_count", counting)
    qp = fit_quasi_polynomial(RightTriangle(F(3, 79), F(1, 109)))
    assert qp.period == 8611
    assert sorted(calls) == list(range(1, 2 * (79 + 109) + 1))


@pytest.mark.parametrize("tri, levels", [
    (RightTriangle(F(3, 79), F(1, 109)), (1, 50, 100, 187)),
    (RightTriangle(F(38, 7), F(58, 21)), range(1, 7 + 21 + 1)),
])
def test_fit_hold_out_catches_one_wrong_seed(monkeypatch, tri, levels):
    # below level beta + delta, a count one off moves one step up and the next
    # down, which leaves every second difference intact: only the recount sees
    # it (for T(3/79, 1/109), level 100 lies between the leg denominators;
    # for T(38/7, 58/21), every seed level is tried)
    from ech_staircase import ehrhart

    for level in levels:
        for error in (1, -1):
            monkeypatch.setattr(ehrhart, "triangle_count",
                                lambda tri, t: triangle_count(tri, t) + error * (t == level))
            with pytest.raises(ehrhart.FitConsistencyError):
                fit_quasi_polynomial(tri)


def test_fit_is_exact_at_large_dilations():
    for tri in (TRIANGLE_HALF_SIXTH, TRIANGLE_THIRD_QUARTER):
        qp = fit_quasi_polynomial(tri)
        for t in (997, 5000, 12345):
            assert qp(t) == triangle_count(tri, t)


def test_dominates_examples():
    v = ehrhart_dominates(TRIANGLE_HALF_SIXTH, TRIANGLE_THIRD_QUARTER, 1000)
    assert v.holds and v.checked_through == 1000
    v = ehrhart_dominates(TRIANGLE_THIRD_QUARTER, TRIANGLE_HALF_SIXTH, 1000)
    assert not v.holds and v.fails_at == 2
    tri = RightTriangle(F(1), F(1))
    assert ehrhart_dominates(tri, tri, 50).holds


def _count_at(e, t):
    """#{(m, n) >= 0 : m a + n b <= t} for a rational level t, by rows."""
    return sum((t - m * e.a) // e.b + 1 for m in range(int(t // e.a) + 1))


_legs = st.builds(F, st.integers(1, 8), st.integers(1, 4))


@given(a=_legs, b=_legs, c=_legs, e=_legs, equal_volume=st.booleans())
@settings(max_examples=80, deadline=None)
def test_dominates_matches_capacity_oracle(a, b, c, e, equal_volume):
    # McDuff's criterion termwise: c_k(source) <= c_k(target) for every k, and
    # the first failing level is c_k(target) at the smallest k that breaks it
    from ech_staircase.capacities import capacity_prefix

    source = Ellipsoid(a, b)
    target = Ellipsoid(c, a * b / c if equal_volume else e)
    v = embedding_decision(source, target, exact=True)
    assert v.checked_through is None
    if v.holds:
        assert source.a * source.b <= target.a * target.b
        n = 400
    else:
        assert _count_at(source, v.fails_at) < _count_at(target, v.fails_at)
        n = _count_at(target, v.fails_at)
    cs, ct = capacity_prefix(source, n), capacity_prefix(target, n)
    broken = next((k for k in range(n) if cs[k] > ct[k]), None)
    assert v.fails_at == (None if broken is None else ct[broken])


def test_dominates_compares_between_integer_levels():
    # c_1 = 1 > 1/2: the target count jumps at t = 1/2, before any integer level
    v = embedding_decision(Ellipsoid(F(1), F(1)), Ellipsoid(F(1, 2), F(5)), exact=True)
    assert not v.holds and v.fails_at == F(1, 2)
    assert str(v) == "fails at t=1/2"
    v = embedding_decision(Ellipsoid(F(1), F(3)), Ellipsoid(F(3, 2), F(2)), exact=True)
    assert v.holds and str(v) == "holds for all t"
    # equal volumes: c_1(E(2, 2)) = 2 > c_1(E(1, 4)) = 1, the reverse holds
    assert embedding_decision(Ellipsoid(F(2), F(2)), Ellipsoid(F(1), F(4)), exact=True).fails_at == 1
    assert embedding_decision(Ellipsoid(F(1), F(4)), Ellipsoid(F(2), F(2)), exact=True).holds
    # a truncated verdict certifies every level up to t_max, fractional ones too
    v = ehrhart_dominates(RightTriangle(F(1), F(1)), RightTriangle(F(2), F(1, 5)), 1)
    assert not v.holds and v.fails_at == F(1, 2) and v.checked_through == 1


def test_embedding_decision_examples():
    e = Ellipsoid(F(1), F(1))
    assert embedding_decision(e, e, 100).holds

    # normalized source at a = 7/2 embeds into E(3, 4)
    a = F(7, 2)
    source = Ellipsoid(12 / (a + 3), 12 * a / (a + 3))
    assert embedding_decision(source, Ellipsoid(F(3), F(4)), 2000).holds

    # volume obstruction: E(1,5) cannot fit into E(3/2, 2)
    # c_4 is 4 against 7/2, so the counts first break at the level 7/2
    v = embedding_decision(Ellipsoid(F(1), F(5)), Ellipsoid(F(3, 2), F(2)), 2000)
    assert not v.holds and v.fails_at == F(7, 2)
    v = embedding_decision(Ellipsoid(F(1), F(5)), Ellipsoid(F(3, 2), F(2)), exact=True)
    assert not v.holds and v.fails_at == F(7, 2)


def test_boundary_lattice_count():
    assert boundary_lattice_count(7) == 0
    assert boundary_lattice_count(12) == 1
    assert boundary_lattice_count(4) == 1
    assert boundary_lattice_count(48) == 4


WEDGE_PARAMS = [F(7, 2), F(10, 3), F(13, 4), F(4), F(301, 100), F(19, 5)]


def test_region_counts_against_brute_oracle():
    for a in WEDGE_PARAMS:
        for t in range(1, 61):
            rc = region_counts(a, t)
            upper, lower = brute_wedges(a, t)
            assert (rc.upper, rc.lower) == (sum(upper.values()), sum(lower.values())), (a, t)


def test_slice_checks_against_brute_oracle():
    # each pair holds the brute counts at its two heights, unless some upper
    # height off the crossing has an integral parameter-edge bound >= 0
    for a in WEDGE_PARAMS:
        for t in range(1, 61):
            upper, lower = brute_wedges(a, t)
            bounds = [F(t, 4) + a * F(t - 12 * y, 12) for y in upper if 12 * y != t]
            if any(x >= 0 and x.denominator == 1 for x in bounds):
                with pytest.raises(ValueError):
                    verify_slice_inequality(a, t)
                continue
            rows = verify_slice_inequality(a, t).slices
            assert [(s.y0, s.y1) for s in rows] == [(y, t // 6 - y) for y in sorted(upper)], (a, t)
            assert [(s.lhs, s.rhs) for s in rows] == [(upper[s.y0], lower[s.y1]) for s in rows], (a, t)


def test_difference_identity_brute_force():
    # count_parameter(t) = count_reference(t) + lower - upper - boundary, exactly
    for a in (F(7, 2), F(16, 5), F(4), F(301, 100)):
        for t in range(1, 301):
            rc = region_counts(a, t)
            lhs = triangle_count(parameter_triangle(a), t)
            rhs = triangle_count(TRIANGLE_HALF_SIXTH, t) + rc.lower - rc.upper - rc.boundary
            assert lhs == rhs, (a, t)


def test_difference_identity_randomized_rationals():
    import random

    rng = random.Random(31)
    for _ in range(20):
        den = rng.randrange(1, 9)
        num = rng.randrange(3 * den + 1, 4 * den + 1)
        a = F(num, den)
        for t in range(1, 201):
            rc = region_counts(a, t)
            lhs = triangle_count(parameter_triangle(a), t)
            rhs = triangle_count(TRIANGLE_HALF_SIXTH, t) + rc.lower - rc.upper - rc.boundary
            assert lhs == rhs, (a, t)


def test_region_counts_interval_examples():
    eps = 3 + AdaptiveScalar.sqrt(2) * F(1, 1000)
    rc = region_counts(eps, 12)
    assert rc.upper <= rc.lower

    rc = region_counts(AdaptiveScalar.pi(), 16)
    assert rc.upper <= rc.lower - 1  # 16 = 4 mod 12

    rc = region_counts(F(7, 2), 7)
    assert rc.boundary == 0


def test_region_counts_matches_between_paths():
    # a rational parameter fed through the interval machinery must agree
    a = F(1801, 500)
    exact = region_counts(a, 36)
    wrapped = region_counts(AdaptiveScalar.of(a), 36)
    assert (exact.upper, exact.lower) == (wrapped.upper, wrapped.lower)
    # a non-degenerate enclosure of a rational takes the inexact path; whenever
    # it resolves (it cannot where a bound lies on the parameter edge) it must
    # equal the exact result
    width = F(1, 2**32)
    resolved = 0
    for a in (F(1801, 500), F(7, 2), F(10, 3), F(96, 25), F(12055, 3607)):
        fuzzy = AdaptiveScalar(lambda bits, a=a: Interval(a - width, a + width))
        for t in range(1, 121):
            try:
                rc = region_counts(fuzzy, t)
                rows = verify_slice_inequality(fuzzy, t).slices
            except PrecisionError:
                continue
            resolved += 1
            exact = region_counts(a, t)
            assert (rc.upper, rc.lower) == (exact.upper, exact.lower), (a, t)
            exact_rows = verify_slice_inequality(a, t).slices
            assert [(r.lhs, r.rhs) for r in rows] == [(r.lhs, r.rhs) for r in exact_rows], (a, t)
    assert resolved > 550  # of 600; the rest have a bound on the parameter edge


def test_region_counts_domain_errors():
    with pytest.raises(ValueError):
        region_counts(F(5), 10)
    with pytest.raises(ValueError):
        region_counts(F(3), 10)
    with pytest.raises(ValueError):
        region_counts(F(7, 2), 0)
    with pytest.raises(ValueError):
        region_counts(AdaptiveScalar.sqrt(26), 10)  # ~5.1, outside (3, 4]


def test_region_counts_precision_error():
    stuck = AdaptiveScalar(
        lambda bits: Interval(F(7, 2) - F(1, 2 ** (bits // 2)), F(7, 2) + F(1, 2 ** (bits // 2))),
        "fuzzy 7/2",
    )
    with pytest.raises(PrecisionError):
        region_counts(stuck, 48)


def test_slice_inequality_reports():
    rep = verify_slice_inequality(AdaptiveScalar.sqrt(13), 24)
    assert rep.ok and len(rep.slices) == 3

    rep = verify_slice_inequality(4 - AdaptiveScalar.sqrt(2) * F(1, 1000), 12)
    assert rep.ok

    rep = verify_slice_inequality(F(7, 2), 1)
    assert rep.vacuous and rep.ok

    # crossing slice pairs with itself and yields equality
    rep = verify_slice_inequality(AdaptiveScalar.sqrt(11), 12)
    crossing = [s for s in rep.slices if s.y0 == 1]
    assert crossing and crossing[0].lhs == crossing[0].rhs == 1


def test_slice_inequality_rejects_integral_bound():
    # at a = 7/2, t = 48, the upper bound is the integer 5 at height 6
    with pytest.raises(ValueError, match="y0=6"):
        verify_slice_inequality(F(7, 2), 48)


def test_slice_inequality_randomized_irrationals():
    import random

    rng = random.Random(41)
    for _ in range(10):
        m = rng.randrange(10, 16)
        if int(m**0.5) ** 2 == m:
            m += 1
        a = AdaptiveScalar.sqrt(m)
        for t in rng.sample(range(6, 120), 12):
            assert verify_slice_inequality(a, t).ok, (m, t)


def test_slice_sums_tie_out_to_wedge_tallies():
    # the paired slice counts reproduce the upper tally exactly and cover the
    # lower tally except unmatched heights; when t = 4 mod 12 exactly one
    # nonempty lower slice goes unmatched
    params = [AdaptiveScalar.sqrt(m) for m in (10, 11, 13)]
    params += [F(1801, 500), F(12055, 3607), F(7, 2), F(10, 3)]
    for a in params:
        for t in (16, 28, 40, 52, 24, 30, 37):
            rep = verify_slice_inequality(a, t)
            rc = region_counts(a, t)
            assert sum(s.lhs for s in rep.slices) == rc.upper, (a, t)
            matched = sum(s.rhs for s in rep.slices)
            assert matched <= rc.lower
            if t % 12 == 4:
                assert rc.lower - matched >= 1, (a, t)


def test_diff_identity_report(monkeypatch):
    assert verify_diff_identity() == ()
    # spot values behind the identity
    assert triangle_count(TRIANGLE_HALF_SIXTH, 4) - triangle_count(TRIANGLE_THIRD_QUARTER, 4) == 0
    assert boundary_lattice_count(4) - 1 == 0
    assert triangle_count(TRIANGLE_HALF_SIXTH, 6) - triangle_count(TRIANGLE_THIRD_QUARTER, 6) == 1
    assert boundary_lattice_count(6) == 1
    # a wrong expected side is reported, not passed
    from ech_staircase import ehrhart

    monkeypatch.setattr(ehrhart, "boundary_lattice_count", lambda t: boundary_lattice_count(t) + (t == 20))
    assert verify_diff_identity() == ((20, 2, 3),)


def _capacity_counts_leq(prefix, t):
    return sum(1 for c in prefix if c <= t)


def test_domination_matches_capacity_comparison():
    import random

    from ech_staircase.capacities import capacity_prefix

    rng = random.Random(7)
    k_top = 120
    agree = disagree_cases = 0
    for _ in range(30):
        e1 = Ellipsoid(F(rng.randrange(1, 6)), F(rng.randrange(1, 7)))
        e2 = Ellipsoid(F(rng.randrange(1, 6)), F(rng.randrange(1, 7)))
        c1 = capacity_prefix(e1, k_top + 1)
        c2 = capacity_prefix(e2, k_top + 1)
        t_top = int(min(c1[k_top], c2[k_top])) - 1
        tri1 = RightTriangle(1 / e1.a, 1 / e1.b)
        tri2 = RightTriangle(1 / e2.a, 1 / e2.b)
        # the counting function of each ellipsoid is its reciprocal triangle's
        for t in range(1, t_top + 1):
            assert triangle_count(tri1, t) == _capacity_counts_leq(c1, t)
        cap_violation = any(
            c1[k] > c2[k] and c2[k] <= t_top for k in range(k_top + 1)
        )
        ehr_violation = any(
            triangle_count(tri1, t) < triangle_count(tri2, t) for t in range(1, t_top + 1)
        )
        assert cap_violation == ehr_violation
        agree += 1
        disagree_cases += cap_violation
    assert agree == 30
    assert 0 < disagree_cases < 30  # the panel exercises both verdicts
