from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ech_staircase import capacities
from ech_staircase.capacities import (
    MAX_TERMS,
    CapacitySequence,
    capacity,
    capacity_lower_bound,
    capacity_prefix,
    max_capacity_ratio,
)
from ech_staircase.core import Ellipsoid
from ech_staircase.suites import brute_capacities


def test_round_ellipsoid_values():
    e = Ellipsoid(F(1), F(1))
    assert capacity(e, 0) == 0
    assert capacity(e, 3) == 2
    assert capacity_prefix(e, 6) == [0, 1, 1, 2, 2, 2]


def test_four_thirds_values():
    e = Ellipsoid(F(1), F(4, 3))
    assert capacity(e, 10) == 4
    assert capacity(e, 2) == F(4, 3)
    assert capacity_prefix(e, 11)[-1] == 4


def test_linear_window_values():
    # c_10(E(1, a)) = a + 3 on [3, 4]; c_2(E(1, a)) = 2 for a >= 2
    for a in (F(3), F(7, 2), F(10, 3), F(4)):
        assert capacity(Ellipsoid(F(1), a), 10) == a + 3
    for a in (F(2), F(5, 2), F(9)):
        assert capacity(Ellipsoid(F(1), a), 2) == 2


def test_prefix_example():
    assert capacity_prefix(Ellipsoid(F(1), F(2)), 5) == [0, 1, 2, 2, 3]


def test_brute_force_oracle_agreement():
    for a, b in [(1, 1), (1, F(4, 3)), (1, 2), (F(3, 2), F(5, 2)), (1, F(7, 3)), (2, 7)]:
        e = Ellipsoid(F(a), F(b))
        assert capacity_prefix(e, 201) == brute_capacities(e, 201)


def test_monotone_in_k():
    values = capacity_prefix(Ellipsoid(F(1), F(7, 5)), 10_001)
    assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))


@given(
    an=st.integers(1, 9), ad=st.integers(1, 9),
    bn=st.integers(1, 9), bd=st.integers(1, 9),
    ln=st.integers(1, 7), ld=st.integers(1, 7),
)
@settings(max_examples=60, deadline=None)
def test_scaling_property(an, ad, bn, bd, ln, ld):
    e = Ellipsoid(F(an, ad), F(bn, bd))
    lam = F(ln, ld)
    scaled = capacity_prefix(e.scaled(lam), 40)
    base = capacity_prefix(e, 40)
    assert scaled == [lam * c for c in base]


def test_lower_bound_examples():
    assert capacity_lower_bound(F(3), F(4, 3), 10) == F(3, 2)
    assert capacity_lower_bound(F(1), F(1), 25) == 1
    assert capacity_lower_bound(F(7, 2), F(4, 3), 10) == F(13, 8)


def test_lower_bound_13_8_is_the_max_by_brute_force():
    src = capacity_prefix(Ellipsoid(F(1), F(7, 2)), 11)
    tgt = capacity_prefix(Ellipsoid(F(1), F(4, 3)), 11)
    ratios = [src[k] / tgt[k] for k in range(1, 11)]
    assert max(ratios) == F(13, 8)
    assert ratios[9] == F(13, 8)


def test_lower_bound_domain():
    with pytest.raises(ValueError):
        capacity_lower_bound(F(1, 2), F(1), 5)
    with pytest.raises(ValueError):
        capacity_lower_bound(F(2), F(2), 0)


def test_sequence_is_lazy_and_reusable():
    seq = CapacitySequence(Ellipsoid(F(1), F(5, 3)))
    assert seq[0] == 0
    assert seq[4] == seq.prefix(5)[-1]
    assert len(seq.prefix(3)) == 3


def test_sequence_read_one_by_one_matches_oracle():
    e = Ellipsoid(F(1, 3), F(5, 7))
    seq = CapacitySequence(e)
    assert [seq[k] for k in range(300)] == brute_capacities(e, 300)


rationals_at_least_1 = st.builds(
    lambda q, extra: F(q + extra, q), st.integers(1, 12), st.integers(0, 40)
)


@given(a=rationals_at_least_1, b=rationals_at_least_1, n=st.integers(1, 300))
@settings(max_examples=30, deadline=None)
def test_lower_bound_matches_sorted_sum_set(a, b, n):
    # a <= b and a > b are both drawn; the oracle shares no code with the kernel
    src = brute_capacities(Ellipsoid(F(1), a), n + 1)
    tgt = brute_capacities(Ellipsoid(F(1), b), n + 1)
    assert capacity_lower_bound(a, b, n) == max(src[k] / tgt[k] for k in range(1, n + 1))


@pytest.mark.parametrize("b", [F(1), F(2), F(3, 2), F(5)])
def test_lower_bound_matches_oracle_at_every_depth(b):
    # every n <= 60, so some n stop inside a run of equal target capacities
    tgt = brute_capacities(Ellipsoid(F(1), b), 61)
    for a in (F(1), F(7, 5), F(2), F(5, 2), F(3), F(13, 3), F(6)):
        src = brute_capacities(Ellipsoid(F(1), a), 61)
        for n in range(1, 61):
            expected = max(src[k] / tgt[k] for k in range(1, n + 1))
            assert capacity_lower_bound(a, b, n) == expected, (a, b, n)


def test_lower_bound_compares_only_run_ends(monkeypatch):
    # c_1..c_2000 of E(1, 2) fall into 88 runs of equal values; with k = 0
    # in front, 89 entries reach the ratio kernel instead of 2001
    seen = []
    kernel = capacities.max_capacity_ratio

    def spy(source, target):
        seen.append((len(source), len(target)))
        return kernel(source, target)

    monkeypatch.setattr(capacities, "max_capacity_ratio", spy)
    src = brute_capacities(Ellipsoid(F(1), F(5)), 2001)
    tgt = brute_capacities(Ellipsoid(F(1), F(2)), 2001)
    expected = max(src[k] / tgt[k] for k in range(1, 2001))
    assert capacity_lower_bound(F(5), F(2), 2000) == expected == F(5, 3)
    assert seen == [(89, 89)]


def test_ratio_same_on_fraction_and_scaled_int_prefixes():
    for a, b in [(F(7, 2), F(4, 3)), (F(13, 5), F(9, 7)), (F(1), F(11, 3)), (F(5), F(5))]:
        src, tgt = CapacitySequence(Ellipsoid(F(1), a)), CapacitySequence(Ellipsoid(F(1), b))
        fractions = max_capacity_ratio(src.prefix(401), tgt.prefix(401))
        ints = max_capacity_ratio(src.scaled[:401], tgt.scaled[:401])
        assert fractions == ints * F(tgt.scale, src.scale)
        assert fractions == max(s / t for s, t in zip(src.prefix(401)[1:], tgt.prefix(401)[1:]))


@pytest.mark.parametrize("e", [Ellipsoid(F(1), F(10**12)), Ellipsoid(F(1, 10**6), F(1))])
def test_extreme_eccentricity_lists_bounded_work(e):
    # work is counted, not timed: the sorted list is all that is materialized
    seq = CapacitySequence(e).extend_to(3000)
    assert 3000 <= len(seq.scaled) <= 2 * 3000
    assert seq.prefix(50) == brute_capacities(e, 50)


def test_requests_beyond_max_terms_are_refused():
    e = Ellipsoid(F(1), F(4, 3))
    with pytest.raises(ValueError, match="per request"):
        CapacitySequence(e).extend_to(MAX_TERMS + 1)
    with pytest.raises(ValueError, match="per request"):
        capacity(e, 10**12)
    with pytest.raises(ValueError, match="per request"):
        capacity_prefix(e, 10**9)
    with pytest.raises(ValueError, match="per request"):
        capacity_lower_bound(F(2), F(4, 3), MAX_TERMS)
