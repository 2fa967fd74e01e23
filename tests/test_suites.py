import random
from fractions import Fraction as F
from math import gcd, isqrt

from hypothesis import given, settings, strategies as st

from ech_staircase.capacities import capacity_prefix
from ech_staircase.core import Ellipsoid
from ech_staircase.ehrhart import _floor_sum
from ech_staircase.intervals import AdaptiveScalar, Interval
from ech_staircase.ehrhart import region_counts
from ech_staircase.suites import (
    brute_capacities,
    run_suites,
    sample_scalars,
)


@given(
    n=st.integers(0, 60), m=st.integers(1, 40),
    a=st.integers(0, 200), b=st.integers(0, 50),
)
@settings(max_examples=300, deadline=None)
def test_floor_sum_matches_direct_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a + b * i) // m for i in range(n))


def test_brute_capacities_small_window():
    e = Ellipsoid(F(1), F(4, 3))
    assert brute_capacities(e, 4) == [F(0), F(1), F(4, 3), F(2)]


def test_brute_capacities_match_a_fraction_sort():
    # unequal denominators that do not divide each other, so the integer scale
    # is neither denominator; the box (count + 2)**2 reaches past
    # c_{count-1} <= (count - 1) * min(a, b)
    count = 60
    for a, b in [(F(3, 7), F(5, 4)), (F(5, 6), F(9, 4)), (F(11, 9), F(2, 15))]:
        box = sorted(i * a + j * b for i in range(count + 2) for j in range(count + 2))
        assert brute_capacities(Ellipsoid(a, b), count) == box[:count], (a, b)


def test_capacity_oracle_over_small_parameter_box():
    # seeded slice of the numerator+denominator <= 20 box
    rng = random.Random(11)
    fractions = []
    for num in range(1, 19):
        for den in range(1, 20 - num):
            if gcd(num, den) == 1:
                fractions.append(F(num, den))
    for _ in range(25):
        a, b = rng.choice(fractions), rng.choice(fractions)
        e = Ellipsoid(a, b)
        assert capacity_prefix(e, 151) == brute_capacities(e, 151), e


def test_sample_scalars_deterministic_and_in_range():
    one = sample_scalars(30, seed=5)
    two = sample_scalars(30, seed=5)
    assert [label for label, _ in one] == [label for label, _ in two]
    for label, a in one:
        if isinstance(a, F):
            assert 3 < a < 4
            assert a.denominator > 3600  # large prime denominators only
        else:
            iv = a.enclosure(64)
            assert F(3) < iv.lo and iv.hi < F(4)


def test_sample_scalars_mix_kinds():
    labels = [label for label, _ in sample_scalars(9, seed=0)]
    assert any("sqrt" in s for s in labels)
    assert any("pi" in s for s in labels)
    assert any("/" in s and "sqrt" not in s and "pi" not in s for s in labels)


def test_refinement_engages_near_the_domain_boundary():
    # a valid but slowly narrowing enclosure of 3 + 2**-100 forces one
    # refinement round before the counts resolve
    value = 3 + F(1, 2**100)
    calls = []

    def brackets(bits):
        calls.append(bits)
        return Interval(value - F(1, 2**bits), value + F(1, 2**bits))

    scalar = AdaptiveScalar(brackets, "slow 3+2^-100")
    rc = region_counts(scalar, 12)
    assert rc.upper <= rc.lower
    assert max(calls) > 64  # the 64-bit enclosure straddles 3


def test_run_suites_shapes():
    checks = run_suites(["ehrhart-tables", "diff-identity"], t_max=60)
    assert {c.name for c in checks} == {
        "ehrhart-constant-tables",
        "ehrhart-leading-linear",
        "count-difference-identity",
    }
    assert all(c.verdict == "pass" for c in checks)
