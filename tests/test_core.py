from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ech_staircase.core import (
    Ellipsoid,
    WeightExpansion,
    _corner_weights,
    accumulation_point,
    negative_weight_sequence,
    per_vol,
    weight_sequence,
)
from ech_staircase.surd import QuadraticSurd


def geometric_weights(u, v):
    """Oracle: literal corner removal, one largest inscribed triangle at a time."""
    weights = []
    while u > 0 and v > 0:
        w = min(u, v)
        weights.append(w)
        u, v = max(u, v) - w, w
        if u < v:
            u, v = v, u
    return weights


def test_weight_sequence_examples():
    assert weight_sequence(F(1)) == [F(1)]
    assert weight_sequence(F(2)) == [F(1), F(1)]
    assert weight_sequence(F(5, 2)) == [F(1), F(1), F(1, 2), F(1, 2)]


def test_weight_sequence_matches_geometric_oracle():
    for p in range(1, 30):
        for q in range(1, 16):
            if gcd(p, q) != 1 or p < q:
                continue
            x = F(p, q)
            assert weight_sequence(x) == geometric_weights(F(1), x)


def test_weight_sequence_domain():
    with pytest.raises(ValueError):
        weight_sequence(F(1, 2))


def test_weight_sequence_identities_small():
    # sum w = p/q + 1 - 1/q and sum w^2 = p/q
    for p, q in [(5, 2), (7, 3), (13, 5), (200, 199)]:
        x = F(p, q)
        ws = weight_sequence(x)
        assert sum(ws) == x + 1 - F(1, q)
        assert sum(w * w for w in ws) == x


@given(p=st.integers(1, 500), q=st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_weight_sequence_identities_property(p, q):
    g = gcd(p, q)
    p, q = p // g, q // g
    if p < q:
        p, q = q, p
    x = F(p, q)
    ws = weight_sequence(x)
    assert sum(ws) == x + 1 - F(1, q)
    assert sum(w * w for w in ws) == x
    assert all(ws[i] >= ws[i + 1] for i in range(len(ws) - 1))
    # stage count is logarithmic: distinct values, one per remainder stage
    assert len(set(ws)) <= 2 * max(p, q).bit_length() + 2


@given(u=st.integers(0, 10**6), v=st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_corner_weights_are_euclid_stages(u, v):
    stages = _corner_weights(u, v)
    assert sum(reps * n for n, reps in stages) == u + v - gcd(u, v)
    assert sum(reps * n * n for n, reps in stages) == u * v
    legs = [n for n, _ in stages]
    assert all(legs[i] > legs[i + 1] for i in range(len(legs) - 1))
    assert all(reps >= 1 for _, reps in stages)


def test_negative_weight_sequence_tail_matches_geometric_oracle():
    for q in range(1, 13):
        for p in range(q, 41):
            if gcd(p, q) != 1:
                continue
            x = F(p, q)
            assert negative_weight_sequence(x).tail == tuple(geometric_weights(x - 1, x)), x


def test_negative_weight_sequence_examples():
    assert negative_weight_sequence(F(2)) == WeightExpansion(F(2), (F(1), F(1)))
    assert negative_weight_sequence(F(3, 2)) == WeightExpansion(
        F(3, 2), (F(1, 2), F(1, 2), F(1, 2))
    )
    assert negative_weight_sequence(F(1)) == WeightExpansion(F(1), ())
    with pytest.raises(ValueError):
        negative_weight_sequence(F(2, 3))


def test_per_vol_examples():
    assert per_vol(WeightExpansion(F(2), (F(1), F(1)))) == (F(4), F(2))
    assert per_vol(WeightExpansion(F(1), ())) == (F(3), F(1))
    assert per_vol(WeightExpansion(F(3, 2), (F(1, 2),) * 3)) == (F(3), F(3, 2))


def test_per_vol_closed_forms():
    for k in range(1, 40):
        for l in range(1, k + 1):
            if gcd(k, l) != 1:
                continue
            per, vol = per_vol(negative_weight_sequence(F(k, l)))
            assert per == F(k + l + 1, l)
            assert vol == F(k, l)


def test_accumulation_point_examples():
    assert accumulation_point(1, 1).a0 == QuadraticSurd(7, 3, 5, 2)
    assert accumulation_point(2, 1).a0 == QuadraticSurd(3, 2, 2, 1)
    assert accumulation_point(3, 2).a0 == QuadraticSurd(2, 1, 3, 1)
    # (4, 3) degenerates to the rational 3
    assert accumulation_point(4, 3).a0 == 3


def test_accumulation_point_satisfies_both_quadratic_forms():
    for k, l in [(1, 1), (2, 1), (3, 2), (5, 2), (7, 4), (11, 6), (8, 5)]:
        data = accumulation_point(k, l)
        coeff = data.per**2 / data.vol - 2
        assert data.a0 * data.a0 - coeff * data.a0 + 1 == 0
        # equivalent form: (a0 + 1)^2 == a0 * per^2 / vol
        lhs = (data.a0 + 1) * (data.a0 + 1)
        rhs = data.a0 * (data.per**2 / data.vol)
        assert lhs == rhs
        assert data.a0 >= 1


def test_accumulation_point_domain():
    with pytest.raises(ValueError):
        accumulation_point(2, 4)
    with pytest.raises(ValueError):
        accumulation_point(1, 2)
    with pytest.raises(ValueError):
        accumulation_point(0, 0)


def test_ellipsoid_normalization():
    e = Ellipsoid(F(3), F(2))
    assert (e.a, e.b) == (F(2), F(3))
    assert e.scaled(F(3, 2)) == Ellipsoid(F(3), F(9, 2))
    with pytest.raises(ValueError):
        Ellipsoid(F(0), F(1))
