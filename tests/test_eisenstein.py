import random
from itertools import combinations

import pytest

from wicketlab.eisenstein import (
    EisensteinPoint,
    OMEGA,
    ONE,
    ROT60,
    ZERO,
    coordinate_norm,
    region_points,
    ring_norm,
)
from wicketlab.eqfree import equilateral_equation, has_solution
from oracles import equilateral_by_sides


def P(a, b):
    return EisensteinPoint(a, b)


def test_unit_identities():
    OMEGA2 = P(-1, -1)  # w^2 = -1 - w
    assert OMEGA * OMEGA == OMEGA2
    assert OMEGA * OMEGA2 == ONE
    assert ONE + OMEGA + OMEGA2 == ZERO
    assert ROT60 == ONE + OMEGA
    assert ROT60 * ROT60 == OMEGA  # rotating twice by 60 is rotating by 120


def test_scalar_and_point_arithmetic():
    assert 2 * P(1, -1) == P(2, -2)
    assert P(2, 1) - P(0, 1) == P(2, 0)
    assert -P(1, 2) == P(-1, -2)
    assert P(1, 1) * P(1, 1) == OMEGA


def test_rot60_squared_is_omega_pointwise():
    rng = random.Random(3)
    for _ in range(20):
        p = P(rng.randrange(-5, 6), rng.randrange(-5, 6))
        assert ROT60 * (ROT60 * p) == OMEGA * p


def test_ring_norm_multiplicative():
    rng = random.Random(11)
    for _ in range(40):
        p = P(rng.randrange(-6, 7), rng.randrange(-6, 7))
        q = P(rng.randrange(-6, 7), rng.randrange(-6, 7))
        assert ring_norm(p * q) == ring_norm(p) * ring_norm(q)


def test_norm_values():
    assert coordinate_norm(P(1, -1)) == 2
    assert ring_norm(P(1, -1)) == 3
    assert ring_norm(OMEGA) == 1
    assert coordinate_norm(ZERO) == 0


def test_is_equilateral_agrees_with_side_lengths():
    # the library's equilateral test is its equation: a triple solves
    # t - w = omega(w - v) exactly when its sides are equal
    spec = equilateral_equation()
    region = region_points(2, "coordinate")
    assert len(region) == 9
    for triple in combinations(region, 3):
        solved = has_solution(triple, spec) is not None
        assert solved == equilateral_by_sides(*triple)


def test_specific_triangles():
    spec = equilateral_equation()
    assert has_solution([P(0, 0), P(1, 0), P(0, 1)], spec) is None
    assert has_solution([P(0, 0), P(1, 0), P(1, 1)], spec) is not None
    assert has_solution([P(0, 0), P(1, 0), P(0, -1)], spec) is not None


def test_region_points_counts_and_order():
    assert len(region_points(1, "coordinate")) == 5
    assert len(region_points(2, "coordinate")) == 9
    assert len(region_points(1, "ring")) == 7
    assert len(region_points(3, "ring")) == 13
    assert region_points(-1, "coordinate") == ()
    pts = region_points(2, "coordinate")
    assert list(pts) == sorted(pts, key=lambda p: (p.a, p.b))
    assert all(coordinate_norm(p) <= 2 for p in pts)


def test_region_points_unknown_norm():
    with pytest.raises(ValueError):
        region_points(2, "euclid")
