"""Quadrature rules, lattice enumeration, and small numeric helpers."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1torus.numerics import (
    QuadRule,
    ball_enumerate,
    gauss_gegenbauer,
    gauss_legendre,
    rel_err,
    shell_count,
    shell_enumerate,
    torus_trapezoid,
    wrap_angles,
)

TOL = 1e-12


def brute_shell_count(d, n):
    """Count lattice points with |alpha|_1 = n by direct enumeration."""
    return sum(
        1
        for alpha in itertools.product(range(-n, n + 1), repeat=d)
        if sum(abs(a) for a in alpha) == n
    )


def test_rel_err_uses_unit_floor():
    assert rel_err(1e-13, 0.0) == 1e-13
    assert rel_err(2.0, 4.0) == 0.5


@pytest.mark.parametrize("npts", [1, 2, 5, 20, 64])
def test_gauss_legendre_exact_on_polynomials(npts):
    rule = gauss_legendre(npts)
    assert rule.nodes.shape == rule.weights.shape == (npts,)
    # integral of t^k over [-1, 1] is 0 (k odd) or 2/(k+1) (k even), exact up to 2 npts - 1
    for k in range(2 * npts):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        got = np.dot(rule.weights, rule.nodes**k)
        assert abs(got - exact) < TOL


def test_gauss_legendre_rules_are_cached_and_read_only():
    rule = gauss_legendre(32)
    assert gauss_legendre(32) is rule
    assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_gauss_gegenbauer_matches_beta_moments(lam):
    # integral of t^(2j) (1-t^2)^(lam-1/2) dt = B(j+1/2, lam+1/2)
    rule = gauss_gegenbauer(12, lam)
    for j in range(4):
        exact = (
            math.gamma(j + 0.5)
            * math.gamma(lam + 0.5)
            / math.gamma(j + lam + 1.0)
        )
        got = np.dot(rule.weights, rule.nodes ** (2 * j))
        assert abs(got - exact) < 1e-13
        odd = np.dot(rule.weights, rule.nodes ** (2 * j + 1))
        assert abs(odd) < 1e-14


def test_quad_rule_rejects_bad_shapes():
    with pytest.raises(ValueError):
        QuadRule(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        QuadRule(np.array([0.0]), np.array([-1.0]))


def test_quad_rule_arrays_are_readonly():
    rule = gauss_legendre(4)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_torus_trapezoid_exact_on_low_frequencies(d):
    L = 7
    rule = torus_trapezoid(d, L)
    assert rule.nodes.shape == (L**d, d)
    assert abs(rule.weights.sum() - 1.0) < TOL
    # (2pi)^-d integral of exp(i alpha . theta) is 1 iff alpha = 0
    for alpha in itertools.product(range(-(L - 1) // 2, (L - 1) // 2 + 1), repeat=d):
        val = np.dot(rule.weights, np.exp(1j * rule.nodes @ np.asarray(alpha, float)))
        expect = 1.0 if not any(alpha) else 0.0
        assert abs(val - expect) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_shell_enumerate_matches_brute_force(d, n):
    shell = shell_enumerate(d, n)
    assert shell.dtype == np.int64 and shell.shape[1] == d
    assert not shell.flags.writeable
    norms = np.abs(shell).sum(axis=1)
    assert np.all(norms == n)
    # no duplicates
    assert len({tuple(p) for p in shell}) == len(shell)
    assert len(shell) == brute_shell_count(d, n)
    assert shell_count(d, n) == brute_shell_count(d, n)


@given(d=st.integers(1, 4), n=st.integers(0, 12))
@settings(max_examples=40, deadline=None)
def test_shell_count_formula_matches_enumeration(d, n):
    # sum_k 2^k C(d, k) C(n-1, k-1) lattice points on the l1 sphere
    if n == 0:
        expect = 1
    else:
        expect = sum(
            2**k * math.comb(d, k) * math.comb(n - 1, k - 1)
            for k in range(1, min(d, n) + 1)
        )
    assert shell_count(d, n) == expect


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (1, 0), (1, 5), (4, 5), (6, 3)])
def test_ball_enumerate_is_union_of_shells(d, n):
    ball = ball_enumerate(d, n)
    total = sum(shell_count(d, k) for k in range(n + 1))
    assert ball.shape == (total, d)
    assert np.all(np.abs(ball).sum(axis=1) <= n)
    assert len({tuple(p) for p in ball}) == total
    # shell by shell, each in lexicographic order but for the last coordinate, +r before -r
    key = np.column_stack([np.abs(ball).sum(axis=1), ball[:, :-1], -ball[:, -1]])
    assert np.array_equal(np.lexsort(key.T[::-1]), np.arange(total))
    assert np.array_equal(ball, np.concatenate([shell_enumerate(d, k) for k in range(n + 1)]))


def test_ball_enumerate_caches_no_shell_per_radius():
    # a million radii at d = 1 must not leave a million cached shells behind
    before = shell_enumerate.cache_info().currsize
    assert ball_enumerate(1, 10**6).shape == (2 * 10**6 + 1, 1)
    assert shell_enumerate.cache_info().currsize == before
    with pytest.raises(ValueError, match="over the limit"):
        ball_enumerate(2, 5000)


def test_wrap_angles_maps_into_principal_interval(rng):
    raw = rng.uniform(-20.0, 20.0, 100)
    wrapped = wrap_angles(raw)
    assert np.all(wrapped >= -math.pi)
    assert np.all(wrapped < math.pi)
    assert np.allclose(np.exp(1j * wrapped), np.exp(1j * raw), atol=1e-12)
