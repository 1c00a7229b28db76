"""Fourier means of the B-spline knot field and their biorthogonal partners."""
import math

import numpy as np
import pytest

from l1torus.bspline_fourier import (
    MeanEvaluator,
    biorthogonality_matrix,
    mean_d2_closed,
    mean_order0_closed,
    mean_order0_integral,
    mean_recursion_sides,
    mean_series,
    mean_torus_mc,
)
from l1torus.numerics import gauss_legendre

TOL = 1e-10


# ----------------------------------------------------------- order-0 closed


def test_order0_d2_is_constant_half(rng):
    for u in rng.uniform(-0.999, 0.999, 10):
        assert abs(mean_order0_closed(2, float(u)) - 0.5) < 1e-15


def test_order0_d3_is_scaled_semicircle(rng):
    for u in rng.uniform(-1, 1, 10):
        expect = math.sqrt(1.0 - u * u) / math.pi
        assert abs(mean_order0_closed(3, float(u)) - expect) < 1e-14


def test_order0_d4_value():
    # constant is Gamma(5/2)/(sqrt(pi) Gamma(2) 3!) = 1/8
    assert abs(mean_order0_closed(4, 0.0) - 0.125) < 1e-15
    assert mean_order0_closed(4, 1.0) == 0.0
    assert mean_order0_closed(4, 1.5) == 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_order0_integral_identities(d):
    exact = 1.0 / math.factorial(d - 1)
    assert abs(mean_order0_integral(d) - exact) < 1e-14
    # independent quadrature with u = cos(phi) to tame the edge behavior
    rule = gauss_legendre(200)
    phi = 0.5 * math.pi * (rule.nodes + 1.0)
    w = 0.5 * math.pi * rule.weights
    vals = np.array([mean_order0_closed(d, math.cos(p)) * math.sin(p) for p in phi])
    assert abs(float(w @ vals) - exact) < 1e-12


# ------------------------------------------------------------- d = 2 closed


def test_d2_closed_order0_and_parity(rng):
    for theta in rng.uniform(0.01, math.pi - 0.01, 8):
        assert abs(mean_d2_closed(0, theta) - 0.5) < 1e-14
    # odd orders vanish at u = 0 (theta = pi/2)
    for n in (1, 3, 5):
        assert abs(mean_d2_closed(n, math.pi / 2.0)) < 1e-14
    # parity in u: value at pi - theta is (-1)^n times the value at theta
    for n in range(5):
        for theta in rng.uniform(0.1, math.pi / 2.0, 5):
            a = mean_d2_closed(n, theta)
            b = mean_d2_closed(n, math.pi - theta)
            assert abs(b - (-1.0) ** n * a) < 1e-12


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_d2_closed_matches_cesaro_series(n):
    us = np.linspace(-0.95, 0.95, 21)
    series = mean_series(2, n, us)
    closed = np.array([mean_d2_closed(n, math.acos(u)) for u in us])
    assert np.max(np.abs(series - closed)) < 2e-3


# --------------------------------------------------------------- the series


def test_series_parity(rng):
    for d in (2, 3):
        for n in range(4):
            for u in rng.uniform(0.0, 0.95, 4):
                a = mean_series(d, n, float(u))
                b = mean_series(d, n, -float(u))
                assert abs(b - (-1.0) ** n * a) < 1e-12


def test_series_rejects_near_edge_points():
    with pytest.raises(ValueError):
        mean_series(2, 1, 0.9995)
    with pytest.raises(ValueError):
        mean_series(3, 0, [-0.9999, 0.0])


def test_series_accepts_arrays():
    us = np.array([-0.5, 0.0, 0.5])
    vals = mean_series(3, 2, us)
    assert vals.shape == us.shape
    for u, v in zip(us, vals):
        assert abs(v - mean_series(3, 2, float(u))) < 1e-15


# -------------------------------------------------------------- recursion


@pytest.mark.parametrize("d,tol", [(2, 1e-10), (3, 5e-3)])
def test_alternating_sum_recursion(d, tol, rng):
    for n in (0, 1, 3):
        for u in rng.uniform(-0.9, 0.9, 4):
            lhs, rhs = mean_recursion_sides(d, n, float(u))
            assert abs(lhs - rhs) <= tol * max(1.0, abs(rhs))


# ------------------------------------------------------------- Monte-Carlo


def test_mc_matches_closed_to_three_sigma():
    est = mean_torus_mc(2, 1, -0.6, budget=200_000, seed=99)
    ref = mean_d2_closed(1, math.acos(-0.6))
    assert abs(est.value - ref) <= 3.0 * est.stderr
    assert est.pairs == 100_000
    assert est.stderr > 0.0


def test_mc_is_deterministic_and_parity_exact():
    a = mean_torus_mc(2, 2, 0.4, budget=50_000, seed=7)
    b = mean_torus_mc(2, 2, 0.4, budget=50_000, seed=7)
    assert a == b
    # the paired estimator is exactly even/odd in u draw-by-draw
    c = mean_torus_mc(2, 2, -0.4, budget=50_000, seed=7)
    assert c.value == a.value
    d = mean_torus_mc(2, 3, 0.4, budget=50_000, seed=7)
    e = mean_torus_mc(2, 3, -0.4, budget=50_000, seed=7)
    assert e.value == -d.value


def test_mc_exact_zero_for_odd_orders_at_origin():
    est = mean_torus_mc(2, 1, 0.0, budget=20_000, seed=3)
    assert est.value == 0.0
    assert est.stderr == 0.0


def test_mc_validates_inputs():
    with pytest.raises(ValueError):
        mean_torus_mc(4, 0, 0.3, budget=1000)
    with pytest.raises(ValueError):
        mean_torus_mc(2, 0, 1.0, budget=1000)


def test_mc_redraws_are_bounded(monkeypatch):
    import l1torus.bspline_fourier as bf

    # no two cosines in [-1, 1] are 3 apart: every draw is rejected
    monkeypatch.setattr(bf, "_MC_GAP", 3.0)
    with pytest.raises(ValueError, match="after 10000 redraws"):
        mean_torus_mc(2, 1, 0.3, budget=4)


# -------------------------------------------------------- biorthogonality


@pytest.mark.parametrize("d,top", [(2, 4), (3, 3)])
def test_pairing_matrix_is_identity(d, top):
    b = biorthogonality_matrix(d, top)
    assert b.shape == (top + 1, top + 1)
    off = b - np.diag(np.diag(b))
    assert np.max(np.abs(off)) < 1e-8
    assert np.max(np.abs(np.diag(b) - 1.0)) < 1e-6


# ------------------------------------------------------------- evaluator


def test_evaluator_routes_and_validation():
    assert MeanEvaluator(2, 3, "closed").evaluate(0.3)[1] is None
    assert MeanEvaluator(3, 0, "closed").evaluate(0.3)[1] is None
    with pytest.raises(ValueError):
        MeanEvaluator(3, 1, "closed")
    with pytest.raises(ValueError):
        MeanEvaluator(2, 0, "quadrature")
    val, err = MeanEvaluator(2, 1, "mc", budget=20_000, seed=11).evaluate(0.3)
    assert err is not None and err > 0.0
    # series evaluator agrees with the direct series call
    ev = MeanEvaluator(3, 2, "series")
    assert abs(ev.evaluate(0.25)[0] - mean_series(3, 2, 0.25)) < 1e-15


def test_evaluator_closed_agrees_with_series():
    ev_closed = MeanEvaluator(2, 2, "closed")
    ev_series = MeanEvaluator(2, 2, "series")
    for u in (-0.5, 0.1, 0.7):
        a = ev_closed.evaluate(u)[0]
        b = ev_series.evaluate(u)[0]
        assert abs(a - b) < 2e-3
