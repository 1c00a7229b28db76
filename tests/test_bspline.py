"""B-splines as functions of their knots, against divided-difference oracles."""
import math

import numpy as np
import pytest

from l1torus.bspline import (
    BsplineSpec,
    PoleError,
    bspline_eval,
    bspline_knot_field,
    bspline_values,
    knot_field_batch,
)
from l1torus.divdiff import KnotVector, SmoothFn, divided_difference
from l1torus.numerics import gauss_legendre

TOL = 1e-11


def truncated_power(u, m):
    """t -> (t - u)_+^(m-1) with exact one-sided derivatives (t != u)."""

    def value(t):
        return max(t - u, 0.0) ** (m - 1) if m > 1 else float(t >= u)

    def derivative(t, j):
        if j >= m:
            return 0.0
        factor = math.factorial(m - 1) / math.factorial(m - 1 - j)
        return factor * max(t - u, 0.0) ** (m - 1 - j) if t != u else 0.0

    return SmoothFn(value, derivative, max_order=None)


def spline_integral(spec, npts=48):
    """Piecewise Gauss-Legendre integral of the spline over its support."""
    x = np.asarray(spec.knots.knots)
    rule = gauss_legendre(npts)
    total = 0.0
    for a, b in zip(x[:-1], x[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total += half * sum(
            w * bspline_eval(spec, mid + half * t)
            for t, w in zip(rule.nodes, rule.weights)
        )
    return total


def test_order_one_is_right_continuous_box():
    spec = BsplineSpec(1, KnotVector([0.2, 0.7]))
    assert abs(bspline_eval(spec, 0.2) - 2.0) < 1e-14
    assert abs(bspline_eval(spec, 0.699999) - 2.0) < 1e-14
    assert bspline_eval(spec, 0.7) == 0.0
    assert bspline_eval(spec, 0.1) == 0.0


def test_order_two_hat_peak_value():
    # [a, b, c] (t - u)_+ at u = b evaluates to 1/(c - a) by hand
    a, b, c = -0.4, 0.1, 0.9
    spec = BsplineSpec(2, KnotVector([a, b, c]))
    assert abs(bspline_eval(spec, b) - 1.0 / (c - a)) < 1e-14
    # linear on each panel
    for u, expect in [(0.5 * (a + b), 0.5 / (c - a)),
                      (0.5 * (b + c), 0.5 / (c - a))]:
        assert abs(bspline_eval(spec, u) - expect) < 1e-14


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_matches_divided_difference_of_truncated_power(m, rng):
    knots = np.sort(rng.uniform(-1, 1, m + 1))
    spec = BsplineSpec(m, KnotVector(knots))
    for u in rng.uniform(knots[0], knots[-1], 6):
        if np.min(np.abs(knots - u)) < 1e-6:
            continue  # the truncated power's derivative jumps at t = u
        direct = divided_difference(truncated_power(float(u), m), knots)
        expect = direct / math.factorial(m - 1)
        assert abs(bspline_eval(spec, float(u)) - expect) < TOL


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_integral_is_reciprocal_factorial(m, rng):
    knots = np.sort(rng.uniform(-1, 1, m + 1))
    spec = BsplineSpec(m, KnotVector(knots))
    assert abs(spline_integral(spec) - 1.0 / math.factorial(m)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_peano_representation_of_divided_differences(m, rng):
    # [x_0..x_m] f = integral of f^(m)(u) M_m(u | x) du for smooth f
    from numpy.polynomial.polynomial import Polynomial

    knots = np.sort(rng.uniform(-1, 1, m + 1))
    poly = Polynomial(rng.uniform(-1, 1, m + 3))
    fn = SmoothFn.from_poly(poly)
    lhs = divided_difference(fn, knots)
    deriv = poly.deriv(m)
    spec = BsplineSpec(m, KnotVector(knots))
    rule = gauss_legendre(32)
    rhs = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        rhs += half * sum(
            w * deriv(mid + half * t) * bspline_eval(spec, mid + half * t)
            for t, w in zip(rule.nodes, rule.weights)
        )
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_repeated_interior_knot_keeps_support():
    spec = BsplineSpec(3, KnotVector([0.0, 0.5, 0.5, 1.0]))
    assert abs(spline_integral(spec) - 1.0 / 6.0) < 1e-12
    assert bspline_eval(spec, 0.25) > 0.0


def test_zero_outside_support():
    spec = BsplineSpec(3, KnotVector([-0.5, 0.0, 0.2, 0.6]))
    assert bspline_eval(spec, -0.6) == 0.0
    assert bspline_eval(spec, 0.6) == 0.0
    assert bspline_eval(spec, 0.7) == 0.0


def test_all_equal_knots_rejected():
    spec = BsplineSpec(2, KnotVector([0.3, 0.3, 0.3]))
    with pytest.raises(ValueError):
        bspline_eval(spec, 0.3)


def test_spec_validates_order_and_knot_count():
    with pytest.raises(ValueError):
        BsplineSpec(0, KnotVector([0.0]))
    with pytest.raises(ValueError):
        BsplineSpec(2, KnotVector([0.0, 1.0]))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_batch_agrees_with_scalar_route(d, rng):
    theta = rng.uniform(-math.pi, math.pi, (40, d))
    knots = np.sort(np.cos(theta), axis=1)
    ok = np.min(np.diff(knots, axis=1), axis=1) > 1e-6
    knots = knots[ok]
    us = (-0.35, 0.0, 0.4)
    for u in us:
        batch = knot_field_batch(d, u, knots)
        for row, got in zip(knots, batch):
            spec = BsplineSpec(d - 1, KnotVector(row))
            assert abs(got - bspline_eval(spec, u)) < 1e-12
    # u broadcasts against the knot rows: rows x points in one call, and
    # many points against a single row
    grid = bspline_values(knots[:, None, :], np.array(us)[None, :])
    assert grid.shape == (len(knots), len(us))
    for j, u in enumerate(us):
        assert np.array_equal(grid[:, j], knot_field_batch(d, u, knots))
    xs = np.linspace(-1.0, 1.0, 17)
    line = bspline_values(knots[0], xs)
    spec = BsplineSpec(d - 1, KnotVector(knots[0]))
    assert np.array_equal(line, [bspline_eval(spec, x) for x in xs])


def test_field_vanishes_outside_open_interval():
    theta = np.array([0.3, 1.2, 2.0])
    assert bspline_knot_field(3, 1.0, theta) == 0.0
    assert bspline_knot_field(3, -1.0, theta) == 0.0
    batch = knot_field_batch(3, 1.0, np.sort(np.cos(theta))[None, :])
    assert batch.shape == (1,)
    assert batch[0] == 0.0


def test_pair_of_equal_knots_is_a_pole_for_d2():
    with pytest.raises(PoleError):
        bspline_knot_field(2, 0.0, [0.7, -0.7])  # cos values coincide


def test_batch_validates_shape():
    with pytest.raises(ValueError):
        knot_field_batch(3, 0.0, np.zeros((4, 2)))
    with pytest.raises(ValueError):
        knot_field_batch(1, 0.0, np.zeros((4, 1)))
