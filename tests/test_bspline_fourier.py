"""Fourier means of the B-spline knot field and their biorthogonal partners."""
import math
import tracemalloc

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
from l1torus import bspline_fourier as bf
from l1torus.bspline import knot_field_batch
from l1torus.kernels import shell_sum_batch
from l1torus.numerics import gauss_legendre, shell_count
from l1torus.polys import geg_norm_c

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


@pytest.mark.parametrize("d", [100, 150, 171])
def test_order0_closed_form_matches_the_series_at_large_d(d):
    # Gamma(d/2) (d-1)! formed as one product overflowed, so the value read 0.0
    # from d = 150 on; the series itself drifts from the closed form beyond
    # |u| ~ 0.3 at these d
    for u in (-0.3, 0.0, 0.2):
        series = mean_series(d, 0, u)
        assert abs(mean_order0_closed(d, u) - series) <= 1e-7 * series


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


@pytest.mark.parametrize("n", range(9))
def test_d2_closed_matches_cesaro_series(n):
    us = np.linspace(-0.999, 0.999, 41)
    series = mean_series(2, n, us)
    closed = np.array([mean_d2_closed(n, math.acos(u)) for u in us])
    assert np.max(np.abs(series - closed)) < 1e-12


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
    assert mean_series(3, 2, us.reshape(3, 1)).shape == (3, 1)
    assert mean_series(3, 2, np.empty(0)).shape == (0,)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_series_matches_order0_closed_form(d):
    us = np.linspace(-0.999, 0.999, 41)
    closed = np.array([mean_order0_closed(d, float(u)) for u in us])
    assert np.max(np.abs(mean_series(d, 0, us) - closed)) < 1e-12


def test_series_terms_are_chosen_per_point():
    # u = 0.5 takes ceil(100 / arccos 0.5) = 96 terms whatever else is in the batch
    assert math.ceil(100.0 / math.acos(0.5)) == 96
    alone = mean_series(3, 1, 0.5, nterms=96)
    assert mean_series(3, 1, 0.5) == alone
    assert abs(mean_series(3, 1, np.array([0.5, 0.999]))[0] - alone) < 1e-15
    with pytest.raises(ValueError, match="nterms must be >= 1"):
        mean_series(3, 1, 0.5, nterms=0)


def _series_one_order(d, n, u, nterms=None):
    """The single-order pass as it stood before orders were batched: k outer,
    R stepped up to n + 2k inside; the reference for bit-identity."""
    u_arr = np.asarray(u, dtype=float)
    terms = (np.ceil(100.0 / np.arccos(np.abs(u_arr))) if nterms is None
             else np.full(u_arr.shape, float(nterms)))
    kmax = int(terms.max(initial=0))
    lam = d - 1.0
    expo = -36.0 / terms ** 8
    prev, cur, total = np.zeros_like(u_arr), np.ones_like(u_arr), np.zeros_like(u_arr)
    m = 0
    for k in range(kmax):
        while m < n + 2 * k:
            m += 1
            prev, cur = cur, ((2.0 * (m + lam - 1.0) * u_arr * cur - (m - 1.0) * prev)
                              / (m + 2.0 * lam - 1.0))
        a_k = float(math.comb(k + d - 2, k))
        total += np.where(k < terms, a_k * np.exp(k ** 8 * expo), 0.0) * cur
    return (1.0 - u_arr * u_arr) ** (d - 1.5) * geg_norm_c(lam) / math.factorial(d - 1) * total


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("orders", [[0, 1, 2, 3, 4], [5, 1, 8, 2], [3], [2, 2, 6]])
@pytest.mark.parametrize("nterms", [None, 150])
def test_series_orders_batch_is_one_call_per_order(d, orders, nterms):
    us = np.linspace(-0.99, 0.99, 23)
    rows = mean_series(d, orders, us, nterms=nterms)
    assert rows.shape == (len(orders), us.size)
    for order, row in zip(orders, rows):
        alone = mean_series(d, order, us, nterms=nterms)
        assert np.array_equal(row, alone)
        assert np.array_equal(alone, _series_one_order(d, order, us, nterms))
    at_point = mean_series(d, orders, 0.37, nterms=nterms)
    assert at_point.shape == (len(orders),)
    assert at_point.tolist() == [mean_series(d, order, 0.37, nterms=nterms) for order in orders]
    assert at_point.tolist() == [float(_series_one_order(d, order, 0.37, nterms))
                                 for order in orders]


def test_series_orders_batch_checks_its_largest_order(monkeypatch):
    with pytest.raises(ValueError, match="n = 1000000000000, .* over the limit"):
        mean_series(3, [0, 10**12], 0.5)
    with pytest.raises(ValueError, match="index n must be >= 0"):
        mean_series(3, [1, -1], 0.5)
    # 96 terms at u = 0.5: the largest order n steps through n + 191 values, and
    # the second order adds its 96 terms
    monkeypatch.setattr(bf, "_MAX_SERIES_VALUES", 7 + 191 + 96)
    mean_series(3, [0, 7], 0.5)
    with pytest.raises(ValueError, match="n = 8, K = 96"):
        mean_series(3, [0, 8], 0.5)
    assert mean_series(3, [], 0.5).shape == (0,)
    with pytest.raises(ValueError, match="over the limit"):  # refused before it is listed
        mean_series(3, range(10**12), 0.5)


def test_series_refuses_dimensions_beyond_the_factorial_range():
    with pytest.raises(ValueError, match="171! is over the limit"):
        mean_series(172, 1, 0.5)
    with pytest.raises(ValueError, match="199! is over the limit"):
        mean_order0_closed(200, 0.5)
    assert math.isfinite(mean_series(171, 1, 0.5))


def test_series_memory_does_not_grow_with_terms():
    us = np.linspace(-0.9, 0.9, 10_000)
    peaks = []
    for nterms in (200, 2000):
        tracemalloc.start()
        try:
            mean_series(3, 2, us, nterms=nterms)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a few rows of 10^4 points, where a table of the degrees would hold 4 000 rows
    assert peaks[1] <= peaks[0] + 4096
    assert peaks[0] < 20 * us.nbytes


# ------------------------------------------------------------ array routes


def test_scalar_calls_return_floats():
    assert type(mean_d2_closed(0, 1.1)) is float and type(mean_d2_closed(5, 1.1)) is float
    assert type(mean_order0_closed(3, 0.3)) is float and type(mean_order0_closed(3, 1.5)) is float
    est = mean_torus_mc(2, 1, 0.3, budget=1000, seed=5)
    assert type(est.value) is float and type(est.stderr) is float and type(est.pairs) is int
    for method in ("closed", "series", "mc"):
        value, stderr = MeanEvaluator(2, 1, method, budget=1000).evaluate(0.3)
        assert type(value) is float and (stderr is None) == (method != "mc")


@pytest.mark.parametrize("n", [0, 1, 2, 7, 80, 301])
def test_d2_closed_takes_arrays_bitwise(n):
    alpha = np.arccos(np.linspace(-0.99, 0.99, 38)).reshape(19, 2)
    vals = mean_d2_closed(n, alpha)
    assert vals.shape == alpha.shape
    assert vals.ravel().tolist() == [mean_d2_closed(n, a) for a in alpha.ravel().tolist()]


def test_d2_closed_bound_counts_every_point(monkeypatch):
    monkeypatch.setattr(bf, "_MAX_CLOSED_TERMS", 30)
    assert mean_d2_closed(20, np.full(3, 1.0)).shape == (3,)  # 3 points x 10 terms
    with pytest.raises(ValueError, match="40 terms at 4 point"):
        mean_d2_closed(20, np.full(4, 1.0))
    with pytest.raises(ValueError, match="strictly inside"):
        mean_d2_closed(2, np.array([1.0, math.pi]))
    # no point still lists the frequencies: counted as one, refused before np.arange
    with pytest.raises(ValueError, match="40 terms at 0 point"):
        mean_d2_closed(80, np.array([]))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="over the limit"):
        mean_d2_closed(10**12, np.array([]))


def test_order0_closed_takes_arrays():
    us = np.linspace(-1.2, 1.2, 49)
    for d in (2, 3, 5):
        vals = mean_order0_closed(d, us)
        scalars = np.array([mean_order0_closed(d, u) for u in us.tolist()])
        assert vals.shape == us.shape and np.all(vals[np.abs(us) > 1.0] == 0.0)
        # an array's power may differ from the scalar's in the last place
        assert np.all(np.abs(vals - scalars) <= 4e-16 * scalars)
        # a lone point, whatever its shape, takes the scalar's arithmetic
        assert mean_order0_closed(d, np.array([[0.37]])).tolist() == [[mean_order0_closed(d, 0.37)]]


def test_series_lone_point_steps_as_the_scalar_call():
    # at these points an array's final power differs from the scalar's in the last place
    for d, n, u in ((3, 0, 0.75), (3, 3, -0.75), (5, 1, 0.95)):
        for shape in ((1,), (1, 1)):
            lone = mean_series(d, n, np.full(shape, u))
            assert lone.shape == shape and lone.item() == mean_series(d, n, u)


@pytest.mark.parametrize("d,n", [(2, 0), (2, 3), (3, 2)])
def test_mc_points_share_one_set_of_draws(d, n):
    # 60 001 pairs: one batch of 50 000 pairs per lone point, 12 500 at four points
    us = np.array([-0.6, 0.05, 0.6, 0.3])
    est = mean_torus_mc(d, n, us, budget=120_002, seed=31)
    assert est.value.shape == est.stderr.shape == us.shape and est.pairs == 60_001
    for u, value, stderr in zip(us.tolist(), est.value.tolist(), est.stderr.tolist()):
        one = mean_torus_mc(d, n, u, budget=120_002, seed=31)
        assert (one.value, one.stderr) == (value, stderr)


def test_mc_bound_counts_every_point(monkeypatch):
    with pytest.raises(ValueError, match="over the limit"):  # 2 x (2^24 + 2) > 2^25
        mean_torus_mc(2, 1, np.zeros(2), budget=(1 << 24) + 2)
    with pytest.raises(ValueError, match="1000 point"):  # the default budget 1e7 at each
        mean_torus_mc(3, 1, np.linspace(-0.5, 0.5, 1000))
    monkeypatch.setattr(bf, "_MAX_MC_BUDGET", 12)
    assert mean_torus_mc(2, 1, np.array([0.1, 0.2, 0.3]), budget=4).value.shape == (3,)
    with pytest.raises(ValueError, match="over the limit of 12"):
        mean_torus_mc(2, 1, np.array([0.1, 0.2, 0.3, 0.4]), budget=4)
    with pytest.raises(ValueError, match=r"\|u\| < 1"):
        mean_torus_mc(2, 1, np.array([0.1, -1.0]), budget=4)


def test_evaluator_takes_arrays():
    us = np.array([-1.5, -0.4, 0.0, 0.7, 1.0])
    ev = MeanEvaluator(2, 3, "closed")
    value, stderr = ev.evaluate(us)
    assert stderr is None and value.shape == us.shape
    assert value.tolist() == [ev.evaluate(u)[0] for u in us.tolist()]
    value, stderr = MeanEvaluator(3, 1, "mc", budget=400).evaluate(us[1:4].reshape(3, 1))
    assert value.shape == stderr.shape == (3, 1)


# -------------------------------------------------------------- recursion


@pytest.mark.parametrize("d,tol", [(2, 1e-10), (3, 1e-12)])
def test_alternating_sum_recursion(d, tol, rng):
    us = rng.uniform(-0.9, 0.9, 4)
    for n in (0, 1, 3):
        lhs_batch, rhs_batch = mean_recursion_sides(d, n, us)
        assert lhs_batch.shape == rhs_batch.shape == us.shape
        for u, lb, rb in zip(us, lhs_batch, rhs_batch):
            lhs, rhs = mean_recursion_sides(d, n, float(u))
            assert type(lhs) is float and type(rhs) is float
            assert abs(lhs - rhs) <= tol * max(1.0, abs(rhs))
            assert abs(lb - lhs) <= 1e-14 and abs(rb - rhs) <= 1e-14


@pytest.mark.parametrize("d", [3, 4])
def test_series_recursion_holds_to_the_edge_margin(d):
    us = np.linspace(-0.999, 0.999, 41)
    for n in range(6):
        lhs, rhs = mean_recursion_sides(d, n, us)
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))) < 1e-12


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


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_mc_reproduces_the_two_call_formula_bitwise(d, n):
    # one batch of 1 000 pairs: rebuild its draws, take the shell sums from the
    # angles and the field at +u and -u in two scalar calls
    seed, u = 2024, 0.37
    theta = np.random.default_rng(seed).uniform(-math.pi, math.pi, size=(1000, d))
    knots = np.sort(np.cos(theta), axis=1)
    assert np.min(np.diff(knots, axis=1)) >= 1e-12  # no redraws
    sgn = -1.0 if n % 2 else 1.0
    vals = (0.5 * (knot_field_batch(d, u, knots) + sgn * knot_field_batch(d, -u, knots))
            * shell_sum_batch(d, n, theta) / shell_count(d, n))
    est = mean_torus_mc(d, n, u, budget=2000, seed=seed)
    assert est.value == float(vals.mean())
    assert est.stderr == float(vals.std(ddof=1) / math.sqrt(vals.size))
    assert est.pairs == 1000


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
        assert abs(a - b) < 1e-12
