"""Fourier means of the B-spline knot field and their biorthogonal partners."""
import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from l1torus.bspline_fourier import (
    biorthogonality_matrix,
    mean_closed,
    mean_d2_closed,
    mean_order0_closed,
    mean_recursion_sides,
    mean_series,
    mean_torus_mc,
)
from l1torus import bspline_fourier as bf, numerics
from l1torus.bspline import knot_field_batch
from l1torus.kernels import shell_sum_batch
from l1torus.numerics import gauss_legendre, shell_count
from l1torus.polys import _gegenbauer_rows, geg_norm_c

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
    # quadrature with u = cos(phi) to tame the edge behavior
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
    monkeypatch.setattr(numerics, "_MAX_VALUES", 7 + 191 + 96)
    mean_series(3, [0, 7], 0.5)
    with pytest.raises(ValueError, match="n = 8, K = 96"):
        mean_series(3, [0, 8], 0.5)
    assert mean_series(3, [], 0.5).shape == (0,)
    with pytest.raises(ValueError, match="over the limit"):  # refused before it is listed
        mean_series(3, range(10**12), 0.5)


def test_series_counts_a_range_past_ssize_t():
    # len() of this range raises OverflowError; its count comes from start, stop and step
    with pytest.raises(ValueError, match="1e\\+200 orders, over the limit"):
        mean_series(3, range(10**200), 0.5)
    with pytest.raises(ValueError, match="over the limit"):
        mean_series(3, range(10**200, 0, -3), 0.5)
    for r in (range(0), range(5, 5), range(3, 10, 2), range(3, 10, 3), range(10, 3, -3),
              range(3, 10, -1), range(-5, 7, 4)):
        assert numerics._count(r) == len(r)
    assert mean_series(3, range(2, 9, 3), 0.5).tolist() == mean_series(3, [2, 5, 8], 0.5).tolist()


def test_series_refuses_dimensions_beyond_the_factorial_range():
    with pytest.raises(ValueError, match="171! is over the limit"):
        mean_series(172, 1, 0.5)
    with pytest.raises(ValueError, match="199! is over the limit"):
        mean_order0_closed(200, 0.5)
    assert math.isfinite(mean_series(171, 1, 0.5))


def _degree_by_degree_series(d, orders, u, nterms=None):
    """The filtered series as it was summed before its blocks: the stream a degree at a time,
    each order adding sigma(k/K) a_k R_{order + 2k} to its running total as the degree comes,
    its weight computed for that k alone.  Returns one row per order, shaped as u."""
    x = np.asarray(u, dtype=float)
    if nterms is None:
        terms = np.ceil(100.0 / np.arccos(np.abs(x)))
    else:
        terms = np.full(x.shape, float(nterms))
    kmax = int(terms.max(initial=0))
    x, terms = x.squeeze()[()], terms.squeeze()[()]
    expo = -36.0 / terms ** 8
    kfull = int(np.min(terms, initial=kmax))
    totals = {order: np.zeros_like(x)[()] for order in orders}
    stream = _gegenbauer_rows(d - 1.0, x, normalized=True)
    for m, cur in zip(range(max(orders) + 2 * kmax - 1), stream):
        for order in sorted(totals):
            k = (m - order) // 2
            if (m - order) % 2 == 0 and 0 <= k < kmax:
                w = float(math.comb(k + d - 2, k)) * np.exp(k ** 8 * expo)
                totals[order] += (w if k < kfull else np.where(k < terms, w, 0.0)) * cur
    scale = (1.0 - x * x) ** (d - 1.5) * geg_norm_c(d - 1.0) / float(math.factorial(d - 1))
    return np.reshape([scale * totals[order] for order in orders], (len(orders),) + np.shape(u))


@pytest.mark.parametrize("entries", [1, 7, numerics._BLOCK_ENTRIES])
def test_series_blocks_sum_as_the_degree_by_degree_loop(monkeypatch, entries):
    # the block sums add each term as the loop did, bit for bit: points of different K (so
    # that the weights k >= K are zeroed), a lone point, scalar, 1-D and 2-D u, and K set
    monkeypatch.setattr(bf, "_BLOCK_ENTRIES", entries)
    points = (0.37, -0.999, np.array([0.2]), np.array([0.1, -0.95]),
              np.linspace(-0.99, 0.99, 50), np.linspace(-0.9, 0.9, 12).reshape(3, 4))
    for d in (2, 3, 5):
        for u in points:
            for orders, nterms in (([4], None), ([7, 0, 3, 7, 2], None), ([0, 40], None),
                                   ([2, 5], 1), ([3], 37)):
                expected = _degree_by_degree_series(d, orders, u, nterms)
                rows = np.asarray(mean_series(d, orders, u, nterms=nterms))
                assert rows.tobytes() == expected.tobytes(), (d, u, orders, nterms)


def test_series_memory_does_not_grow_with_terms():
    us = np.linspace(-0.9, 0.9, 1_000)  # 2000 terms: 4e6 values, within the 2^22 bound
    peaks = []
    for nterms in (200, 2000):
        tracemalloc.start()
        try:
            mean_series(3, 2, us, nterms=nterms)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a few rows of 10^3 points, where a table of the degrees would hold 4 000 rows
    assert peaks[1] <= peaks[0] + 4096
    assert peaks[0] < 20 * us.nbytes


# ------------------------------------------------------------ array routes


def test_scalar_calls_return_floats():
    assert type(mean_d2_closed(0, 1.1)) is float and type(mean_d2_closed(5, 1.1)) is float
    assert type(mean_order0_closed(3, 0.3)) is float and type(mean_order0_closed(3, 1.5)) is float
    est = mean_torus_mc(2, 1, 0.3, budget=1000, seed=5)
    assert type(est.value) is float and type(est.stderr) is float and type(est.pairs) is int
    assert type(mean_closed(2, 1, 0.3)) is float and type(mean_closed(3, 0, 0.3)) is float
    assert type(mean_series(2, 1, 0.3)) is float


@pytest.mark.parametrize("n", [0, 1, 2, 7, 80, 301])
def test_d2_closed_takes_arrays_bitwise(n):
    alpha = np.arccos(np.linspace(-0.99, 0.99, 38)).reshape(19, 2)
    vals = mean_d2_closed(n, alpha)
    assert vals.shape == alpha.shape
    assert vals.ravel().tolist() == [mean_d2_closed(n, a) for a in alpha.ravel().tolist()]


def test_d2_closed_bound_counts_every_point(monkeypatch):
    # its sine terms are values of the one bound on what a call holds
    monkeypatch.setattr(numerics, "_MAX_VALUES", 30)
    assert mean_d2_closed(20, np.full(3, 1.0)).shape == (3,)  # 3 points x 10 terms
    with pytest.raises(ValueError, match="closed form at n = 20: 40 values"):
        mean_d2_closed(20, np.full(4, 1.0))
    with pytest.raises(ValueError, match="strictly inside"):
        mean_d2_closed(2, np.array([1.0, math.pi]))
    # no point still lists the frequencies: counted as one, refused before np.arange
    with pytest.raises(ValueError, match="closed form at n = 80: 40 values"):
        mean_d2_closed(80, np.array([]))
    monkeypatch.undo()
    with pytest.raises(ValueError, match="over the limit"):
        mean_d2_closed(10**12, np.array([]))


_D2_ORDERS = [[], [0], [5, 0, 1, 301, 302, 1, 4, 0, 302], [302, 301, 7, 2, 3, 3, 0, 1],
              list(range(60)) + [999, 1000]]


@pytest.mark.parametrize("orders", _D2_ORDERS, ids=["none", "zero", "mixed", "unsorted", "long"])
@pytest.mark.parametrize("shape", [(), (7,), (19, 2)])
def test_d2_closed_orders_are_their_lone_calls_bitwise(orders, shape):
    # each order sums its prefix of one row of sines per parity: the sum its lone call takes
    alpha = np.arccos(np.linspace(-0.99, 0.99, math.prod(shape))).reshape(shape)
    alpha = alpha if shape else float(alpha)
    rows = mean_d2_closed(orders, alpha)
    assert rows.shape == (len(orders),) + shape
    for row, order in zip(rows, orders):
        assert row.tobytes() == np.asarray(mean_d2_closed(order, alpha)).tobytes()
    assert mean_d2_closed(np.array(orders, dtype=np.int64), alpha).tobytes() == rows.tobytes()


def test_mean_closed_makes_one_d2_call(monkeypatch):
    calls = []
    d2 = bf.mean_d2_closed
    monkeypatch.setattr(bf, "mean_d2_closed", lambda n, alpha: calls.append(n) or d2(n, alpha))
    us = np.array([-1.0, -0.4, 0.1, 0.8, 1.0])
    rows = mean_closed(2, range(9), us)
    assert len(calls) == 1 and rows.shape == (9, 5)
    assert rows.tolist() == [mean_closed(2, n, us).tolist() for n in range(9)]
    calls.clear()
    assert mean_closed(2, 3, [1.5, -1.0]).tolist() == [0.0, 0.0] and calls == []
    # the one bound is mean_d2_closed's, worded for the orders it was given
    monkeypatch.setattr(numerics, "_MAX_VALUES", 20)
    with pytest.raises(ValueError, match="closed form at n = 9 for 4 orders: 24 values"):
        mean_closed(2, [9, 0, 3, 6], us)
    with pytest.raises(ValueError, match="closed form at n = 9: 24 values"):
        mean_d2_closed(9, np.full(6, 1.0))


def test_closed_form_rows_are_bounded_before_allocation(monkeypatch):
    # orders 0 and 1 sum no sine, so the sine count alone served any number of their rows;
    # np.full filled all of them before mean_d2_closed checked anything
    us = np.linspace(-0.5, 0.5, 16)
    alpha, mixed, zeros = np.arccos(us), [0, 1] * (1 << 18), [0] * (1 << 19)
    for call in (lambda: mean_closed(2, mixed, us), lambda: mean_d2_closed(mixed, alpha),
                 lambda: mean_closed(3, zeros, us)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="524288 order\\(s\\) at 16 point\\(s\\): "
                                                 "8.39e\\+06 values, over the limit of 4.19e\\+06"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 23  # the listed orders; the 2^23 rows' values would take 64 MiB
    monkeypatch.setattr(numerics, "_MAX_VALUES", 12)
    assert mean_closed(2, [0, 1, 5], us[:4]).shape == (3, 4)
    assert mean_closed(3, [0] * 12, np.array([])).shape == (12, 0)
    with pytest.raises(ValueError, match="4 order\\(s\\) at 4 point\\(s\\): 16 values"):
        mean_closed(2, [0, 1, 5, 0], us[:4])
    with pytest.raises(ValueError, match="13 order\\(s\\) at 0 point\\(s\\): 13 values"):
        mean_closed(3, [0] * 13, np.array([]))


@pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(2.0), np.array(3.0), "3", None])
def test_orders_must_be_integers(bad):
    # int() truncated 2.5 to order 2, and a float or a 0-d array ended in a TypeError
    routes = [lambda n: mean_series(2, n, 0.3), lambda n: mean_closed(2, n, 0.3),
              lambda n: mean_recursion_sides(2, n, 0.3), lambda n: mean_d2_closed(n, 1.0),
              lambda n: mean_torus_mc(2, n, 0.3, budget=100).value]
    for route in routes:
        for n in (bad, [1, bad], np.array([bad]) if isinstance(bad, float) else (bad,)):
            with pytest.raises(ValueError, match="orders must be integers"):
                route(n)
        # numpy integers, a 0-d integer array included, are orders as ints are
        for n in (np.int64(3), np.array(3), np.array([3], dtype=np.int32)):
            assert np.isfinite(route(n)).all()


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
    # 60 001 pairs: the same four batches of 2^14 pairs at one point and at four
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
    monkeypatch.undo()
    # every order counts: 3 points x 23 orders at the mean-mc suite's d = 3 budget
    with pytest.raises(ValueError, match="for 23 orders: 3.45e\\+07 evaluations, over"):
        mean_torus_mc(3, range(23), np.array([-0.5, 0.0, 0.5]), budget=500_000)
    # 2^21 orders at budget 4 are within the evaluation bound; they are not listed
    with pytest.raises(ValueError, match="2.1e\\+06 orders, over the limit of 1.05e\\+06"):
        mean_torus_mc(2, range(1 << 21), 0.3, budget=4)


def test_mc_bound_counts_the_whole_call(monkeypatch):
    # refused before the first draw: each batch of 50 000 / P pairs was within the
    # shell-sum bound of one batch, and the number of batches counted nowhere
    def no_draw(thetas):
        raise AssertionError("drew")

    monkeypatch.setattr(bf, "_sorted_columns", no_draw)
    with pytest.raises(ValueError, match=r"for 16777216 pair\(s\): 7.13e\+11 multiply-adds, over"):
        mean_torus_mc(3, 118, 0.3, budget=33_554_432)
    with pytest.raises(ValueError, match="over the limit"):
        mean_torus_mc(3, 300, np.linspace(-0.5, 0.5, 8), budget=4_194_304)
    # the default budget still serves n = 11 (2.2e9 multiply-adds, past one batch's 2^31)
    with pytest.raises(AssertionError, match="drew"):
        mean_torus_mc(3, 11, 0.3)


def test_evaluator_takes_arrays():
    # the closed entry on an array is its per-point calls, bitwise at d = 2 (an n = 0
    # array's power may differ from the scalar's in the last place); 0 outside (-1, 1)
    us = np.array([-1.5, -1.0, -0.4, 0.0, 0.7, 1.0, 2.0])
    for d, n in ((2, 0), (2, 3), (2, 8), (3, 0), (5, 0)):
        value = mean_closed(d, n, us)
        scalars = np.array([mean_closed(d, n, u) for u in us.tolist()])
        assert value.shape == us.shape
        assert np.all(np.abs(value - scalars) <= (0.0 if d == 2 else 4e-16) * scalars)
        assert np.all(value[np.abs(us) >= 1.0] == 0.0)
        assert mean_closed(d, n, us.reshape(7, 1)).tolist() == value.reshape(7, 1).tolist()
    est = mean_torus_mc(3, 1, us[2:5].reshape(3, 1), budget=400)
    assert est.value.shape == est.stderr.shape == (3, 1)
    # a sequence of orders gives a row per order, each the lone call's bits
    for d, orders in ((2, range(9)), (2, [8, 0, 3, 3]), (3, [0, 0]), (5, range(1))):
        rows = mean_closed(d, orders, us.reshape(7, 1))
        assert rows.shape == (len(orders), 7, 1)
        for order, row in zip(orders, rows):
            assert row.tobytes() == mean_closed(d, order, us.reshape(7, 1)).tobytes()
        assert mean_closed(d, orders, 0.3).tolist() == [mean_closed(d, o, 0.3) for o in orders]
    assert mean_closed(2, [], us).shape == (0, 7)
    with pytest.raises(ValueError, match="closed form requires d = 2 or n = 0"):
        mean_closed(3, [0, 1], us)
    rows = mean_torus_mc(3, range(3), us[2:5].reshape(3, 1), budget=400)
    assert rows.value.shape == rows.stderr.shape == (3, 3, 1)
    for order in range(3):
        lone = mean_torus_mc(3, order, us[2:5].reshape(3, 1), budget=400)
        assert rows.value[order].tobytes() == lone.value.tobytes()
        assert rows.stderr[order].tobytes() == lone.stderr.tobytes()
    at_point = mean_torus_mc(2, [1, 2], 0.3, budget=400)
    assert at_point.value.tolist() == [mean_torus_mc(2, o, 0.3, budget=400).value for o in (1, 2)]


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
    # a sequence of orders takes every mean from one call: each row is the lone call's
    orders = [3, 0, 1, 6, 3]
    lhs_rows, rhs_rows = mean_recursion_sides(d, orders, us)
    assert lhs_rows.shape == rhs_rows.shape == (len(orders), us.size)
    for n, lhs_row, rhs_row in zip(orders, lhs_rows, rhs_rows):
        lhs, rhs = mean_recursion_sides(d, n, us)
        assert lhs_row.tobytes() == lhs.tobytes() and rhs_row.tobytes() == rhs.tobytes()
    lhs_rows, rhs_rows = mean_recursion_sides(d, range(4), float(us[0]))
    assert lhs_rows.tolist() == [mean_recursion_sides(d, n, float(us[0]))[0] for n in range(4)]
    assert rhs_rows.tolist() == [mean_recursion_sides(d, n, float(us[0]))[1] for n in range(4)]


def test_recursion_bounds_its_means_and_its_table():
    # d means per order are listed; with no point the means bound nothing, and the
    # right side's Gegenbauer recurrence would step to n on empty rows
    with pytest.raises(ValueError, match="1.71e\\+06 means, over the limit of 1.05e\\+06"):
        mean_recursion_sides(171, range(10_000), 0.3)
    for d in (2, 3):
        with pytest.raises(ValueError, match=" values, over the limit of 4.19e\\+06"):
            mean_recursion_sides(d, 10**15, np.empty(0))
        lhs, rhs = mean_recursion_sides(d, range(3), np.empty(0))
        assert lhs.shape == rhs.shape == (3, 0)


@pytest.mark.parametrize("d", [2, 3])
def test_recursion_names_u_outside_the_interval(d, monkeypatch):
    # at d = 2 u = 1.5 raised "math domain error", and u = +-1 or nan an error about
    # alpha; each is refused by name before a mean or the right side's table is built
    def built(*args, **kwargs):
        raise AssertionError("built")

    for name in ("mean_closed", "mean_series", "_gegenbauer_rows"):
        monkeypatch.setattr(bf, name, built)
    for u, message in ((1.5, "got 1.5"), (-1.0, "got -1.0"), (np.array([0.2, 1.0]), "got 1.0")):
        with pytest.raises(ValueError, match=r"u must lie strictly inside \(-1, 1\), " + message):
            mean_recursion_sides(d, 1, u)
    with pytest.raises(ValueError, match="u must be finite, got nan"):
        mean_recursion_sides(d, [0, 1], math.nan)


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


def test_mc_takes_tied_knots_as_drawn(monkeypatch):
    # draws whose cosines tie, or lie one ulp apart, were rejected and redrawn; a zero
    # span adds a zero term to the field, so the one draw of 1 000 pairs is used as it is
    d, n, u = 3, 2, 0.3
    theta = np.random.default_rng(2024).uniform(-math.pi, math.pi, size=(1000, d))
    theta[:3] = [0.4, -0.4, 1.0], [1.2, -1.2, -1.2], [0.7, np.nextafter(0.7, 1.0), 2.0]
    knots = np.sort(np.cos(theta), axis=1)
    calls = []

    class StandIn:
        def uniform(self, low, high, size):
            calls.append(size)
            return theta.copy()

    monkeypatch.setattr(np.random, "default_rng", lambda seed: StandIn())
    est = mean_torus_mc(d, n, u, budget=2000)
    vals = (0.5 * (knot_field_batch(d, u, knots) + knot_field_batch(d, -u, knots))
            * shell_sum_batch(d, n, theta) / shell_count(d, n))
    assert math.isfinite(est.value) and calls == [(1000, d)]
    assert est.value == float(vals.mean())
    assert est.stderr == float(vals.std(ddof=1) / math.sqrt(vals.size))


def _row_major_mc(d, n, pts, budget, seed):
    """The Monte-Carlo batch loop as it was with each batch's knots held as (b, d) rows:
    np.sort per row, the shell sums from the drawn angles, each batch's mean and squared
    deviations merged into running ones.  Returns (value, stderr)."""
    rng = np.random.default_rng(seed)
    sgn = -1.0 if n % 2 else 1.0
    mean, m2 = np.zeros(pts.size), np.zeros(pts.size)
    lo = 0
    while lo < budget // 2:
        b = min(bf._MC_BATCH_PAIRS, budget // 2 - lo)
        theta = rng.uniform(-math.pi, math.pi, size=(b, d))
        knots = np.sort(np.cos(theta), axis=1)
        ssum = shell_sum_batch(d, n, theta) if n else 1.0
        field = knot_field_batch(d, np.concatenate([pts, -pts]), knots)
        vals = 0.5 * (field[:pts.size] + sgn * field[pts.size:]) * ssum / shell_count(d, n)
        dev = vals.mean(axis=1) - mean
        mean = mean + dev * (b / (lo + b))
        m2 = m2 + (((vals - vals.mean(axis=1)[:, None]) ** 2).sum(axis=1)
                   + dev * dev * (lo * b / (lo + b)))
        lo += b
    return mean, np.sqrt(m2 / (lo - 1)) / math.sqrt(lo)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [0, 1, 8])
@pytest.mark.parametrize("us", [[0.37], [-0.6, 0.05, 0.81]])
def test_mc_column_batches_are_bitwise_the_row_batches(monkeypatch, d, n, us):
    # batches of 6 000 pairs split the 10 001 pairs into 2 batches at one point and at three
    monkeypatch.setattr(bf, "_MC_BATCH_PAIRS", 6_000)
    pts = np.array(us)
    value, stderr = _row_major_mc(d, n, pts, 20_002, seed=17)
    est = mean_torus_mc(d, n, pts, budget=20_002, seed=17)
    assert est.value.tobytes() == value.tobytes()
    assert est.stderr.tobytes() == stderr.tobytes()
    # a sequence of orders shares the draws and batches: each row is the lone call
    orders = [n, 0, n + 3, 2, n]
    rows = mean_torus_mc(d, orders, pts, budget=20_002, seed=17)
    assert rows.value.shape == rows.stderr.shape == (len(orders), pts.size)
    for order, row_value, row_stderr in zip(orders, rows.value, rows.stderr):
        lone = mean_torus_mc(d, order, pts, budget=20_002, seed=17)
        assert row_value.tobytes() == lone.value.tobytes()
        assert row_stderr.tobytes() == lone.stderr.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("seed", [17, 18])
def test_mc_points_are_their_lone_calls(d, seed):
    # the 20 001 pairs take two batches whatever the points; the three points take three
    # field calls in the first batch of 2^14 pairs (one point each) and one in the second
    us = np.array([-0.6, 0.05, 0.81])
    for n in range(3):
        est = mean_torus_mc(d, n, us, budget=40_002, seed=seed)
        lone = [mean_torus_mc(d, n, u, budget=40_002, seed=seed) for u in us.tolist()]
        assert est.value.tobytes() == np.array([e.value for e in lone]).tobytes()
        assert est.stderr.tobytes() == np.array([e.stderr for e in lone]).tobytes()


def test_mc_memory_does_not_grow_with_the_budget(fresh_env):
    # a fresh process: the peak after the largest budget is the peak after a small one,
    # where one float per pair and point held until the end took 257 MB more
    script = ("import resource\n"
              "from l1torus.bspline_fourier import mean_torus_mc\n"
              "mean_torus_mc(2, 0, 0.3, budget=2**16)\n"
              "small = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "mean_torus_mc(2, 0, 0.3, budget=2**25)\n"
              "print(small, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env,
                          capture_output=True, text=True, timeout=120)
    small, large = map(int, done.stdout.split())  # KiB on Linux
    assert large - small <= 15 * 1024, (small, large)


def test_mc_order_table_is_held_once(fresh_env):
    # a fresh process: one batch of 2**14 pairs at 512 orders holds its 64 MiB table of
    # shell sums once; its block parts, their concatenation and a copy of its columns
    # held it three times (+129 MB)
    script = ("import resource\n"
              "from l1torus.bspline_fourier import mean_torus_mc\n"
              "mean_torus_mc(3, range(512), 0.3, budget=4)\n"
              "small = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "mean_torus_mc(3, range(512), 0.3, budget=2**15)\n"
              "print(small, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env,
                          capture_output=True, text=True, timeout=120)
    small, large = map(int, done.stdout.split())  # KiB on Linux
    assert large - small <= 80 * 1024, (small, large)


@pytest.mark.parametrize("d", range(1, 7))
def test_mc_column_sort_is_np_sort(d, rng):
    # every order of d distinct cosines (a compare-exchange network that sorts them
    # sorts everything), then ties, +-theta and the ends +-1, among random angles
    perms = np.array(list(itertools.permutations(np.linspace(0.1, 3.0, d))))
    ties = rng.choice([0.0, math.pi, -math.pi, 0.5, -0.5, 2.0, -2.0], size=(500, d))
    mixed = np.where(rng.random((500, d)) < 0.3, ties, rng.uniform(-4.0, 4.0, (500, d)))
    for thetas in (perms, ties, mixed):
        cols = bf._sorted_columns(thetas)
        assert cols.flags.c_contiguous and cols.shape == (d, len(thetas))
        assert cols.tobytes() == np.sort(np.cos(thetas), axis=1).T.copy().tobytes()


# -------------------------------------------------------- biorthogonality


@pytest.mark.parametrize("d,top", [(2, 4), (3, 3)])
def test_pairing_matrix_is_identity(d, top):
    b = biorthogonality_matrix(d, top)
    assert b.shape == (top + 1, top + 1)
    off = b - np.diag(np.diag(b))
    assert np.max(np.abs(off)) < 1e-8
    assert np.max(np.abs(np.diag(b) - 1.0)) < 1e-6


# ------------------------------------------------------------- closed entry


def test_evaluator_routes_and_validation():
    # mean_closed is the d = 2 form in alpha = arccos u, and mean_order0_closed at n = 0
    for u in (-0.7, 0.0, 0.3):
        assert mean_closed(2, 3, u) == mean_d2_closed(3, math.acos(u))
        assert mean_closed(3, 0, u) == mean_order0_closed(3, u)
        assert mean_closed(4, 0, u) == mean_order0_closed(4, u)
    for d, n in ((3, 1), (4, 2)):
        with pytest.raises(ValueError, match="closed form requires d = 2 or n = 0"):
            mean_closed(d, n, 0.3)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        mean_closed(1, 0, 0.3)
    with pytest.raises(ValueError, match="index n must be >= 0"):
        mean_closed(2, -1, 0.3)
    with pytest.raises(ValueError, match="u must be finite"):
        mean_closed(2, 1, np.array([0.1, math.nan]))
    est = mean_torus_mc(2, 1, 0.3, budget=20_000, seed=11)
    assert est.stderr > 0.0


def test_evaluator_closed_agrees_with_series():
    us = np.array([-0.5, 0.1, 0.7])
    for n in (0, 1, 2, 5):
        assert np.all(np.abs(mean_closed(2, n, us) - mean_series(2, n, us)) < 1e-12)
    assert np.all(np.abs(mean_closed(3, 0, us) - mean_series(3, 0, us)) < 1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_order0_and_field_refuse_a_nonfinite_u(d):
    # mean_order0_closed read 0.5 (d = 2) or nan (d = 3) at u = nan, the field 0
    knots = np.linspace(-0.5, 0.5, d)[None, :]
    for u in (math.nan, math.inf, np.array([0.1, -math.inf])):
        with pytest.raises(ValueError, match="u must be finite"):
            mean_order0_closed(d, u)
        with pytest.raises(ValueError, match="u must be finite"):
            knot_field_batch(d, u, knots)


@pytest.mark.parametrize("d", [2, 3, 4, 7])
def test_mean_closed_is_zero_on_the_boundary(d):
    # the field is 0 wherever |u| >= 1, and so is every closed form of its mean; at
    # d = 2, n = 0 the power (1 - u^2)^0 alone would read 1/2 at u = +-1
    for n in ((0, 1, 4) if d == 2 else (0,)):
        assert mean_closed(d, n, np.array([-1.0, 1.0, 1.5])).tolist() == [0.0, 0.0, 0.0]
    assert mean_order0_closed(d, -1.0) == mean_order0_closed(d, 1.0) == 0.0
    assert mean_order0_closed(d, np.array([-1.0, 1.0])).tolist() == [0.0, 0.0]
    knots = np.linspace(-0.5, 0.5, d)[None, :]
    assert knot_field_batch(d, np.array([-1.0, 1.0]), knots).tolist() == [[0.0], [0.0]]
