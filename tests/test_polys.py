"""Gegenbauer polynomial family: recurrence, norms, generating function."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer, gamma, poch, roots_gegenbauer

from l1torus.numerics import gauss_gegenbauer
from l1torus.polys import _gegenbauer_rows, geg_norm_c, gegenbauer_at_one, gegenbauer_sequence

TOL = 1e-11
RULE_LAMS = [-0.25, 0.0, 0.5, 1.0, 2.0, 5.0, 50.0, 170.0]
RULE_SIZES = [1, 2, 3, 8, 16, 40, 100]


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
def test_recurrence_matches_scipy(lam, n):
    t = np.linspace(-1.0, 1.0, 9)
    ours = gegenbauer_sequence(lam, n, t)[n]
    ref = eval_gegenbauer(n, lam, t)
    assert np.max(np.abs(ours - ref)) < TOL * max(1.0, np.max(np.abs(ref)))


@given(
    lam=st.floats(0.5, 4.0),
    n=st.integers(0, 15),
    t=st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_recurrence_matches_scipy_property(lam, n, t):
    ref = float(eval_gegenbauer(n, lam, t))
    got = float(gegenbauer_sequence(lam, n, t)[n])
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_sequence_stacks_all_degrees(rng):
    lam, nmax = 1.0, 8
    t = rng.uniform(-1, 1, 5)
    seq = gegenbauer_sequence(lam, nmax, t)
    assert seq.shape == (nmax + 1, t.size)
    for n in range(nmax + 1):
        assert np.allclose(seq[n], eval_gegenbauer(n, lam, t), atol=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_value_at_one_is_pochhammer(lam, n):
    # C_n^lam(1) = (2 lam)_n / n!
    expect = poch(2 * lam, n) / math.factorial(n)
    assert abs(gegenbauer_at_one(lam, n)[n] - expect) < 1e-12 * max(1.0, expect)
    assert abs(gegenbauer_sequence(lam, n, 1.0)[n] - expect) < 1e-10 * max(1.0, expect)


def test_norm_constant_known_values():
    # c_lam = Gamma(lam+1) / (Gamma(1/2) Gamma(lam+1/2)); reciprocal of
    # integral of (1-t^2)^(lam-1/2) over [-1, 1]
    assert abs(geg_norm_c(0.5) - 0.5) < 1e-15          # integral of 1 is 2
    assert abs(geg_norm_c(1.0) - 2.0 / math.pi) < 1e-15  # semicircle area pi/2
    assert abs(geg_norm_c(1.5) - 0.75) < 1e-15         # integral of 1-t^2 is 4/3
    assert abs(geg_norm_c(2.0) - 8.0 / (3.0 * math.pi)) < 1e-15


@pytest.mark.parametrize("lam", [0.6, 1.0, 1.5, 2.7])
def test_norm_constant_inverts_weight_integral(lam):
    # the Gauss weights for (1-t^2)^(lam-1/2) sum to the integral of the
    # weight itself, which geg_norm_c inverts
    rule = gauss_gegenbauer(8, lam)
    assert abs(geg_norm_c(lam) * float(np.sum(rule.weights)) - 1.0) < 1e-13


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_orthogonality_under_matching_weight(lam):
    nmax = 10
    rule = gauss_gegenbauer(nmax + 2, lam)
    seq = gegenbauer_sequence(lam, nmax, rule.nodes)
    gram = (seq * rule.weights) @ seq.T
    ns = np.arange(nmax + 1)
    # squared norm: pi 2^(1-2lam) Gamma(n+2lam) / (n! (n+lam) Gamma(lam)^2)
    diag = (
        math.pi
        * 2.0 ** (1 - 2 * lam)
        * gamma(ns + 2 * lam)
        / (gamma(ns + 1) * (ns + lam) * gamma(lam) ** 2)
    )
    off = gram - np.diag(np.diag(gram))
    scale = np.max(diag)
    assert np.max(np.abs(off)) < 1e-11 * scale
    assert np.max(np.abs(np.diag(gram) - diag)) < 1e-11 * scale


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r", [0.0, 0.2, 0.6])
def test_generating_function_partial_vs_closed(lam, r, rng):
    # sum_n C_n^lam(t) r^n = (1 - 2rt + r^2)^(-lam); |C_n^lam(t)| <= C_n^lam(1)
    # bounds the tail beyond nterms, and beyond top it is below 1e-15
    nterms, top = 200, 600
    powers = r ** np.arange(top + 1)
    tail = float(np.dot(gegenbauer_at_one(lam, top)[nterms + 1:], powers[nterms + 1:]))
    t = rng.uniform(-1, 1, 4)
    partial = powers[:nterms + 1] @ gegenbauer_sequence(lam, nterms, t)
    closed = (1.0 - 2.0 * r * t + r * r) ** (-lam)
    assert np.all(np.abs(partial - closed) <= tail + 1e-12)


# ------------------------------------------- Golub-Welsch Gauss-Gegenbauer rule


@pytest.mark.parametrize("lam", RULE_LAMS)
@pytest.mark.parametrize("npts", RULE_SIZES)
def test_gegenbauer_rule_matches_scipy(lam, npts):
    rule = gauss_gegenbauer(npts, lam)
    nodes, weights = roots_gegenbauer(npts, lam)
    assert np.max(np.abs(rule.nodes - nodes)) < 1e-14
    # Below lam = 0 scipy's own weights miss the Beta moments by up to 2.5e-11
    # (npts = 100); the moment test below holds this rule to 1e-12 there.
    tol = 1e-12 if lam >= 0 else 1e-10
    assert np.max(np.abs(rule.weights - weights)) < tol * np.max(weights)


@pytest.mark.parametrize("npts", RULE_SIZES)
def test_gegenbauer_rule_at_lam_zero_is_gauss_chebyshev(npts):
    rule = gauss_gegenbauer(npts, 0.0)
    i = np.arange(npts, 0, -1)
    assert np.max(np.abs(rule.nodes - np.cos((2 * i - 1) * math.pi / (2 * npts)))) < 1e-14
    assert np.max(np.abs(rule.weights - math.pi / npts)) < 1e-12 * math.pi / npts


@pytest.mark.parametrize("lam", RULE_LAMS)
@pytest.mark.parametrize("npts", RULE_SIZES)
def test_gegenbauer_rule_is_exact_to_degree_2npts_minus_1(lam, npts):
    # integral of x^(2k) (1-x^2)^(lam-1/2) = B(k+1/2, lam+1/2), odd powers 0; the
    # error is measured against mu_0 = B(1/2, lam+1/2), the largest of these moments
    rule = gauss_gegenbauer(npts, lam)
    sums = (rule.nodes ** np.arange(2 * npts)[:, None]) @ rule.weights
    k = np.arange(npts)
    exact = np.exp([math.lgamma(j + 0.5) + math.lgamma(lam + 0.5) - math.lgamma(j + lam + 1.0)
                    for j in k])
    assert np.max(np.abs(sums[2 * k] - exact)) < 1e-12 * exact[0]
    assert np.max(np.abs(sums[2 * k + 1])) < 1e-12 * exact[0]


@pytest.mark.parametrize("npts, lam", [(8, -0.5), (8, -2.0), (0, 1.0), (-3, 0.5)])
def test_gegenbauer_rule_rejects_bad_input(npts, lam):
    with pytest.raises(ValueError):
        gauss_gegenbauer(npts, lam)


def test_gegenbauer_rule_size_is_bounded_before_allocation():
    with pytest.raises(ValueError, match="over the limit"):
        gauss_gegenbauer(10**8, 1.0)


# ------------------------------------------------------ the one recurrence stream


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
def test_normalized_rows_are_the_values_over_their_value_at_one(lam, rng):
    t = rng.uniform(-1, 1, 7)
    rows = np.array(list(itertools.islice(_gegenbauer_rows(lam, t, normalized=True), 40)))
    ref = eval_gegenbauer(np.arange(40)[:, None], lam, t) / gegenbauer_at_one(lam, 39)[:, None]
    assert np.max(np.abs(rows - ref)) < 1e-12


@pytest.mark.parametrize("normalized", [False, True])
def test_a_lone_point_steps_as_scalars_to_its_batch_bits(normalized, rng):
    t = rng.uniform(-1, 1, 5)
    batch = np.array(list(itertools.islice(_gegenbauer_rows(2.0, t, normalized), 30)))
    for i, u in enumerate(t):
        for shape in ((), (1,), (1, 1)):
            rows = list(itertools.islice(_gegenbauer_rows(2.0, np.full(shape, u), normalized), 30))
            assert all(isinstance(row, np.float64) and row.ndim == 0 for row in rows)
            assert np.array(rows).tobytes() == batch[:, i].tobytes()


def test_one_count_of_values_bounds_the_table():
    # rows * max(points, 1): 2^22 values, a table of 32 MiB, are served; one more row is not
    assert gegenbauer_sequence(1.0, 7, np.zeros(1 << 19)).shape == (8, 1 << 19)
    message = (r"recurrence to degree 8 at 524288 point\(s\): 4.72e\+06 Gegenbauer values, "
               r"over the limit of 4.19e\+06")
    with pytest.raises(ValueError, match=message):
        gegenbauer_sequence(1.0, 8, np.zeros(1 << 19))
