"""Gegenbauer polynomial family: recurrence, norms, generating function."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer, gamma, poch

from l1torus.numerics import gauss_gegenbauer
from l1torus.polys import geg_norm_c, gegenbauer_at_one, gegenbauer_sequence

TOL = 1e-11


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
