"""Seed polynomials, lattice shell sums, Dirichlet and Poisson kernels."""
import itertools
import math

import numpy as np
import pytest

from l1torus.divdiff import divided_difference_cos
from l1torus.kernels import (
    biortho_generating_pair,
    biortho_generating_tail,
    biortho_poly,
    dirichlet_kernel,
    dirichlet_kernel_batch,
    dirichlet_seed,
    dirichlet_seed_poly,
    dirichlet_seed_theta,
    poisson_divdiff,
    poisson_kernel,
    poisson_product,
    shell_seed,
    shell_seed_poly,
    shell_seed_theta,
    shell_sum,
    shell_sum_batch,
    _BLOCK_ENTRIES,
)
from l1torus.numerics import shell_count, shell_enumerate

TOL = 1e-12


def brute_shell_sum(d, n, theta):
    """Direct lattice sum over |alpha|_1 = n (independent of shell_enumerate)."""
    theta = np.asarray(theta, float)
    total = 0.0
    for alpha in itertools.product(range(-n, n + 1), repeat=d):
        if sum(abs(a) for a in alpha) == n:
            total += math.cos(float(np.dot(alpha, theta)))
    return total


def brute_ball_sum(d, n, theta):
    """Direct lattice sum over |alpha|_1 <= n (independent of shell_enumerate)."""
    return sum(brute_shell_sum(d, k, theta) for k in range(n + 1))


# ---------------------------------------------------------------- seed values


def test_dirichlet_seed_low_order_values():
    # d=2, n=0: the seed is 1 + u, so theta = pi/3 gives 1.5
    fn = dirichlet_seed(2, 0)
    assert abs(fn(math.cos(math.pi / 3.0)) - 1.5) < TOL
    # d=2, n=1 at u = 0: (2u^2 - 1) + u = -1
    assert abs(dirichlet_seed(2, 1)(0.0) - (-1.0)) < TOL
    # d=3, n=0 at u = 0: -(1 - u^2) = -1
    assert abs(dirichlet_seed(3, 0)(0.0) - (-1.0)) < TOL


def test_shell_seed_low_order_values():
    # d=2, n=1: -2(1 - u^2), so -2 at u = 0 and -sqrt(2) for n=2 at u=cos(pi/4)
    assert abs(shell_seed(2, 1)(0.0) - (-2.0)) < TOL
    u = math.cos(math.pi / 4.0)
    assert abs(shell_seed(2, 2)(u) - (-math.sqrt(2.0))) < TOL


def test_shell_seed_vanishes_at_index_zero():
    fn = shell_seed_poly(2, 0)
    assert np.allclose(fn(np.linspace(-1, 1, 7)), 0.0)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_shell_seed_is_difference_of_dirichlet_seeds(d, n, rng):
    u = rng.uniform(-1, 1, 50)
    g_n = dirichlet_seed_poly(d, n)(u)
    g_prev = dirichlet_seed_poly(d, n - 1)(u)
    h = shell_seed_poly(d, n)(u)
    assert np.max(np.abs(g_n - g_prev - h)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 3, 6])
def test_theta_forms_match_u_forms(d, n, rng):
    for theta in rng.uniform(0.05, math.pi - 0.05, 8):
        u = math.cos(theta)
        assert abs(dirichlet_seed_theta(d, n, theta) -
                   dirichlet_seed(d, n)(u)) < 1e-10
        if n >= 1:
            assert abs(shell_seed_theta(d, n, theta) -
                       shell_seed(d, n)(u)) < 1e-10


# ------------------------------------------------------------------ lattice


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 4])
def test_shell_sum_matches_brute_force(d, n, rng):
    for theta in rng.uniform(-math.pi, math.pi, (5, d)):
        assert abs(shell_sum(d, n, theta) - brute_shell_sum(d, n, theta)) < 1e-10


def test_shell_sum_at_origin_is_count():
    for d in (2, 3, 4):
        for n in range(6):
            assert abs(shell_sum(d, n, [0.0] * d) - shell_count(d, n)) < TOL


def test_shell_sum_batch_matches_scalar(rng):
    thetas = rng.uniform(-math.pi, math.pi, (20, 3))
    batch = shell_sum_batch(3, 4, thetas)
    for row, got in zip(thetas, batch):
        assert abs(got - shell_sum(3, 4, row)) < 1e-10
    # a batch walked in several row blocks agrees with one unblocked sum
    d, n = 3, 20
    thetas = rng.uniform(-math.pi, math.pi, (400, d))
    pts = shell_enumerate(d, n).points
    assert thetas.shape[0] * len(pts) > 2 * _BLOCK_ENTRIES
    direct = np.cos(thetas @ pts.T).sum(axis=1)
    assert np.max(np.abs(shell_sum_batch(d, n, thetas) - direct)) < 1e-9
    step = _BLOCK_ENTRIES // len(pts)
    for k in (0, step - 1, step, 399):
        assert abs(shell_sum(d, n, thetas[k]) - direct[k]) < 1e-9
    # the batched Dirichlet kernel against a brute-force ball sum
    for d, n in ((2, 5), (3, 3)):
        thetas = rng.uniform(-math.pi, math.pi, (6, d))
        got = dirichlet_kernel_batch(d, n, thetas)
        assert got.shape == (6,)
        for row, value in zip(thetas, got):
            assert abs(value - brute_ball_sum(d, n, row)) < 1e-10
            assert abs(value - dirichlet_kernel(d, n, row)) < 1e-12
    with pytest.raises(ValueError, match="shape"):
        dirichlet_kernel_batch(3, 2, np.zeros((4, 2)))
    with pytest.raises(ValueError, match="index n"):
        dirichlet_kernel_batch(3, -1, np.zeros((4, 3)))


def test_dirichlet_kernel_is_cumulative_shell_sum(rng):
    for d in (2, 3):
        theta = rng.uniform(-math.pi, math.pi, d)
        acc = 0.0
        for n in range(5):
            acc += shell_sum(d, n, theta)
            assert abs(dirichlet_kernel(d, n, theta) - acc) < 1e-10
    assert abs(dirichlet_kernel(2, 0, [0.3, 1.1]) - 1.0) < TOL


def test_mirror_symmetry_flips_parity(rng):
    # shifting every angle by pi multiplies the order-n shell sum by (-1)^n
    d = 3
    theta = rng.uniform(-math.pi, math.pi, d)
    for n in range(5):
        a = shell_sum(d, n, theta)
        b = shell_sum(d, n, math.pi - theta)
        assert abs(b - (-1.0) ** n * a) < 1e-10


# ------------------------------------------ divided-difference representation


@pytest.mark.parametrize("d", [2, 3, 4])
def test_shell_sum_is_divided_difference_of_seed(d, rng):
    from l1torus.verify import sample_separated_theta

    thetas = sample_separated_theta(rng, d, 6)
    for n in (1, 2, 5):
        fn = shell_seed(d, n)
        for t in thetas:
            lhs = divided_difference_cos(fn, t)
            rhs = shell_sum(d, n, t)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ball_sum_is_divided_difference_of_dirichlet_seed(d, rng):
    from l1torus.verify import sample_separated_theta

    thetas = sample_separated_theta(rng, d, 6)
    for n in (0, 1, 4):
        fn = dirichlet_seed(d, n)
        for t in thetas:
            lhs = divided_difference_cos(fn, t)
            rhs = dirichlet_kernel(d, n, t)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_divided_difference_route_handles_confluent_angles():
    # equal angles force repeated cosine knots; the Taylor branch must engage
    d, n = 3, 2
    theta = np.array([1.1, 0.4, 0.4])
    lhs = divided_difference_cos(shell_seed(d, n), theta)
    rhs = shell_sum(d, n, theta)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


# ------------------------------------------------------- biorthogonal family


def test_biortho_poly_small_cases(rng):
    u = rng.uniform(-1, 1, 9)
    # d=2: index 0 is the constant 1; index 1 is 4u; index 2 is 12u^2 - 4
    assert np.allclose(biortho_poly(2, 0, u), 1.0, atol=TOL)
    assert np.allclose(biortho_poly(2, 1, u), 4.0 * u, atol=TOL)
    assert np.allclose(biortho_poly(2, 2, u), 12.0 * u * u - 4.0, atol=1e-11)
    assert abs(biortho_poly(2, 1, 0.25) - 1.0) < TOL


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_biortho_poly_two_forms_agree(d, n, rng):
    u = rng.uniform(-1, 1, 20)
    a = biortho_poly(d, n, u, form="c")
    b = biortho_poly(d, n, u, form="z")
    scale = max(1.0, float(np.max(np.abs(a))))
    assert np.max(np.abs(a - b)) < 1e-11 * scale


@pytest.mark.parametrize("d", [2, 3, 4])
def test_biortho_poly_at_one_counts_lattice_points(d):
    for n in range(9):
        expect = math.factorial(d - 1) * shell_count(d, n)
        got = biortho_poly(d, n, 1.0)
        assert abs(got - expect) < 1e-9 * expect


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_biortho_poly_is_high_derivative_of_shell_seed(d, n, rng):
    u = rng.uniform(-0.95, 0.95, 10)
    deriv = shell_seed_poly(d, n).deriv(d - 1)(u)
    got = biortho_poly(d, n, u)
    scale = max(1.0, float(np.max(np.abs(deriv))))
    assert np.max(np.abs(got - deriv)) < 1e-10 * scale


def test_biortho_generating_pair_partial_vs_closed(rng):
    for d in (2, 3):
        for r in (0.2, 0.5):
            for u in rng.uniform(-1, 1, 3):
                nterms = 300
                partial, closed = biortho_generating_pair(d, r, float(u), nterms)
                tail = biortho_generating_tail(d, r, nterms)
                assert abs(partial - closed) <= tail + 1e-10


# ------------------------------------------------------------------- Poisson


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0.0, 0.3, 0.7])
def test_poisson_product_is_shell_power_series(d, r, rng):
    theta = rng.uniform(-math.pi, math.pi, d)
    series = sum(r**n * shell_sum(d, n, theta) for n in range(120))
    assert abs(series - poisson_product(d, r, theta)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_poisson_divided_difference_closed_form(d, r, rng):
    from l1torus.verify import sample_separated_theta

    thetas = sample_separated_theta(rng, d, 5)
    for t in thetas:
        lhs = poisson_divdiff(d, r, t)
        rhs = (2.0 * r) ** (d - 1) / np.prod(1.0 - 2.0 * r * np.cos(t) + r * r)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_poisson_divided_difference_confluent_knots():
    d, r = 3, 0.6
    t = np.array([2.0, 0.8, 0.8])
    lhs = poisson_divdiff(d, r, t)
    rhs = (2.0 * r) ** (d - 1) / np.prod(1.0 - 2.0 * r * np.cos(t) + r * r)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_poisson_kernel_derivatives_match_series(rng):
    # 1/(1-2ru+r^2) = sum_k U_k(u) r^k gives the j-th u-derivative as
    # sum_k U_k^(j)(u) r^k; compare at a safe interior point
    from numpy.polynomial.chebyshev import Chebyshev

    r, u, j = 0.4, 0.3, 3
    fn = poisson_kernel(r)
    series = 0.0
    for k in range(80):
        cheb_u_k = Chebyshev([0] * (k + 1) + [1]).deriv(1) / (k + 1)  # U_k
        series += cheb_u_k.deriv(j)(u) * r**k
    assert abs(fn.deriv(u, j) - series) < 1e-8 * max(1.0, abs(series))


def test_poisson_rejects_r_outside_unit_interval():
    with pytest.raises(ValueError):
        poisson_product(2, 1.0, [0.1, 0.2])
    with pytest.raises(ValueError):
        poisson_kernel(-0.1)
