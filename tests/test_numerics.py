"""Quadrature rules, lattice enumeration, and small numeric helpers."""
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1torus import kernels, numerics
from l1torus.numerics import (
    QuadRule,
    ball_enumerate,
    check_cost,
    gauss_gegenbauer,
    gauss_legendre,
    rel_err,
    shell_count,
    shell_counts,
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


def test_gauss_legendre_is_bounded_before_it_is_built(monkeypatch):
    # leggauss builds a dense npts x npts matrix: gauss_legendre(10**5) asked for ~80 GB
    def unreachable(npts):
        raise AssertionError(f"leggauss reached at npts = {npts}")

    monkeypatch.setattr(numerics, "leggauss", unreachable)
    for npts in (numerics._MAX_RULE_NODES + 1, 10**5, 10**400):
        with pytest.raises(ValueError, match="a Gauss-Legendre rule: .* nodes, over the limit"):
            gauss_legendre(npts)
    with pytest.raises(ValueError, match="a Gauss-Gegenbauer rule: .* nodes, over the limit"):
        gauss_gegenbauer(numerics._MAX_RULE_NODES + 1, 1.0)


def test_every_cache_keeps_at_most_its_bound():
    # unbounded, 12 shell seeds of 2^19 coefficients held 24 series and 194 MB
    bound = numerics._CACHE_ENTRIES
    calls = {numerics.gauss_legendre: lambda k: (k,), numerics.shell_enumerate: lambda k: (1, k),
             kernels.dirichlet_seed: lambda k: (2, k), kernels.shell_seed: lambda k: (2, k)}
    for cached, args in calls.items():
        assert cached.cache_info().maxsize == bound
        for k in range(1, bound + 10):
            cached(*args(k))
        assert cached.cache_info().currsize <= bound


def test_seeds_at_the_limit_are_not_held_in_a_fresh_process(fresh_env):
    # the seed caches kept 64 entries whatever their size: 10 shell and 10 Dirichlet seeds
    # at the limit held 248 MiB with the Chebyshev bases they were built from
    code = ("import tracemalloc\n"
            "from l1torus.kernels import _MAX_CHEBYSHEV as top, dirichlet_seed, shell_seed\n"
            "tracemalloc.start()\n"
            "for i in range(35):\n"
            "    shell_seed(3, top - 3 - i)\n"
            "    dirichlet_seed(4, top - 4 - i)\n"
            "print(tracemalloc.get_traced_memory()[0])\n")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 64 << 20
    # small seeds, the sizes every suite and benchmark request takes, stay cached
    before = kernels.shell_seed.cache_info().hits
    assert kernels.shell_seed(5, 10) is kernels.shell_seed(5, 10)
    assert kernels.shell_seed.cache_info().hits > before


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


@pytest.mark.parametrize("d, nmax", [(1, 200), (2, 200), (3, 200), (7, 200), (50, 200),
                                     (1000, 300), (1, 0), (1, 1), (4, 0), (4, 1)])
def test_shell_counts_recurrence_is_shell_count(d, nmax):
    # (n + 1) a_{n+1} = 2 d a_n + (n - 1) a_{n-1}, from (1 - r^2) F' = 2 d F
    assert shell_counts(d, nmax) == [shell_count(d, n) for n in range(nmax + 1)]


def test_shell_counts_are_bounded_before_the_first_step():
    # each row was within the per-count bound; the rows together were not
    for d, nmax in ((1000, 61000), (3, 10**200), (10**30, 10**30)):
        with pytest.raises(ValueError, match="rows x bits, over the limit"):
            shell_counts(d, nmax)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        shell_counts(0, 3)
    with pytest.raises(ValueError, match="index n must be >= 0"):
        shell_counts(3, -1)
    assert shell_counts(10**200, 2) == [1, 2 * 10**200, 2 * 10**400]  # few rows, small cost


def test_large_shells_are_not_held_in_a_fresh_process(fresh_env):
    # 64 in-bound shells of 2^16 ... 2^20 ints: the cache kept every one, 279 MiB, and max
    # RSS rose by 242 MiB; each is first built once uncached, so what the cached calls add
    # is what they hold, not a larger transient
    code = ("import resource\n"
            "from l1torus.numerics import _MAX_VALUES, _ball_size, shell_count, shell_enumerate\n"
            "calls = []\n"
            "for d in range(3, 100):\n"
            "    n = 1\n"
            "    while _ball_size(d, n) * d <= _MAX_VALUES:\n"
            "        if 1 << 16 <= shell_count(d, n) * d < 1 << 20:\n"
            "            calls.append((d, n))\n"
            "        n += 1\n"
            "calls = sorted(calls, key=lambda c: -shell_count(*c) * c[0])[:64]\n"
            "for c in calls:\n"
            "    shell_enumerate.__wrapped__(*c)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "for c in calls:\n"
            "    shell_enumerate(*c)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(set(calls)), after - before, shell_enumerate.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    calls, grown_kib, held = map(int, done.stdout.split())
    assert calls == 64 and held == 0
    assert grown_kib <= 16 << 10


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


def test_check_cost_compares_exactly_and_prints_any_size():
    check_cost("a request", 1 << 20, "values", 1 << 20)  # at the limit: served
    with pytest.raises(ValueError) as refused:
        check_cost("a request", (1 << 20) + 1, "values", 1 << 20)
    # a count just past its limit reads as the limit in three digits, so both print in full
    assert str(refused.value) == "a request: 1048577 values, over the limit of 1048576"
    with pytest.raises(ValueError) as refused:
        check_cost("a request", 1 << 21, "values", 1 << 20)
    assert str(refused.value) == "a request: 2.1e+06 values, over the limit of 1.05e+06"
    # an int past the float range is compared and printed without converting it
    check_cost("a request", 10**400, "values", 10**400)
    with pytest.raises(ValueError) as refused:
        check_cost("a request", 10**400, "values", 1 << 20)
    (line,) = str(refused.value).splitlines()
    assert line == "a request: 2^1329 values, over the limit of 1.05e+06"


@pytest.mark.parametrize("d, n", [(3, 10**400), (10**400, 3), (10**200, 10**30)],
                         ids=["n1e400", "d1e400", "d1e200-n1e30"])
def test_counts_past_the_float_range_are_refused_not_overflowed(d, n):
    with pytest.raises(ValueError, match="over the limit"):
        shell_count(d, n)
    with pytest.raises(ValueError, match="over the limit"):
        ball_enumerate(d, n)


def test_counts_past_two_to_the_53_are_estimated_without_rounding():
    # lgamma rounds the larger index away from 2^53 on; these sums are small
    assert shell_count(10**30, 2) == 2 * 10**60
    assert shell_count(3, 10**300) == 4 * 10**600 + 2


@pytest.mark.parametrize("d, npts", [(1000, 3), (10**6, 3), (10**400, 3), (10**400, 1)],
                         ids=["d1000", "d1e6", "d1e400", "d1e400-one-node"])
def test_torus_grids_of_any_size_are_refused_in_log2_first(d, npts):
    with pytest.raises(ValueError, match="over the limit"):
        torus_trapezoid(d, npts)
