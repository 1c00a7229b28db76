"""Seed polynomials, lattice shell sums, Dirichlet and Poisson kernels."""
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

import l1torus
from l1torus.bspline_fourier import mean_series, mean_torus_mc
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
    shell_seed_theta,
    shell_sum,
    shell_sum_batch,
    _BLOCK_ENTRIES,
    _dirichlet_finish,
    _shell_core,
    _shell_finish,
    _shell_table,
    _table_finish,
    _times,
)
from l1torus.numerics import rel_err, shell_count, shell_enumerate
from l1torus.polys import gegenbauer_sequence

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


def folded_shell_sums(d, n, thetas):
    """Lattice sums over |alpha|_1 = n at each row of ``thetas``, with the sign
    of each nonzero coordinate summed in closed form (exp(i a t) + exp(-i a t)
    = 2 cos(a t)): a sum over supports and compositions of n.  Independent of
    shell_enumerate, and small enough for shells of millions of points.  Terms
    and sums are taken in long double: near-0 and near-pi angles together
    make ~1e5 terms of size ~2^d cancel to ~1e-6, and double rounding of the
    terms alone would then cost ~1e-11."""
    if n == 0:
        return np.ones(len(thetas))
    ld = np.longdouble
    cos2 = [2 * np.cos(np.outer(t.astype(ld), np.arange(n + 1, dtype=ld))) for t in thetas]
    total = np.zeros(len(thetas), dtype=ld)
    for j in range(1, min(d, n) + 1):
        cuts = list(itertools.combinations(range(1, n), j - 1))
        edges = np.hstack([np.zeros((len(cuts), 1), dtype=int),
                           np.array(cuts, dtype=int).reshape(len(cuts), j - 1),
                           np.full((len(cuts), 1), n)])
        parts = np.diff(edges, axis=1)
        for support in itertools.combinations(range(d), j):
            total += [np.prod(c[np.array(support), parts], axis=1).sum() for c in cos2]
    return total.astype(float)


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
    fn = shell_seed(2, 0)
    assert np.allclose(fn(np.linspace(-1, 1, 7)), 0.0)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_shell_seed_is_difference_of_dirichlet_seeds(d, n, rng):
    u = rng.uniform(-1, 1, 50)
    g_n = dirichlet_seed_poly(d, n)(u)
    g_prev = dirichlet_seed_poly(d, n - 1)(u)
    h = shell_seed(d, n)(u)
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
    # a batch walked in several row blocks agrees with one lattice sum
    d, n = 3, 20
    step = _BLOCK_ENTRIES // (n + 1)  # rows per block
    thetas = rng.uniform(-math.pi, math.pi, (2 * step + 7, d))
    pts = shell_enumerate(d, n)
    direct = np.cos(thetas @ pts.T).sum(axis=1)
    assert np.max(np.abs(shell_sum_batch(d, n, thetas) - direct)) < 1e-9
    for k in (0, step - 1, step, len(thetas) - 1):
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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_lone_point_is_its_batch_row_bitwise(d, rng):
    # sum(axis=0) would add a one-row block's terms pairwise and a larger block's in
    # order; every block adds in order, so a lone point is its batch row from n = 2 on
    for n in range(2, 13):
        thetas = rng.uniform(-math.pi, math.pi, (5, d))
        assert [shell_sum(d, n, t) for t in thetas] == shell_sum_batch(d, n, thetas).tolist()
        assert ([dirichlet_kernel(d, n, t) for t in thetas]
                == dirichlet_kernel_batch(d, n, thetas).tolist())


@pytest.mark.parametrize("call", [
    "kernels.biortho_poly(3, 10**9, np.empty(0))",
    "kernels.biortho_generating_pair(3, 0.5, np.empty(0), 10**9)",
    "kernels.shell_sum_batch(3, 10**9, np.empty((0, 3)))",
    "kernels.dirichlet_kernel_batch(3, 10**9, np.empty((0, 3)))",
    "polys.gegenbauer_sequence(1.0, 10**9, np.empty(0))",
    "polys.gegenbauer_at_one(1.0, 10**12)",
    # the series and seed polynomials are sized by n (by r) alone
    "kernels.shell_seed(3, 10**12)",
    "kernels.dirichlet_seed(4, 10**12)",
    "kernels.poisson_kernel(1 - 1e-12)",
])
def test_tables_with_no_point_or_past_the_bound_are_refused_in_a_fresh_process(fresh_env, call):
    # a table of no point still steps to n, so each bound counts at least one point; a
    # separate process under a timeout fails the test rather than hanging the suite
    done = subprocess.run([sys.executable, "-c", "import numpy as np\n"
                           f"from l1torus import kernels, polys\n{call}"],
                          env=fresh_env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1 and done.stdout == ""
    (line,) = [line for line in done.stderr.splitlines() if line.startswith("ValueError")]
    assert line == done.stderr.strip().splitlines()[-1] and "over the limit" in line


def sweep_points(rng, d):
    """theta = 0 and +-pi, within 1e-3 of them, mixed with each other and
    with uniform angles (near-0 angles first), and uniform."""
    near0 = rng.uniform(-1e-3, 1e-3, d)
    near_pi = (math.pi - rng.uniform(0.0, 1e-3, d)) * rng.choice([-1.0, 1.0], d)
    uniform = rng.uniform(-math.pi, math.pi, d)
    first = np.arange(d) < (d + 1) // 2
    return np.array([np.zeros(d), np.full(d, math.pi), np.full(d, -math.pi), near0,
                     near_pi, np.where(first, near0, uniform), np.where(first, near0, near_pi),
                     uniform])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_product_kernel_matches_lattice_oracles(d, rng):
    # brute force for tiny shells, shell_enumerate up to 5e4 points, and the
    # folded lattice sum beyond (shell (6, 30) has 1.3e7 points)
    thetas = sweep_points(rng, d)
    shells, ball = [], 0.0
    for n in range(31):
        if (2 * n + 1) ** d <= 2000:
            ref = np.array([brute_shell_sum(d, n, t) for t in thetas])
        elif shell_count(d, n) <= 50_000:
            ref = np.cos(thetas @ shell_enumerate(d, n).T).sum(axis=1)
        else:
            ref = folded_shell_sums(d, n, thetas)
        ball = ball + ref
        got = shell_sum_batch(d, n, thetas)
        assert max(map(rel_err, got, ref)) <= 1e-11, n
        assert max(map(rel_err, dirichlet_kernel_batch(d, n, thetas), ball)) <= 1e-11, n
        shells.append(got)
    # the table helper's rows are the per-n shell sums
    table = _shell_table(d, 30, thetas)
    assert table.shape == (len(thetas), 31)
    assert max(map(rel_err, table.ravel(), np.stack(shells, axis=1).ravel())) <= 1e-12


def test_shell_table_sums_to_poisson_product_in_high_dimension():
    # (d, n) = (8, 60): a shell of 1.4e11 points, never enumerated
    theta = np.array([0.1, 0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 2.9])
    table = _shell_table(8, 60, theta[None, :])[0]
    assert rel_err(table @ 0.5 ** np.arange(61), poisson_product(8, 0.5, theta)) <= 1e-10


def test_batch_input_check_runs_before_allocation():
    import tracemalloc

    for fn in (shell_sum_batch, dirichlet_kernel_batch, _shell_table):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="theta must be finite"):
                fn(3, 2, np.array([[0.1, bad, 0.3]]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the limit"):
                fn(3, 10**9, np.zeros((1, 3)))
            with pytest.raises(ValueError, match="over the limit"):
                fn(12, 60, np.broadcast_to(0.0, (10**5, 12)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _argsort_product(d, n, thetas, finish):
    """The shell product as it was before the sorted-cosine core: cos and argsort per block."""
    t = np.asarray(thetas, dtype=float)
    step = max(1, _BLOCK_ENTRIES // (d * (n + 1)))
    ends = [d - 1 - i // 2 if i % 2 == 0 else i // 2 for i in range(d)]
    parts = []
    for i in range(0, max(t.shape[0], 1), step):
        x2 = 2.0 * np.cos(t[i:i + step].T)
        x2 = np.take_along_axis(x2, np.argsort(x2, axis=0)[ends], axis=0)
        c = np.empty((n + 1,) + x2.shape)
        c[0] = 2.0
        c[1:2] = x2
        for k in range(2, n + 1):
            np.multiply(x2, c[k - 1], out=c[k])
            c[k] -= c[k - 2]
        c[0] = 1.0
        head = c[:, 0] if d > 1 else np.eye(n + 1, 1)
        for j in range(1, d - 1):
            head = _times(head, c[:, j])
        parts.append(finish(head, c[:, d - 1]))
    return np.concatenate(parts)


@pytest.mark.parametrize("d,n", [(1, 3), (2, 0), (2, 1), (3, 0), (3, 1), (3, 8), (5, 12)])
def test_sorted_cosine_core_is_bitwise_the_batch_kernels(d, n, rng):
    rows = _BLOCK_ENTRIES // (n + 1) + 37  # longer than one block
    thetas = rng.uniform(-4.0, 4.0, (rows, d))
    thetas[:20, -1] = -thetas[:20, 0]  # tied cosines: theta and -theta in one row
    thetas[20:40, 0] = 0.0
    thetas[20:40, -1] = math.pi
    thetas[40:60] = 0.0  # every cosine tied at 1
    for fn, finish in ((shell_sum_batch, _shell_finish),
                       (dirichlet_kernel_batch, _dirichlet_finish),
                       (_shell_table, _table_finish)):
        for t in (thetas, thetas[:0]):
            got = fn(d, n, t)
            assert np.array_equal(got, _shell_core(d, n, np.sort(np.cos(t), axis=1), finish))
            ref = _argsort_product(d, n, t, finish)
            assert np.array_equal(got, ref), fn.__name__
            # the concatenated parts' layout too: a matrix product's sums follow it
            assert got.strides == ref.strides, fn.__name__
        assert fn(d, n, thetas[:0]).shape == ((0, n + 1) if fn is _shell_table else (0,))


@pytest.mark.parametrize("d", [1, 2, 3, 2000])
def test_sorted_cosine_core_blocks_do_not_grow_with_d(d):
    # a block holds _BLOCK_ENTRIES / (n + 1) rows at any d; at d = 2 000 its 46 rows
    # take the factor tables 118 at a time, the last recurrence building 112
    n, rows = 2, []

    def finish(head, last):
        rows.append(last.shape[1])
        return _shell_finish(head, last)

    step = _BLOCK_ENTRIES // (n + 1)
    thetas = np.random.default_rng(5).uniform(-4.0, 4.0, (step + 1 if d < 10 else 46, d))
    got = _shell_core(d, n, np.sort(np.cos(thetas), axis=1), finish)
    assert rows == ([step, 1] if d < 10 else [46])  # 46 blocks of one row before
    assert np.array_equal(got, _argsort_product(d, n, thetas, _shell_finish))


def test_sorted_cosine_core_checks_its_cost():
    # _shell_core checks nothing itself: each of its callers bounds the cost first
    for fn in (shell_sum_batch, dirichlet_kernel_batch, _shell_table):
        with pytest.raises(ValueError, match="over the limit"):
            fn(3, 10**9, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="over the limit"):
        mean_torus_mc(3, 10**9, 0.3, budget=4)


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
    thetas = rng.uniform(-np.pi, np.pi, (6, d))
    for n in (1, 2, 5):
        fn = shell_seed(d, n)
        for t in thetas:
            lhs = divided_difference_cos(fn, t)
            rhs = shell_sum(d, n, t)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ball_sum_is_divided_difference_of_dirichlet_seed(d, rng):
    thetas = rng.uniform(-np.pi, np.pi, (6, d))
    for n in (0, 1, 4):
        fn = dirichlet_seed(d, n)
        for t in thetas:
            lhs = divided_difference_cos(fn, t)
            rhs = dirichlet_kernel(d, n, t)
            assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_divided_difference_holds_as_knots_merge(d):
    # 2- and 3-knot clusters at theta-gaps 1e-2 ... 1e-12 and 0, against the
    # product kernel: no digit is lost as knots approach each other
    rng = np.random.default_rng([7, d])
    gaps = [10.0 ** -k for k in range(2, 13, 2)] + [0.0]
    for size in (2, 3) if d >= 3 else (2,):
        for gap in gaps:
            thetas = rng.uniform(-math.pi, math.pi, (3, d))
            thetas[:, 1:size] = thetas[:, :1] + gap * np.arange(1, size)
            for n in (1, 5, 12, 20, 30):
                bound = 1e-10 if n <= 20 else 1e-9
                for seed, ref in ((shell_seed, shell_sum_batch),
                                  (dirichlet_seed, dirichlet_kernel_batch)):
                    fn = seed(d, n)
                    for t, want in zip(thetas, ref(d, n, thetas).tolist()):
                        assert rel_err(divided_difference_cos(fn, t), want) <= bound, \
                            (seed.__name__, n, size, gap)


def test_divided_difference_route_handles_confluent_angles():
    # equal angles force repeated cosine knots
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
    deriv = shell_seed(d, n).deriv(d - 1)(u)
    got = biortho_poly(d, n, u)
    scale = max(1.0, float(np.max(np.abs(deriv))))
    assert np.max(np.abs(got - deriv)) < 1e-10 * scale


def _biortho_row(d, n, u, form, seq=None):
    """One row by the definition's own loop over j, as biortho_poly summed it
    before the table: the reference the table must reproduce bit for bit.  ``seq``, a
    Gegenbauer table to n or beyond at u, saves building it again."""
    lam, base = (float(d), d) if form == "c" else (float(d - 1), d - 1)
    u = np.asarray(u, dtype=float)
    seq = gegenbauer_sequence(lam, n, u) if seq is None else seq
    total = np.zeros(u.shape)
    for j in range(min(base, n // 2) + 1):
        k = n - 2 * j
        term = seq[k] if form == "c" else (k + lam) / lam * seq[k]
        total = total + (-1) ** j * math.comb(base, j) * term
    return math.factorial(d - 1) * total


@pytest.mark.parametrize("form", ["c", "z"])
@pytest.mark.parametrize("d", [2, 3, 4, 7])
@pytest.mark.parametrize("nmax", [0, 1, 8, 30, 600])
def test_biortho_table_rows_are_the_scalar_values(form, d, nmax, rng):
    # 600 orders take three blocks of the stream, each carried into the next; the lone
    # calls are compared at every order up to 30, and past it at each block's edges
    us = rng.uniform(-1.0, 1.0, 13)
    lam = float(d if form == "c" else d - 1)
    lone = range(nmax + 1) if nmax <= 30 else [*range(20), 255, 256, 257, 511, 512, 513, nmax]
    table = biortho_poly(d, range(nmax + 1), us, form)
    assert table.shape == (nmax + 1, us.size)
    seq = gegenbauer_sequence(lam, nmax, us)
    for n in range(nmax + 1):
        assert np.array_equal(table[n], _biortho_row(d, n, us, form, seq))
    for n in lone:
        assert np.array_equal(table[n], biortho_poly(d, n, us, form=form))
    for u in us[:3].tolist():
        column = biortho_poly(d, range(nmax + 1), u, form)
        assert column.shape == (nmax + 1,)
        seq = gegenbauer_sequence(lam, nmax, u)
        assert column.tolist() == [float(_biortho_row(d, n, u, form, seq))
                                   for n in range(nmax + 1)]
        assert [column[n] for n in lone] == [biortho_poly(d, n, u, form=form) for n in lone]


def test_biortho_poly_peak_does_not_grow_with_n_in_a_fresh_process(fresh_env):
    # the whole (n + 1)-row table was held: 0.4 MB at n = 5e4, 53 MB as a process at 1e6
    code = ("import tracemalloc\n"
            "from l1torus.kernels import biortho_poly\n"
            "biortho_poly(3, 300, 0.5)\n"
            "tracemalloc.start()\n"
            "for n in (1_000, 50_000):\n"
            "    tracemalloc.reset_peak()\n"
            "    biortho_poly(3, n, 0.5)\n"
            "    print(tracemalloc.get_traced_memory()[1])\n")
    done = subprocess.run([sys.executable, "-c", code], env=fresh_env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    small, large = map(int, done.stdout.split())
    assert large <= small + (16 << 10) and large < 64 << 10


def test_biortho_table_keeps_the_checks():
    with pytest.raises(ValueError, match="over the limit"):
        biortho_poly(3, range(10**12 + 1), 0.5)
    with pytest.raises(ValueError, match="n = 2 overflows at u = 1e\\+200"):
        biortho_poly(3, range(5), np.array([0.5, 1e200]))
    with pytest.raises(ValueError, match="171! is over the limit"):
        biortho_poly(172, 0, 0.5)
    assert biortho_poly(171, 0, 0.5) == float(math.factorial(170))


def _block_bound_outputs():
    """The bytes of every blocked kernel's output at fixed inputs: the shell product's three
    finishes, biortho_poly in both forms and the filtered series at scalar, 1-D and 2-D u over
    unsorted and repeated orders, and the Monte-Carlo mean at several points and orders."""
    thetas = np.random.default_rng(11).uniform(-4.0, 4.0, (45, 3))
    thetas[:5] = 0.0  # tied cosines
    out = [fn(3, n, thetas).tobytes() for fn in (shell_sum_batch, _shell_table,
                                                 dirichlet_kernel_batch) for n in (0, 1, 9)]
    for u in (0.37, np.linspace(-1.0, 1.0, 70), np.linspace(-0.9, 0.9, 12).reshape(3, 4)):
        for orders in (5, [9, 2, 0, 31, 2, 9, 1], range(40)):
            out += [np.asarray(biortho_poly(4, orders, u, form)).tobytes() for form in "cz"]
    # the series at points of different K, so that some blocks zero the weights k >= K
    for u in (0.37, np.array([-0.6]), np.linspace(-0.95, 0.95, 9),
              np.linspace(-0.9, 0.9, 12).reshape(3, 4)):
        for orders in (4, [7, 0, 3, 7, 2], range(6), [30, 1]):
            out.append(np.asarray(mean_series(3, orders, u)).tobytes())
        out.append(np.asarray(mean_series(5, [2, 5], u, nterms=30)).tobytes())
    for d in (2, 3):
        for n in (0, 4, [3, 0, 5, 3]):
            est = mean_torus_mc(d, n, np.array([-0.6, 0.05, 0.81, 0.3]), budget=3000, seed=5)
            out += [est.value.tobytes(), est.stderr.tobytes()]
    return out


@pytest.mark.parametrize("entries", [1, 7, 1000])
def test_block_size_changes_no_bit(monkeypatch, entries):
    # _BLOCK_ENTRIES sizes the working blocks and the cache entries alone: every output is
    # the same bytes at any block size, wherever the constant is read
    expected = _block_bound_outputs()
    modules = [m for m in vars(l1torus).values() if hasattr(m, "_BLOCK_ENTRIES")]
    assert sorted(m.__name__ for m in modules) == ["l1torus.bspline_fourier", "l1torus.kernels",
                                                   "l1torus.numerics"]
    for module in modules:
        monkeypatch.setattr(module, "_BLOCK_ENTRIES", entries)
    assert _block_bound_outputs() == expected


@pytest.mark.parametrize("form", ["c", "z"])
@pytest.mark.parametrize("orders", [[], [0], [9, 2, 0, 31, 2, 9, 1], [4, 4, 4], range(3, 12, 4)],
                         ids=["none", "zero", "unsorted", "repeated", "range"])
@pytest.mark.parametrize("shape", [(), (5,), (3, 2)])
def test_biortho_poly_orders_are_their_lone_calls_bitwise(form, orders, shape):
    # one Gegenbauer pass to the largest order: each row is what its lone call returns
    u = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
    u = u if shape else 0.37
    rows = biortho_poly(4, orders, u, form)
    assert rows.shape == (len(orders),) + shape
    for row, n in zip(rows, orders):
        assert row.tobytes() == np.asarray(biortho_poly(4, n, u, form)).tobytes()
    assert biortho_poly(4, np.array(list(orders), dtype=np.int64), u, form).tobytes() \
        == rows.tobytes()


def test_biortho_poly_orders_are_checked_as_the_means_are():
    for bad in (2.5, [1, 2.0], np.array([3.0]), "3"):
        with pytest.raises(ValueError, match="orders must be integers"):
            biortho_poly(3, bad, 0.5)
    with pytest.raises(ValueError, match="1048577 orders, over the limit of 1048576"):
        biortho_poly(3, range((1 << 20) + 1), np.empty(0))
    with pytest.raises(ValueError, match="index n must be >= 0"):
        biortho_poly(3, [2, -1], 0.5)
    with pytest.raises(ValueError, match="dimension must be >= 2"):
        biortho_poly(1, [], 0.5)
    # rows 2 ... 4 overflow at u = 1e200, but only a listed order is named, first as listed
    assert np.isfinite(biortho_poly(3, [0, 1], [0.5, 1e200])).all()
    with pytest.raises(ValueError, match="n = 5 overflows at u = 1e\\+200"):
        biortho_poly(3, [1, 5, 2, 0], np.array([0.5, 1e200]))


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
    thetas = rng.uniform(-np.pi, np.pi, (5, d))
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


@pytest.mark.parametrize("r, terms", [(0.0, 0), (0.1, 32), (0.3, 62), (0.5, 106), (0.7, 206)])
def test_poisson_kernel_series_matches_closed_form(r, terms, rng):
    # the series stops at the first K with r^K <= 2^-106; inside the stated
    # domain (r <= 0.7, d <= 6, knots anywhere in [-1, 1], repeated +-1
    # included) values and divided differences hold to 1e-10 relative
    fn = poisson_kernel(r)
    assert fn.degree() == terms
    u = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(fn(u) * (1.0 - 2.0 * r * u + r * r) - 1.0)) < 1e-14
    for d in range(1, 7):
        thetas = rng.uniform(-math.pi, math.pi, (14, d))
        thetas[0], thetas[1] = 0.0, math.pi  # one knot at 1 or at -1, d times
        thetas[2, :2], thetas[3, :2] = 0.0, math.pi  # a double knot at 1 or at -1
        for t in thetas:
            assert rel_err(divided_difference_cos(fn, t), poisson_divdiff(d, r, t)) < 1e-10


@pytest.mark.parametrize("fn", [poisson_product, poisson_divdiff])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_poisson_forms_take_a_batch_bitwise(fn, d, rng):
    thetas = np.vstack([rng.uniform(-math.pi, math.pi, (6, d)), np.zeros(d),
                        [2.0] + [0.8] * (d - 1)])  # a knot at 1, d times; a repeated knot
    for r in (0.0, 0.3, 0.9):
        rows = fn(d, r, thetas)
        assert rows.shape == (len(thetas),)
        lone = [fn(d, r, t) for t in thetas]
        assert all(type(v) is float for v in lone)
        assert rows.tobytes() == np.array(lone).tobytes()
        assert fn(d, r, np.empty((0, d))).shape == (0,)
    for shape in [(), (d + 1,), (4, d + 1), (2, 2, d)]:
        with pytest.raises(ValueError, match="theta must have shape \\(d,\\) or \\(rows, d\\)"):
            fn(d, 0.5, np.zeros(shape))
    with pytest.raises(ValueError, match="theta must be finite"):
        fn(d, 0.5, np.full((2, d), np.nan))


def test_poisson_rejects_r_outside_unit_interval():
    with pytest.raises(ValueError):
        poisson_product(2, 1.0, [0.1, 0.2])
    with pytest.raises(ValueError):
        poisson_kernel(-0.1)


@pytest.mark.parametrize("d, n", [(3, 10**400), (10**400, 3)], ids=["n1e400", "d1e400"])
def test_seeds_refuse_indices_past_the_float_range(d, n):
    for fn in (dirichlet_seed_theta, shell_seed_theta):
        with pytest.raises(ValueError, match="over the limit of 1.8e\\+308, the largest float"):
            fn(d, n, 0.3)


@pytest.mark.parametrize("fn, d", [(shell_seed, 202), (dirichlet_seed, 203)])
def test_seeds_past_the_chebyshev_power_cap_are_refused(fn, d):
    # (1 - u^2)^101 raised numpy's bare "Power is too large"; one d less still builds
    name = "shell" if fn is shell_seed else "Dirichlet"
    with pytest.raises(ValueError, match=f"{name} seed at d = {d}, n = 3: 101 as the power of "
                                         f"1 - u\\^2, over the limit of 100"):
        fn(d, 3)
    assert np.isfinite(fn(d - 1, 3)(0.5))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("d, r", [(10, 0.5), (20, 0.2), (100, 0.2), (100, 0.5), (171, 0.9)])
def test_biortho_tail_past_its_reach_is_inf_without_a_warning(d, r):
    # at d = 100 the majorant overflowed and inf * 0 returned nan, with two RuntimeWarnings
    assert biortho_generating_tail(d, r, 80) == math.inf


def test_biortho_generating_pair_takes_arrays(rng):
    us = rng.uniform(-1.0, 1.0, 7)
    partial, closed = biortho_generating_pair(3, 0.5, us, 80)
    assert partial.shape == closed.shape == us.shape
    for u, p, c in zip(us.tolist(), partial.tolist(), closed.tolist()):
        alone = biortho_generating_pair(3, 0.5, u, 80)
        # one product with the table's columns: summed in another order than one row
        assert math.isclose(p, alone[0], rel_tol=1e-14) and c == alone[1]
    # the partial sums' table and the tail's majorant are bounded as biortho_poly is
    with pytest.raises(ValueError, match="over the limit"):
        biortho_generating_pair(3, 0.5, us, 1 << 20)
    with pytest.raises(ValueError, match="over the limit"):
        biortho_generating_tail(3, 0.5, 1 << 22)
