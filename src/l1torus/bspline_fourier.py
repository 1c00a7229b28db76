"""Fourier means of B-splines over l1 shells.

For d >= 2 and n >= 0 define

    mean(d, n, u) = (2 pi)^-d integral over the d-torus of
                    M_{d-1}(u | cos theta) * shell_sum(d, n, theta) / shell_count(d, n)

the average of the n-th normalized shell sum against the B-spline whose knots are
the cosines of the angles.  Routes take u (alpha) as a scalar or an ndarray, and the
mean routes n as one order or a sequence of orders, one row each, by ``numerics._orders``:

* ``mean_series``      Gegenbauer series under a spectral exponential filter,
                       valid for every d >= 2 away from u = +-1;
* ``mean_closed``      the closed forms, wherever one is known: d = 2 (``mean_d2_closed``,
                       in alpha = arccos u, every order from one row of sines per parity)
                       and n = 0 (``mean_order0_closed``, every d);
* ``mean_torus_mc``    seeded antithetic Monte-Carlo average over the torus
                       (d in {2, 3}); every order and point shares its draws;
* ``biorthogonality_matrix``  the pairing with the biorthogonal polynomial
                       family, an identity matrix in exact arithmetic.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .bspline import knot_field_batch
from .kernels import _check_product, _shell_core, _shell_finish, _table_finish, biortho_poly
from .numerics import (DEFAULT_SEED, _BLOCK_ENTRIES, _check_dn, _check_orders, _check_values,
                       _float_factorial, _orders, _shaped, check_cost, finite, gauss_gegenbauer,
                       shell_count)
from .polys import _gegenbauer_rows, geg_norm_c

SERIES_EDGE_MARGIN = 1e-3
_SERIES_REACH = 100.0  # K * arccos|u|: the filtered series' terms per point
_MC_DEFAULT_BUDGET = {2: 2_000_000, 3: 10_000_000}
# antithetic pairs per Monte-Carlo batch, whatever the points; not a block size: the batch ends
# fix the estimate's bits through the Chan-Golub-LeVeque merge, and blocks never change a bit
_MC_BATCH_PAIRS = 1 << 14
_MAX_MC_BUDGET = 1 << 25  # evaluations, budget * points * orders, of one mean_torus_mc
# multiply-adds, pairs * d * (n+1)^2, of one mean_torus_mc's shell sums: ~20 s at the ~3e9
# per s measured at d = 3; the default budgets serve n <= 184 (d = 2) and n <= 66 (d = 3)
_MAX_MC_COST = 1 << 36


def mean_d2_closed(n, alpha):
    """Closed form of mean(2, n, cos(alpha)) for alpha in (0, pi), scalar or ndarray, and n
    one order or a sequence of orders as for :func:`mean_series`:

    1/2 - (n mod 2) alpha/pi - (2/pi) sum sin(m alpha)/m, m = 1 + n mod 2, 3 + n mod 2, ... < n.
    Each order sums its prefix of one row of sin(m alpha)/m per parity, bit for bit its lone
    call.  ValueError before any row is allocated when its orders, or its sine terms
    sum(n // 2), times max(points, 1) exceed ``numerics._MAX_VALUES``.
    """
    one, orders, top = _orders(2, n, "closed form")
    a = np.asarray(alpha, dtype=float)
    if not np.all((0.0 < a) & (a < math.pi)):
        raise ValueError("alpha must lie strictly inside (0, pi)")
    _check_values(f"closed form for {len(orders)} order(s) at {a.size} point(s)", len(orders),
                  a.size)
    # its sine terms, n // 2 per order at each point, listed even when there is no point
    _check_values(f"closed form at n = {top}" + ("" if one else f" for {len(orders)} orders"),
                  sum(o // 2 for o in orders), a.size)
    tops = {o % 2: o for o in sorted(orders)}  # each parity's largest order
    m = {p: np.arange(1 + p, last, 2) for p, last in tops.items()}
    sines = {p: np.sin(a[..., None] * m[p]) / m[p] for p in m}
    rows = np.empty((len(orders),) + a.shape)
    for i, o in enumerate(orders):
        rows[i] = 0.5 - (o % 2) * a / math.pi - (2.0 / math.pi) * sines[o % 2][..., :o // 2].sum(-1)
    return _shaped(one, alpha, rows)


def mean_order0_closed(d: int, u):
    """Closed form of mean(d, 0, u), u scalar or ndarray: a normalized power of 1 - u^2.

    Gamma((d+1)/2) / (sqrt(pi) Gamma(d/2) (d-1)!) * (1 - u^2)^((d-2)/2)
    for |u| < 1 and 0 outside, as the field and the other routes are: the d = 2
    value at u = +-1 is 0, not the 1/2 of the power's limit.
    """
    _check_dn(d, 0)
    x = finite(u, "u").squeeze()[()]  # a lone point takes the scalar power
    # Gamma(d/2) (d-1)! overflows from d = 150 on: divide by the factors one at a time.
    # Both the constant and the power are at least their product, so neither
    # underflows where the value does not.
    fact = _float_factorial(d - 1)
    const = math.gamma((d + 1) / 2.0) / math.sqrt(math.pi) / math.gamma(d / 2.0)
    power = np.maximum(1.0 - x * x, 0.0) ** ((d - 2) / 2.0)
    return _shaped(True, u, [np.where(np.abs(x) >= 1.0, 0.0, const / fact * power)])


def mean_closed(d: int, n, u):
    """Closed form of mean(d, n, u), u and n as for :func:`mean_series`: for d = 2 one
    :func:`mean_d2_closed` call over the points with |u| < 1, in alpha = arccos u, and 0
    elsewhere; for n = 0 :func:`mean_order0_closed`; ValueError for any other (d, n)."""
    one, orders, _ = _orders(d, n, "closed form")
    if d != 2 and any(orders):
        raise ValueError("closed form requires d = 2 or n = 0")
    x = finite(u, "u")
    _check_values(f"closed form for {len(orders)} order(s) at {x.size} point(s)", len(orders),
                  x.size)
    rows = np.full((len(orders),) + x.shape, mean_order0_closed(d, x) if d != 2 else 0.0)
    inside = np.abs(x) < 1.0  # the d = 2 mean is 0 elsewhere
    if d == 2 and inside.any():
        alpha = np.array([math.acos(v) for v in x[inside].tolist()])
        rows[:, inside] = mean_d2_closed(n if one else orders, alpha)
    return _shaped(one, u, rows)


def _series_coefficients(d: int):
    """The parts of the mean's Gegenbauer series

        mean(d, n, u) = (1-u^2)^(d-3/2) c_{d-1} / (d-1)! sum_k a_k R_{n+2k}(u),

    R_m = C_m^{d-1}(u) / C_m^{d-1}(1): c_{d-1}, (d-1)! and the map k -> a_k = C(k+d-2, k)
    = (d-1)_k / k!.  (d-1)! is checked first: c_{d-1} overflows from the same d on."""
    fact = _float_factorial(d - 1)
    return geg_norm_c(d - 1.0), fact, lambda k: float(math.comb(k + d - 2, k))


def mean_series(d: int, n, u, nterms: int | None = None):
    """Filtered Gegenbauer series route for mean(d, n, u), for u scalar or ndarray.

    mean(d, n, u) = (1-u^2)^(d-3/2) c_{d-1}/(d-1)! sum_{k<K} sigma(k/K) a_k R_{n+2k}(u),
    a_k = (d-1)_k/k!, R_m = C_m^{d-1}(u)/C_m^{d-1}(1).  The filter sigma(eta) =
    exp(-36 eta^8) makes the conditionally convergent series converge spectrally
    away from u = +-1.  K = ceil(100 / arccos|u|) per point (``nterms``, if given,
    everywhere).  Requires |u| <= 1 - SERIES_EDGE_MARGIN (so K <= 2 236).

    ``n`` is one order, or a sequence of orders: then the result has one row per
    order, shape (len(n),) + shape(u), each row the value one call at that order
    returns.  One pass of the normalized Gegenbauer stream over m serves every order,
    keeping one running total per order; each total sums k upward.  ValueError
    before the pass when its (max(n) + 2K - 1 + (len(n) - 1) K) * points values
    exceed ``numerics._MAX_VALUES``, or when (d-1)! is beyond the float range.
    """
    one, orders, top = _orders(d, n, "series")
    u_arr = finite(u, "u")
    if nterms is not None and nterms < 1:
        raise ValueError("nterms must be >= 1")
    if np.any(np.abs(u_arr) > 1.0 - SERIES_EDGE_MARGIN):
        raise ValueError(f"series route requires |u| <= 1 - {SERIES_EDGE_MARGIN:g}")
    if nterms is None:
        terms = np.ceil(_SERIES_REACH / np.arccos(np.abs(u_arr)))
        kmax = int(terms.max(initial=0))
    else:
        kmax = nterms if u_arr.size else 0
    # the recurrence's degrees, plus the terms each further order adds up, at every point
    rows = top + 2 * kmax - 1 + (len(orders) - 1) * kmax if kmax else 0
    _check_values(f"series at n = {top}, K = {kmax} for {len(orders)} order(s) at "
                  f"{u_arr.size} point(s)", rows, u_arr.size)
    if nterms is not None:  # a float once it is known to be small
        terms = np.full(u_arr.shape, float(kmax))
    norm, fact, coef = _series_coefficients(d)
    x, terms = u_arr.squeeze()[()], terms.squeeze()[()]  # a lone point steps as numpy scalars
    expo = -36.0 / terms ** 8  # sigma(k/K) = exp(k^8 * expo)
    kfull = int(np.min(terms, initial=kmax))  # every point takes the terms k < kfull
    totals = {order: np.zeros_like(x)[()] for order in orders}
    parity = ([o for o in sorted(totals) if o % 2 == 0], [o for o in sorted(totals) if o % 2])
    weights = {}  # k -> sigma(k/K) a_k, until the largest order of its parity has taken it
    rows = _gegenbauer_rows(d - 1.0, x, normalized=True)
    for m, cur in zip(range(top + 2 * kmax - 1 if kmax else 0), rows):  # cur = R_m
        group = parity[m % 2]
        # the orders whose term k < K sits at degree m = order + 2k
        for order in group[bisect_left(group, m - 2 * kmax + 2):bisect_right(group, m)]:
            k = (m - order) // 2
            if k not in weights:
                w = coef(k) * np.exp(k ** 8 * expo)
                weights[k] = w if k < kfull else np.where(k < terms, w, 0.0)
            totals[order] += (weights.pop(k) if order == group[-1] else weights[k]) * cur
    scale = (1.0 - x * x) ** (d - 1.5) * norm / fact
    return _shaped(one, u, [scale * totals[order] for order in orders])


def mean_recursion_sides(d: int, n, u):
    """Both sides of the mean recursion, each of the shape of u (scalar or ndarray, |u| < 1),
    with a row per order for a sequence of orders n, as for :func:`mean_series`:

    lhs = (d-1)! sum_{j=0}^{d-1} (-1)^j C(d-1, j) mean(d, n+2j, u)
    rhs = c_{d-1} (1-u^2)^(d-3/2) C_n^{d-1}(u) / C_n^{d-1}(1)

    Every mean comes from one call of :func:`mean_closed` (d = 2) or :func:`mean_series`,
    and the right side from the normalized Gegenbauer stream to the largest order, bounded
    with the rows it returns before any mean is taken.
    """
    one, orders, top = _orders(d, n, "mean recursion")
    x = finite(u, "u")
    if np.any(np.abs(x) >= 1.0):
        raise ValueError(f"u must lie strictly inside (-1, 1), got {float(x[np.abs(x) >= 1][0])}")
    norm, fact, _ = _series_coefficients(d)
    _check_orders("mean recursion", d * len(orders), "means")
    _check_values(f"recursion to degree {top} for {len(orders)} order(s) at {x.size} point(s)",
                  max(top + 1, len(orders)), x.size)
    needed = sorted({order + 2 * j for order in orders for j in range(d)})
    means = (mean_closed if d == 2 else mean_series)(d, needed, x)
    row = {order: i for i, order in enumerate(needed)}
    lhs = fact * sum((-1) ** j * math.comb(d - 1, j) * means[[row[o + 2 * j] for o in orders]]
                     for j in range(d))
    wanted, stream = set(orders), _gegenbauer_rows(d - 1.0, x, normalized=True)
    picked = {m: r for m, r in zip(range(top + 1), stream) if m in wanted}  # R_n, each order
    rhs = norm * (1.0 - x * x) ** (d - 1.5) * np.reshape([picked[o] for o in orders],
                                                         (len(orders),) + x.shape)
    return _shaped(one, u, lhs), _shaped(one, u, rhs)


def _sorted_columns(thetas: np.ndarray) -> np.ndarray:
    """The cosines of the (b, d) angles as d contiguous columns, shape (d, b), sorted
    along axis 0 as np.sort(axis=0) sorts them: an insertion network of compare-exchanges,
    each one np.minimum and np.maximum over whole columns, so no loop runs per row."""
    x = np.cos(thetas).T.copy()
    for i in range(1, len(x)):
        for j in range(i, 0, -1):
            low = np.minimum(x[j - 1], x[j])
            np.maximum(x[j - 1], x[j], out=x[j])
            x[j - 1] = low
    return x


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate and its standard error, each shaped as the other routes' values."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    pairs: int


def mean_torus_mc(d: int, n, u, budget: int | None = None,
                  seed: int = DEFAULT_SEED) -> McEstimate:
    """Seeded Monte-Carlo estimate of mean(d, n, u) by torus averaging, u scalar or ndarray.

    Draws uniform points on the torus in antithetic pairs (theta, pi - theta);
    the mirror member is folded in analytically through the symmetries
    field(u | -knots reversed) = field(-u | knots) and the factor (-1)^n on
    the shell sum.  No draw is rejected: a zero span between tied knots adds a zero
    term to the field, so every draw gives a finite value.  ``budget`` counts integrand
    evaluations per point and order, 4 to _MAX_MC_BUDGET in all; default 2e6 (d = 2),
    1e7 (d = 3).
    ValueError before the first draw when the shell sums of all budget / 2 pairs at the
    largest order would take more than _MAX_MC_COST multiply-adds.

    ``n`` is one order or a sequence of orders, as for :func:`mean_series`.  All orders
    and points share the draws, in batches of _MC_BATCH_PAIRS pairs, each sorted once and
    held as d contiguous columns of cosines, which the shell product takes as they are:
    one order's sums are a dot product per pair, several orders' one table of E_0 ... E_top
    (none at n = 0), filled block by block and read a contiguous row per order.
    A field call evaluates +-u at _BLOCK_ENTRIES / pairs points, one at least.  Each batch's
    mean and squared deviations per order and point are merged into running ones (Chan,
    Golub and LeVeque), so one batch gives its values' mean and ddof=1 spread bit for bit,
    and each order's and point's estimate is its lone call's.
    """
    if d not in (2, 3):
        raise ValueError("Monte-Carlo route supports d in {2, 3}")
    one, orders, top = _orders(d, n, "Monte-Carlo")
    pts = finite(u, "u").reshape(-1)
    if np.any(np.abs(pts) >= 1.0):
        raise ValueError("Monte-Carlo route requires |u| < 1")
    budget = _MC_DEFAULT_BUDGET[d] if budget is None else budget
    if budget < 4:  # fewer than two antithetic pairs give no spread
        raise ValueError(f"budget must be >= 4, got {budget}")
    check_cost(f"budget {budget} at {pts.size} point(s)" + ("" if one else
               f" for {len(orders)} orders"), budget * pts.size * len(orders), "evaluations",
               _MAX_MC_BUDGET)
    total_pairs = budget // 2
    # the whole call's shell product, whatever the batches: one per pair, shared by the points
    _check_product(f"Monte-Carlo shell sums at d = {d}, n = {top} for {total_pairs} pair(s)",
                   total_pairs, d, top, _MAX_MC_COST)
    rng = np.random.default_rng(seed)
    counts, parities = [shell_count(d, order) for order in orders], {o % 2 for o in orders}
    rows = orders if len(orders) > 1 else [0]  # each order's row of a batch's sums
    mean, m2 = np.zeros((2, len(orders), pts.size))
    for lo in range(0, total_pairs if orders else 0, _MC_BATCH_PAIRS):
        b = min(_MC_BATCH_PAIRS, total_pairs - lo)
        cols = _sorted_columns(rng.uniform(-math.pi, math.pi, size=(b, d)))
        if not top:  # E_0 = 1
            sums = np.ones((1, b))
        elif len(orders) == 1:
            sums = _shell_core(d, top, cols.T, _shell_finish)[None]
        else:  # E_0, ..., E_top: the table is column-major, so a row per order is contiguous
            sums = _shell_core(d, top, cols.T, _table_finish).T
        chunk = max(1, _BLOCK_ENTRIES // b)  # points per field call
        for p in range(0, pts.size, chunk):
            at = pts[p:p + chunk]
            field = knot_field_batch(d, np.concatenate([at, -at]), cols.T)
            halves = {q: 0.5 * (field[:at.size] + (-1.0) ** q * field[at.size:]) for q in parities}
            for i, order in enumerate(orders):
                vals = halves[order % 2] * sums[rows[i]] / counts[i]
                batch_mean = vals.mean(axis=1)
                vals -= batch_mean[:, None]
                dev = batch_mean - mean[i, p:p + chunk]
                mean[i, p:p + chunk] += dev * (b / (lo + b))
                m2[i, p:p + chunk] += (vals * vals).sum(axis=1) + dev * dev * (lo * b / (lo + b))
    stderr = np.sqrt(m2 / (total_pairs - 1)) / math.sqrt(total_pairs)
    return McEstimate(_shaped(one, u, mean), _shaped(one, u, stderr), total_pairs)


def biorthogonality_matrix(d: int, max_index: int) -> np.ndarray:
    """Pairing matrix B[n, n'] = integral of mean(d, n, .) * biortho_poly(d, n', .).

    Indices run over 0 <= n, n' <= max_index; the result is the identity in
    exact arithmetic.  The mean enters through its Gegenbauer series: terms
    of degree beyond max_index + 4 are orthogonal to every polynomial row and
    are dropped exactly, after which a Gauss rule for the weight
    (1-u^2)^(d-3/2) of order max_index + 8 integrates the remaining
    polynomial pairings exactly.
    """
    _check_dn(d, max_index)
    norm, fact, coef = _series_coefficients(d)
    rule = gauss_gegenbauer(max_index + 8, d - 1.0)
    x, w = rule.nodes, rule.weights
    degmax = max_index + 6
    _check_values(f"pairing to degree {degmax} at {x.size} point(s)", degmax + 1, x.size)
    seq = np.array(list(islice(_gegenbauer_rows(d - 1.0, x, normalized=True), degmax + 1)))
    a = np.array([coef(k) for k in range(degmax)])
    const = norm / fact
    rows = np.empty((max_index + 1, x.size))
    for n in range(max_index + 1):
        kmax = (max_index - n) // 2 + 2
        degs = n + 2 * np.arange(kmax + 1)
        degs = degs[degs <= degmax]
        rows[n] = const * np.tensordot(a[: degs.size], seq[degs], axes=(0, 0))
    hmat = biortho_poly(d, range(max_index + 1), x)
    return rows @ (w * hmat).T
