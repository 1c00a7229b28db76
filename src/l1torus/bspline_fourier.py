"""Fourier means of B-splines over l1 shells.

For d >= 2 and n >= 0 define

    mean(d, n, u) = (2 pi)^-d integral over the d-torus of
                    M_{d-1}(u | cos theta) * shell_sum(d, n, theta) / shell_count(d, n)

the average of the n-th normalized shell sum against the B-spline whose knots are
the cosines of the angles.  Routes, each taking u (alpha) as a scalar or an ndarray:

* ``mean_series``      Gegenbauer series under a spectral exponential filter,
                       valid for every d >= 2 away from u = +-1;
* ``mean_d2_closed``   elementary closed form for d = 2 in the angle
                       variable u = cos(alpha);
* ``mean_order0_closed``  closed form for n = 0 and every d;
* ``mean_torus_mc``    seeded antithetic Monte-Carlo average over the torus
                       (d in {2, 3});
* ``biorthogonality_matrix``  the pairing with the biorthogonal polynomial
                       family, an identity matrix in exact arithmetic.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .bspline import knot_field_batch
from .kernels import _biortho_table, _check_dn, _shell_core, _shell_finish
from .numerics import (DEFAULT_SEED, MAX_DRAWS, _float_factorial, check_cost, finite,
                       gauss_gegenbauer, shell_count)
from .polys import geg_norm_c, gegenbauer_at_one, gegenbauer_sequence

SERIES_EDGE_MARGIN = 1e-3
_SERIES_REACH = 100.0  # K * arccos|u|: the filtered series' terms per point
_MAX_SERIES_TERMS = math.ceil(_SERIES_REACH / math.acos(1.0 - SERIES_EDGE_MARGIN))  # K at the edge
_MC_GAP = 1e-12
_MC_DEFAULT_BUDGET = {2: 2_000_000, 3: 10_000_000}
_MC_BATCH_PAIRS = 50_000  # antithetic pairs per Monte-Carlo batch at one point, 1/P at P points
_MAX_MC_BUDGET = 1 << 25  # evaluations, budget * points, of one mean_torus_mc; a float per pair
_MAX_CLOSED_TERMS = 1 << 22  # sine terms, n // 2 per point, one mean_d2_closed call may sum
_MAX_SERIES_VALUES = 1 << 26  # Gegenbauer values, degrees * points, of one mean_series pass


def _acos(u: np.ndarray) -> np.ndarray:
    """math.acos of each entry, in the shape of u: the angles of every d = 2 closed form."""
    return np.array([math.acos(x) for x in u.ravel().tolist()]).reshape(u.shape)


def mean_d2_closed(n: int, alpha):
    """Closed form of mean(2, n, cos(alpha)) for alpha in (0, pi), scalar or ndarray:

    1/2 - (n mod 2) alpha/pi - (2/pi) sum sin(m alpha)/m, m = 1 + n mod 2, 3 + n mod 2, ... < n.
    ValueError before summing when points * (n // 2) terms exceed _MAX_CLOSED_TERMS.
    """
    if n < 0:
        raise ValueError("index n must be >= 0")
    a = np.asarray(alpha, dtype=float)
    if not np.all((0.0 < a) & (a < math.pi)):
        raise ValueError("alpha must lie strictly inside (0, pi)")
    # the frequencies are listed even when there is no point
    check_cost(f"closed form at n = {n}", max(a.size, 1) * (n // 2),
               f"terms at {a.size} point(s)", _MAX_CLOSED_TERMS)
    m = np.arange(1 + n % 2, n, 2)
    s = np.sum(np.sin(a[..., None] * m) / m, axis=-1)
    value = 0.5 - (n % 2) * a / math.pi - (2.0 / math.pi) * s
    return value if np.ndim(alpha) else float(value)


def mean_order0_closed(d: int, u):
    """Closed form of mean(d, 0, u), u scalar or ndarray: a normalized power of 1 - u^2.

    Gamma((d+1)/2) / (sqrt(pi) Gamma(d/2) (d-1)!) * (1 - u^2)^((d-2)/2)
    for |u| <= 1 and 0 outside.
    """
    _check_dn(d, 0)
    x = np.asarray(u, dtype=float).squeeze()[()]  # a lone point takes the scalar power
    # Gamma(d/2) (d-1)! overflows from d = 150 on: divide by the factors one at a time.
    # Both the constant and the power are at least their product, so neither
    # underflows where the value does not.
    fact = _float_factorial(d - 1)
    const = math.gamma((d + 1) / 2.0) / math.sqrt(math.pi) / math.gamma(d / 2.0)
    power = np.maximum(1.0 - x * x, 0.0) ** ((d - 2) / 2.0)
    value = np.reshape(np.where(np.abs(x) > 1.0, 0.0, const / fact * power), np.shape(u))
    return value if np.ndim(u) else float(value)


def mean_order0_integral(d: int) -> float:
    """Integral over [-1, 1] of mean_order0_closed via the Beta function.

    Evaluates to 1/(d-1)! in exact arithmetic.
    """
    const = mean_order0_closed(d, 0.0)  # checks d; the constant factor, at u = 0
    return const * (math.sqrt(math.pi) * math.gamma(d / 2.0) / math.gamma((d + 1) / 2.0))


def mean_series(d: int, n, u, nterms: int | None = None):
    """Filtered Gegenbauer series route for mean(d, n, u), for u scalar or ndarray.

    mean(d, n, u) = (1-u^2)^(d-3/2) c_{d-1}/(d-1)! sum_{k<K} sigma(k/K) a_k R_{n+2k}(u),
    a_k = (d-1)_k/k!, R_m = C_m^{d-1}(u)/C_m^{d-1}(1).  The filter sigma(eta) =
    exp(-36 eta^8) makes the conditionally convergent series converge spectrally
    away from u = +-1.  K = ceil(100 / arccos|u|) per point (``nterms``, if given,
    everywhere).  Requires |u| <= 1 - SERIES_EDGE_MARGIN (so K <= _MAX_SERIES_TERMS = 2 236).

    ``n`` is one order, or a sequence of orders: then the result has one row per
    order, shape (len(n),) + shape(u), each row the value one call at that order
    returns.  One recurrence pass over m serves every order, keeping two rows of
    R and one running total per order; each total sums k upward.  ValueError
    before the pass when its (max(n) + 2K - 1 + (len(n) - 1) K) * points values
    exceed _MAX_SERIES_VALUES, or when (d-1)! is beyond the float range.
    """
    one = isinstance(n, (int, np.integer))
    if not one:  # a long range is refused before it is listed
        check_cost("series", len(n), "orders", _MAX_SERIES_VALUES)
    orders = [n] if one else [int(x) for x in n]
    for order in orders:
        _check_dn(d, order)
    top = max(orders, default=0)
    if nterms is not None and nterms < 1:
        raise ValueError("nterms must be >= 1")
    u_arr = finite(u, "u")
    if np.any(np.abs(u_arr) > 1.0 - SERIES_EDGE_MARGIN):
        raise ValueError(f"series route requires |u| <= 1 - {SERIES_EDGE_MARGIN:g}")
    if nterms is None:
        terms = np.ceil(_SERIES_REACH / np.arccos(np.abs(u_arr)))
        kmax = int(terms.max(initial=0))
    else:
        kmax = nterms if u_arr.size else 0
    # the recurrence's values, plus the terms each further order adds up
    cost = (top + 2 * kmax - 1 + (len(orders) - 1) * kmax) * u_arr.size
    check_cost(f"series at n = {top}, K = {kmax} for {len(orders)} order(s) at "
               f"{u_arr.size} point(s)", cost, "values", _MAX_SERIES_VALUES)
    if nterms is not None:  # a float once it is known to be small
        terms = np.full(u_arr.shape, float(kmax))
    fact = _float_factorial(d - 1)
    lam = d - 1.0
    x, terms = u_arr.squeeze()[()], terms.squeeze()[()]  # a lone point steps as numpy scalars
    expo = -36.0 / terms ** 8  # sigma(k/K) = exp(k^8 * expo)
    kfull = int(np.min(terms, initial=kmax))  # every point takes the terms k < kfull
    totals = {order: np.zeros_like(x)[()] for order in orders}
    parity = ([o for o in sorted(totals) if o % 2 == 0], [o for o in sorted(totals) if o % 2])
    weights = {}  # k -> sigma(k/K) a_k, until the largest order of its parity has taken it
    prev, cur = np.zeros_like(x)[()], np.ones_like(x)[()]  # R_{m-1}, R_m
    for m in range(top + 2 * kmax - 1 if kmax else 0):
        if m:  # (m+2lam-1) R_m = 2 (m+lam-1) u R_{m-1} - (m-1) R_{m-2}
            prev, cur = cur, ((2.0 * (m + lam - 1.0) * x * cur - (m - 1.0) * prev)
                              / (m + 2.0 * lam - 1.0))
        group = parity[m % 2]
        # the orders whose term k < K sits at degree m = order + 2k
        for order in group[bisect_left(group, m - 2 * kmax + 2):bisect_right(group, m)]:
            k = (m - order) // 2
            if k not in weights:
                a_k = float(math.comb(k + d - 2, k))  # (d-1)_k / k!
                w = a_k * np.exp(k ** 8 * expo)
                weights[k] = w if k < kfull else np.where(k < terms, w, 0.0)
            totals[order] += (weights.pop(k) if order == group[-1] else weights[k]) * cur
    const = geg_norm_c(lam)
    outs = [(1.0 - x * x) ** (d - 1.5) * const / fact * totals[order] for order in orders]
    if not one:
        return np.array(outs).reshape((len(orders),) + u_arr.shape)
    return np.reshape(outs[0], u_arr.shape) if np.ndim(u) else float(outs[0])


def mean_recursion_sides(d: int, n: int, u):
    """Both sides of the mean recursion.

    lhs = (d-1)! sum_{j=0}^{d-1} (-1)^j C(d-1, j) mean(d, n+2j, u)
    rhs = c_{d-1} (1-u^2)^(d-3/2) C_n^{d-1}(u) / C_n^{d-1}(1)

    The means use the closed form for d = 2 and otherwise the filtered series,
    all d orders from one pass.  ``u`` may be scalar or ndarray; each side has
    the shape of ``u``.
    """
    _check_dn(d, n)
    lam = d - 1
    u_arr = np.asarray(u, dtype=float)
    if d == 2:
        alpha = _acos(u_arr)
        means = [mean_d2_closed(n + 2 * j, alpha) for j in range(d)]
    else:
        means = mean_series(d, [n + 2 * j for j in range(d)], u_arr)
    lhs = 0.0
    for j in range(d):
        lhs = lhs + (-1) ** j * math.comb(d - 1, j) * means[j]
    lhs = lhs * _float_factorial(d - 1)
    cn = gegenbauer_sequence(float(lam), n, u_arr)[n]
    cn1 = gegenbauer_at_one(float(lam), n)[n]
    rhs = geg_norm_c(float(lam)) * (1.0 - u_arr * u_arr) ** (d - 1.5) * cn / cn1
    if np.ndim(u):
        return lhs, rhs
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error, of the shape of u (floats for a scalar)."""

    value: float | np.ndarray
    stderr: float | np.ndarray
    pairs: int


def mean_torus_mc(d: int, n: int, u, budget: int | None = None,
                  seed: int = DEFAULT_SEED) -> McEstimate:
    """Seeded Monte-Carlo estimate of mean(d, n, u) by torus averaging, u scalar or ndarray.

    Draws uniform points on the torus in antithetic pairs (theta, pi - theta);
    the mirror member is folded in analytically through the symmetries
    field(u | -knots reversed) = field(-u | knots) and the factor (-1)^n on
    the shell sum.  Samples whose sorted cosine knots have an adjacent gap
    below 1e-12 are rejected and redrawn (the integrand is integrable but
    unbounded there); a chunk still holding such a sample after ``MAX_DRAWS``
    rounds of redraws raises ValueError.  ``budget`` counts integrand
    evaluations per point, 4 to _MAX_MC_BUDGET / points; default 2e6 (d = 2), 1e7 (d = 3).

    All points share the draws, sorted once per batch of _MC_BATCH_PAIRS / points pairs:
    the shell product takes those rows as they are, and one field call evaluates +-u
    at every point.  Without redraws each estimate is a lone call's.  At n = 0 the
    shell sum is 1 exactly and is not computed.
    """
    if d not in (2, 3):
        raise ValueError("Monte-Carlo route supports d in {2, 3}")
    if n < 0:
        raise ValueError("index n must be >= 0")
    pts = finite(u, "u").reshape(-1)
    if np.any(np.abs(pts) >= 1.0):
        raise ValueError("Monte-Carlo route requires |u| < 1")
    if budget is None:
        budget = _MC_DEFAULT_BUDGET[d]
    if budget < 4:  # fewer than two antithetic pairs give no spread
        raise ValueError(f"budget must be >= 4, got {budget}")
    check_cost(f"budget {budget} at {pts.size} point(s)", budget * pts.size, "evaluations",
               _MAX_MC_BUDGET)
    total_pairs = budget // 2
    rng = np.random.default_rng(seed)
    count = shell_count(d, n)
    sgn = -1.0 if n % 2 else 1.0
    chunks = []
    remaining = total_pairs
    while remaining > 0:
        b = min(max(_MC_BATCH_PAIRS // max(pts.size, 1), 1), remaining)
        knots = np.sort(np.cos(rng.uniform(-math.pi, math.pi, size=(b, d))), axis=1)
        bad = np.min(np.diff(knots, axis=1), axis=1) < _MC_GAP
        for _ in range(MAX_DRAWS):
            if not np.any(bad):
                break
            redraw = rng.uniform(-math.pi, math.pi, size=(int(bad.sum()), d))
            knots[bad] = np.sort(np.cos(redraw), axis=1)
            bad = np.min(np.diff(knots, axis=1), axis=1) < _MC_GAP
        if np.any(bad):
            raise ValueError(f"knots still closer than {_MC_GAP:g} after {MAX_DRAWS} redraws")
        ssum = _shell_core(d, n, knots, _shell_finish) if n else 1.0  # E_0 = 1
        field = knot_field_batch(d, np.concatenate([pts, -pts]), knots)
        chunks.append(0.5 * (field[:pts.size] + sgn * field[pts.size:]) * ssum / count)
        remaining -= b
    vals = np.concatenate(chunks, axis=1)  # a row of pairs per point
    value, stderr = vals.mean(axis=1), vals.std(ddof=1, axis=1) / math.sqrt(total_pairs)
    if np.ndim(u):
        return McEstimate(value.reshape(np.shape(u)), stderr.reshape(np.shape(u)), total_pairs)
    return McEstimate(float(value[0]), float(stderr[0]), total_pairs)


def biorthogonality_matrix(d: int, max_index: int) -> np.ndarray:
    """Pairing matrix B[n, n'] = integral of mean(d, n, .) * biortho_poly(d, n', .).

    Indices run over 0 <= n, n' <= max_index; the result is the identity in
    exact arithmetic.  The mean enters through its Gegenbauer series: terms
    of degree beyond max_index + 4 are orthogonal to every polynomial row and
    are dropped exactly, after which a Gauss rule for the weight
    (1-u^2)^(d-3/2) of order max_index + 8 integrates the remaining
    polynomial pairings exactly.
    """
    _check_dn(d, 0)
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    lam = d - 1
    fact = _float_factorial(lam)  # checked before c_lam, which overflows from the same d on
    rule = gauss_gegenbauer(max_index + 8, float(lam))
    x, w = rule.nodes, rule.weights
    degmax = max_index + 6
    seq = gegenbauer_sequence(float(lam), degmax, x)
    ones = gegenbauer_at_one(float(lam), degmax)
    a = np.array([math.comb(k + d - 2, k) for k in range(degmax)], dtype=float)  # (d-1)_k/k!
    const = geg_norm_c(float(lam)) / fact
    rows = np.empty((max_index + 1, x.size))
    for n in range(max_index + 1):
        kmax = (max_index - n) // 2 + 2
        degs = n + 2 * np.arange(kmax + 1)
        degs = degs[degs <= degmax]
        rows[n] = const * np.tensordot(a[: degs.size] / ones[degs], seq[degs], axes=(0, 0))
    hmat = _biortho_table(d, max_index, x)
    return rows @ (w * hmat).T


@dataclass(frozen=True)
class MeanEvaluator:
    """Dispatch for evaluating mean(d, n, u) by a named method.

    ``method`` is one of "closed" (d = 2 or n = 0), "series" (filtered
    Gegenbauer series; ``nterms`` None takes the per-point K), or "mc"
    (seeded Monte-Carlo; returns a standard error).
    """

    d: int
    n: int
    method: str
    nterms: int | None = None
    budget: int | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_dn(self.d, self.n)
        if self.method not in ("closed", "series", "mc"):
            raise ValueError("method must be one of closed, series, mc")
        if self.method == "closed" and self.d != 2 and self.n != 0:
            raise ValueError("closed form requires d = 2 or n = 0")
        if self.method == "mc" and self.d not in (2, 3):
            raise ValueError("Monte-Carlo route supports d in {2, 3}")

    def evaluate(self, u):
        """Return (value, stderr) of the shape of u from one call; stderr None but for mc."""
        x = finite(u, "u")
        if self.method == "closed":
            if self.d != 2:
                return mean_order0_closed(self.d, x), None
            inside = np.abs(x) < 1.0  # the mean is 0 elsewhere
            value = np.zeros(x.shape)
            if np.any(inside):
                value[inside] = mean_d2_closed(self.n, _acos(x[inside]))
            return (value if x.ndim else float(value)), None
        if self.method == "series":
            return mean_series(self.d, self.n, x, nterms=self.nterms), None
        est = mean_torus_mc(self.d, self.n, x, budget=self.budget, seed=self.seed)
        return est.value, est.stderr
