"""Fourier means of B-splines over l1 shells.

For d >= 2 and n >= 0 define

    mean(d, n, u) = (2 pi)^-d integral over the d-torus of
                    M_{d-1}(u | cos theta) * shell_sum(d, n, theta) / shell_count(d, n)

the average of the n-th normalized shell sum against the B-spline whose
knots are the cosines of the angles.  Routes implemented here:

* ``mean_series``      Gegenbauer series with Cesaro (C, 1) summation,
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
from dataclasses import dataclass

import numpy as np

from .bspline import knot_field_batch
from .kernels import _check_dn, biortho_poly, shell_sum_batch
from .numerics import DEFAULT_SEED, MAX_DRAWS, finite, gauss_gegenbauer, shell_count
from .polys import geg_norm_c, gegenbauer_at_one, gegenbauer_sequence

DEFAULT_SERIES_TERMS = 2000
SERIES_EDGE_MARGIN = 1e-3
_MC_GAP = 1e-12
_MC_DEFAULT_BUDGET = {2: 2_000_000, 3: 10_000_000}
_MC_BATCH_PAIRS = 50_000  # antithetic pairs drawn per Monte-Carlo batch


def mean_d2_closed(n: int, alpha: float) -> float:
    """Closed form of mean(2, n, cos(alpha)) for alpha in (0, pi).

    1/2                                                       (n = 0)
    1/2 - alpha/pi - (2/pi) sum_{j=1}^{k} sin(2 j alpha)/(2j)  (n = 2k+1)
    1/2 - (2/pi) sum_{j=0}^{k-1} sin((2j+1) alpha)/(2j+1)      (n = 2k, k >= 1)
    """
    if n < 0:
        raise ValueError("index n must be >= 0")
    if not (0.0 < alpha < math.pi):
        raise ValueError("alpha must lie strictly inside (0, pi)")
    if n == 0:
        return 0.5
    if n % 2 == 0:
        j = np.arange(0, n // 2)
        return 0.5 - (2.0 / math.pi) * float(np.sum(np.sin((2 * j + 1) * alpha) / (2 * j + 1)))
    j = np.arange(1, (n - 1) // 2 + 1)
    s = float(np.sum(np.sin(2 * j * alpha) / (2 * j))) if j.size else 0.0
    return 0.5 - alpha / math.pi - (2.0 / math.pi) * s


def mean_order0_closed(d: int, u: float) -> float:
    """Closed form of mean(d, 0, u): a normalized power of 1 - u^2.

    Gamma((d+1)/2) / (sqrt(pi) Gamma(d/2) (d-1)!) * (1 - u^2)^((d-2)/2)
    for |u| <= 1 and 0 outside.
    """
    _check_dn(d, 0)
    u = float(u)
    if abs(u) > 1.0:
        return 0.0
    const = math.gamma((d + 1) / 2.0) / (math.sqrt(math.pi) * math.gamma(d / 2.0)
                                         * math.factorial(d - 1))
    return const * (1.0 - u * u) ** ((d - 2) / 2.0)


def mean_order0_integral(d: int) -> float:
    """Integral over [-1, 1] of mean_order0_closed via the Beta function.

    Evaluates to 1/(d-1)! in exact arithmetic.
    """
    const = mean_order0_closed(d, 0.0)  # checks d; the constant factor, at u = 0
    return const * (math.sqrt(math.pi) * math.gamma(d / 2.0) / math.gamma((d + 1) / 2.0))


def _series_coefficients(d: int, nterms: int) -> np.ndarray:
    """a_k = (d-1)_k / k! for k < nterms."""
    a = np.empty(nterms)
    a[0] = 1.0
    for k in range(1, nterms):
        a[k] = a[k - 1] * (d - 2.0 + k) / k
    return a


def mean_series(d: int, n: int, u, nterms: int = DEFAULT_SERIES_TERMS):
    """Gegenbauer series route for mean(d, n, u).

    mean(d, n, u) = (1-u^2)^(d-3/2) * c_{d-1}/(d-1)! *
                    sum_k a_k C_{n+2k}^{d-1}(u) / C_{n+2k}^{d-1}(1),
    a_k = (d-1)_k/k!.  The series converges only conditionally (for d = 2 it
    is a trigonometric series), so partial sums are averaged (Cesaro (C, 1)).
    Requires |u| <= 1 - SERIES_EDGE_MARGIN: the averaging degrades near the
    endpoints.  ``u`` may be scalar or ndarray.
    """
    _check_dn(d, n)
    if nterms < 1:
        raise ValueError("nterms must be >= 1")
    u_arr = np.asarray(u, dtype=float)
    if np.any(np.abs(u_arr) > 1.0 - SERIES_EDGE_MARGIN):
        raise ValueError(f"series route requires |u| <= 1 - {SERIES_EDGE_MARGIN:g}")
    lam = d - 1
    degmax = n + 2 * (nterms - 1)
    seq = gegenbauer_sequence(float(lam), degmax, u_arr)[n::2]
    ones = gegenbauer_at_one(float(lam), degmax)[n::2]
    a = _series_coefficients(d, nterms)
    terms = a.reshape((-1,) + (1,) * u_arr.ndim) * seq / ones.reshape((-1,) + (1,) * u_arr.ndim)
    partials = np.cumsum(terms, axis=0)
    out = ((1.0 - u_arr * u_arr) ** (d - 1.5) * geg_norm_c(float(lam)) / math.factorial(lam)
           * partials.mean(axis=0))
    return out if np.ndim(u) else float(out)


def mean_recursion_sides(d: int, n: int, u):
    """Both sides of the mean recursion.

    lhs = (d-1)! sum_{j=0}^{d-1} (-1)^j C(d-1, j) mean(d, n+2j, u)
    rhs = c_{d-1} (1-u^2)^(d-3/2) C_n^{d-1}(u) / C_n^{d-1}(1)

    The means use the closed form for d = 2 and otherwise the Cesaro series
    of DEFAULT_SERIES_TERMS terms.
    ``u`` may be scalar or ndarray; each side has the shape of ``u``.
    """
    _check_dn(d, n)
    lam = d - 1
    u_arr = np.asarray(u, dtype=float)
    lhs = 0.0
    for j in range(d):
        if d == 2:
            mj = np.array([mean_d2_closed(n + 2 * j, math.acos(x))
                           for x in u_arr.ravel().tolist()]).reshape(u_arr.shape)
        else:
            mj = mean_series(d, n + 2 * j, u_arr)
        lhs = lhs + (-1) ** j * math.comb(d - 1, j) * mj
    lhs = lhs * math.factorial(d - 1)
    cn = gegenbauer_sequence(float(lam), n, u_arr)[n]
    cn1 = gegenbauer_at_one(float(lam), n)[n]
    rhs = geg_norm_c(float(lam)) * (1.0 - u_arr * u_arr) ** (d - 1.5) * cn / cn1
    if np.ndim(u):
        return lhs, rhs
    return float(lhs), float(rhs)


@dataclass(frozen=True)
class McEstimate:
    """Monte-Carlo estimate with its standard error."""

    value: float
    stderr: float
    pairs: int


def mean_torus_mc(d: int, n: int, u: float, budget: int | None = None,
                  seed: int = DEFAULT_SEED) -> McEstimate:
    """Seeded Monte-Carlo estimate of mean(d, n, u) by torus averaging.

    Draws uniform points on the torus in antithetic pairs (theta, pi - theta);
    the mirror member is folded in analytically through the symmetries
    field(u | -knots reversed) = field(-u | knots) and the factor (-1)^n on
    the shell sum.  Samples whose sorted cosine knots have an adjacent gap
    below 1e-12 are rejected and redrawn (the integrand is integrable but
    unbounded there); a chunk still holding such a sample after ``MAX_DRAWS``
    rounds of redraws raises ValueError.  ``budget`` counts integrand
    evaluations, at least 4; the default is 2e6 for d = 2 and 1e7 for d = 3.
    """
    if d not in (2, 3):
        raise ValueError("Monte-Carlo route supports d in {2, 3}")
    if n < 0:
        raise ValueError("index n must be >= 0")
    u = float(u)
    if not (-1.0 < u < 1.0):
        raise ValueError("Monte-Carlo route requires |u| < 1")
    if budget is None:
        budget = _MC_DEFAULT_BUDGET[d]
    if budget < 4:  # fewer than two antithetic pairs give no spread
        raise ValueError(f"budget must be >= 4, got {budget}")
    total_pairs = budget // 2
    rng = np.random.default_rng(seed)
    count = shell_count(d, n)
    sgn = -1.0 if n % 2 else 1.0
    chunks = []
    remaining = total_pairs
    while remaining > 0:
        b = min(_MC_BATCH_PAIRS, remaining)
        theta = rng.uniform(-math.pi, math.pi, size=(b, d))
        knots = np.sort(np.cos(theta), axis=1)
        bad = np.min(np.diff(knots, axis=1), axis=1) < _MC_GAP
        for _ in range(MAX_DRAWS):
            if not np.any(bad):
                break
            redraw = rng.uniform(-math.pi, math.pi, size=(int(bad.sum()), d))
            theta[bad] = redraw
            knots[bad] = np.sort(np.cos(redraw), axis=1)
            bad = np.min(np.diff(knots, axis=1), axis=1) < _MC_GAP
        if np.any(bad):
            raise ValueError(f"knots still closer than {_MC_GAP:g} after {MAX_DRAWS} redraws")
        ssum = shell_sum_batch(d, n, theta)
        f_plus = knot_field_batch(d, u, knots)
        f_minus = knot_field_batch(d, -u, knots)
        chunks.append(0.5 * (f_plus + sgn * f_minus) * ssum / count)
        remaining -= b
    vals = np.concatenate(chunks)
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return McEstimate(value, stderr, int(vals.size))


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
    rule = gauss_gegenbauer(max_index + 8, float(lam))
    x, w = rule.nodes, rule.weights
    degmax = max_index + 6
    seq = gegenbauer_sequence(float(lam), degmax, x)
    ones = gegenbauer_at_one(float(lam), degmax)
    a = _series_coefficients(d, degmax)
    const = geg_norm_c(float(lam)) / math.factorial(lam)
    rows = np.empty((max_index + 1, x.size))
    for n in range(max_index + 1):
        kmax = (max_index - n) // 2 + 2
        degs = n + 2 * np.arange(kmax + 1)
        degs = degs[degs <= degmax]
        rows[n] = const * np.tensordot(a[: degs.size] / ones[degs], seq[degs], axes=(0, 0))
    hmat = np.stack([np.asarray(biortho_poly(d, m, x)) for m in range(max_index + 1)])
    return rows @ (w * hmat).T


@dataclass(frozen=True)
class MeanEvaluator:
    """Dispatch for evaluating mean(d, n, u) by a named method.

    ``method`` is one of "closed" (d = 2 or n = 0), "series" (Cesaro
    Gegenbauer series), or "mc" (seeded Monte-Carlo; returns a standard
    error).
    """

    d: int
    n: int
    method: str
    nterms: int = DEFAULT_SERIES_TERMS
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

    def evaluate(self, u: float) -> tuple[float, float | None]:
        """Return (value, stderr); stderr is None for deterministic routes."""
        u = float(finite(u, "u"))
        if self.method == "closed":
            if self.d == 2:
                if abs(u) >= 1.0:
                    return 0.0, None
                return mean_d2_closed(self.n, math.acos(u)), None
            return mean_order0_closed(self.d, u), None
        if self.method == "series":
            return mean_series(self.d, self.n, u, nterms=self.nterms), None
        est = mean_torus_mc(self.d, self.n, u, budget=self.budget, seed=self.seed)
        return est.value, est.stderr
