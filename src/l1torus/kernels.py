"""Kernels built from l1 lattice shells and their univariate seed functions.

For theta on the d-torus put u_i = cos(theta_i).  The Dirichlet kernel
(sum of exp(i a.theta) over the l1 ball of radius n) equals the divided
difference, over the knots u_1, ..., u_d, of a single univariate function:
the *Dirichlet seed*.  Likewise the shell sum (over |a|_1 = n exactly, for
n >= 1) is the divided difference of the *shell seed*, the difference of two
consecutive Dirichlet seeds.  Both seeds are exposed in a trigonometric form
and as exact polynomials in u (Chebyshev basis), whose divided differences
:mod:`l1torus.divdiff` takes at any knots, repeated ones included.

With s = (-1)^floor((d-1)/2):

    dirichlet seed (d even):  s (1-u^2)^((d-2)/2) (T_{n+1}(u) + T_n(u))
    dirichlet seed (d odd):   s (1-u^2)^((d-1)/2) (U_n(u) + U_{n-1}(u))
    shell seed   (d even):  -2s (1-u^2)^(d/2) U_{n-1}(u)
    shell seed   (d odd):    2s (1-u^2)^((d-1)/2) T_n(u)

The (d-1)-st derivative of the shell seed is the degree-n polynomial family
biorthogonal to the B-spline Fourier means; it has two equivalent explicit
Gegenbauer expansions implemented side by side.

No lattice is enumerated: by the Poisson identity the shell sum E_n is the r^n
coefficient of prod_i (1 + 2 sum_k r^k cos(k theta_i)), which the batched kernels
take as a truncated product in O(d n^2) per point; scalar forms wrap one row.  Likewise
biortho_poly takes a set of orders and the Poisson forms a batch of points.
"""
from __future__ import annotations

import math
from functools import lru_cache, wraps

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .numerics import (_CACHE_ENTRIES, _check_dn, _check_r, _check_values, _float_factorial,
                       _orders, _shaped, check_cost, finite, theta_vector)
from .polys import _gegenbauer_rows, gegenbauer_at_one

# Entries of the factor tables one recurrence builds per row block (128 KiB, in cache)
_BLOCK_ENTRIES = 1 << 14
_MAX_COST = 1 << 31  # multiply-adds one shell or Dirichlet batch may cost (_check_product)
_MAX_CHEBYSHEV = 1 << 20  # coefficients of one seed polynomial (n + d) or Poisson series
_CACHED_SEED = 1 << 14  # coefficients (n + d, 128 KiB) up to which a seed polynomial is cached
_BIORTHO_BLOCK = 256  # rows of the Gegenbauer stream biortho_poly combines at once


def _sign(d: int) -> float:
    return -1.0 if ((d - 1) // 2) % 2 else 1.0


def _cheb_t(n: int) -> Chebyshev:
    coef = np.zeros(n + 1)  # Chebyshev.basis lists n zeros in Python first
    coef[n] = 1.0
    return Chebyshev(coef)


def _cheb_u(n: int) -> Chebyshev:
    if n < 0:
        return Chebyshev([0.0])
    return _cheb_t(n + 1).deriv() / (n + 1)


_ONE_MINUS_SQ = Chebyshev([0.5, 0.0, -0.5])  # 1 - u^2


def _check_seed(name: str, d: int, n: int, power: int):
    """The checks of a seed polynomial, before it is built: its n + d coefficients against
    _MAX_CHEBYSHEV, and its power of 1 - u^2 against the largest a Chebyshev series takes."""
    _check_dn(d, n)
    what = f"{name} seed at d = {d}, n = {n}"
    check_cost(what, n + d, "coefficients", _MAX_CHEBYSHEV)
    check_cost(what, power, "as the power of 1 - u^2", Chebyshev.maxpower)


def _cached_seed(build):
    """``build(d, n)`` behind an lru_cache of _CACHE_ENTRIES entries that keeps only seeds
    of at most _CACHED_SEED coefficients, n + d: a larger seed is built again on each call,
    so the cache holds at most _CACHE_ENTRIES * _CACHED_SEED coefficients."""
    cached = lru_cache(maxsize=_CACHE_ENTRIES)(build)

    @wraps(build)
    def seed(d: int, n: int) -> Chebyshev:
        return (cached if n + d <= _CACHED_SEED else build)(d, n)

    seed.cache_info = cached.cache_info
    return seed


@_cached_seed
def dirichlet_seed(d: int, n: int) -> Chebyshev:
    """The Dirichlet seed as an exact polynomial in u (Chebyshev basis)."""
    _check_seed("Dirichlet", d, n, (d - 1) // 2)
    s = _sign(d)
    if d % 2 == 0:
        return s * _ONE_MINUS_SQ ** ((d - 2) // 2) * (_cheb_t(n + 1) + _cheb_t(n))
    return s * _ONE_MINUS_SQ ** ((d - 1) // 2) * (_cheb_u(n) + _cheb_u(n - 1))


dirichlet_seed_poly = dirichlet_seed


@_cached_seed
def shell_seed(d: int, n: int) -> Chebyshev:
    """The shell seed as an exact polynomial in u (Chebyshev basis).

    Equals dirichlet_seed(d, n) - dirichlet_seed(d, n - 1) for n >= 1.  The
    n = 0 polynomial is defined by the same formula but is not the seed of the
    0-th shell sum (whose seed is the Dirichlet seed at 0).
    """
    _check_seed("shell", d, n, d // 2)
    s = _sign(d)
    if d % 2 == 0:
        return -2.0 * s * _ONE_MINUS_SQ ** (d // 2) * _cheb_u(n - 1)
    return 2.0 * s * _ONE_MINUS_SQ ** ((d - 1) // 2) * _cheb_t(n)


def dirichlet_seed_theta(d: int, n: int, theta: float) -> float:
    """Dirichlet seed in trigonometric form at u = cos(theta), theta in [0, pi].

    s * 2 cos(theta/2) sin(theta)^(d-2) * cos((n + 1/2) theta)   (d even)
    s * 2 cos(theta/2) sin(theta)^(d-2) * sin((n + 1/2) theta)   (d odd)
    """
    _check_dn(d, n)
    theta = float(finite(theta, "theta"))
    s = _sign(d)
    osc = math.cos((n + 0.5) * theta) if d % 2 == 0 else math.sin((n + 0.5) * theta)
    return s * 2.0 * math.cos(0.5 * theta) * math.sin(theta) ** (d - 2) * osc


def shell_seed_theta(d: int, n: int, theta: float) -> float:
    """Shell seed in trigonometric form at u = cos(theta), theta in [0, pi].

    -2 s sin(theta)^(d-1) sin(n theta)   (d even)
     2 s sin(theta)^(d-1) cos(n theta)   (d odd)
    """
    _check_dn(d, n)
    theta = float(finite(theta, "theta"))
    s = _sign(d)
    osc = -math.sin(n * theta) if d % 2 == 0 else math.cos(n * theta)
    return 2.0 * s * math.sin(theta) ** (d - 1) * osc


def biortho_poly(d: int, n, u, form: str = "c"):
    """Degree-n polynomial biorthogonal to the B-spline Fourier means.

    Two equivalent explicit forms:

        form="c":  (d-1)! sum_{j=0}^{d}   (-1)^j C(d, j)   C_{n-2j}^{d}(u)
        form="z":  (d-1)! sum_{j=0}^{d-1} (-1)^j C(d-1, j) Z_{n-2j}^{d-1}(u)

    The "c" form is the definition; the "z" form must agree to 1e-11.
    The value equals the (d-1)-st derivative of the shell seed, and at u = 1
    it is (d-1)! times the shell count.  ``u`` may be a scalar or ndarray, and ``n`` one
    order or a sequence of orders, one row each, as for the mean routes
    (``numerics._orders``).  One Gegenbauer stream to the largest order serves every row:
    it fills blocks of _BIORTHO_BLOCK rows, each combined at once and carried over by
    its last 2 d rows, so a call holds at most 2 d + _BIORTHO_BLOCK rows of it whatever
    n is.  Row n sums its terms j = 0, 1, ... in the order the definition lists them, so
    it is its lone call bit for bit.  ValueError before the stream steps when its rows,
    or the rows returned, at every point exceed the bound of
    :func:`numerics._check_values`; when (d-1)! is beyond the float range; and naming the
    first listed order that overflows.
    """
    one, orders, top = _orders(d, n, "biorthogonal polynomials")
    u_arr = finite(u, "u")
    if form not in ("c", "z"):
        raise ValueError("form must be 'c' or 'z'")
    _check_values(f"biorthogonal polynomials to degree {top} for {len(orders)} order(s) at "
                  f"{u_arr.size} point(s)", max(top + 1, len(orders)), u_arr.size)
    scale = _float_factorial(d - 1)
    base = d if form == "c" else d - 1
    lam = float(base)
    span = 2 * base  # the terms row n reaches back to, n - 2 base ... n
    where = np.argsort(orders, kind="stable")  # the output rows in the order of their orders
    listed = np.asarray(orders, dtype=np.int64)[where]
    rows = np.empty((len(orders),) + u_arr.shape)
    buf = np.empty((min(span + _BIORTHO_BLOCK, top + 1),) + u_arr.shape)
    held = 0  # rows of buf carried over: the terms lo - held ... lo - 1
    stream = _gegenbauer_rows(lam, u_arr)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, top + 1 if orders else 0, _BIORTHO_BLOCK):
            hi = min(lo + _BIORTHO_BLOCK, top + 1)
            for m, row in zip(range(lo, hi), stream):
                buf[held + m - lo] = row if form == "c" else (m + lam) / lam * row
            first = lo - held  # the degree of buf[0]
            block = np.zeros((hi - lo,) + u_arr.shape)
            for j in range(min(base, (hi - 1) // 2) + 1):  # row n takes the terms j <= n / 2
                start = max(lo, 2 * j + first)
                block[start - lo:] += ((-1) ** j * math.comb(base, j)
                                       * buf[start - 2 * j - first:hi - 2 * j - first])
            block *= scale
            first_row, end_row = np.searchsorted(listed, (lo, hi))
            rows[where[first_row:end_row]] = block[listed[first_row:end_row] - lo]
            keep = min(span, hi)
            buf[:keep] = buf[held + hi - lo - keep:held + hi - lo]
            held = keep
    bad = ~np.isfinite(rows.reshape(len(orders), u_arr.size))
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        at = float(u_arr.reshape(-1)[np.argmax(bad[i])])
        raise ValueError(f"biortho_poly at d = {d}, n = {orders[i]} overflows at u = {at:g}, "
                         f"over the limit of {np.finfo(float).max:.3g}")
    return _shaped(one, u, rows)


def shell_sum(d: int, n: int, theta) -> float:
    """Sum of exp(i a.theta) over the l1 shell |a|_1 = n, at one point."""
    return float(shell_sum_batch(d, n, theta_vector(theta, d)[None, :])[0])


def _check_product(what: str, rows: int, d: int, n: int, limit: int = _MAX_COST):
    """ValueError before any allocation when the shell product of ``rows`` points costs more
    than ``limit`` multiply-adds, max(rows, 1) * d * (n+1)^2 + d * _BLOCK_ENTRIES: an empty
    batch still steps to n, and each of the call's d Python-level factor steps is charged a
    full block, the least one costs."""
    check_cost(what, max(rows, 1) * d * (n + 1) ** 2 + d * _BLOCK_ENTRIES, "multiply-adds",
               limit)


def _check_batch(d: int, n: int, thetas) -> np.ndarray:
    """The shared input check of the shell and Dirichlet batches, run before any allocation."""
    _check_dn(d, n, dmin=1)
    t = np.asarray(thetas, dtype=float)
    if t.ndim != 2 or t.shape[1] != d:
        raise ValueError("thetas must have shape (batch, d)")
    _check_product(f"shell sums at d = {d}, n = {n} for {t.shape[0]} point(s)", t.shape[0], d, n)
    return finite(t, "theta")


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two (n+1, rows) power-series coefficient tables, truncated at r^n."""
    out = a[0] * b
    for k in range(1, len(a)):
        out[k:] += a[k] * b[:len(a) - k]
    return out


def _factor(x2: np.ndarray, n: int) -> np.ndarray:
    """The (n+1,) + x2.shape table 1, 2 cos(theta), ..., 2 cos(n theta) of each angle,
    by the Chebyshev recurrence from x2 = 2 cos(theta)."""
    c = np.empty((n + 1,) + x2.shape)
    c[0] = 2.0  # 2 cos(0 theta) for the recurrence; the zero frequency counts once
    c[1:2] = x2  # nothing when n = 0
    for k in range(2, n + 1):
        np.multiply(x2, c[k - 1], out=c[k])
        c[k] -= c[k - 2]
    c[0] = 1.0
    return c


def _shell_core(d: int, n: int, knots: np.ndarray, finish) -> np.ndarray:
    """``finish(head, last)`` per block of rows of ``knots``, shape (rows, d), the cosines
    cos(theta_i) of each point in ascending order: ``head`` is the truncated product of
    the first d - 1 factor tables (:func:`_factor`), ``last`` the last factor, both of
    shape (n+1, rows).  Each block's finish is written into its rows of one output, which
    takes the first block's shape and memory layout (as np.concatenate would), and is then
    dropped: a table of :func:`_table_finish` is held once, column-major, each order's sums
    contiguous.  A block holds _BLOCK_ENTRIES / (n+1) rows whatever d is, and one
    recurrence builds the tables of as many factors as fit in _BLOCK_ENTRIES: one at a
    time for a full block, all d for one row.  Its callers bound the cost by
    :func:`_check_product`: the batches per call, the Monte-Carlo mean for its whole call."""
    step = max(1, _BLOCK_ENTRIES // (n + 1))
    # Alternate the largest and smallest cosines: a pole near r = 1 (theta near 0)
    # meets a zero at r = 1 at once, so partial products never grow and cancel.
    ends = [d - 1 - i // 2 if i % 2 == 0 else i // 2 for i in range(d)]
    out = None
    for i in range(0, max(knots.shape[0], 1), step):  # an empty batch takes one empty block
        block = knots[i:i + step].T
        group = max(1, step // max(block.shape[1], 1))
        tables = (c for j in range(0, d, group)
                  for c in _factor(2.0 * block[ends[j:j + group]], n).swapaxes(0, 1))
        head = next(tables) if d > 1 else np.eye(n + 1, 1)
        for _ in range(d - 2):
            head = _times(head, next(tables))
        part = finish(head, next(tables))
        if out is None:
            out = np.empty_like(part, shape=knots.shape[:1] + part.shape[1:])
        out[i:i + step] = part
    return out


def _shell_product(d: int, n: int, thetas, finish) -> np.ndarray:
    """:func:`_shell_core` on the checked angles' sorted cosines."""
    t = _check_batch(d, n, thetas)
    return _shell_core(d, n, np.sort(np.cos(t), axis=1), finish)


def _shell_finish(head: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The per-block finish of :func:`shell_sum_batch` and the Monte-Carlo mean: einsum adds
    each column's terms in order, a block of one row too, where sum(axis=0) adds pairwise."""
    return np.einsum("ij,ij->j", head, last[::-1])


def _dirichlet_finish(head: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The per-block finish of :func:`dirichlet_kernel_batch`, in order as the shell's."""
    return np.einsum("ij,ij->j", head, np.cumsum(last, axis=0)[::-1])


def _table_finish(head: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The per-block finish of :func:`_shell_table`."""
    return _times(head, last).T


def shell_sum_batch(d: int, n: int, thetas: np.ndarray) -> np.ndarray:
    """Shell sums for a batch of points, shape (batch, d) -> (batch,).

    The product of the first d - 1 factors dotted with the last one reversed.
    """
    return _shell_product(d, n, thetas, _shell_finish)


def _shell_table(d: int, n: int, thetas) -> np.ndarray:
    """Shell sums E_0, ..., E_n for a batch of points, shape (batch, d) -> (batch, n+1)."""
    return _shell_product(d, n, thetas, _table_finish)


def dirichlet_kernel(d: int, n: int, theta) -> float:
    """Sum of exp(i a.theta) over the l1 ball |a|_1 <= n, at one point."""
    return float(dirichlet_kernel_batch(d, n, theta_vector(theta, d)[None, :])[0])


def dirichlet_kernel_batch(d: int, n: int, thetas: np.ndarray) -> np.ndarray:
    """Dirichlet kernels for a batch of points, shape (batch, d) -> (batch,).

    The product of the first d - 1 factors dotted with the running sum of the
    last one, reversed.
    """
    return _shell_product(d, n, thetas, _dirichlet_finish)


def _poisson(d: int, r: float, theta, base: float, power: int):
    """base^power / prod_i (1 - 2 r cos(theta_i) + r^2) at one point, shape (d,), giving a
    float, or at each row of a (rows, d) batch, giving one value per row, each its lone
    call's bit for bit; ValueError unless d >= 1, 0 <= r < 1 and theta has one of these shapes."""
    _check_dn(d, 0, dmin=1)
    _check_r(r)
    t = np.asarray(theta, dtype=float)
    if t.ndim not in (1, 2) or t.shape[-1] != d:
        raise ValueError(f"theta must have shape (d,) or (rows, d), got shape {t.shape}")
    vals = base ** power / np.prod(1.0 - 2.0 * r * np.cos(finite(t, "theta")) + r * r, axis=-1)
    return vals if t.ndim == 2 else float(vals)


def poisson_product(d: int, r: float, theta):
    """Product-form Poisson kernel (1 - r^2)^d / prod_i (1 - 2 r cos(theta_i) + r^2), at one
    point or a batch of points as for :func:`_poisson`.

    Equals sum_n r^n * shell_sum(d, n, theta) for 0 <= r < 1.
    """
    return _poisson(d, r, theta, 1.0 - r * r, d)


def poisson_kernel(r: float) -> Chebyshev:
    """u -> 1 / (1 - 2 r u + r^2) as its Chebyshev series (1 + 2 sum_k r^k T_k(u)) / (1 - r^2).

    The series stops at the first K with r^K <= 2^-106 (K = 32, 62 and 206 at
    r = 0.1, 0.3 and 0.7), so its divided differences are a route to
    :func:`poisson_divdiff` independent of the closed form.  For r <= 0.7, d <= 6 and
    knots anywhere in [-1, 1] they hold to 1e-10 relative; the error grows as r -> 1 at
    knots near +-1 (1.5e-4 at d = 6, r = 0.9).  ValueError past _MAX_CHEBYSHEV terms.
    """
    _check_r(r)
    top = math.ceil(-106 / math.log2(r)) if r > 0 else 0
    check_cost(f"Poisson series at r = {r!r}", top + 1, "coefficients", _MAX_CHEBYSHEV)
    coef = 2.0 * r ** np.arange(top + 1)
    coef[0] = 1.0
    return Chebyshev(coef / (1.0 - r * r))


def poisson_divdiff(d: int, r: float, theta):
    """Closed form of the divided difference of the Poisson kernel.

    [cos(theta_1), ..., cos(theta_d)] applied to u -> 1/(1 - 2ru + r^2)
    equals (2r)^(d-1) / prod_i (1 - 2 r cos(theta_i) + r^2); this function
    returns that product form, at one point or a batch of points as for :func:`_poisson`
    (the divided-difference route is exercised by the verification suites).
    """
    return _poisson(d, r, theta, 2.0 * r, d - 1)


def biortho_generating_pair(d: int, r: float, u, nterms: int):
    """Partial sum and closed form of sum_n biortho_poly(d, n, u) r^n, u scalar or ndarray.

    Returns (sum over n <= nterms, (d-1)! (1-r^2)^d (1 - 2ru + r^2)^(-d)), each of
    the shape of u.  The partial sum weights the rows of one :func:`biortho_poly` call over
    the orders 0 ... nterms, with its checks.
    """
    _check_r(r)
    _check_dn(d, nterms)
    table = biortho_poly(d, range(nterms + 1), u)
    partial = r ** np.arange(nterms + 1) @ table
    closed = _float_factorial(d - 1) * (1 - r * r) ** d / (1 - 2 * r * u + r * r) ** d
    return _shaped(True, u, [partial]), _shaped(True, u, [closed])


def biortho_generating_tail(d: int, r: float, nterms: int) -> float:
    """Bound for the omitted tail of the biorthogonal generating series, |u| <= 1.

    A majorant is summed over the 400 terms after ``nterms``, and the rest is
    bounded by a geometric series.  :func:`gegenbauer_at_one` bounds its values.
    inf, without a warning, where the geometric ratio is not below 1 or the majorant
    leaves the float range.
    """
    _check_dn(d, 0)
    _check_r(r)
    top = nterms + 400
    fact = _float_factorial(d - 1)
    c1 = gegenbauer_at_one(float(d), top)
    # |biortho_poly(d, n, u)| <= (d-1)! sum_j C(d,j) C_{n-2j}^d(1) =: majorant(n); past the
    # float range it is inf, and inf times an underflowed r^n is nan
    with np.errstate(over="ignore", invalid="ignore"):
        maj = np.zeros(top + 1)
        for j in range(min(d, top // 2) + 1):
            maj[2 * j:] += math.comb(d, j) * c1[:top + 1 - 2 * j]
        maj *= fact
        tail = float(np.dot(maj[nterms + 1:], r ** np.arange(nterms + 1, top + 1)))
        ratio = r * ((top + 2.0 * d) / (top + 1.0)) ** (2 * d)
        rest = maj[top] * r**top * ratio / (1 - ratio) if ratio < 1 else math.inf
    bound = tail + rest
    return math.inf if math.isnan(bound) else bound
