"""Shared numerical infrastructure.

Quadrature rules (Gauss-Legendre, Gauss-Gegenbauer by the Golub-Welsch
eigenvalue method, tensor trapezoid on the torus), enumeration and counting of
l1 lattice shells, the mixed error measure, the one cost check used throughout the package,
and every shared input rule: (d, n), r, the Gegenbauer parameter, finiteness, torus points,
one order or a sequence of orders (``_orders``, ``_shaped``), and the bounds on the orders
and on the values one call holds.  It needs numpy alone.
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

DEFAULT_SEED = 1234567
_MAX_GRID_FLOATS = 1 << 23  # floats, nodes x d, that one torus_trapezoid grid may hold
_MAX_COUNT_BITS = 1 << 23  # terms x bits of the big-integer binomials one l1 count may sum
_MAX_COUNT_TABLE = 1 << 25  # rows x bits of the l1 counts 0..nmax one recurrence may step
_MAX_FACTORIAL = 170  # the largest k whose k! is a finite float
_MAX_RULE_NODES = 1 << 10  # nodes of one Gauss rule, a dense npts x npts eigenproblem
_MAX_ORDERS = 1 << 20  # orders (the mean recursion: means) one call may list, 36 MB of ints
_MAX_VALUES = 1 << 22  # values, rows * max(points, 1), one call returns or one stream steps
# entries each cached table keeps (rules, shells, seed polynomials): one verify run uses <= 33
_CACHE_ENTRIES = 64
_BLOCK_ENTRIES = 1 << 14  # values (128 KiB) one working block or one cache entry may hold


def check_cost(what: str, cost, unit: str, limit: int):
    """ValueError "{what}: {cost} {unit}, over the limit of {limit}" when cost > limit.

    An int cost of any size compares exactly and, past the float range, prints
    as 2^k; a float cost is an estimate and prints as it is, inf included.  Both
    print with three digits, or in full when those would read the same."""
    if cost > limit:
        big = sys.float_info.max < cost < math.inf
        size, top = f"2^{math.log2(cost):.4g}" if big else f"{cost:.3g}", f"{limit:.3g}"
        if size == top:  # just past the limit
            size, top = str(cost), str(limit)
        raise ValueError(f"{what}: {size} {unit}, over the limit of {top}")


def _check_dn(d: int, n: int, dmin: int = 2):
    """ValueError unless d >= dmin, n >= 0 and both lie in the float range, as routes need."""
    if d < dmin:
        raise ValueError(f"dimension must be >= {dmin}")
    if n < 0:
        raise ValueError("index n must be >= 0")
    if max(d, n) > sys.float_info.max:
        raise ValueError(f"index {max(d, n)} is over the limit of {sys.float_info.max:.3g}, "
                         f"the largest float")


def _check_r(r: float):
    """ValueError unless 0 <= r < 1, the radius of every Poisson and generating series."""
    if not (0 <= r < 1):
        raise ValueError("r must lie in [0, 1)")


def _check_lam(lam: float):
    """ValueError unless lam > -1/2, the parameter of every Gegenbauer weight and polynomial."""
    if lam <= -0.5:
        raise ValueError("Gegenbauer parameter must exceed -1/2")


def _check_orders(what: str, count: int, unit: str = "orders"):
    """The one bound on what one call may list: ``count`` orders (or means), _MAX_ORDERS."""
    check_cost(what, count, unit, _MAX_ORDERS)


def _check_values(what: str, rows: int, points: int):
    """The one bound on what one call holds: ``rows`` rows at ``points`` points, rows *
    max(points, 1) values, _MAX_VALUES.  A row counts once with no point: a recurrence
    still steps through it, and a closed form still lists it."""
    check_cost(what, rows * max(points, 1), "values", _MAX_VALUES)


def _count(orders) -> int:
    """len(orders) as a Python int, a range's from its bounds: len() stops at sys.maxsize."""
    if isinstance(orders, range):
        return max(0, -((orders.start - orders.stop) // orders.step))
    return len(orders)


def _orders(d: int, n, what: str) -> tuple[bool, list[int], int]:
    """Whether ``n`` is one order, its orders listed and checked against d, and the largest:
    a sequence of more than _MAX_ORDERS is refused before it is listed or len() counts it."""
    one = not hasattr(n, "__len__") or getattr(n, "ndim", 1) == 0
    if not one:
        _check_orders(what, _count(n))
    try:  # an int or a numpy integer: int() would make order 2 of 2.5
        orders = [operator.index(x) for x in ([n] if one else n)]
    except TypeError as exc:
        raise ValueError(f"orders must be integers: {exc}") from None
    for order in orders or [0]:  # no order still checks d
        _check_dn(d, order)
    return one, orders, max(orders, default=0)


def _shaped(one: bool, u, rows):
    """A route's rows, one per order, as it returns them: shape (len(rows),) + shape(u) for a
    sequence of orders; for one order its row, shaped as u, a float for a scalar u."""
    rows = np.reshape(rows, (len(rows),) + np.shape(u))
    return rows if not one else rows[0] if np.ndim(u) else float(rows[0])


def rel_err(value: float, reference: float) -> float:
    """Mixed absolute/relative error: absolute when |reference| <= 1.

    Computed as |value - reference| / max(1, |reference|), so tolerances keep
    their absolute meaning near zero and scale relative to large references.
    """
    return abs(value - reference) / max(1.0, abs(reference))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadRule:
    """A quadrature rule: sum(weights * f(nodes)) approximates an integral.

    ``nodes`` has shape (npts,) for rules on an interval and (npts, d) for
    tensor rules on the d-torus.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", _readonly(np.asarray(self.weights, dtype=float)))
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights must have matching length")
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")


def _block_cached(size):
    """A decorator: ``build(d, n)`` behind an lru_cache of _CACHE_ENTRIES entries that keeps
    only entries of at most _BLOCK_ENTRIES values, ``size(d, n)``; a larger one is built
    again on each call, so the cache holds at most _CACHE_ENTRIES blocks (8 MiB)."""
    def wrap(build):
        cached = lru_cache(maxsize=_CACHE_ENTRIES)(build)
        entry = wraps(build)(lambda d, n: (cached if size(d, n) <= _BLOCK_ENTRIES else build)(d, n))
        entry.cache_info, entry.cache_clear = cached.cache_info, cached.cache_clear
        return entry
    return wrap


@lru_cache(maxsize=_CACHE_ENTRIES)
def gauss_legendre(npts: int) -> QuadRule:
    """Gauss-Legendre rule with ``npts`` nodes on [-1, 1], npts <= ``_MAX_RULE_NODES``.

    Exact for polynomials of degree 2*npts - 1; nodes lie strictly inside the interval.
    Rules are cached: each order is built once, its read-only arrays shared by every
    caller, and its 2 npts values always fit in one block, _BLOCK_ENTRIES.
    """
    if npts < 1:
        raise ValueError("npts must be >= 1")
    check_cost("a Gauss-Legendre rule", npts, "nodes", _MAX_RULE_NODES)
    nodes, weights = leggauss(npts)
    return QuadRule(nodes, weights)


def gauss_gegenbauer(npts: int, lam: float) -> QuadRule:
    """Gauss rule for the weight (1 - x^2)^(lam - 1/2) on [-1, 1].

    sum(w_i * f(x_i)) approximates the weighted integral of f; exact when f
    is a polynomial of degree <= 2*npts - 1.  Requires lam > -1/2 and
    npts <= ``_MAX_RULE_NODES``.

    Built by the Golub-Welsch method (Math. Comp. 23, 1969): the nodes are the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the monic
    Gegenbauer recurrence, zero diagonal and off-diagonal
    b_k = sqrt(k (k + 2 lam - 1) / (4 (k + lam) (k + lam - 1))), k = 1 .. npts - 1,
    and weight i is mu_0 v_0i^2, v_0i the first component of eigenvector i and
    mu_0 = sqrt(pi) Gamma(lam + 1/2) / Gamma(lam + 1) the total weight.  The
    rule is made symmetric about 0, as the weight is.
    """
    if npts < 1:
        raise ValueError("npts must be >= 1")
    _check_lam(lam)
    check_cost("a Gauss-Gegenbauer rule", npts, "nodes", _MAX_RULE_NODES)
    off = np.empty(npts - 1)
    off[:1] = math.sqrt(0.5 / (1.0 + lam))  # b_1: the general form is 0/0 at lam = 0
    k = np.arange(2.0, npts)
    off[1:] = np.sqrt(k * (k + 2.0 * lam - 1.0) / (4.0 * (k + lam) * (k + lam - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(off, -1))  # eigh reads the lower triangle only
    mu0 = math.sqrt(math.pi) * math.exp(math.lgamma(lam + 0.5) - math.lgamma(lam + 1.0))
    weights = mu0 * vecs[0] ** 2
    # x_i = -x_(n-1-i) and w_i = w_(n-1-i) exactly
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return QuadRule(nodes, weights)


def check_grid(d: int, npts_per_axis: int):
    """ValueError unless d >= 1, npts_per_axis >= 1 and the torus grid's npts^d nodes x d
    floats are within ``_MAX_GRID_FLOATS``; nothing is allocated."""
    _check_dn(d, 0, dmin=1)
    if npts_per_axis < 1:
        raise ValueError("npts_per_axis must be >= 1")
    # in log2 first: the exact power is formed below 2^65536 floats only, inf past it
    exact = d < 1 << 64 and d * math.log2(npts_per_axis) + math.log2(d) < 1 << 16
    check_cost(f"a torus grid of {npts_per_axis}^{d} nodes",
               npts_per_axis**d * d if exact else math.inf, "floats", _MAX_GRID_FLOATS)


def torus_trapezoid(d: int, npts_per_axis: int) -> QuadRule:
    """Uniform tensor grid on [-pi, pi)^d with equal weights 1/npts^d.

    Normalized so that the rule computes (2*pi)^-d times the integral
    over the torus; exponentials exp(i a.theta) with max|a_j| < npts_per_axis
    integrate exactly (to 1 for a = 0, otherwise 0).  Refused first by
    :func:`check_grid`.
    """
    check_grid(d, npts_per_axis)
    axis = -np.pi + 2.0 * np.pi * np.arange(npts_per_axis) / npts_per_axis
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.full(npts_per_axis**d, float(npts_per_axis) ** (-d))
    return QuadRule(nodes, weights)


def _float_factorial(k: int) -> float:
    """k! as a float; ValueError when it is beyond the float range (k > 170)."""
    if k > _MAX_FACTORIAL:
        raise ValueError(f"{k}! is over the limit of {np.finfo(float).max:.3g}, "
                         f"the largest float")
    return float(math.factorial(k))


@_block_cached(lambda d, n: shell_count(d, n) * d)
def shell_enumerate(d: int, n: int) -> np.ndarray:
    """The l1 shell {alpha in Z^d : |alpha|_1 = n} as a read-only (count, d) int64 array.

    The last shell of :func:`ball_enumerate`, bounded as that is, and checked against
    the generating-function count; cached when its count x d ints fit in one block.
    """
    ball = ball_enumerate(d, n)
    pts = ball[np.abs(ball).sum(axis=1) == n]
    if pts.shape[0] != shell_count(d, n):
        raise AssertionError("shell enumeration disagrees with shell count")
    return _readonly(pts)


def shell_count(d: int, n: int) -> int:
    """Number of alpha in Z^d with |alpha|_1 = n, as an exact integer.

    This is the coefficient of r^n in ((1+r)/(1-r))^d, i.e.
    sum_j C(d, j) * C(n - j + d - 1, d - 1) over 0 <= j <= min(d, n).
    """
    return _binomial_sum(d, n, lambda j: math.comb(d, j) * math.comb(n - j + d - 1, d - 1))


def shell_counts(d: int, nmax: int) -> list[int]:
    """shell_count(d, n) for n = 0, ..., nmax, exact, by the recurrence of the generating
    function F = ((1+r)/(1-r))^d: (1 - r^2) F' = 2 d F gives

        (n + 1) a_{n+1} = 2 d a_n + (n - 1) a_{n-1},  a_0 = 1, a_1 = 2 d.

    Each step costs O(bits) on small multipliers: refused first when its rows times the
    estimated bits of the last, the largest, exceed _MAX_COUNT_TABLE.
    """
    _check_dn(d, nmax, dmin=1)
    check_cost(f"the l1 counts at d = {d}, n = 0..{nmax}", (nmax + 1) * _count_bits(d, nmax),
               "rows x bits", _MAX_COUNT_TABLE)
    counts = [1, 2 * d][:nmax + 1]
    for n in range(1, nmax):
        counts.append((2 * d * counts[n] + (n - 1) * counts[n - 1]) // (n + 1))
    return counts


def _count_bits(d: int, n: int) -> float:
    """The estimated bits of each big integer an l1 count at (d, n) sums, log2 C(n + d, d)
    + min(d, n) + 1, in floats: an estimate past their range is inf."""
    terms = min(d, n) + 1
    try:
        if max(d, n) < 2**53:
            ln_binomial = math.lgamma(n + d + 1) - math.lgamma(d + 1) - math.lgamma(n + 1)
        else:  # lgamma would round the larger index away: ln(big^m / m!), m = min(d, n)
            ln_binomial = (terms - 1) * math.log(float(max(d, n))) - math.lgamma(terms)
        return ln_binomial / math.log(2) + terms
    except OverflowError:
        return math.inf


def _binomial_sum(d: int, n: int, term) -> int:
    """Sum of term(j), 0 <= j <= min(d, n), once :func:`_check_dn` passes (d >= 1); refused
    first when its terms times their bits (:func:`_count_bits`) exceed _MAX_COUNT_BITS.
    """
    _check_dn(d, n, dmin=1)
    terms = min(d, n) + 1
    check_cost(f"the l1 count at d = {d}, n = {n}", terms * _count_bits(d, n), "terms x bits",
               _MAX_COUNT_BITS)
    return sum(map(term, range(terms)))


def _ball_size(d: int, n: int) -> int:
    """Number of alpha in Z^d with |alpha|_1 <= n: sum_k 2^k C(d, k) C(n, k)."""
    return _binomial_sum(d, n, lambda k: 2**k * math.comb(d, k) * math.comb(n, k))


def ball_enumerate(d: int, n: int) -> np.ndarray:
    """All alpha in Z^d with |alpha|_1 <= n, stacked shell by shell.

    Each shell lists its points in lexicographic order, but for the last
    coordinate, +r before -r.  Built one coordinate at a time, so it costs
    what the ball holds, at most ``_MAX_VALUES`` ints (points x d), checked
    before it is built.
    """
    _check_values(f"the l1 shells 0..{n} in d = {d}", _ball_size(d, n), d)
    pts = np.zeros((1, 0), dtype=np.int64)
    for _ in range(d):  # append every a with |a| <= what the prefix leaves, ascending
        left = n - np.abs(pts).sum(axis=1)
        counts = 2 * left + 1
        a = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts + left, counts)
        pts = np.column_stack([np.repeat(pts, counts, axis=0), a])
    pts[:, -1] *= -1  # the last coordinate descending
    return pts[np.argsort(np.abs(pts).sum(axis=1), kind="stable")]


def finite(values, name: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming the first one that is nan or infinite."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite, got {float(a[~np.isfinite(a)][0])!r}")
    return a


def theta_vector(theta, d: int) -> np.ndarray:
    """One torus point as a flat float array of exactly d finite angles."""
    t = np.asarray(theta, dtype=float).ravel()
    if t.size != d:
        raise ValueError("theta must supply d angles")
    return finite(t, "theta")


def wrap_angles(theta: Sequence[float] | np.ndarray) -> np.ndarray:
    """Map angles to the fundamental domain [-pi, pi)."""
    t = np.asarray(theta, dtype=float)
    return np.mod(t + np.pi, 2.0 * np.pi) - np.pi
