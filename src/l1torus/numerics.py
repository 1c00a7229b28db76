"""Shared numerical infrastructure.

Quadrature rules (Gauss-Legendre, Gauss-Gegenbauer, tensor trapezoid on the
torus), enumeration and counting of l1 lattice shells, the mixed error measure,
and the finiteness and torus-point validators used throughout the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_gegenbauer

DEFAULT_SEED = 1234567
MAX_DRAWS = 10_000  # draws rejection sampling may take for one point before it gives up
_MAX_GRID_FLOATS = 1 << 23  # floats, nodes x d, that one torus_trapezoid grid may hold


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
    tensor rules on the d-torus.  ``exact_degree`` is the largest polynomial
    degree (trigonometric degree per axis, for torus rules) integrated
    exactly.
    """

    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(np.asarray(self.nodes, dtype=float)))
        object.__setattr__(self, "weights", _readonly(np.asarray(self.weights, dtype=float)))
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights must have matching length")
        if not np.all(self.weights > 0):
            raise ValueError("quadrature weights must be positive")

    def integrate(self, fn: Callable[[np.ndarray], np.ndarray]):
        """Apply the rule to a vectorized function of the nodes."""
        return np.dot(self.weights, fn(self.nodes))


def gauss_legendre(npts: int) -> QuadRule:
    """Gauss-Legendre rule with ``npts`` nodes on [-1, 1].

    Exact for polynomials of degree 2*npts - 1; nodes lie strictly inside
    the interval.
    """
    if npts < 1:
        raise ValueError("npts must be >= 1")
    nodes, weights = leggauss(npts)
    return QuadRule("gauss-legendre", nodes, weights, 2 * npts - 1)


def gauss_gegenbauer(npts: int, lam: float) -> QuadRule:
    """Gauss rule for the weight (1 - x^2)^(lam - 1/2) on [-1, 1].

    sum(w_i * f(x_i)) approximates the weighted integral of f; exact when f
    is a polynomial of degree <= 2*npts - 1.  Requires lam > -1/2.
    """
    if npts < 1:
        raise ValueError("npts must be >= 1")
    if lam <= -0.5:
        raise ValueError("lam must exceed -1/2")
    nodes, weights = roots_gegenbauer(npts, lam)
    return QuadRule(f"gauss-gegenbauer({lam:g})", nodes, weights, 2 * npts - 1)


def torus_trapezoid(d: int, npts_per_axis: int) -> QuadRule:
    """Uniform tensor grid on [-pi, pi)^d with equal weights 1/npts^d.

    Normalized so that integrate() computes (2*pi)^-d times the integral
    over the torus; exponentials exp(i a.theta) with max|a_j| < npts_per_axis
    integrate exactly (to 1 for a = 0, otherwise 0).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if npts_per_axis < 1:
        raise ValueError("npts_per_axis must be >= 1")
    if npts_per_axis**d * d > _MAX_GRID_FLOATS:
        raise ValueError(f"a torus grid of {npts_per_axis}^{d} nodes holds "
                         f"{npts_per_axis**d * d:.3g} floats, over the limit of {_MAX_GRID_FLOATS:.3g}")
    axis = -np.pi + 2.0 * np.pi * np.arange(npts_per_axis) / npts_per_axis
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=-1)
    weights = np.full(npts_per_axis**d, float(npts_per_axis) ** (-d))
    return QuadRule(f"torus-trapezoid(d={d})", nodes, weights, npts_per_axis - 1)


@dataclass(frozen=True)
class LatticeShell:
    """All integer vectors alpha in Z^d with |alpha|_1 = n."""

    d: int
    n: int
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", _readonly(np.asarray(self.points, dtype=np.int64)))

    def __len__(self) -> int:
        return self.points.shape[0]


@lru_cache(maxsize=None)
def _shell_tuples(d: int, n: int) -> tuple:
    if d == 1:
        return ((n,), (-n,)) if n > 0 else ((0,),)
    out = []
    for a in range(-n, n + 1):
        for rest in _shell_tuples(d - 1, n - abs(a)):
            out.append((a, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def shell_enumerate(d: int, n: int) -> LatticeShell:
    """Enumerate the l1 shell {alpha in Z^d : |alpha|_1 = n}.

    Points are listed in lexicographic order; the enumeration is checked
    against the generating-function count.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("shell index must be >= 0")
    pts = np.array(_shell_tuples(d, n), dtype=np.int64).reshape(-1, d)
    if pts.shape[0] != shell_count(d, n):
        raise AssertionError("shell enumeration disagrees with shell count")
    return LatticeShell(d, n, pts)


def shell_count(d: int, n: int) -> int:
    """Number of alpha in Z^d with |alpha|_1 = n, as an exact integer.

    This is the coefficient of r^n in ((1+r)/(1-r))^d, i.e.
    sum_j C(d, j) * C(n - j + d - 1, d - 1) over 0 <= j <= min(d, n).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if n < 0:
        raise ValueError("shell index must be >= 0")
    return sum(
        math.comb(d, j) * math.comb(n - j + d - 1, d - 1) for j in range(min(d, n) + 1)
    )


def ball_enumerate(d: int, n: int) -> np.ndarray:
    """All alpha in Z^d with |alpha|_1 <= n, stacked shell by shell."""
    return np.concatenate([shell_enumerate(d, k).points for k in range(n + 1)], axis=0)


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
