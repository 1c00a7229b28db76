"""Gegenbauer (ultraspherical) polynomial machinery.

Values come from the three-term recurrence

    n C_n^lam(t) = 2 (n + lam - 1) t C_{n-1}^lam(t) - (n + 2 lam - 2) C_{n-2}^lam(t)

with C_0 = 1 and C_1 = 2 lam t.  The module also provides the values at
t = 1 and the weight normalization constant c_lam.  Each table is bounded here,
before it is allocated, for every caller.
"""
from __future__ import annotations

import math

import numpy as np

from .numerics import check_cost

_MAX_GEGENBAUER = 1 << 20  # values, (nmax + 1) * max(points, 1), of one Gegenbauer table


def _check_lam(lam: float):
    if lam <= -0.5:
        raise ValueError("Gegenbauer parameter must exceed -1/2")


def gegenbauer_sequence(lam: float, nmax: int, t) -> np.ndarray:
    """All values C_0^lam(t), ..., C_nmax^lam(t), shape (nmax + 1,) + shape(t), from one
    recurrence pass; ``t`` may be a scalar or an ndarray.  ValueError before allocating
    when (nmax + 1) * max(points, 1) values exceed _MAX_GEGENBAUER: with no point the
    recurrence would still step to nmax."""
    _check_lam(lam)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    t = np.asarray(t, dtype=float)
    check_cost(f"recurrence to degree {nmax} at {t.size} point(s)", (nmax + 1) * max(t.size, 1),
               "Gegenbauer values", _MAX_GEGENBAUER)
    out = np.empty((nmax + 1,) + t.shape)
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 2.0 * lam * t
    for n in range(2, nmax + 1):
        out[n] = (2.0 * (n + lam - 1.0) * t * out[n - 1] - (n + 2.0 * lam - 2.0) * out[n - 2]) / n
    return out


def gegenbauer_at_one(lam: float, nmax: int) -> np.ndarray:
    """Values at the right endpoint: C_n^lam(1) = (2 lam)_n / n! for n <= nmax.
    ValueError before allocating when nmax + 1 values exceed _MAX_GEGENBAUER."""
    _check_lam(lam)
    check_cost(f"values at t = 1 to degree {nmax}", nmax + 1, "Gegenbauer values", _MAX_GEGENBAUER)
    out = np.empty(nmax + 1)
    out[0] = 1.0
    for n in range(1, nmax + 1):
        out[n] = out[n - 1] * (2.0 * lam + n - 1.0) / n
    return out


def geg_norm_c(lam: float) -> float:
    """Constant c_lam with c_lam * integral of (1 - t^2)^(lam - 1/2) over [-1, 1] = 1.

    c_lam = Gamma(lam + 1) / (Gamma(1/2) Gamma(lam + 1/2)).
    """
    _check_lam(lam)
    return math.gamma(lam + 1.0) / (math.gamma(0.5) * math.gamma(lam + 0.5))
