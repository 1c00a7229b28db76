"""Gegenbauer (ultraspherical) polynomial machinery.

Values come from one three-term recurrence, streamed a row at a time by
``_gegenbauer_rows``:

    m C_m^lam(t) = 2 (m + lam - 1) t C_{m-1}^lam(t) - (m + 2 lam - 2) C_{m-2}^lam(t)

with C_0 = 1 and C_1 = 2 lam t, or for the normalized rows R_m = C_m^lam(t) / C_m^lam(1)

    (m + 2 lam - 1) R_m = 2 (m + lam - 1) t R_{m-1} - (m - 1) R_{m-2}

with R_0 = 1 and R_{-1} = 0.  Every route steps this stream, and ``gegenbauer_sequence``
fills a table from it.  The module also provides the values at t = 1 and the weight
normalization constant c_lam; ``numerics._check_values`` bounds each table and bounded
stream before it is allocated or stepped.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .numerics import _check_lam, _check_values


def _gegenbauer_rows(lam: float, t, normalized: bool = False):
    """The rows m = 0, 1, 2, ... of the recurrence at ``t``, without end: C_m^lam(t), or
    R_m = C_m^lam(t) / C_m^lam(1) when ``normalized`` (lam > 0).  Each row has the shape
    of t, except that at a lone point (t of size 1) it is a numpy scalar, which steps
    several times faster than an array of one value, to the same bits.  The stream itself
    is unbounded: its callers bound the rows they take by ``numerics._check_values``, or by a
    limit of their own."""
    x = np.asarray(t, dtype=float)
    x = x.reshape(())[()] if x.size == 1 else x
    prev = np.zeros(np.shape(x))[()]
    cur = prev + 1.0
    yield cur
    if not normalized:  # C_1 = 2 lam t, which the step gives at C_{-1} = 0 up to rounding
        prev, cur = cur, 2.0 * lam * x
        yield cur
    for m in itertools.count(1 if normalized else 2):
        back, div = (m - 1.0, m + 2.0 * lam - 1.0) if normalized else (m + 2.0 * lam - 2.0, m)
        prev, cur = cur, (2.0 * (m + lam - 1.0) * x * cur - back * prev) / div
        yield cur


def gegenbauer_sequence(lam: float, nmax: int, t) -> np.ndarray:
    """All values C_0^lam(t), ..., C_nmax^lam(t), shape (nmax + 1,) + shape(t), from one
    recurrence pass; ``t`` may be a scalar or an ndarray.  ValueError before allocating
    when (nmax + 1) * max(points, 1) values exceed ``numerics._MAX_VALUES``: with no point the
    recurrence would still step to nmax."""
    _check_lam(lam)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    t = np.asarray(t, dtype=float)
    _check_values(f"recurrence to degree {nmax} at {t.size} point(s)", nmax + 1, t.size)
    out = np.empty((nmax + 1,) + t.shape)
    for n, row in zip(range(nmax + 1), _gegenbauer_rows(lam, t)):
        out[n] = row
    return out


def gegenbauer_at_one(lam: float, nmax: int) -> np.ndarray:
    """Values at the right endpoint: C_n^lam(1) = (2 lam)_n / n! for n <= nmax.
    ValueError before allocating when nmax + 1 values exceed ``numerics._MAX_VALUES``."""
    _check_lam(lam)
    _check_values(f"values at t = 1 to degree {nmax}", nmax + 1, 1)
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
