"""B-splines as functions of their knots.

M_m(u | x_0, ..., x_m) denotes the B-spline of order m normalized so that
its integral over the line equals 1/m!.  It equals the divided difference
over the knots of x -> (x - u)_+^(m-1) / (m-1)!, with the order-1 case the
right-continuous box  M_1(u) = 1/(x_1 - x_0) on [x_0, x_1).  Evaluation here
uses the knot-insertion recurrence

    (x_{m+1} - x_0) M_{m+1}(u | x_0..x_{m+1})
        = (u - x_0) M_m(u | x_0..x_m) + (x_{m+1} - u) M_m(u | x_1..x_{m+1})

with the convention that any term with a zero span is zero.  It is written
once, in :func:`bspline_values`; the other evaluators validate and wrap it.
The divided difference definition is kept as an independent oracle in the
test suite.
"""
from __future__ import annotations

import numpy as np

from .numerics import _check_dn, _float_factorial, finite


def bspline_values(knots, u) -> np.ndarray:
    """M_m(u | knots) by knot insertion, m = knots.shape[-1] - 1.

    ``knots`` holds rows of m + 1 ascending knots, shape (..., m + 1), and
    ``u`` broadcasts against knots[..., 0].  Zero spans contribute zero
    terms; rows that are poles or point masses must be filtered by the
    caller.
    """
    x = np.asarray(knots, dtype=float)
    u = np.asarray(u, dtype=float)[..., None]
    gaps = x[..., 1:] - x[..., :-1]
    inv = np.divide(1.0, gaps, where=gaps > 0, out=np.zeros_like(gaps))
    vals = np.where((x[..., :-1] <= u) & (u < x[..., 1:]), inv, 0.0)
    m = x.shape[-1] - 1
    for k in range(2, m + 1):
        span = x[..., k:] - x[..., :-k]
        num = (u - x[..., :-k]) * vals[..., :-1] + (x[..., k:] - u) * vals[..., 1:]
        vals = np.divide(num, span, where=span > 0, out=np.zeros_like(num))
    # The recurrence yields the raw divided difference of (x - u)_+^(m-1),
    # whose integral is 1/m; dividing by (m-1)! lands on the 1/m! contract.
    return vals[..., 0] / _float_factorial(m - 1)


def bspline_eval(knots, u: float) -> float:
    """Value of M_m(u | knots), m = len(knots) - 1; zero outside [x_0, x_m].

    The knots are sorted here.  Fewer than two knots, or all knots equal (the
    B-spline degenerates to a point mass), are rejected.
    """
    x = np.sort(np.asarray(knots, dtype=float).ravel())
    if x.size < 2:
        raise ValueError("a B-spline needs at least two knots")
    if x[0] == x[-1]:
        raise ValueError("all knots coincide; the B-spline is not a function")
    return float(bspline_values(x, float(u)))


def knot_field_batch(d: int, u, cos_knots: np.ndarray) -> np.ndarray:
    """Vectorized M_{d-1}(u | rows of cos_knots) for a batch of knot rows.

    ``cos_knots`` has shape (batch, d) with rows sorted ascending.  ``u`` is
    one point, giving shape (batch,), or a 1-D array of points, giving shape
    (len(u), batch) from one pass of the recurrence (the Monte-Carlo mean takes
    +u and -u together).  The field is zero at every point with |u| >= 1; u must be finite.
    Rows on which the field has a pole or degenerates must be filtered by the
    caller; zero spans simply contribute zero terms here.
    """
    _check_dn(d, 0)
    x = np.asarray(cos_knots, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError("cos_knots must have shape (batch, d)")
    u = finite(u, "u")  # u only: checking the knots would add a pass over each MC batch
    if u.ndim > 1:
        raise ValueError("u must be a scalar or a 1-D array of points")
    pts = u.reshape(-1)
    inside = np.abs(pts) < 1.0
    vals = np.zeros((pts.size, x.shape[0]))
    vals[inside] = bspline_values(x, pts[inside, None])
    return vals if u.ndim else vals[0]
