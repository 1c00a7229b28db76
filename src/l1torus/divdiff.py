"""Divided differences of Chebyshev series, with repeated or nearly repeated knots.

By Opitz's formula the divided difference [x_0, ..., x_m]p is the corner entry
p(J)[0, m] of the bidiagonal matrix J with the knots on its diagonal and ones
above it.  Clenshaw's recurrence evaluates the last column p(J) e_m with one
product by J per Chebyshev coefficient, (J b)_i = x_i b_i + b_{i+1}.  No
difference quotient is ever formed, so equal and nearly equal knots (which
theta -> cos(theta) produces routinely) need neither derivatives nor merging.

A knot matrix, one knot vector per row, runs the same recurrence once for all
rows: each entry x_i, b_i is then a column over the rows in place of a float,
and the elementwise operations run in the same order, so each row's value is
its lone call's bit for bit.
Refs: Opitz (1964); McCurdy, Ng and Parlett, Math. Comp. 43 (1984).
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .numerics import finite


def divided_difference(p: Chebyshev, knots) -> float | np.ndarray:
    """Divided difference [x_0, ..., x_m]p of a Chebyshev series over the knots.

    ``knots`` is one knot vector, giving a float, or a (rows, m + 1) matrix of
    one knot vector per row, giving an array of one value per row.  Each vector
    is nonempty, finite and sorted here; knots may repeat.  A series on another
    domain is mapped to [-1, 1] with its knots.  ValueError for any other shape
    and for a nan or infinite knot.
    """
    k = finite(knots, "knots")
    if k.ndim not in (1, 2) or k.shape[-1] == 0:
        raise ValueError("knots must be a nonempty vector or a (rows, m + 1) matrix "
                         f"with at least one knot per row, got shape {k.shape}")
    off, scl = p.mapparms()  # scl stays a numpy scalar, so a lone vector's value is one too
    a, s = float(off), float(scl)
    # a single vector runs on Python floats, a matrix on one column per knot
    x = [a + s * v for v in (sorted(k.tolist()) if k.ndim == 1 else np.sort(k, axis=1).T)]
    m = len(x) - 1
    coef = p.coef.tolist()
    # b1, b2 are b_{k+1}, b_{k+2} of b_k = c_k e_m + 2 J b_{k+1} - b_{k+2}, padded by one zero
    b1, b2 = [0.0] * (m + 2), [0.0] * (m + 2)
    for c in reversed(coef[1:]):
        b = [2.0 * (xi * v + w) - u for xi, v, w, u in zip(x, b1, b1[1:], b2)] + [0.0]
        b[m] += c
        b1, b2 = b, b1
    # p(J) e_m = c_0 e_m + J b_1 - b_2
    corner = x[0] * b1[0] + b1[1] - b2[0] + (coef[0] if m == 0 else 0.0)
    return corner * scl ** m


def divided_difference_cos(p: Chebyshev, theta) -> float | np.ndarray:
    """Divided difference of p over the knots cos(theta_1), ..., cos(theta_d).

    ``theta`` is one vector of d angles, giving a float, or a (rows, d) matrix of
    one point per row, giving an array of one value per row, as for
    :func:`divided_difference`.  ValueError for a nan or infinite angle.
    """
    return divided_difference(p, np.cos(finite(theta, "theta")))
