"""Divided differences of Chebyshev series, with repeated or nearly repeated knots.

By Opitz's formula the divided difference [x_0, ..., x_m]p is the corner entry
p(J)[0, m] of the bidiagonal matrix J with the knots on its diagonal and ones
above it.  Clenshaw's recurrence evaluates the last column p(J) e_m with one
product by J per Chebyshev coefficient, (J b)_i = x_i b_i + b_{i+1}.  No
difference quotient is ever formed, so equal and nearly equal knots (which
theta -> cos(theta) produces routinely) need neither derivatives nor merging.
Refs: Opitz (1964); McCurdy, Ng and Parlett, Math. Comp. 43 (1984).
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev


def divided_difference(p: Chebyshev, knots) -> float:
    """Divided difference [x_0, ..., x_m]p of a Chebyshev series over the knots.

    ``knots`` is any nonempty sequence of reals, sorted here; knots may
    repeat.  A series on another domain is mapped to [-1, 1] with its knots.
    """
    if len(knots) == 0:
        raise ValueError("a knot vector needs at least one knot")
    off, scl = p.mapparms()
    x = [off + scl * v for v in sorted(float(v) for v in knots)]
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


def divided_difference_cos(p: Chebyshev, theta) -> float:
    """Divided difference of p over the knots cos(theta_1), ..., cos(theta_d)."""
    return divided_difference(p, np.cos(np.asarray(theta, dtype=float).ravel()))
