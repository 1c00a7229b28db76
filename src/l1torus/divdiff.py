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

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev


@dataclass(frozen=True)
class KnotVector:
    """A sorted tuple of knots; repeats encode multiplicities."""

    knots: tuple

    def __init__(self, values: Sequence[float]):
        vals = tuple(sorted(float(v) for v in values))
        if not vals:
            raise ValueError("a knot vector needs at least one knot")
        object.__setattr__(self, "knots", vals)

    def __len__(self) -> int:
        return len(self.knots)

    @property
    def order(self) -> int:
        """m for a knot vector x_0 <= ... <= x_m."""
        return len(self.knots) - 1


def divided_difference(p: Chebyshev, knots) -> float:
    """Divided difference [x_0, ..., x_m]p of a Chebyshev series over the knots.

    ``knots`` may be a :class:`KnotVector` or any sequence of reals; knots may
    repeat.  A series on another domain is mapped to [-1, 1] with its knots.
    """
    kv = knots if isinstance(knots, KnotVector) else KnotVector(knots)
    off, scl = p.mapparms()
    x = [off + scl * v for v in kv.knots]
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
    t = np.asarray(theta, dtype=float).ravel()
    if t.size == 0:
        raise ValueError("theta must contain at least one angle")
    return divided_difference(p, KnotVector(np.cos(t)))
