"""Synthesis and partial sums of l1-invariant Fourier series.

A function on the d-torus whose Fourier coefficients depend only on the l1
norm of the frequency is determined by one scalar per shell.  This module
holds the coefficient-sequence type (explicit head values plus one
residue-class sign rule for the tail), synthesis from batched shell sums, the
equivalent divided-difference route through a single univariate polynomial,
and partial-sum operators for grid-sampled functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .divdiff import divided_difference_cos
from .kernels import _shell_table, dirichlet_kernel_batch, shell_seed
from .numerics import (QuadRule, _readonly, ball_enumerate, finite, theta_vector,
                       torus_trapezoid)


class ResolutionError(ValueError):
    """Sampling grid too coarse for the requested frequencies."""


@dataclass(frozen=True)
class Tail:
    """Beyond the head, indices n >= n0 with n mod modulus in ``residues`` are
    strictly positive and the rest are zero.

    The empty residue set (the default) is the zero tail, and (n0, 1, {0}) is
    "positive from n0 on".
    """

    n0: int = 0
    modulus: int = 1
    residues: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "residues", frozenset(int(r) for r in self.residues))
        if self.n0 < 0:
            raise ValueError("n0 must be >= 0")
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if any(not (0 <= r < self.modulus) for r in self.residues):
            raise ValueError("residues must lie in [0, modulus)")

    def positive(self, n):
        """Whether index n, or each index of the int array n, is positive by the rule."""
        r = n % self.modulus
        hit = False
        for res in self.residues:
            hit = hit | (r == res)
        return (n >= self.n0) & hit


# tail kind of a JSON spec -> the keys its object must carry (n0 defaults to 0)
_TAIL_KEYS = {"zero": (), "all-positive-from": ("n0",),
              "residues-positive": ("modulus", "residues")}


@dataclass(frozen=True)
class CoeffSeq:
    """Shell coefficients: explicit head values plus a tail sign rule.

    ``head`` lists the coefficients for shells 0, ..., len(head) - 1.  The
    tail descriptor governs indices beyond the head: it supplies signs only
    (positive or zero), never numeric values, so synthesis uses the head
    alone while the positive-definiteness checks reason about the tail
    symbolically.
    """

    head: tuple
    tail: Tail = Tail()

    def __init__(self, head, tail: Tail = Tail()):
        vals = tuple(float(v) for v in head)
        if not vals:
            raise ValueError("head must contain at least one coefficient")
        object.__setattr__(self, "head", vals)
        object.__setattr__(self, "tail", tail)

    @property
    def max_head_index(self) -> int:
        return len(self.head) - 1

    def value(self, n: int) -> float:
        """Numeric coefficient: head entry, or 0 beyond the head."""
        if n < 0:
            raise ValueError("index must be >= 0")
        return self.head[n] if n < len(self.head) else 0.0

    def is_positive(self, n):
        """Sign information: head entry > 0, or the tail rule beyond it.

        ``n`` is one index, or an int array of them: then one bool per index,
        the positivity table the strictness checks scan.  Both take this one rule.
        """
        idx = np.asarray(n, dtype=np.int64)
        if idx.min(initial=0) < 0:
            raise ValueError("index must be >= 0")
        head = np.array(self.head) > 0.0
        out = np.where(idx < head.size, head[np.minimum(idx, head.size - 1)],
                       self.tail.positive(idx))
        return out if idx.ndim else bool(out)

    @classmethod
    def from_json(cls, obj) -> "CoeffSeq":
        """The spec {"head": [...], "tail": {"kind": ...}}; ValueError names what is malformed."""
        head = obj.get("head") if isinstance(obj, dict) else None
        if not isinstance(head, list) or not all(
                isinstance(v, (int, float)) and type(v) is not bool for v in head):
            raise ValueError("coefficient spec needs a 'head' list of numbers")
        try:
            head = finite(head, "head")
        except OverflowError:
            raise ValueError("head must be finite, got an integer beyond the float range") from None
        tail = obj.get("tail", {"kind": "zero"})
        kind = tail.get("kind") if isinstance(tail, dict) else None
        if kind not in list(_TAIL_KEYS):  # a list, as a JSON kind may be unhashable
            raise ValueError(f"tail must be an object whose kind is one of "
                             f"{', '.join(_TAIL_KEYS)}, got kind {kind!r}")
        for key in _TAIL_KEYS[kind]:
            if key not in tail:
                raise ValueError(f"the {kind} tail needs the key {key!r}")
        n0, q, res = tail.get("n0", 0), tail.get("modulus", 1), tail.get("residues", [])
        if not isinstance(res, list) or not all(type(v) is int for v in (n0, q, *res)):
            raise ValueError("tail n0 and modulus must be integers, and residues a list of them")
        if kind == "zero":
            return cls(head)
        if kind == "all-positive-from":
            return cls(head, Tail(n0, 1, {0}))
        if not res:
            raise ValueError("residue set must be nonempty")
        return cls(head, Tail(n0, q, frozenset(res)))


def synth(d: int, coeffs: CoeffSeq, trunc: int, theta):
    """Synthesis sum_{n <= trunc} c_n * shell_sum(d, n, theta).

    ``theta`` is one point (d angles, returns a float) or a batch of shape
    (batch, d) (returns an array of shape (batch,)).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    top = min(trunc, coeffs.max_head_index)
    batch = np.ndim(theta) == 2
    rows = np.asarray(theta, dtype=float) if batch else theta_vector(theta, d)[None, :]
    vals = _shell_table(d, top, rows) @ np.array(coeffs.head[:top + 1])
    return vals if batch else float(vals[0])


def build_fd(d: int, coeffs: CoeffSeq, trunc: int) -> Chebyshev:
    """The univariate polynomial sum_{1 <= n <= trunc} c_n * shell_seed(d, n).

    Its divided difference over the knots cos(theta_i) reproduces the
    synthesis of shells 1..trunc; the 0-th shell contributes the constant
    c_0 separately (see :func:`synth_divdiff`).
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if trunc < 0:
        raise ValueError("trunc must be >= 0")
    total = Chebyshev([0.0])
    for n in range(1, min(trunc, coeffs.max_head_index) + 1):
        c = coeffs.value(n)
        if c != 0.0:
            total = total + c * shell_seed(d, n)
    return total


def synth_divdiff(d: int, coeffs: CoeffSeq, trunc: int, theta) -> float:
    """Synthesis through the divided-difference route.

    Equals c_0 plus the divided difference of :func:`build_fd` over the
    knots cos(theta_1), ..., cos(theta_d).
    """
    return coeffs.value(0) + divided_difference_cos(build_fd(d, coeffs, trunc), theta)


@dataclass(frozen=True)
class SampledTorusFn:
    """A function sampled on the uniform tensor grid of the d-torus."""

    d: int
    npts_per_axis: int
    rule: QuadRule
    values: np.ndarray

    @classmethod
    def sample(cls, d: int, npts_per_axis: int, fn: Callable) -> "SampledTorusFn":
        """Sample ``fn`` on the grid; fn maps an (npts, d) array to npts values."""
        rule = torus_trapezoid(d, npts_per_axis)
        vals = np.array(fn(rule.nodes), dtype=complex)  # a copy: fn's array stays writeable
        if vals.shape != (rule.nodes.shape[0],):
            raise ValueError("fn must map the (npts, d) grid to npts values")
        return cls(d, npts_per_axis, rule, _readonly(vals))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The grid Fourier coefficients by one fftn, built on first use, read-only.

        The nodes start at -pi, so the coefficient of frequency k is
        ``spectrum[k mod L] * (-1)^|k|_1`` with L = npts_per_axis.
        """
        shape = (self.npts_per_axis,) * self.d
        return _readonly(np.fft.fftn(self.values.reshape(shape)) / self.values.size)


def partial_sum(f: SampledTorusFn, n: int, theta, route: str = "coefficients") -> complex:
    """l1 partial sum of order n of a sampled function, evaluated at theta.

    route="coefficients"  reads the grid Fourier coefficients of the l1 ball
    from :attr:`SampledTorusFn.spectrum` and resums them at theta;
    route="convolution" averages f against the Dirichlet kernel translated to
    theta.  Both need the grid to resolve frequencies up to n:
    npts_per_axis > 2n, else :class:`ResolutionError`.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if f.npts_per_axis <= 2 * n:
        raise ResolutionError(f"grid of {f.npts_per_axis} points per axis cannot resolve "
                              f"order {n}")
    t = theta_vector(theta, f.d)
    if route == "coefficients":
        ball = ball_enumerate(f.d, n)
        coeffs = f.spectrum[tuple((ball % f.npts_per_axis).T)] * (-1.0) ** ball.sum(axis=1)
        return complex(coeffs @ np.exp(1j * (ball @ t)))
    if route == "convolution":
        dvals = dirichlet_kernel_batch(f.d, n, t[None, :] - f.rule.nodes)
        return complex(np.dot(f.rule.weights, f.values * dvals))
    raise ValueError("route must be 'coefficients' or 'convolution'")
