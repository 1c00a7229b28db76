"""Synthesis and partial sums of l1-invariant Fourier series.

A function on the d-torus whose Fourier coefficients depend only on the l1
norm of the frequency is determined by one scalar per shell.  This module
holds the coefficient-sequence type (explicit head values plus a sign-rule
descriptor for the tail), synthesis from batched shell sums, the
equivalent divided-difference route through a single univariate polynomial,
and partial-sum operators for grid-sampled functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev

from .divdiff import SmoothFn, divided_difference_cos
from .kernels import dirichlet_kernel_batch, shell_seed_poly, shell_sum_batch
from .numerics import QuadRule, ball_enumerate, theta_vector, torus_trapezoid


class ResolutionError(ValueError):
    """Sampling grid too coarse for the requested frequencies."""


@dataclass(frozen=True)
class ZeroTail:
    """All coefficients beyond the head are zero."""

    def positive(self, n: int) -> bool:
        return False

    def to_json(self) -> dict:
        return {"kind": "zero"}


@dataclass(frozen=True)
class AllPositiveFrom:
    """Coefficients with index >= n0 beyond the head are strictly positive."""

    n0: int

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError("n0 must be >= 0")

    def positive(self, n: int) -> bool:
        return n >= self.n0

    def to_json(self) -> dict:
        return {"kind": "all-positive-from", "n0": self.n0}


@dataclass(frozen=True)
class ResiduesPositive:
    """Beyond the head, indices >= n0 in the given residue classes are positive.

    Indices n >= n0 with n mod modulus in ``residues`` carry strictly
    positive coefficients; the remaining tail indices are zero.
    """

    n0: int
    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "residues", frozenset(int(r) for r in self.residues))
        if self.n0 < 0:
            raise ValueError("n0 must be >= 0")
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if not self.residues:
            raise ValueError("residue set must be nonempty")
        if any(not (0 <= r < self.modulus) for r in self.residues):
            raise ValueError("residues must lie in [0, modulus)")

    def positive(self, n: int) -> bool:
        return n >= self.n0 and (n % self.modulus) in self.residues

    def to_json(self) -> dict:
        return {"kind": "residues-positive", "n0": self.n0,
                "modulus": self.modulus, "residues": sorted(self.residues)}


Tail = ZeroTail | AllPositiveFrom | ResiduesPositive


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
    tail: Tail = field(default_factory=ZeroTail)

    def __init__(self, head, tail: Tail | None = None):
        vals = tuple(float(v) for v in head)
        if not vals:
            raise ValueError("head must contain at least one coefficient")
        object.__setattr__(self, "head", vals)
        object.__setattr__(self, "tail", tail if tail is not None else ZeroTail())

    @property
    def max_head_index(self) -> int:
        return len(self.head) - 1

    def value(self, n: int) -> float:
        """Numeric coefficient: head entry, or 0 beyond the head."""
        if n < 0:
            raise ValueError("index must be >= 0")
        return self.head[n] if n < len(self.head) else 0.0

    def is_positive(self, n: int) -> bool:
        """Sign information: head entry > 0, or the tail rule beyond it."""
        if n < 0:
            raise ValueError("index must be >= 0")
        if n < len(self.head):
            return self.head[n] > 0.0
        return self.tail.positive(n)

    def to_json(self) -> dict:
        return {"head": list(self.head), "tail": self.tail.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "CoeffSeq":
        if "head" not in obj:
            raise ValueError("coefficient spec needs a 'head' list")
        tail_obj = obj.get("tail", {"kind": "zero"})
        kind = tail_obj.get("kind")
        if kind == "zero":
            tail: Tail = ZeroTail()
        elif kind == "all-positive-from":
            tail = AllPositiveFrom(int(tail_obj["n0"]))
        elif kind == "residues-positive":
            tail = ResiduesPositive(int(tail_obj.get("n0", 0)), int(tail_obj["modulus"]),
                                    frozenset(int(r) for r in tail_obj["residues"]))
        else:
            raise ValueError(f"unknown tail kind: {kind!r}")
        return cls(obj["head"], tail)


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
    vals = sum(coeffs.value(n) * shell_sum_batch(d, n, rows) for n in range(top + 1))
    return vals if batch else float(vals[0])


def build_fd(d: int, coeffs: CoeffSeq, trunc: int) -> SmoothFn:
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
            total = total + c * shell_seed_poly(d, n)
    return SmoothFn.from_poly(total)


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
        """Sample ``fn`` on the grid; fn maps an (npts, d) array to values."""
        rule = torus_trapezoid(d, npts_per_axis)
        try:
            vals = np.asarray(fn(rule.nodes), dtype=complex)
            if vals.shape != (rule.nodes.shape[0],):
                raise TypeError
        except (TypeError, ValueError):
            vals = np.array([fn(p) for p in rule.nodes], dtype=complex)
        vals.setflags(write=False)
        return cls(d, npts_per_axis, rule, vals)


def fourier_coefficient(f: SampledTorusFn, alpha) -> complex:
    """Grid Fourier coefficient (2 pi)^-d integral of f(y) exp(-i alpha.y) dy.

    Exact for trigonometric polynomials with per-axis degree below the grid
    size; aliased otherwise.
    """
    a = np.asarray(alpha, dtype=float).ravel()
    if a.size != f.d:
        raise ValueError("alpha must have d entries")
    return complex(np.dot(f.rule.weights, f.values * np.exp(-1j * (f.rule.nodes @ a))))


def partial_sum(f: SampledTorusFn, n: int, theta, route: str = "coefficients") -> complex:
    """l1 partial sum of order n of a sampled function, evaluated at theta.

    route="coefficients"  extracts grid Fourier coefficients over the l1
    ball and resums them at theta; route="convolution" averages f against
    the Dirichlet kernel translated to theta.  Both need the grid to resolve
    frequencies up to n: npts_per_axis > 2n, else :class:`ResolutionError`.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    if f.npts_per_axis <= 2 * n:
        raise ResolutionError(
            f"grid of {f.npts_per_axis} points per axis cannot resolve order {n}"
        )
    t = theta_vector(theta, f.d)
    if route == "coefficients":
        ball = ball_enumerate(f.d, n)
        phases = np.exp(-1j * (f.rule.nodes @ ball.T))
        coeffs = (f.rule.weights * f.values) @ phases
        return complex(coeffs @ np.exp(1j * (ball @ t)))
    if route == "convolution":
        dvals = dirichlet_kernel_batch(f.d, n, t[None, :] - f.rule.nodes)
        return complex(np.dot(f.rule.weights, f.values * dvals))
    raise ValueError("route must be 'coefficients' or 'convolution'")
