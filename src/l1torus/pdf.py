"""Positive definiteness of l1-invariant kernels on the torus.

A coefficient sequence with nonnegative values everywhere synthesizes a
positive definite function.  Strict positive definiteness additionally
requires, for every pair 0 <= n < l, some m >= 0 with a strictly positive
coefficient at index n + m*l or (l - n) + m*l.  Every tail is a residue
class rule, so this reduces to an exact divisor-cover certificate: writing R
for the positive residue set modulo q, the tail settles the pair (n, l)
precisely when n mod g lies in (R union -R) mod g with g = gcd(l, q), so
strictness holds iff every divisor g of q is fully covered by (R union -R)
mod g.  The zero tail (R empty) covers nothing.  Failing pairs are produced
as finite witnesses; a windowed brute-force search over (n, l, m) is
provided as an independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import wrap_angles
from .summability import CoeffSeq, synth

MIN_POINT_SEPARATION = 1e-9
_MAX_GRAM_PAIRS = 1 << 20  # point pairs, npts (npts - 1) / 2, one Gram matrix may hold


class CheckResult(NamedTuple):
    """Outcome of a definiteness check, with a witness when it fails.

    For pdf the witness is the first index holding a negative coefficient;
    for spdf it is a pair (n, l) no index of the two induced progressions
    settles.
    """

    ok: bool
    witness: object | None = None


def pdf_check(coeffs: CoeffSeq) -> CheckResult:
    """Nonnegativity of the whole sequence.

    The tail descriptors only ever assert positive or zero coefficients, so
    the verdict is decided by the head.
    """
    for i, v in enumerate(coeffs.head):
        if v < 0.0:
            return CheckResult(False, i)
    return CheckResult(True, None)


def _classes(residues, g: int) -> set[int]:
    """The classes (R union -R) mod g of the residue set R."""
    return {r % g for r in residues} | {(-r) % g for r in residues}


def _pair_settled(coeffs: CoeffSeq, n: int, l: int) -> bool:
    """Exact decision: does some m >= 0 give a positive coefficient at
    n + m*l or (l - n) + m*l?  Head indices are scanned directly; the tail is
    decided in closed form (progressions are infinite, so residue membership
    suffices)."""
    pos = {i for i, v in enumerate(coeffs.head) if v > 0.0}
    top = coeffs.max_head_index
    for start in (n, l - n):
        idx = start
        while idx <= top:
            if idx in pos:
                return True
            idx += l
    g = math.gcd(l, coeffs.tail.modulus)
    return n % g in _classes(coeffs.tail.residues, g)


def spdf_check(coeffs: CoeffSeq) -> CheckResult:
    """Strict positive definiteness certificate.

    Requires a nonnegative sequence (ValueError otherwise).  The tail is
    decided by the divisor-cover criterion: an all-positive tail covers
    every class and is strict, a zero tail covers none and always fails
    because a finite head cannot settle arbitrarily long pair progressions.
    On failure the smallest failing pair (lexicographically by l, then n) is
    returned, found by an exact search whose termination bound comes from
    the certificate's proof.
    """
    if not pdf_check(coeffs).ok:
        raise ValueError("strictness is only defined for nonnegative sequences")
    tail = coeffs.tail
    q = tail.modulus
    if all(len(_classes(tail.residues, g)) == g for g in range(1, q + 1) if q % g == 0):
        return CheckResult(True, None)
    l_cap = 2 * (coeffs.max_head_index + 1) + 3 * q + 8
    for l in range(1, l_cap + 1):
        for n in range(l):
            if not _pair_settled(coeffs, n, l):
                return CheckResult(False, (n, l))
    raise RuntimeError("witness search exceeded its theoretical bound")


def spdf_pair_search(coeffs: CoeffSeq, pair_limit: int = 40, m_limit: int = 200) -> list[tuple[int, int]]:
    """Brute-force cross-check: pairs (n, l) with n < l <= pair_limit that no
    m <= m_limit settles.  Independent of the closed-form reasoning in
    :func:`spdf_check` (up to the window limits)."""
    if not pdf_check(coeffs).ok:
        raise ValueError("strictness is only defined for nonnegative sequences")
    failures = []
    for l in range(1, pair_limit + 1):
        for n in range(l):
            ok = False
            for m in range(m_limit + 1):
                if coeffs.is_positive(n + m * l) or coeffs.is_positive((l - n) + m * l):
                    ok = True
                    break
            if not ok:
                failures.append((n, l))
    return failures


@dataclass(frozen=True)
class GramSpec:
    """Gram-matrix specification: kernel coefficients sampled at torus points."""

    d: int
    points: np.ndarray
    coeffs: CoeffSeq
    trunc: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError("points must have shape (npoints, d)")
        if pts.shape[0] < 1:
            raise ValueError("at least one point is required")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.trunc < 0:
            raise ValueError("trunc must be >= 0")


def _check_gram_size(npts: int):
    """ValueError when npts points make more than ``_MAX_GRAM_PAIRS`` pairs."""
    pairs = npts * (npts - 1) // 2
    if pairs > _MAX_GRAM_PAIRS:
        raise ValueError(f"a Gram matrix of {npts} points holds {pairs:.3g} pairs, "
                         f"over the limit of {_MAX_GRAM_PAIRS:.3g}")


def gram_matrix(spec: GramSpec) -> np.ndarray:
    """Gram matrix A[i, j] = f(theta_i - theta_j) of the synthesized kernel.

    Points must be pairwise distinct modulo 2 pi (separation at least 1e-9
    in the wrapped sup-norm), and at most ``_MAX_GRAM_PAIRS`` pairs, checked
    before any allocation.  The kernel is even, so one batched synthesis
    over the upper-triangle differences fills the matrix symmetrically.
    """
    pts = spec.points
    npts = pts.shape[0]
    _check_gram_size(npts)
    i, j = np.triu_indices(npts, k=1)
    delta = wrap_angles(pts[i] - pts[j])
    close = np.max(np.abs(delta), axis=1) < MIN_POINT_SEPARATION
    if np.any(close):
        k = int(np.argmax(close))
        raise ValueError(f"points {i[k]} and {j[k]} coincide modulo 2 pi")
    vals = synth(spec.d, spec.coeffs, spec.trunc, np.vstack([np.zeros(spec.d), delta]))
    a = np.empty((npts, npts))
    np.fill_diagonal(a, vals[0])
    a[i, j] = a[j, i] = vals[1:]
    return a


def min_eigenvalue(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix.

    Input must be square, finite, and symmetric to within 1e-12 relative to
    its scale; it is symmetrized exactly before the solve.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix must be finite")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > 1e-12 * scale:
        raise ValueError("matrix must be symmetric")
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
