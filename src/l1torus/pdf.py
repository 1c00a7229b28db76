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

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import _MAX_GRID_FLOATS, check_cost, wrap_angles
from .summability import CoeffSeq, synth

MIN_POINT_SEPARATION = 1e-9
_MAX_GRAM_PAIRS = 1 << 20  # point pairs, npts (npts - 1) / 2, one Gram matrix may hold
_MAX_TRIAL_DIVISIONS = 1 << 16  # steps, sqrt(modulus), of one divisor search: moduli to ~2^32


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


def spdf_check(coeffs: CoeffSeq) -> CheckResult:
    """Strict positive definiteness certificate by the divisor cover (see the module).

    Requires a nonnegative sequence (ValueError otherwise).  On failure the
    smallest failing pair (by l, then n) is returned.  Only an l whose gcd
    with q is an uncovered divisor m can fail, so the search visits the
    multiples of those m, each up to its first unsettled n.  It ends by
    l = m p, p a prime > 2 len(head) not dividing q: the head cannot settle
    all p indices n < l of an uncovered class mod m.  The divisors of q come
    from at most ``_MAX_TRIAL_DIVISIONS`` trial divisions.
    """
    if not pdf_check(coeffs).ok:
        raise ValueError("strictness is only defined for nonnegative sequences")
    tail = coeffs.tail
    q = tail.modulus
    check_cost(f"factoring the modulus {q}", math.isqrt(q), "trial divisions",
               _MAX_TRIAL_DIVISIONS)
    small = [g for g in range(1, math.isqrt(q) + 1) if q % g == 0]
    classes = {g: {r % g for r in tail.residues} | {-r % g for r in tail.residues}
               for g in small + [q // g for g in small]}  # (R union -R) mod g
    uncovered = [g for g, c in classes.items() if len(c) < g]
    if not uncovered:
        return CheckResult(True, None)
    head_pos = coeffs.is_positive(np.arange(len(coeffs.head))).tolist()
    for l in heapq.merge(*(itertools.count(m, m) for m in uncovered)):
        g = math.gcd(l, q)
        for n in range(l):
            # Settled when a head index n + m*l or (l - n) + m*l is positive, or
            # by the tail in closed form: its progressions are infinite, so
            # residue membership suffices.
            if not (any(head_pos[n::l]) or any(head_pos[l - n::l]) or n % g in classes[g]):
                return CheckResult(False, (n, l))


def spdf_pair_search(coeffs: CoeffSeq, pair_limit: int = 40, m_limit: int = 200) -> list[tuple[int, int]]:
    """Brute-force cross-check: pairs (n, l) with n < l <= pair_limit that no
    m <= m_limit settles.  Independent of the closed-form reasoning in
    :func:`spdf_check` (up to the window limits): one positivity table over the
    indices 0 ... pair_limit (m_limit + 1) is built by ``is_positive``, and each
    pair reads its two progressions from it as strided slices."""
    if not pdf_check(coeffs).ok:
        raise ValueError("strictness is only defined for nonnegative sequences")
    pos = coeffs.is_positive(np.arange(max(pair_limit * (m_limit + 1) + 1, 0)))
    failures = []
    for l in range(1, pair_limit + 1):
        span = m_limit * l + 1  # the indices start + m*l, m = 0 ... m_limit
        for n in range(l):
            if not (pos[n:n + span:l].any() or pos[l - n:l - n + span:l].any()):
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


def gram_matrix(spec: GramSpec) -> np.ndarray:
    """Gram matrix A[i, j] = f(theta_i - theta_j) of the synthesized kernel.

    Points must be pairwise distinct modulo 2 pi (separation at least 1e-9
    in the wrapped sup-norm), and at most ``_MAX_GRAM_PAIRS`` pairs, checked
    before any allocation.  The kernel is even, so one batched synthesis
    over the upper-triangle differences fills the matrix symmetrically.
    """
    pts = spec.points
    npts = pts.shape[0]
    check_cost(f"a Gram matrix of {npts} points", npts * (npts - 1) // 2, "pairs",
               _MAX_GRAM_PAIRS)
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


def sampled_gram_matrix(d: int, npts: int, coeffs: CoeffSeq, trunc: int, seed: int):
    """:func:`gram_matrix` at npts seeded uniform points of [-pi, pi)^d, checked first:
    the pairs against _MAX_GRAM_PAIRS, the npts x d drawn floats against
    numerics._MAX_GRID_FLOATS, once npts >= 1."""
    if npts < 1:
        raise ValueError("at least one point is required")
    check_cost(f"a Gram matrix of {npts} points", npts * (npts - 1) // 2, "pairs",
               _MAX_GRAM_PAIRS)
    check_cost(f"{npts} sample point(s) at d = {d}", npts * d, "floats", _MAX_GRID_FLOATS)
    pts = np.random.default_rng(seed).uniform(-math.pi, math.pi, (npts, d))
    return gram_matrix(GramSpec(d, pts, coeffs, trunc))


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
