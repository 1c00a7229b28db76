"""Named verification suites for the package's mathematical identities.

Each suite evaluates one identity (or family of identities) on a
deterministic, seeded parameter grid and returns an :class:`IdentityReport`.
Suites whose cases carry case-dependent bounds (tail bounds, 3-sigma Monte
Carlo bands, scale-relative eigenvalue floors) report the worst ratio of
observed error to allowed error, with tolerance 1.0.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .bspline import bspline_values
from .bspline_fourier import (biorthogonality_matrix, mean_d2_closed,
                              mean_recursion_sides, mean_series, mean_torus_mc)
from .divdiff import divided_difference_cos
from .kernels import (biortho_generating_pair, biortho_generating_tail,
                      biortho_poly, dirichlet_kernel_batch, dirichlet_seed,
                      poisson_divdiff, poisson_kernel, poisson_product,
                      shell_seed, shell_sum_batch)
from .numerics import (DEFAULT_SEED, gauss_legendre, rel_err, shell_count, shell_enumerate,
                       theta_vector)
from .pdf import GramSpec, gram_matrix, min_eigenvalue, spdf_check, spdf_pair_search
from .summability import CoeffSeq, ResiduesPositive


@dataclass
class IdentityReport:
    """Outcome of one verification suite."""

    name: str
    description: str
    params: dict
    max_error: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VerifyConfig:
    """Optional overrides shared by every suite; None keeps suite defaults."""

    d: int | None = None
    nmax: int | None = None
    max_index: int | None = None
    nterms: int | None = None
    budget: int | None = None
    seed: int = DEFAULT_SEED
    tol: float | None = None


def sample_separated_theta(rng: np.random.Generator, d: int, count: int,
                           min_cos_gap: float = 1e-2) -> np.ndarray:
    """Uniform torus points whose cosine knots are pairwise separated.

    Rejection-samples until all pairwise |cos(theta_i) - cos(theta_j)| are at
    least ``min_cos_gap``, keeping divided-difference tables well
    conditioned.
    """
    out = np.empty((count, d))
    for i in range(count):
        while True:
            t = rng.uniform(-math.pi, math.pi, d)
            c = np.sort(np.cos(t))
            if d == 1 or np.min(np.diff(c)) >= min_cos_gap:
                out[i] = t
                break
    return out


def field_integrals(d: int, theta, integrands: list[Callable], nodes_per_segment: int = 32) -> list[float]:
    """Integrals of integrand(u) * M_{d-1}(u | cos theta) du over the line.

    Piecewise Gauss-Legendre between consecutive sorted knots; the B-spline
    is polynomial on every segment, so smooth integrands converge fast.
    Each segment [a, b] is split into ceil(4 (b - a)) equal panels of length
    at most 1/4: one rule over a long segment loses accuracy when the
    integrand has a pole just beyond its end, as the Poisson kernel
    (1 - 2ru + r^2)^(-d) does at u = (1 + r^2) / (2r).  The B-spline values
    at all nodes are computed in one call and shared across the integrands.
    """
    knots = np.sort(np.cos(theta_vector(theta, d)))
    if knots[0] == knots[-1]:
        raise ValueError("all knots coincide")
    gl = gauss_legendre(nodes_per_segment)
    cuts = [np.linspace(a, b, math.ceil(4.0 * (b - a)) + 1)
            for a, b in zip(knots[:-1], knots[1:]) if b > a]
    lo = np.concatenate([c[:-1] for c in cuts])[:, None]
    hi = np.concatenate([c[1:] for c in cuts])[:, None]
    x = (0.5 * (hi - lo) * gl.nodes + 0.5 * (lo + hi)).ravel()
    wm = (0.5 * (hi - lo) * gl.weights).ravel() * bspline_values(knots, x)
    return [float(np.dot(wm, np.asarray(fn(x), dtype=float))) for fn in integrands]


def field_integral(d: int, theta, integrand: Callable, nodes_per_segment: int = 32) -> float:
    """Single-integrand convenience wrapper around :func:`field_integrals`."""
    return field_integrals(d, theta, [integrand], nodes_per_segment)[0]


def _dims(cfg: VerifyConfig, default: tuple[int, ...]) -> tuple[int, ...]:
    return (cfg.d,) if cfg.d is not None else default


def _tol(cfg: VerifyConfig, default: float) -> float:
    return cfg.tol if cfg.tol is not None else default


_CANDIDATE_COUNTS = {
    2: lambda n: 4.0 * n,
    3: lambda n: 2.0 * n * n + 1.0,
    4: lambda n: 4.0 * n * (n * n + 2.0) / 9.0,
}


def suite_shell_count(cfg: VerifyConfig) -> IdentityReport:
    """Shell counts: generating function = enumeration = biorthogonal value at 1."""
    dims = _dims(cfg, (2, 3, 4))
    nmax = cfg.nmax if cfg.nmax is not None else 10
    mismatches = 0
    candidates = []
    for d in dims:
        for n in range(nmax + 1):
            count = shell_count(d, n)
            enum = len(shell_enumerate(d, n))
            via_poly = round(float(biortho_poly(d, n, 1.0)) / math.factorial(d - 1))
            if not (count == enum == via_poly):
                mismatches += 1
            if d in _CANDIDATE_COUNTS:
                cand = _CANDIDATE_COUNTS[d](n)
                candidates.append({"d": d, "n": n, "count": count,
                                   "closed_form_candidate": cand,
                                   "matches": cand == count})
    return IdentityReport(
        name="shell-count",
        description="l1 shell cardinality: generating-function count, direct "
                    "enumeration, and biortho_poly(d, n, 1)/(d-1)! agree as integers",
        params={"dims": list(dims), "nmax": nmax},
        max_error=float(mismatches),
        tolerance=_tol(cfg, 0.0),
        passed=mismatches == 0,
        details={"low_dim_closed_form_candidates": candidates,
                 "note": "the quoted closed-form candidates for d = 3, 4 do not "
                         "match the verified counts; d = 2 matches for n >= 1"},
    )


def suite_shell_divdiff(cfg: VerifyConfig) -> IdentityReport:
    """Shell sums equal divided differences of the shell seed (n >= 1)."""
    dims = _dims(cfg, (2, 3, 4))
    nmax = cfg.nmax if cfg.nmax is not None else 8
    rng = np.random.default_rng([cfg.seed, 1])
    worst = 0.0
    for d in dims:
        thetas = sample_separated_theta(rng, d, 30)
        for n in range(1, nmax + 1):
            fn = shell_seed(d, n)
            for t, ref in zip(thetas, shell_sum_batch(d, n, thetas).tolist()):
                worst = max(worst, rel_err(divided_difference_cos(fn, t), ref))
    return IdentityReport(
        name="shell-divdiff",
        description="sum of exp(i a.theta) over |a|_1 = n equals the divided "
                    "difference of the shell seed over the knots cos(theta_i)",
        params={"dims": list(dims), "n_range": [1, nmax], "points": 30},
        max_error=worst,
        tolerance=_tol(cfg, 1e-8),
        passed=worst <= _tol(cfg, 1e-8),
    )


def suite_shell_integral(cfg: VerifyConfig) -> IdentityReport:
    """Shell sums equal integrals of the biorthogonal polynomial against the field."""
    dims = _dims(cfg, (2, 3, 4))
    nmax = cfg.nmax if cfg.nmax is not None else 8
    rng = np.random.default_rng([cfg.seed, 2])
    worst = 0.0
    for d in dims:
        thetas = sample_separated_theta(rng, d, 30)
        refs = np.array([shell_sum_batch(d, n, thetas) for n in range(nmax + 1)])
        integrands = [
            (lambda x, dd=d, nn=n: biortho_poly(dd, nn, x))
            for n in range(nmax + 1)
        ]
        for t, ref in zip(thetas, refs.T.tolist()):
            vals = field_integrals(d, t, integrands)
            for n in range(nmax + 1):
                worst = max(worst, rel_err(vals[n], ref[n]))
    return IdentityReport(
        name="shell-integral",
        description="shell sums equal the integral of biortho_poly(d, n, u) "
                    "against the B-spline knot field M_{d-1}(u | cos theta)",
        params={"dims": list(dims), "n_range": [0, nmax], "points": 30},
        max_error=worst,
        tolerance=_tol(cfg, 1e-7),
        passed=worst <= _tol(cfg, 1e-7),
    )


def suite_dirichlet_divdiff(cfg: VerifyConfig) -> IdentityReport:
    """Dirichlet kernels equal divided differences of the Dirichlet seed (n >= 0)."""
    dims = _dims(cfg, (2, 3, 4))
    nmax = cfg.nmax if cfg.nmax is not None else 8
    rng = np.random.default_rng([cfg.seed, 3])
    worst = 0.0
    for d in dims:
        thetas = sample_separated_theta(rng, d, 30)
        for n in range(nmax + 1):
            fn = dirichlet_seed(d, n)
            for t, ref in zip(thetas, dirichlet_kernel_batch(d, n, thetas).tolist()):
                worst = max(worst, rel_err(divided_difference_cos(fn, t), ref))
    return IdentityReport(
        name="dirichlet-divdiff",
        description="sum of exp(i a.theta) over |a|_1 <= n equals the divided "
                    "difference of the Dirichlet seed over the knots cos(theta_i)",
        params={"dims": list(dims), "n_range": [0, nmax], "points": 30},
        max_error=worst,
        tolerance=_tol(cfg, 1e-8),
        passed=worst <= _tol(cfg, 1e-8),
    )


def suite_biortho_generating(cfg: VerifyConfig) -> IdentityReport:
    """Generating function of the biorthogonal family against its closed form."""
    dims = _dims(cfg, (2, 3))
    nterms = cfg.nterms if cfg.nterms is not None else 80
    rng = np.random.default_rng([cfg.seed, 4])
    worst_ratio = 0.0
    for d in dims:
        for r in (0.2, 0.5):
            bound = biortho_generating_tail(d, r, nterms) + 1e-12
            for u in rng.uniform(-1.0, 1.0, 20):
                partial, closed = biortho_generating_pair(d, r, float(u), nterms)
                worst_ratio = max(worst_ratio, abs(partial - closed) / bound)
    return IdentityReport(
        name="biortho-generating",
        description="sum of biortho_poly(d, n, u) r^n equals "
                    "(d-1)! (1-r^2)^d (1-2ru+r^2)^(-d), within the series tail bound",
        params={"dims": list(dims), "r": [0.2, 0.5], "nterms": nterms, "points": 20},
        max_error=worst_ratio,
        tolerance=_tol(cfg, 1.0),
        passed=worst_ratio <= _tol(cfg, 1.0),
    )


def suite_poisson_bspline(cfg: VerifyConfig) -> IdentityReport:
    """Weighted field integral of the Poisson power kernel equals the product form."""
    dims = _dims(cfg, (2, 3, 4))
    rng = np.random.default_rng([cfg.seed, 5])
    worst = 0.0
    for d in dims:
        thetas = sample_separated_theta(rng, d, 10)
        for r in (0.2, 0.5, 0.8):
            for t in thetas:
                lhs = math.factorial(d - 1) * field_integral(
                    d, t, lambda x: (1.0 - 2.0 * r * x + r * r) ** (-d),
                    nodes_per_segment=40)
                rhs = float(np.prod(1.0 / (1.0 - 2.0 * r * np.cos(t) + r * r)))
                worst = max(worst, rel_err(lhs, rhs))
    return IdentityReport(
        name="poisson-bspline",
        description="(d-1)! integral of (1-2ru+r^2)^(-d) M_{d-1}(u | cos theta) du "
                    "equals prod_i (1-2r cos(theta_i)+r^2)^(-1)",
        params={"dims": list(dims), "r": [0.2, 0.5, 0.8], "points": 10},
        max_error=worst,
        tolerance=_tol(cfg, 1e-7),
        passed=worst <= _tol(cfg, 1e-7),
    )


def suite_poisson_divdiff(cfg: VerifyConfig) -> IdentityReport:
    """Divided difference of the Poisson kernel equals its closed product form."""
    dims = _dims(cfg, (2, 3, 4))
    rng = np.random.default_rng([cfg.seed, 6])
    worst = 0.0
    for d in dims:
        thetas = list(sample_separated_theta(rng, d, 20))
        confluent = np.full(d, 0.8)
        confluent[0] = 2.0
        thetas.append(confluent)  # repeated knots exercise the derivative path
        for r in (0.1, 0.3, 0.7):
            fn = poisson_kernel(r)
            for t in thetas:
                worst = max(worst, rel_err(divided_difference_cos(fn, t),
                                           poisson_divdiff(d, r, t)))
    return IdentityReport(
        name="poisson-divdiff",
        description="[cos theta_1, ..., cos theta_d] of u -> (1-2ru+r^2)^(-1) "
                    "equals (2r)^(d-1) prod_i (1-2r cos(theta_i)+r^2)^(-1)",
        params={"dims": list(dims), "r": [0.1, 0.3, 0.7], "points": 21},
        max_error=worst,
        tolerance=_tol(cfg, 1e-10),
        passed=worst <= _tol(cfg, 1e-10),
    )


def suite_poisson_series(cfg: VerifyConfig) -> IdentityReport:
    """Power series of shell sums sums to the product-form Poisson kernel."""
    dims = _dims(cfg, (2, 3))
    nterms = cfg.nterms if cfg.nterms is not None else 60
    rng = np.random.default_rng([cfg.seed, 7])
    worst = 0.0
    for d in dims:
        thetas = rng.uniform(-math.pi, math.pi, (10, d))
        shells = [shell_sum_batch(d, n, thetas) for n in range(nterms + 1)]
        for r in (0.2, 0.5):
            partials = sum(r**n * shells[n] for n in range(nterms + 1))
            for t, partial in zip(thetas, partials.tolist()):
                worst = max(worst, rel_err(partial, poisson_product(d, r, t)))
    return IdentityReport(
        name="poisson-series",
        description="sum_n r^n shell_sum(d, n, theta) equals the product-form "
                    "Poisson kernel",
        params={"dims": list(dims), "r": [0.2, 0.5], "nterms": nterms, "points": 10},
        max_error=worst,
        tolerance=_tol(cfg, 1e-10),
        passed=worst <= _tol(cfg, 1e-10),
    )


def suite_biortho(cfg: VerifyConfig) -> IdentityReport:
    """Biorthogonality: the pairing matrix is the identity."""
    if cfg.d is not None:
        cases = [(cfg.d, cfg.max_index if cfg.max_index is not None else 5)]
    else:
        cases = [(2, 6), (3, 5)]
    off_tol, diag_tol = 1e-8, 1e-6
    worst_ratio = 0.0
    details = {}
    for d, top in cases:
        b = biorthogonality_matrix(d, top)
        off = b - np.diag(np.diag(b))
        max_off = float(np.max(np.abs(off)))
        max_diag = float(np.max(np.abs(np.diag(b) - 1.0)))
        details[f"d={d}"] = {"max_offdiag": max_off, "max_diag_dev": max_diag,
                             "size": top + 1}
        worst_ratio = max(worst_ratio, max_off / off_tol, max_diag / diag_tol)
    return IdentityReport(
        name="biortho",
        description="integral of mean(d, n, u) * biortho_poly(d, n', u) du equals "
                    "delta(n, n'); off-diagonal tolerance 1e-8, diagonal 1e-6",
        params={"cases": [{"d": d, "max_index": t} for d, t in cases]},
        max_error=worst_ratio,
        tolerance=_tol(cfg, 1.0),
        passed=worst_ratio <= _tol(cfg, 1.0),
        details=details,
    )


def suite_mean_recursion(cfg: VerifyConfig) -> IdentityReport:
    """Alternating-sum recursion for the B-spline Fourier means."""
    dims = _dims(cfg, (2, 3))
    rng = np.random.default_rng([cfg.seed, 8])
    us = rng.uniform(-0.9, 0.9, 20)
    tol_by_d = {2: 1e-10, 3: 5e-3}
    worst_ratio = 0.0
    details = {}
    for d in dims:
        tol_d = tol_by_d.get(d, 5e-3)
        nmax = cfg.nmax if cfg.nmax is not None else (5 if d == 2 else 3)
        worst = 0.0
        for n in range(nmax + 1):
            for u in us:
                lhs, rhs = mean_recursion_sides(d, n, float(u))
                worst = max(worst, rel_err(lhs, rhs))
        details[f"d={d}"] = {"max_error": worst, "tolerance": tol_d, "nmax": nmax}
        worst_ratio = max(worst_ratio, worst / tol_d)
    return IdentityReport(
        name="mean-recursion",
        description="(d-1)! alternating binomial sum of mean(d, n+2j, u) equals "
                    "c_{d-1} (1-u^2)^(d-3/2) C_n^{d-1}(u)/C_n^{d-1}(1)",
        params={"dims": list(dims), "points": 20},
        max_error=worst_ratio,
        tolerance=_tol(cfg, 1.0),
        passed=worst_ratio <= _tol(cfg, 1.0),
        details=details,
    )


def suite_mean_methods(cfg: VerifyConfig) -> IdentityReport:
    """d = 2 closed form versus the Cesaro-summed Gegenbauer series."""
    nterms = cfg.nterms if cfg.nterms is not None else 2000
    nmax = cfg.nmax if cfg.nmax is not None else 4
    us = np.linspace(-0.99, 0.99, 50)
    worst = 0.0
    for n in range(nmax + 1):
        series = mean_series(2, n, us, nterms=nterms)
        for u, sv in zip(us, series):
            worst = max(worst, rel_err(sv, mean_d2_closed(n, math.acos(u))))
    return IdentityReport(
        name="mean-methods",
        description="for d = 2 the closed form of the mean agrees with the "
                    "Cesaro-summed series on a 50-point grid",
        params={"nmax": nmax, "nterms": nterms, "grid": 50},
        max_error=worst,
        tolerance=_tol(cfg, 2e-3),
        passed=worst <= _tol(cfg, 2e-3),
    )


def suite_mean_mc(cfg: VerifyConfig) -> IdentityReport:
    """Monte-Carlo torus averages agree with deterministic routes to 3 sigma."""
    dims = _dims(cfg, (2, 3))
    worst_ratio = 0.0
    details = []
    for d in dims:
        budget = cfg.budget if cfg.budget is not None else (200_000 if d == 2 else 500_000)
        us = (-0.6, 0.0, 0.6) if d == 2 else (-0.5, 0.0, 0.5)
        nmax = cfg.nmax if cfg.nmax is not None else (3 if d == 2 else 4)
        for n in range(nmax + 1):
            for u in us:
                if d == 2:
                    ref = mean_d2_closed(n, math.acos(u))
                else:
                    ref = mean_series(d, n, u)
                est = mean_torus_mc(d, n, u, budget=budget, seed=cfg.seed)
                # The paired average is exactly zero with zero spread when the
                # sign-flipped term cancels the direct one (odd index at u = 0),
                # so keep the ratio finite there.
                ratio = abs(est.value - ref) / max(3.0 * est.stderr, 1e-15)
                details.append({"d": d, "n": n, "u": u, "mc": est.value,
                                "reference": ref, "stderr": est.stderr})
                worst_ratio = max(worst_ratio, ratio)
    return IdentityReport(
        name="mean-mc",
        description="seeded Monte-Carlo torus average of the field against the "
                    "normalized shell sum matches the deterministic mean within 3 sigma",
        params={"dims": list(dims), "budget": cfg.budget},
        max_error=worst_ratio,
        tolerance=_tol(cfg, 1.0),
        passed=worst_ratio <= _tol(cfg, 1.0),
        details={"cases": details},
    )


def suite_gram_psd(cfg: VerifyConfig) -> IdentityReport:
    """Gram matrices of nonnegative kernels are PSD up to scaled round-off."""
    rng = np.random.default_rng([cfg.seed, 9])
    worst_ratio = 0.0
    for k in range(20):
        d = 2 if k % 2 == 0 else 3
        npts = int(rng.integers(2, 16))
        trunc = int(rng.integers(1, 9))
        head = rng.uniform(0.0, 1.0, trunc + 1)
        head[rng.uniform(size=trunc + 1) < 0.2] = 0.0
        if not np.any(head):
            head[0] = 1.0
        pts = rng.uniform(-math.pi, math.pi, (npts, d))
        spec = GramSpec(d, pts, CoeffSeq(head), trunc)
        a = gram_matrix(spec)
        eig_min = min_eigenvalue(a)
        scale = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        if eig_min < 0:
            worst_ratio = max(worst_ratio, -eig_min / (1e-8 * max(scale, 1e-300)))
    return IdentityReport(
        name="gram-psd",
        description="random nonnegative coefficient sequences produce Gram "
                    "matrices with smallest eigenvalue >= -1e-8 * norm",
        params={"matrices": 20, "dims": [2, 3], "max_points": 15},
        max_error=worst_ratio,
        tolerance=_tol(cfg, 1.0),
        passed=worst_ratio <= _tol(cfg, 1.0),
    )


_SPDF_SPECS: list[tuple[tuple[float, ...], int, int, tuple[int, ...]]] = [
    # (head, n0, modulus, residues)
    ((1.0,), 0, 2, (1,)),
    ((1.0,), 0, 2, (0,)),
    ((1.0,), 0, 3, (1,)),
    ((1.0, 0.5), 0, 3, (1, 2)),
    ((1.0,), 0, 3, (0, 1)),
    ((1.0,), 2, 4, (1,)),
    ((1.0, 0.0, 0.0), 0, 4, (1, 2)),
    ((1.0,), 0, 4, (0, 1, 2)),
    ((0.0, 0.0, 3.0), 0, 4, (1,)),
    ((1.0, 1.0), 0, 6, (0, 1, 2, 3)),
]


def suite_spdf_cross(cfg: VerifyConfig) -> IdentityReport:
    """Divisor-cover strictness certificate versus windowed brute force."""
    disagreements = 0
    details = []
    for head, n0, q, res in _SPDF_SPECS:
        c = CoeffSeq(head, ResiduesPositive(n0, q, frozenset(res)))
        cert = spdf_check(c)
        failures = spdf_pair_search(c, pair_limit=40, m_limit=200)
        agree = cert.ok == (len(failures) == 0)
        if not cert.ok and failures and cert.witness not in failures:
            agree = False
        if not agree:
            disagreements += 1
        details.append({"head": list(head), "n0": n0, "modulus": q,
                        "residues": list(res), "certificate": cert.ok,
                        "witness": cert.witness,
                        "brute_failures": failures[:5]})
    return IdentityReport(
        name="spdf-cross",
        description="strict positive definiteness: divisor-cover certificate "
                    "agrees with brute-force pair search (n < l <= 40, m <= 200)",
        params={"specs": len(_SPDF_SPECS)},
        max_error=float(disagreements),
        tolerance=_tol(cfg, 0.0),
        passed=disagreements == 0,
        details={"cases": details},
    )


SUITES: dict[str, Callable[[VerifyConfig], IdentityReport]] = {
    "shell-count": suite_shell_count,
    "shell-divdiff": suite_shell_divdiff,
    "shell-integral": suite_shell_integral,
    "dirichlet-divdiff": suite_dirichlet_divdiff,
    "biortho-generating": suite_biortho_generating,
    "poisson-bspline": suite_poisson_bspline,
    "poisson-divdiff": suite_poisson_divdiff,
    "poisson-series": suite_poisson_series,
    "biortho": suite_biortho,
    "mean-recursion": suite_mean_recursion,
    "mean-methods": suite_mean_methods,
    "mean-mc": suite_mean_mc,
    "gram-psd": suite_gram_psd,
    "spdf-cross": suite_spdf_cross,
}


def run_suites(names: list[str] | None, cfg: VerifyConfig | None = None) -> list[IdentityReport]:
    """Run the named suites (all of them when names is None)."""
    cfg = cfg or VerifyConfig()
    chosen = list(SUITES) if names is None else names
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite: {name!r}")
    return [SUITES[name](cfg) for name in chosen]
