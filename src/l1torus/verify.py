"""Named verification suites for the package's mathematical identities.

A suite is a grid, two routes and a tolerance: its check evaluates both
routes of one identity at every case of a deterministic, seeded grid and
returns ``(params, errors, details)``, one error per case.  The driver
reports max_error = the largest error and passed = max_error <= tolerance.
Suites whose cases carry case-dependent bounds (tail bounds, 3-sigma Monte
Carlo bands, scale-relative eigenvalue floors) report the ratio of observed
error to allowed error, with default tolerance 1.0.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .bspline import bspline_values
from .bspline_fourier import (biorthogonality_matrix, mean_closed, mean_recursion_sides,
                              mean_series, mean_torus_mc)
from .divdiff import divided_difference_cos
from .kernels import (_biortho_table, _check_product, _shell_table, biortho_generating_pair,
                      biortho_generating_tail, dirichlet_kernel_batch, dirichlet_seed,
                      poisson_divdiff, poisson_kernel, poisson_product, shell_seed,
                      shell_sum_batch)
from .numerics import (DEFAULT_SEED, MAX_DRAWS, gauss_legendre, rel_err, shell_count,
                       shell_enumerate, theta_vector)
from .pdf import GramSpec, gram_matrix, min_eigenvalue, spdf_check, spdf_pair_search
from .summability import CoeffSeq, Tail


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
    """Optional overrides shared by every suite; None keeps suite defaults.

    Out-of-range overrides raise ValueError: d < 1, nmax < 0, max_index < 0,
    nterms < 1, budget < 4 (fewer than two antithetic pairs give no spread
    to compare against), and a tol that is negative or not finite.
    """

    d: int | None = None
    nmax: int | None = None
    max_index: int | None = None
    nterms: int | None = None
    budget: int | None = None
    seed: int = DEFAULT_SEED
    tol: float | None = None

    def __post_init__(self):
        for name, least in (("d", 1), ("nmax", 0), ("max_index", 0), ("nterms", 1),
                            ("budget", 4)):
            value = getattr(self, name)
            if value is not None and value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


def sample_separated_theta(rng: np.random.Generator, d: int, count: int,
                           min_cos_gap: float = 1e-2) -> np.ndarray:
    """Uniform torus points whose cosine knots are pairwise separated.

    Rejection-samples until all pairwise |cos(theta_i) - cos(theta_j)| are at
    least ``min_cos_gap``, keeping divided-difference tables well
    conditioned.  A point that takes more than ``MAX_DRAWS`` draws raises
    ValueError, at once when d cosines in [-1, 1] cannot be so far apart.
    """
    failure = f"no {d} angles with cosines {min_cos_gap:g} apart in {MAX_DRAWS} draws"
    if min_cos_gap > 0 and d - 1 > 2.0 / min_cos_gap:
        raise ValueError(failure)
    out = np.empty((count, d))
    for i in range(count):
        for _ in range(MAX_DRAWS):
            t = rng.uniform(-math.pi, math.pi, d)
            c = np.sort(np.cos(t))
            if d == 1 or np.min(np.diff(c)) >= min_cos_gap:
                out[i] = t
                break
        else:
            raise ValueError(failure)
    return out


def field_integrals(d: int, theta, integrand: Callable, nodes_per_segment: int = 32) -> list[float]:
    """Integrals of each row of integrand(u) times M_{d-1}(u | cos theta) du over the line.

    ``integrand`` maps the 1-D array of quadrature nodes to rows of values at
    them, shape (rows, nodes); one integral is returned per row.
    Piecewise Gauss-Legendre between consecutive sorted knots; the B-spline
    is polynomial on every segment, so smooth integrands converge fast.
    Each segment [a, b] is split into ceil(4 (b - a)) equal panels of length
    at most 1/4: one rule over a long segment loses accuracy when the
    integrand has a pole just beyond its end, as the Poisson kernel
    (1 - 2ru + r^2)^(-d) does at u = (1 + r^2) / (2r).  The B-spline values
    at all nodes are computed in one call and shared across the rows.
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
    return [float(np.dot(wm, row)) for row in np.asarray(integrand(x), dtype=float)]


@dataclass(frozen=True)
class Suite:
    """One identity check: what it states, its default tolerance, its grid."""

    description: str
    tolerance: float
    check: Callable[[VerifyConfig], tuple[dict, list, dict]]


# name -> suite, in the order a full run reports them
SUITES: dict[str, Suite] = {}


def _suite(name: str, tolerance: float, description: str):
    """Register the decorated check as the suite ``name``."""
    def register(check):
        SUITES[name] = Suite(description, tolerance, check)
        return check
    return register


def _dims(cfg: VerifyConfig, default: tuple[int, ...]) -> tuple[int, ...]:
    return (cfg.d,) if cfg.d is not None else default


# shell-divdiff and dirichlet-divdiff loop over the orders n <= nmax, refused before the
# loop by _check_product: every order at the top order's cost, against the route's per-call
# limit.  The mean suites call each route once per dimension, under its own bound.


@_suite("shell-count", 0.0,
        "l1 shell cardinality: generating-function count, direct "
        "enumeration, and biortho_poly(d, n, 1)/(d-1)! agree as integers")
def _shell_count(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3, 4))
    nmax = cfg.nmax if cfg.nmax is not None else 10
    errors = []
    for d in dims:
        shell_enumerate(d, nmax)  # the loop below builds no larger shell: fail before any
        at_one = _biortho_table(d, nmax, 1.0).tolist()
        for n in range(nmax + 1):
            count = shell_count(d, n)
            enum = len(shell_enumerate(d, n))
            via_poly = round(at_one[n]) / math.factorial(d - 1)
            errors += [abs(count - enum), abs(count - via_poly)]
    return {"dims": list(dims), "nmax": nmax}, errors, {}


def _seed_divdiff(cfg: VerifyConfig, stream: int, first_n: int, seed, reference):
    """Divided differences of ``seed(d, n)`` at the knots cos(theta_i) against
    the batched lattice sum ``reference(d, n, thetas)``, for first_n <= n <= nmax."""
    dims = _dims(cfg, (2, 3, 4))
    nmax = cfg.nmax if cfg.nmax is not None else 8
    _check_product(f"lattice sums at 30 points, n = {first_n} ... {nmax}",
                   30 * max(nmax - first_n + 1, 0), sum(dims), nmax)
    rng = np.random.default_rng([cfg.seed, stream])
    errors = []
    for d in dims:
        thetas = sample_separated_theta(rng, d, 30)
        for n in range(first_n, nmax + 1):
            errors += map(rel_err, divided_difference_cos(seed(d, n), thetas).tolist(),
                          reference(d, n, thetas).tolist())
    return {"dims": list(dims), "n_range": [first_n, nmax], "points": 30}, errors, {}


SUITES["shell-divdiff"] = Suite(
    "sum of exp(i a.theta) over |a|_1 = n equals the divided "
    "difference of the shell seed over the knots cos(theta_i)", 1e-8,
    partial(_seed_divdiff, stream=1, first_n=1, seed=shell_seed, reference=shell_sum_batch))


@_suite("shell-integral", 1e-7,
        "shell sums equal the integral of biortho_poly(d, n, u) "
        "against the B-spline knot field M_{d-1}(u | cos theta)")
def _shell_integral(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3, 4))
    nmax = cfg.nmax if cfg.nmax is not None else 8
    rng = np.random.default_rng([cfg.seed, 2])
    errors = []
    for d in dims:
        thetas = sample_separated_theta(rng, d, 30)
        rows = partial(_biortho_table, d, nmax)
        for t, ref in zip(thetas, _shell_table(d, nmax, thetas).tolist()):
            errors += map(rel_err, field_integrals(d, t, rows), ref)
    return {"dims": list(dims), "n_range": [0, nmax], "points": 30}, errors, {}


SUITES["dirichlet-divdiff"] = Suite(
    "sum of exp(i a.theta) over |a|_1 <= n equals the divided "
    "difference of the Dirichlet seed over the knots cos(theta_i)", 1e-8,
    partial(_seed_divdiff, stream=3, first_n=0, seed=dirichlet_seed,
            reference=dirichlet_kernel_batch))


@_suite("biortho-generating", 1.0,
        "sum of biortho_poly(d, n, u) r^n equals "
        "(d-1)! (1-r^2)^d (1-2ru+r^2)^(-d), within the series tail bound")
def _biortho_generating(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3))
    nterms = cfg.nterms if cfg.nterms is not None else 80
    rng = np.random.default_rng([cfg.seed, 4])
    errors = []
    for d in dims:
        for r in (0.2, 0.5):
            bound = biortho_generating_tail(d, r, nterms) + 1e-12
            if not math.isfinite(bound):  # every error would pass against it
                raise ValueError(f"biortho-generating at d = {d}, r = {r}, nterms = {nterms}: "
                                 f"the series tail has no finite bound")
            series, closed = biortho_generating_pair(d, r, rng.uniform(-1.0, 1.0, 20), nterms)
            errors += (np.abs(series - closed) / bound).tolist()
    return {"dims": list(dims), "r": [0.2, 0.5], "nterms": nterms, "points": 20}, errors, {}


@_suite("poisson-bspline", 1e-7,
        "(d-1)! integral of (1-2ru+r^2)^(-d) M_{d-1}(u | cos theta) du "
        "equals prod_i (1-2r cos(theta_i)+r^2)^(-1)")
def _poisson_bspline(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3, 4))
    rs = (0.2, 0.5, 0.8)
    rng = np.random.default_rng([cfg.seed, 5])
    errors = []
    for d in dims:
        def powers(x, d=d):
            return [(1.0 - 2.0 * r * x + r * r) ** (-d) for r in rs]

        for t in sample_separated_theta(rng, d, 10):
            lhs = field_integrals(d, t, powers, nodes_per_segment=40)
            errors += [rel_err(math.factorial(d - 1) * v,
                               float(np.prod(1.0 / (1.0 - 2.0 * r * np.cos(t) + r * r))))
                       for r, v in zip(rs, lhs)]
    return {"dims": list(dims), "r": list(rs), "points": 10}, errors, {}


@_suite("poisson-divdiff", 1e-10,
        "[cos theta_1, ..., cos theta_d] of u -> (1-2ru+r^2)^(-1) "
        "equals (2r)^(d-1) prod_i (1-2r cos(theta_i)+r^2)^(-1)")
def _poisson_divdiff(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3, 4))
    rng = np.random.default_rng([cfg.seed, 6])
    errors = []
    for d in dims:
        # the last point repeats the knot cos(0.8) d - 1 times
        thetas = np.vstack([sample_separated_theta(rng, d, 20), [2.0] + [0.8] * (d - 1)])
        for r in (0.1, 0.3, 0.7):
            errors += map(rel_err, divided_difference_cos(poisson_kernel(r), thetas).tolist(),
                          [poisson_divdiff(d, r, t) for t in thetas])
    return {"dims": list(dims), "r": [0.1, 0.3, 0.7], "points": 21}, errors, {}


@_suite("poisson-series", 1e-10,
        "sum_n r^n shell_sum(d, n, theta) equals the product-form "
        "Poisson kernel")
def _poisson_series(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3))
    nterms = cfg.nterms if cfg.nterms is not None else 60
    # its 10-point tables may cost what one call may, checked before the points are drawn
    _check_product(f"shell sums at 10 points, n = 0 ... {nterms}", 10, sum(dims), nterms)
    rng = np.random.default_rng([cfg.seed, 7])
    errors = []
    for d in dims:
        thetas = rng.uniform(-math.pi, math.pi, (10, d))
        shells = _shell_table(d, nterms, thetas)
        for r in (0.2, 0.5):
            partials = shells @ r ** np.arange(nterms + 1)
            errors += [rel_err(s, poisson_product(d, r, t))
                       for t, s in zip(thetas, partials.tolist())]
    return {"dims": list(dims), "r": [0.2, 0.5], "nterms": nterms, "points": 10}, errors, {}


@_suite("biortho", 1.0,
        "integral of mean(d, n, u) * biortho_poly(d, n', u) du equals "
        "delta(n, n'); off-diagonal tolerance 1e-8, diagonal 1e-6")
def _biortho(cfg: VerifyConfig):
    cases = [(cfg.d, 5)] if cfg.d is not None else [(2, 6), (3, 5)]
    cases = [(d, cfg.max_index if cfg.max_index is not None else top) for d, top in cases]
    off_tol, diag_tol = 1e-8, 1e-6
    errors, details = [], {}
    for d, top in cases:
        b = biorthogonality_matrix(d, top)
        max_off = float(np.max(np.abs(b - np.diag(np.diag(b)))))
        max_diag = float(np.max(np.abs(np.diag(b) - 1.0)))
        details[f"d={d}"] = {"max_offdiag": max_off, "max_diag_dev": max_diag,
                             "size": top + 1}
        errors += [max_off / off_tol, max_diag / diag_tol]
    return {"cases": [{"d": d, "max_index": t} for d, t in cases]}, errors, details


@_suite("mean-recursion", 1.0,
        "(d-1)! alternating binomial sum of mean(d, n+2j, u) equals "
        "c_{d-1} (1-u^2)^(d-3/2) C_n^{d-1}(u)/C_n^{d-1}(1)")
def _mean_recursion(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3))
    rng = np.random.default_rng([cfg.seed, 8])
    us = rng.uniform(-0.9, 0.9, 20)
    nmaxes = [cfg.nmax if cfg.nmax is not None else (5 if d == 2 else 3) for d in dims]
    errors, details = [], {}
    for d, nmax in zip(dims, nmaxes):
        tol_d = 1e-10 if d == 2 else 1e-12
        sides = zip(*mean_recursion_sides(d, range(nmax + 1), us))
        worst = float(np.max([list(map(rel_err, lhs, rhs)) for lhs, rhs in sides]))
        details[f"d={d}"] = {"max_error": worst, "tolerance": tol_d, "nmax": nmax}
        errors.append(worst / tol_d)
    return {"dims": list(dims), "points": 20}, errors, details


@_suite("mean-methods", 1e-12,
        "for d = 2 the closed form of the mean agrees with the "
        "filtered Gegenbauer series on a 50-point grid")
def _mean_methods(cfg: VerifyConfig):
    nmax = cfg.nmax if cfg.nmax is not None else 4
    us = np.linspace(-0.99, 0.99, 50)
    # every order from one call each; nterms None: each point takes its own number of terms
    rows = zip(mean_closed(2, range(nmax + 1), us),
               mean_series(2, range(nmax + 1), us, nterms=cfg.nterms))
    errors = [rel_err(s, c) for closed, series in rows for c, s in zip(closed, series)]
    return {"nmax": nmax, "nterms": cfg.nterms, "grid": 50}, errors, {}


@_suite("mean-mc", 1.0,
        "seeded Monte-Carlo torus average of the field against the "
        "normalized shell sum matches the deterministic mean within 3 sigma")
def _mean_mc(cfg: VerifyConfig):
    dims = _dims(cfg, (2, 3))
    errors, cases = [], []
    for d in dims:
        budget = cfg.budget if cfg.budget is not None else (200_000 if d == 2 else 500_000)
        us = [-0.6, 0.0, 0.6] if d == 2 else [-0.5, 0.0, 0.5]
        orders = range((cfg.nmax if cfg.nmax is not None else (3 if d == 2 else 4)) + 1)
        refs = (mean_closed if d == 2 else mean_series)(d, orders, np.array(us))
        est = mean_torus_mc(d, orders, np.array(us), budget=budget, seed=cfg.seed)
        for n, ref, value, stderr in zip(orders, refs, est.value, est.stderr):
            # the paired average is exactly 0 with no spread where the sign-flipped term
            # cancels the direct one (odd n at u = 0): keep the ratio finite there
            errors += (abs(value - ref) / np.maximum(3.0 * stderr, 1e-15)).tolist()
            cases += [{"d": d, "n": n, "u": u, "mc": v, "reference": r, "stderr": e} for u, v, r, e
                      in zip(us, value.tolist(), ref.tolist(), stderr.tolist())]
    return {"dims": list(dims), "budget": cfg.budget}, errors, {"cases": cases}


@_suite("gram-psd", 1.0,
        "random nonnegative coefficient sequences produce Gram "
        "matrices with smallest eigenvalue >= -1e-8 * norm")
def _gram_psd(cfg: VerifyConfig):
    rng = np.random.default_rng([cfg.seed, 9])
    errors = []
    for k in range(20):
        d = 2 if k % 2 == 0 else 3
        npts = int(rng.integers(2, 16))
        trunc = int(rng.integers(1, 9))
        head = rng.uniform(0.0, 1.0, trunc + 1)
        head[rng.uniform(size=trunc + 1) < 0.2] = 0.0
        if not np.any(head):
            head[0] = 1.0
        pts = rng.uniform(-math.pi, math.pi, (npts, d))
        a = gram_matrix(GramSpec(d, pts, CoeffSeq(head), trunc))
        eig_min = min_eigenvalue(a)
        scale = float(np.max(np.abs(np.linalg.eigvalsh(a))))
        errors.append(-eig_min / (1e-8 * max(scale, 1e-300)) if eig_min < 0 else 0.0)
    return {"matrices": 20, "dims": [2, 3], "max_points": 15}, errors, {}


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


@_suite("spdf-cross", 0.0,
        "strict positive definiteness: divisor-cover certificate "
        "agrees with brute-force pair search (n < l <= 40, m <= 200)")
def _spdf_cross(cfg: VerifyConfig):
    errors, cases = [], []
    for head, n0, q, res in _SPDF_SPECS:
        c = CoeffSeq(head, Tail(n0, q, frozenset(res)))
        cert = spdf_check(c)
        failures = spdf_pair_search(c, pair_limit=40, m_limit=200)
        # a refuted certificate must name a pair the brute force also fails on
        agree = not failures if cert.ok else cert.witness in failures
        errors.append(0.0 if agree else 1.0)
        cases.append({"head": list(head), "n0": n0, "modulus": q,
                      "residues": list(res), "certificate": cert.ok,
                      "witness": cert.witness,
                      "brute_failures": failures[:5]})
    return {"specs": len(_SPDF_SPECS)}, errors, {"cases": cases}


def _report(name: str, cfg: VerifyConfig) -> IdentityReport:
    suite = SUITES[name]
    params, errors, details = suite.check(cfg)
    if len(errors) == 0:
        raise ValueError(f"suite {name} compares no case at {params}")
    max_error = float(np.max(errors))
    tol = cfg.tol if cfg.tol is not None else suite.tolerance
    return IdentityReport(name, suite.description, params, max_error, tol,
                          bool(max_error <= tol), details)


def run_suites(names: list[str] | None, cfg: VerifyConfig | None = None) -> list[IdentityReport]:
    """Run the named suites (all of them when names is None).

    A suite whose grid, after the overrides in ``cfg``, holds no case
    raises ValueError instead of passing vacuously.
    """
    cfg = cfg or VerifyConfig()
    chosen = list(SUITES) if names is None else names
    for name in chosen:
        if name not in SUITES:
            raise ValueError(f"unknown suite: {name!r}")
    return [_report(name, cfg) for name in chosen]
