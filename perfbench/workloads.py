"""Job lists of the three workloads and the independent check of every job.

A job is one operation a user pays for: one Monte-Carlo mean, one identity
suite or divided difference, or one CLI request.  Its inputs come from the
workload seed; the library receives only those inputs.  The job list's shape
(which calls, at which sizes, in which order) is fixed, so every seed costs
the same work.  ``check`` runs after the timed pass and returns the error as
a multiple of the tolerance the tests already state: above 1 the operation
failed, and the miss is counted.  ``gross`` is the multiple beyond which the
output is wrong outright and the run is reported incorrect: GROSS for
deterministic checks, two (twelve sigma) for Monte-Carlo bands, None for
near-confluent knots and malformed input.

A job with ``known_defect`` set is an edge probe of an open defect: it runs
in the timed pass like any other job, but its misses are reported apart from
the failed operations, under the defect's name, until the defect is fixed.
Every other job passes its check on every seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from tracer import SUITES

# (d, n, repeats) per pass.  Costs rise with the shell size |shell(d, n)|;
# the weights keep the 50th and 95th latency percentiles inside one class.
MC_CASES = [(2, 0, 6), (2, 1, 6), (2, 2, 6), (2, 4, 6), (2, 8, 6),
            (3, 0, 6), (3, 1, 6), (3, 2, 6), (3, 4, 6), (3, 8, 12)]
MC_BUDGET = 20_000
# The integrand is unbounded at confluent knots, so the estimates are
# heavier-tailed than normal: over 9 240 means (140 seeds) 0.7 % fell beyond
# 3 sigma, 0.03 % beyond 4 sigma, none beyond 4.4 sigma.  A 6-sigma band keeps
# chance misses out of the failed count; a broken estimator misses it by far.
MC_SIGMAS = 6.0
# Near-confluent clusters: theta-gap of the clustered angles.
CLUSTER_GAP = 1e-8
DIVDIFF_CASES = [(3, 8), (4, 8), (5, 10), (6, 12)]
# Angles per case and kind.  With the 13 suites a pass has 61 jobs, so about
# three per pass lie above the 95th latency percentile: it falls between the
# poisson-bspline and shell-integral suites (both ~0.4 s), not on the step
# from them to the next-cheaper suite.
DIVDIFF_REPEATS = 4
DIVDIFF_TOL = 1e-8
# A thousand times the stated tolerance is no rounding or quadrature miss.
GROSS = 1e3
CONFLUENT = "near-confluent divided differences miss 1e-8 (ROADMAP open item 3)"
NAN_INPUT = "mnd --u nan prints nan and exits 0 (ROADMAP open items 3 and 4)"
POISSON_BSPLINE = ("poisson-bspline misses its 1e-7 tolerance on about a third "
                   "of verify seeds (field_integral quadrature)")


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], float]
    gross: float | None = GROSS
    known_defect: str | None = None
    span: str | None = None
    fingerprint: Callable[[object], str] = repr
    output: object = field(default=None, repr=False)


def _ratio(err: float, tol: float) -> float:
    return err / tol if math.isfinite(err) else math.inf


def _separated_theta(rng: np.random.Generator, d: int, min_cos_gap: float = 1e-2) -> np.ndarray:
    """Angles whose cosines are pairwise at least ``min_cos_gap`` apart.

    Built directly, without rejection: d cosines at stratified positions in
    [-1, 1], each angle taking a random sign.
    """
    slot = 2.0 / d
    jitter = rng.uniform(0.0, slot - min_cos_gap, d)
    cosines = np.clip(-1.0 + slot * np.arange(d) + jitter, -1.0, 1.0)
    rng.shuffle(cosines)
    return np.arccos(cosines) * rng.choice([-1.0, 1.0], d)


# ---------------------------------------------------------------- mc-means

def _mc_means(seed: int, tmp: str) -> list[Job]:
    from l1torus import bspline_fourier as bf

    rng = np.random.default_rng([seed, 1])
    jobs = []
    for d, n, reps in MC_CASES:
        for _ in range(reps):
            u = float(rng.uniform(-0.8, 0.8))
            mc_seed = int(rng.integers(2**31))

            def run(d=d, n=n, u=u, mc_seed=mc_seed):
                return bf.mean_torus_mc(d, n, u, budget=MC_BUDGET, seed=mc_seed)

            def check(est, d=d, n=n, u=u):
                ref = bf.mean_d2_closed(n, math.acos(u)) if d == 2 else bf.mean_series(d, n, u)
                return _ratio(abs(est.value - ref), MC_SIGMAS * est.stderr)

            jobs.append(Job(f"mc d={d} n={n}", run, check, gross=2.0))
    return jobs


# --------------------------------------------------------- identity-suites

def _suite_job(name: str, cfg) -> Job:
    from l1torus import verify

    def check(report):
        if report.passed:
            return 0.0
        return report.max_error / report.tolerance if report.tolerance > 0 else math.inf

    def fingerprint(report):
        return json.dumps(report.to_json(), sort_keys=True, default=float)

    return Job(f"suite {name}", lambda: verify.run_suites([name], cfg)[0], check,
               span=f"verify.{name}", fingerprint=fingerprint,
               known_defect=POISSON_BSPLINE if name == "poisson-bspline" else None)


def _cluster_theta(rng: np.random.Generator, d: int, size: int) -> np.ndarray:
    t = rng.uniform(-math.pi, math.pi, d)
    t[1:size] = t[0] + CLUSTER_GAP * np.arange(1, size)
    return t


def _identity_suites(seed: int, tmp: str) -> list[Job]:
    from l1torus import divdiff, kernels
    from l1torus.numerics import rel_err
    from l1torus.verify import VerifyConfig

    rng = np.random.default_rng([seed, 2])
    cfg = VerifyConfig(seed=int(rng.integers(2**31)))
    jobs = [_suite_job(name, cfg) for name in SUITES]
    for d, n in DIVDIFF_CASES:
        thetas = {"uniform": rng.uniform(-math.pi, math.pi, (DIVDIFF_REPEATS, d)),
                  "pair": [_cluster_theta(rng, d, 2) for _ in range(DIVDIFF_REPEATS)],
                  "triple": [_cluster_theta(rng, d, 3) for _ in range(DIVDIFF_REPEATS)]}
        for kind, ts in thetas.items():
            for t in ts:
                def run(d=d, n=n, t=t):
                    return divdiff.divided_difference_cos(kernels.shell_seed(d, n), t)

                def check(v, d=d, n=n, t=t):
                    return _ratio(rel_err(v, kernels.shell_sum(d, n, t)), DIVDIFF_TOL)

                if kind == "uniform":
                    jobs.append(Job(f"divdiff d={d} n={n} {kind}", run, check))
                else:
                    jobs.append(Job(f"divdiff d={d} n={n} {kind}", run, check, gross=None,
                                    known_defect=CONFLUENT))
    return jobs


# ------------------------------------------------------------ cli-requests

def _read_csv(path: str) -> list[dict]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]
    if not rows:
        raise ValueError("no rows")
    return rows


def _thetas(row: dict, d: int) -> np.ndarray:
    return np.array([float(row[f"theta_{i + 1}"]) for i in range(d)])


def _worst(errors) -> float:
    errors = list(errors)
    return max(errors) if all(math.isfinite(e) for e in errors) else math.inf


def _cli_run(argv: list[str]):
    """Call the CLI in process; returns (exit code, captured stderr)."""
    from l1torus import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


def _cli_job(kind: str, argv: list[str], out: str, check_file, gross=GROSS) -> Job:
    def check(result):
        code, _ = result
        if code != 0:
            return math.inf
        try:
            return check_file(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError):
            return math.inf

    def fingerprint(result):
        body = ""
        if os.path.exists(out):
            with open(out) as fh:
                body = fh.read()
        return repr(result) + body

    return Job(kind, lambda: _cli_run(argv), check, gross=gross, fingerprint=fingerprint)


def _malformed_job(argv: list[str], known_defect: str | None = None) -> Job:
    """A request the CLI must refuse with exit code 2 and one stderr line."""
    def check(result):
        code, err = result
        return 0.0 if code == 2 and len(err.strip().splitlines()) == 1 else math.inf

    return Job("malformed", lambda: _cli_run(argv), check, gross=None,
               known_defect=known_defect)


def _cli_requests(seed: int, tmp: str) -> list[Job]:
    from l1torus import bspline_fourier as bf
    from l1torus import divdiff, kernels, numerics, pdf, summability
    from l1torus.numerics import rel_err

    rng = np.random.default_rng([seed, 3])
    counter = iter(range(10**6))

    def out_path(ext="csv"):
        return os.path.join(tmp, f"req-{next(counter):04d}.{ext}")

    def spec_file(head, tail):
        path = os.path.join(tmp, f"spec-{next(counter):04d}.json")
        with open(path, "w") as fh:
            json.dump({"head": [float(h) for h in head], "tail": tail}, fh)
        return path

    def theta_flags(d, count, min_gap=1e-2):
        flags = []
        for _ in range(count):
            t = _separated_theta(rng, d, min_gap)
            flags.append("--theta=" + ",".join(repr(float(x)) for x in t))
        return flags

    def lattice_check(d, n, what):
        seed_fn = kernels.shell_seed if what == "E" else kernels.dirichlet_seed

        def check(path):
            rows = _read_csv(path)
            return _worst(_ratio(rel_err(float(r["value"]), divdiff.divided_difference_cos(
                seed_fn(d, n), _thetas(r, d))), 1e-8) for r in rows)
        return check

    def kernel_ed(kind, d, n, what, point_flags):
        out = out_path()
        argv = ["kernel", "--d", str(d), "--n", str(n), "--what", what, *point_flags, "--out", out]
        return _cli_job(kind, argv, out, lattice_check(d, n, what))

    def kernel_h(d, n, u_flags):
        out = out_path()

        def check(path):
            errs = []
            for r in _read_csv(path):
                u, v = float(r["u"]), float(r["value"])
                if u == 1.0:
                    ref = math.factorial(d - 1) * numerics.shell_count(d, n)
                    errs.append(_ratio(rel_err(v, ref), 1e-10))
                else:
                    ref = kernels.biortho_poly(d, n, u, form="z")
                    errs.append(_ratio(rel_err(v, ref), 1e-11))
            return _worst(errs)
        argv = ["kernel", "--d", str(d), "--n", str(n), "--what", "h", *u_flags, "--out", out]
        return _cli_job("kernel-h", argv, out, check)

    def kernel_g(d, n, count):
        out = out_path()
        angles = rng.uniform(0.05, math.pi - 0.05, count)

        def check(path):
            poly = kernels.dirichlet_seed_poly(d, n)
            return _worst(_ratio(abs(float(r["value"]) - float(poly(math.cos(float(r["theta"]))))),
                                 1e-10) for r in _read_csv(path))
        flags = [f for a in angles for f in ("--theta", repr(float(a)))]
        argv = ["kernel", "--d", str(d), "--n", str(n), "--what", "G", *flags, "--out", out]
        return _cli_job("kernel-G", argv, out, check)

    def mnd(kind, d, n, method, count, extra=()):
        out = out_path()
        us = rng.uniform(-0.9, 0.9, count)

        def reference(u):
            if d == 2 and method != "closed":
                return bf.mean_d2_closed(n, math.acos(u))
            if d == 2:
                return bf.mean_series(2, n, u)
            return bf.mean_order0_closed(d, u) if n == 0 else bf.mean_series(d, n, u)

        def check(path):
            errs = []
            for r in _read_csv(path):
                u, v = float(r["u"]), float(r["value"])
                if method == "mc":
                    errs.append(_ratio(abs(v - reference(u)), MC_SIGMAS * float(r["stderr"])))
                else:
                    errs.append(_ratio(rel_err(v, reference(u)), 2e-3))
            return _worst(errs)
        flags = [f for u in us for f in ("--u", repr(float(u)))]
        argv = ["mnd", "--d", str(d), "--n", str(n), "--method", method, *flags, *extra,
                "--out", out]
        return _cli_job(kind, argv, out, check, gross=2.0 if method == "mc" else GROSS)

    def count(d, nmax):
        out = out_path()

        def check(path):
            return _worst(0.0 if int(r["count"]) == len(numerics.shell_enumerate(d, int(r["n"])))
                          else math.inf for r in _read_csv(path))
        return _cli_job("count", ["count", "--d", str(d), "--nmax", str(nmax), "--out", out],
                        out, check)

    def pdf_request(d, points):
        head = rng.uniform(0.0, 1.0, 6)
        head[rng.uniform(size=6) < 0.25] = 0.0
        head[0] = 1.0
        residues = sorted({int(r) for r in rng.integers(0, 4, 2)})
        tail = {"kind": "residues-positive", "n0": 6, "modulus": 4, "residues": residues}
        spec = spec_file(head, tail)
        out = out_path("json")

        def check(path):
            with open(path) as fh:
                got = json.load(fh)
            coeffs = summability.CoeffSeq.from_json({"head": list(head), "tail": tail})
            brute_ok = not pdf.spdf_pair_search(coeffs)
            ok = (got["pdf"] is True and got["spdf"] is brute_ok
                  and math.isfinite(float(got["min_eig_sample"])))
            return 0.0 if ok else math.inf
        argv = ["pdf", "--spec", spec, "--d", str(d), "--points", str(points),
                "--seed", str(int(rng.integers(2**31))), "--out", out]
        return _cli_job("pdf", argv, out, check)

    def partial_sums(d, n, L):
        spec = spec_file(rng.uniform(-1.0, 1.0, 4), {"kind": "zero"})
        flags = theta_flags(d, 2)
        outs = [out_path(), out_path()]
        jobs = []
        for route, out in zip(("coefficients", "convolution"), outs):
            argv = ["partial-sum", "--d", str(d), "--n", str(n), "--L", str(L),
                    "--spec", spec, *flags, "--route", route, "--out", out]

            def check(path, other=outs[0]):
                # the two routes against each other, row by row
                rows, refs = _read_csv(path), _read_csv(other)
                if len(rows) != len(refs):
                    return math.inf
                return _worst(max(_ratio(rel_err(float(a[k]), float(b[k])), 1e-12)
                                  for k in ("real", "imag")) for a, b in zip(rows, refs))
            jobs.append(_cli_job("partial-sum", argv, out, check))
        return jobs

    missing = os.path.join(tmp, "missing.json")
    small_spec = spec_file([1.0, 0.5, 0.25, 0.125, 0.0625], {"kind": "zero"})
    def mc_flags():
        return ("--budget", "20000", "--seed", str(int(rng.integers(2**31))))

    # Latency classes of the mix, cheapest first.  The counts put the 50th
    # percentile inside the cheap class (where argument parsing and output
    # dominate) and the 95th inside the ~65 ms class of 40-point Gram
    # matrices and 6-point series means, below the two first-hit shells.
    cheap = ([kernel_ed("kernel-E", 3, n, "E", theta_flags(3, 4)) for n in range(2, 10)
              for _ in range(3)]
             + [kernel_ed("kernel-D", 3, n, "D", theta_flags(3, 4)) for n in range(1, 5)
                for _ in range(2)]
             + [kernel_h(3, n, ["--u", "1", "--u", repr(float(rng.uniform(-0.9, 0.9)))])
                for n in range(4, 8)]
             + [kernel_h(4, n, ["--grid-u=-0.9:0.9:20"]) for n in range(2, 6)]
             + [kernel_g(d, n, 3) for d in (3, 4) for n in (2, 5)]
             + [mnd("mnd-closed", 2, n, "closed", 3) for n in range(1, 9)]
             + [count(d, 10) for d in range(2, 6)])
    mid = ([kernel_ed("kernel-E-grid", 2, 6, "E", ["--grid", "12"]) for _ in range(2)]
           + [kernel_ed("kernel-D-grid", 3, 3, "D", ["--grid", "6"])]
           + [mnd("mnd-mc", d, n, "mc", 1, mc_flags()) for d, n in ((2, 2), (3, 1))]
           + [pdf_request(2, 12)])
    upper = (partial_sums(2, 2, 16) + partial_sums(2, 3, 16) + partial_sums(3, 1, 8)
             + [pdf_request(3, 20) for _ in range(2)]
             + [mnd("mnd-series", d, n, "series", 2) for d, n in ((2, 3), (3, 0))])
    p95 = ([pdf_request(2, 40) for _ in range(3)]
           + [mnd("mnd-series", d, n, "series", 6) for d, n in ((2, 1), (2, 2), (3, 0))])
    malformed = [
        _malformed_job(["kernel", "--d", "3", "--n", "2", "--what", "E", "--theta", "0.1,0.2",
                        "--out", out_path()]),
        _malformed_job(["mnd", "--d", "2", "--n", "1", "--method", "series", "--u", "0.9999",
                        "--out", out_path()]),
        _malformed_job(["mnd", "--d", "2", "--n", "1", "--method", "series", "--u", "nan",
                        "--out", out_path()], known_defect=NAN_INPUT),
        _malformed_job(["partial-sum", "--d", "2", "--n", "4", "--L", "8", "--spec", small_spec,
                        "--theta", "0,0", "--out", out_path()]),
        _malformed_job(["pdf", "--spec", missing, "--out", out_path("json")]),
    ]
    # Larger shells: the first request of each enumerates the shell, the
    # later ones hit the enumeration cache.
    large = [kernel_ed("kernel-E-large", d, n, "E", theta_flags(d, 2))
             for d, n in ((6, 12), (5, 16)) * 2]
    jobs = cheap + mid + upper + p95 + malformed
    # A fixed interleaving, the same for every seed.
    random.Random(0).shuffle(jobs)
    return large[:1] + jobs[:40] + large[1:2] + jobs[40:] + large[2:]


BUILDERS = {"mc-means": _mc_means, "identity-suites": _identity_suites,
            "cli-requests": _cli_requests}


def build(workload: str, seed: int, tmp: str) -> list[Job]:
    """The job list of one pass of ``workload`` for ``seed``."""
    return BUILDERS[workload](seed, tmp)
