"""Command line interface.

Subcommands: kernel (shell sums, Dirichlet kernels, seeds, biorthogonal
polynomials), mnd (B-spline Fourier means by any route), verify (identity
suites), pdf (definiteness checks on a coefficient spec), count (shell
cardinalities), partial-sum (l1 partial sums of a synthesized function).

Outputs are deterministic for a fixed seed: CSV values use 17 significant
digits and integers print exactly, JSON is emitted with sorted keys.  Exit
codes: 0 success, 1 a verification suite failed, 2 a refusal in one stderr line.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .bspline_fourier import mean_closed, mean_series, mean_torus_mc
from .kernels import (biortho_poly, dirichlet_kernel_batch, dirichlet_seed_theta,
                      shell_seed_theta, shell_sum_batch)
from .numerics import (DEFAULT_SEED, _check_count, _check_counts, _count_bits_floor, check_cost,
                       check_grid, finite, shell_count, shell_counts, torus_trapezoid)
from .pdf import min_eigenvalue, pdf_check, sampled_gram_matrix, spdf_check
from .summability import CoeffSeq, SampledTorusFn, partial_sum, synth
from .verify import SUITES, VerifyConfig, run_suites

_FMT = "%.17g"
_MAX_GRID_U = 1 << 16  # points one --grid-u may ask for
_MAX_COUNT_ROWS = 1 << 16  # rows one count --nmax may ask for


def _fmt(x: float) -> str:
    return str(x) if isinstance(x, int) else _FMT % x  # counts stay exact


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(header: list[str], rows: list[list], fmt: str, out: str | None):
    if fmt == "json":
        records = [
            {k: (v if isinstance(v, (int, str)) else float(v)) for k, v in zip(header, row)}
            for row in rows
        ]
        _write(json.dumps(records, indent=2, sort_keys=True) + "\n", out)
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _fmt(v) for v in row))
    _write("\n".join(lines) + "\n", out)


def _angles(raw: str) -> list[float]:
    try:  # the type of --theta: comma-separated floats
        return [float(x) for x in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {raw!r}") from None


def _parse_theta(angles: list[float], d: int) -> list[float]:
    if len(angles) != d:
        raise ValueError(f"--theta needs {d} angle{'s' * (d > 1)}, got {len(angles)}")
    return angles


def _u_points(args) -> np.ndarray:
    """The points of --u (repeatable) or of --grid-u start:stop:count."""
    if args.u is not None:
        return np.array(args.u)
    if args.grid_u is None:
        raise ValueError("provide --u (repeatable) or --grid-u")
    parts = args.grid_u.split(":")
    if len(parts) != 3:
        raise ValueError("--grid-u expects start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError("--grid-u expects float start and stop and an integer count, "
                         f"got {args.grid_u!r}") from None
    finite([start, stop, stop - start], "--grid-u start, stop and stop - start")
    if count < 1:
        raise ValueError("--grid-u count must be >= 1")
    check_cost("--grid-u", count, "points", _MAX_GRID_U)
    return np.linspace(start, stop, count)


def _add_output_flags(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _cmd_kernel(args) -> int:
    what = args.what
    d, n = args.d, args.n
    if what in ("E", "D"):
        if args.grid is not None:
            pts = torus_trapezoid(d, args.grid).nodes
        elif args.theta:
            pts = np.array([_parse_theta(t, d) for t in args.theta])
        else:
            raise ValueError("provide --theta (repeatable) or --grid for E/D")
        fn = shell_sum_batch if what == "E" else dirichlet_kernel_batch
        header = ["d", "n"] + [f"theta_{i+1}" for i in range(d)] + ["value"]
        rows = [[d, n, *map(float, t), float(v)] for t, v in zip(pts, fn(d, n, pts))]
    elif what in ("G", "H"):
        if not args.theta:
            raise ValueError("provide --theta (one angle per flag) for G/H")
        fn = dirichlet_seed_theta if what == "G" else shell_seed_theta
        header = ["d", "n", "theta", "value"]
        angles = [_parse_theta(t, 1)[0] for t in args.theta]
        rows = [[d, n, t, fn(d, n, t)] for t in angles]
    else:  # "h"; argparse restricts the choices
        us = _u_points(args)
        header = ["d", "n", "u", "value"]
        rows = [[d, n, u, v] for u, v in zip(us.tolist(), biortho_poly(d, n, us).tolist())]
    _emit_rows(header, rows, args.format, args.out)
    return 0


def _cmd_mnd(args) -> int:
    us = _u_points(args)
    stderrs = [""] * us.size
    if args.method == "closed":
        values = mean_closed(args.d, args.n, us)
    elif args.method == "series":
        values = mean_series(args.d, args.n, us, nterms=args.K)
    else:  # "mc"; argparse restricts the choices
        est = mean_torus_mc(args.d, args.n, us, budget=args.budget, seed=args.seed)
        values, stderrs = est.value, est.stderr.tolist()
    header = ["d", "n", "u", "method", "value", "stderr"]
    rows = [[args.d, args.n, u, args.method, v, e]
            for u, v, e in zip(us.tolist(), values.tolist(), stderrs)]
    _emit_rows(header, rows, args.format, args.out)
    return 0


def _cmd_verify(args) -> int:
    cfg = VerifyConfig(d=args.d, nmax=args.nmax, max_index=args.N,
                       nterms=args.K, budget=args.budget, seed=args.seed,
                       tol=args.tol)
    reports = run_suites(args.suite if args.suite else None, cfg)
    payload = {
        "suites": [r.to_json() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
    _write(json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n", args.out)
    return 0 if payload["all_passed"] else 1


def _cmd_pdf(args) -> int:
    with open(args.spec) as fh:
        coeffs = CoeffSeq.from_json(json.load(fh))
    verdict = pdf_check(coeffs)
    result: dict = {"pdf": verdict.ok, "spdf": None, "witness": verdict.witness}
    if verdict.ok:
        strict = spdf_check(coeffs)
        result["spdf"] = strict.ok
        result["witness"] = list(strict.witness) if strict.witness is not None else None
    trunc = args.trunc if args.trunc is not None else coeffs.max_head_index
    a = sampled_gram_matrix(args.d, args.points, coeffs, trunc, args.seed)
    result["min_eig_sample"] = min_eigenvalue(a)
    result["sample"] = {"d": args.d, "points": args.points, "trunc": trunc,
                        "seed": args.seed}
    _write(json.dumps(result, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_count(args) -> int:
    d, n = args.d, args.n if args.nmax is None else args.nmax  # argparse takes one of the two
    if args.nmax is None:
        _check_count(d, n)
    else:
        if args.nmax < 0:
            raise ValueError(f"--nmax must be >= 0, got {args.nmax}")
        check_cost(f"--nmax {args.nmax}", args.nmax + 1, "rows", _MAX_COUNT_ROWS)
        _check_counts(d, n)
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    too_long = ValueError(f"the l1 count at d = {d}, n = {n} has more than {digits} digits, "
                          f"the most Python prints of an integer")
    # the count at n, the largest, surely has more digits: refused before it is summed
    if digits and _count_bits_floor(d, n) > digits * math.log2(10):
        raise too_long
    if args.nmax is None:
        rows = [[d, n, shell_count(d, n)]]
    else:
        rows = [[d, k, count] for k, count in enumerate(shell_counts(d, n))]
    if digits and rows[-1][2] >= 10**digits:
        raise too_long
    _emit_rows(["d", "n", "count"], rows, args.format, args.out)
    return 0


def _cmd_partial_sum(args) -> int:
    with open(args.spec) as fh:
        coeffs = CoeffSeq.from_json(json.load(fh))
    d = args.d
    trunc = coeffs.max_head_index
    if args.L <= 2 * max(args.n, trunc):
        raise ValueError(f"--L must exceed twice the largest frequency ({max(args.n, trunc)})")
    check_grid(d, args.L)
    # every point is checked before the L^d grid is sampled
    thetas = [finite(_parse_theta(t, d), "theta") for t in args.theta]
    f = SampledTorusFn.sample(d, args.L, lambda pts: synth(d, coeffs, trunc, pts))
    header = (["d", "n", "L", "route"] + [f"theta_{i+1}" for i in range(d)]
              + ["real", "imag"])
    rows = []
    for t in thetas:
        val = partial_sum(f, args.n, t, route=args.route)
        rows.append([d, args.n, args.L, args.route, *map(float, t), val.real, val.imag])
    _emit_rows(header, rows, args.format, args.out)
    return 0


class _Parser(argparse.ArgumentParser):  # add_subparsers makes its subparsers of this class
    def error(self, message):  # a usage error is refused by main in one line, as any other
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The l1torus parser, built at the first call and shared by every later one.

    It holds no per-call state: each ``parse_args`` returns a fresh namespace and
    ``main`` reads L1TORUS_SEED afresh, so one process serves many requests as
    fresh processes would.
    """
    parser = _Parser(
        prog="l1torus",
        description="l1-summability toolkit on the d-dimensional torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate shell sums, Dirichlet kernels, "
                                      "seed functions, or biorthogonal polynomials")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", choices=["E", "D", "G", "H", "h"], required=True,
                   help="E: shell sum, D: Dirichlet kernel, G: Dirichlet seed, "
                        "H: shell seed, h: biorthogonal polynomial")
    points = p.add_mutually_exclusive_group()
    points.add_argument("--theta", action="append", type=_angles,
                        help="comma-separated angles (E/D) or one angle (G/H); repeatable")
    points.add_argument("--u", action="append", type=float, help="point for h; repeatable")
    points.add_argument("--grid", type=int, help="tensor grid points per axis for E/D")
    points.add_argument("--grid-u", help="start:stop:count grid for h")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("mnd", help="evaluate the B-spline Fourier mean")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    points = p.add_mutually_exclusive_group()
    points.add_argument("--u", action="append", type=float, help="evaluation point; repeatable")
    points.add_argument("--grid-u", help="start:stop:count grid")
    p.add_argument("--method", choices=["closed", "series", "mc"], default="series")
    p.add_argument("--K", type=int, help="series terms for every point (series method); "
                                         "default ceil(100 / arccos|u|) per point")
    p.add_argument("--budget", type=int, help="sample budget (mc method)")
    p.add_argument("--seed", type=int)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_mnd)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", action="append",
                   help=f"suite name; repeatable; default all. "
                        f"Known: {', '.join(sorted(SUITES))}")
    p.add_argument("--d", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--N", type=int, help="largest index for the biortho suite")
    p.add_argument("--K", type=int, help="series truncation override")
    p.add_argument("--budget", type=int, help="Monte-Carlo budget override")
    p.add_argument("--tol", type=float, help="tolerance override")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("pdf", help="positive definiteness checks for a "
                                   "coefficient spec (JSON file)")
    p.add_argument("--spec", required=True, help="JSON file: {head: [...], tail: {...}}")
    p.add_argument("--d", type=int, default=2, help="dimension for the sampled Gram check")
    p.add_argument("--points", type=int, default=12)
    p.add_argument("--trunc", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the JSON verdict to this file")
    p.set_defaults(fn=_cmd_pdf)

    p = sub.add_parser("count", help="l1 shell cardinalities")
    p.add_argument("--d", type=int, required=True)
    index = p.add_mutually_exclusive_group(required=True)
    index.add_argument("--n", type=int)
    index.add_argument("--nmax", type=int)
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("partial-sum", help="l1 partial sums of a synthesized function")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="partial sum order")
    p.add_argument("--L", type=int, required=True, help="grid points per axis")
    p.add_argument("--spec", required=True, help="coefficient spec JSON file")
    p.add_argument("--theta", action="append", type=_angles, required=True,
                   help="comma-separated angles; repeatable")
    p.add_argument("--route", choices=["coefficients", "convolution"],
                   default="coefficients")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_partial_sum)

    # argparse takes "-" then a digit, "." or inf/nan for a value only in a plain negative
    # number; take it so always (--u -2.7e-05, --theta -0.5,0.3): no option starts so
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-([\d.]|inf|nan)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", DEFAULT_SEED) is None:  # a command with --seed, left unset
            raw = os.environ.get("L1TORUS_SEED", str(DEFAULT_SEED))
            try:
                args.seed = int(raw)
            except ValueError:
                raise ValueError(f"L1TORUS_SEED must be an integer, got {raw!r}") from None
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
