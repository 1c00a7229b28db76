"""Benchmark driver for l1torus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --list

Run from the root of a source checkout.  Every pass of a workload runs in a
fresh child process (``child.py``), one child at a time, because every CLI
call and every ``verify`` run is a fresh process.  Children are started
until ``--seconds`` have passed and at least MIN_PASSES have finished.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians of
the per-pass set-up time, pass time and peak RSS, and the 50th and 95th
percentiles of the per-operation latencies pooled over the passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: span calls, total and self time (medians over traced
passes), work counts, and the tracing overhead.  Traced passes must
reproduce the untraced outputs exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Misses of known-defect probes are not failed
operations; they go to stderr, one line per defect.  ``--out`` also writes
the full result, with the per-pass samples, the known-defect counts and the
provenance (commit, versions, machine, seeds).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "l1torus"
TMP = ROOT / ".bench_tmp"

MIN_PASSES = 4
SETUP_SAMPLES = 9  # set-ups per run; set-up-only children make up the count
CHILD_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # no pass starts that would end past this
BLAS_THREADS = "1"

# Which end-to-end metric a per-layer metric should move, and on which
# workload.  First matching prefix wins.
PREDICTIONS = [
    ("polys.", "wall_s and peak_rss_mb on identity-suites; req_p95_ms on "
               "cli-requests (mnd series); no change on mc-means"),
    ("bspline_fourier.mean_torus_mc.self_s", "wall_s on mc-means"),
    ("numerics.lattice_points", "wall_s on mc-means"),
    ("bspline.knot_field_batch", "wall_s on mc-means, mainly at n = 0"),
    ("bspline.bspline_eval", "wall_s on identity-suites"),
    ("bspline.field_evals", "wall_s on identity-suites (bspline_eval) and mc-means"),
    ("numerics.gauss_legendre", "wall_s on identity-suites"),
    ("kernels.shell_sum.", "wall_s on identity-suites; wall_s and req_p95_ms on cli-requests"),
    ("numerics.shell_enumerate", "wall_s and req_p95_ms on cli-requests"),
    ("kernels.", "wall_s and req_p95_ms on cli-requests"),
    ("summability.", "wall_s and req_p95_ms on cli-requests"),
    ("pdf.gram", "wall_s and req_p95_ms on cli-requests"),
    ("cli.main.self_s", "req_p50_ms on cli-requests"),
    ("cli.", "req_p50_ms on cli-requests"),
    ("divdiff.", "no wall_s change; gains show as fewer known-defect misses on "
                 "identity-suites"),
    ("bspline_fourier.mc_pairs", "wall_s on mc-means"),
    ("verify.", "wall_s on identity-suites"),
    ("bspline_fourier.", "wall_s on identity-suites (mean_series) or mc-means (mean_torus_mc)"),
]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def predicted(metric: str) -> str:
    for prefix, text in PREDICTIONS:
        if metric.startswith(prefix):
            return text
    return "none predicted"


def print_catalogue(spec: dict):
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} [{m['unit']}], {m['better']} is better, bound {m['bound']}")
    print("  (import-time work moves setup_s on every workload)")
    print("per-layer metrics (--trace 1) -> end-to-end metric and workload they should move:")
    for m in spec["per_layer"]:
        print(f"  {m['name']} [{m['unit']}] -> {predicted(m['name'])}")


def run_child(workload: str, seed: int, trace: bool = False, setup_only: bool = False) -> dict:
    tmp = TMP / f"{os.getpid()}-{time.monotonic_ns()}"
    tmp.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # A fixed hash seed keeps dict and set layouts, and so the cost of
    # pure-Python code, the same from one child to the next.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: int, trace: bool) -> tuple[list, list, list]:
    """Run passes until ``seconds`` are spent; returns (plain, traced, extra set-ups)."""
    run_child(workload, seed, setup_only=True)  # warms the file cache; discarded
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_child(workload, seed))
        if trace:
            traced.append(run_child(workload, seed, trace=True))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if len(plain) >= MIN_PASSES and (elapsed >= seconds
                                         or elapsed + per_round > RUN_BUDGET_S):
            break
    setups = []
    if not trace:
        setups = [run_child(workload, seed, setup_only=True)["setup_s"]
                  for _ in range(SETUP_SAMPLES - len(plain))]
    return plain, traced, setups


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    lat = [x for p in plain for x in p["latencies_ms"]]
    return {
        "setup_s": statistics.median([p["setup_s"] for p in plain] + setups),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "req_p50_ms": quantile(lat, 50),
        "req_p95_ms": quantile(lat, 95),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    spans = [t["trace"]["spans"] for t in traced]
    for name in spans[0]:
        calls, total, self_s = zip(*(s[name] for s in spans))
        if not name.startswith("verify.") or name == "verify.field_integrals":
            out[f"{name}.calls"] = statistics.median(calls)
            out[f"{name}.self_s"] = statistics.median(self_s)
        out[f"{name}.total_s"] = statistics.median(total)
    for name in traced[0]["trace"]["counts"]:
        out[name] = statistics.median(t["trace"]["counts"][name] for t in traced)
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    out["tracing_overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
    out["trace.self_share"] = statistics.median(
        sum(s[2] for s in t["trace"]["spans"].values()) / t["wall_s"] for t in traced)
    return out


def provenance(args, passes: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(), "cpu": cpu,
            "platform": platform.platform(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="also write the full result with provenance to this file")
    p.add_argument("--list", action="store_true", help="print every workload and metric")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.list:
        print_catalogue(spec)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: --workload must be one of {', '.join(names)}", file=sys.stderr)
        return 2
    if not (SRC / "__init__.py").is_file():
        print(f"error: no l1torus sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    try:
        plain, traced, setups = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    passes = plain + traced
    if args.trace:
        values, listed = per_layer(plain, traced), spec["per_layer"]
    else:
        values, listed = end_to_end(plain, setups), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    digests = {r["digest"] for r in passes}
    misses = sorted({m for r in passes for m in r["misses"]})
    probes = {}
    for r in passes:
        for defect, (runs, missed) in r["probes"].items():
            total = probes.setdefault(defect, [0, 0])
            total[0] += runs
            total[1] += missed
    result = {
        "correct": len(digests) == 1 and all(r["gross"] == 0 for r in passes),
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "metrics": metrics,
    }
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{len(passes[0]['latencies_ms']) * len(plain)} latency samples; "
          f"{len(digests)} distinct output digest(s)", file=sys.stderr)
    for m in misses:
        print(f"failed operation: {m}", file=sys.stderr)
    for defect, (runs, missed) in sorted(probes.items()):
        print(f"known defect: {missed} of {runs} probes missed: {defect}", file=sys.stderr)
    if args.out:
        full = dict(result, provenance=provenance(args, len(passes)),
                    samples=[{k: v for k, v in r.items()
                              if k not in ("trace", "misses", "probes")} for r in passes],
                    setup_only_s=setups, failed_operations=misses,
                    known_defects={d: {"probes": n, "missed": m}
                                   for d, (n, m) in sorted(probes.items())})
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
