"""One pass of one workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/child.py --workload NAME --seed N --tmp DIR [--trace]

The set-up clock starts before ``l1torus`` is imported and stops once the
job list is built; the pass clock covers the jobs alone.  Checks run after
the pass and after any tracer is removed, so neither is timed or traced.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_pass(jobs, tracer=None) -> list[float]:
    """Run every job once, in order; returns the per-job latencies in seconds."""
    latencies = []
    for job in jobs:
        t = time.perf_counter()
        if tracer is not None and job.span:
            with tracer.span(job.span):
                job.output = job.run()
        else:
            job.output = job.run()
        latencies.append(time.perf_counter() - t)
    return latencies


def score(jobs, tmp: str) -> dict:
    """Check every job's output; counts misses and hashes the outputs.

    Misses of known-defect probes are listed apart from the failed
    operations, under the defect's name.  The temp directory is masked in
    the hash, so passes that wrote to different directories compare equal.
    """
    digest = hashlib.sha256()
    attempted, failed, gross, misses, probes = 0, 0, 0, [], {}
    for job in jobs:
        ratio = job.check(job.output)
        digest.update(job.fingerprint(job.output).replace(tmp, "<tmp>").encode())
        missed = not ratio <= 1.0
        if job.known_defect is not None:
            probe = probes.setdefault(job.known_defect, [0, 0])
            probe[0] += 1
            probe[1] += missed
        else:
            attempted += 1
            if missed:
                failed += 1
                misses.append(f"{job.kind}: {ratio:.3g}")
        if missed and job.gross is not None and not ratio <= job.gross:
            gross += 1
    return {"attempted": attempted, "failed": failed, "gross": gross, "misses": misses,
            "probes": probes, "digest": digest.hexdigest()}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(SRC))
    import l1torus
    import l1torus.cli  # noqa: F401
    if Path(l1torus.__file__).resolve().parent != SRC / "l1torus":
        raise SystemExit(f"imported l1torus from {l1torus.__file__}, not {SRC}")

    import workloads
    jobs = workloads.build(args.workload, args.seed, args.tmp)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    latencies = run_pass(jobs, tracer)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "latencies_ms": [1e3 * x for x in latencies], **score(jobs, args.tmp)}
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
