"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload with one pass, untraced and traced, and checks that the
result line names every metric of BENCHMARK.json with its unit.  Also checks
that a deliberately wrong reference is counted as a failed operation, and
that a known-defect probe's miss is not.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(monkeypatch, *argv) -> dict:
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(monkeypatch, workload, trace):
    res = _run(monkeypatch, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_spans_cover_the_listed_metrics():
    import tracer
    names = {m["name"] for m in SPEC["per_layer"]}
    for span in tracer.span_names():
        assert f"{span}.total_s" in names
    assert set(tracer.COUNTERS) <= names


def test_wrong_reference_counts_as_failed(tmp_path, monkeypatch):
    from l1torus import bspline_fourier
    jobs = workloads.build("mc-means", 5, str(tmp_path))[:2]
    child.run_pass(jobs)
    assert child.score(jobs, str(tmp_path))["failed"] == 0
    monkeypatch.setattr(bspline_fourier, "mean_d2_closed", lambda n, alpha: 10.0)
    scored = child.score(jobs, str(tmp_path))
    assert scored["failed"] == 2 and scored["gross"] == 2


def test_known_defect_misses_are_not_failed_operations(tmp_path, monkeypatch):
    from l1torus import kernels
    jobs = [j for j in workloads.build("identity-suites", 5, str(tmp_path))
            if j.kind.startswith("divdiff") and j.kind.endswith(("uniform", "triple"))]
    child.run_pass(jobs)
    monkeypatch.setattr(kernels, "shell_sum", lambda d, n, t: 1e9)
    scored = child.score(jobs, str(tmp_path))
    per_kind = len(workloads.DIVDIFF_CASES) * workloads.DIVDIFF_REPEATS
    assert scored["attempted"] == per_kind and scored["failed"] == per_kind
    assert scored["probes"] == {workloads.CONFLUENT: [per_kind, per_kind]}


def test_no_result_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src" / "l1torus")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "mc-means", "--seed", "1", "--seconds", "1",
                         "--trace", "0"])
    assert code != 0 and out.getvalue() == ""
