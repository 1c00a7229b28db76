"""The benchmark's outside-in tracer still finds every function it wraps."""
import importlib.util
import json
from pathlib import Path

import pytest

import l1torus
from l1torus import bspline, cli, divdiff, kernels

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    spec = importlib.util.spec_from_file_location("l1torus_bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_suites_are_the_deterministic_verify_suites(tracer_module):
    from l1torus import verify

    assert tracer_module.SUITES == [s for s in verify.SUITES if s != "mean-mc"]


def _traced_attrs(tracer_module):
    out = {}
    for mod_name, names in tracer_module.TRACED.items():
        mod = importlib.import_module(f"l1torus.{mod_name}")
        for qual in names:
            owner = mod
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            out[f"{mod_name}.{qual}"] = owner.__dict__[parts[-1]]
    return out


def test_tracer_installs_counts_and_uninstalls(tracer_module, tmp_path):
    before = _traced_attrs(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        after = _traced_attrs(tracer_module)
        for name, fn in after.items():
            raw = getattr(fn, "__func__", fn)
            assert getattr(raw, "__wrapped__", None) is not None, name
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"head": [1.0, 0.5, 0.25], "tail": {"kind": "zero"}}))
        runs = [
            ["kernel", "--d", "3", "--n", "2", "--what", "E", "--theta", "0.1,0.2,0.3"],
            ["kernel", "--d", "2", "--n", "2", "--what", "D", "--grid", "4"],
            ["mnd", "--d", "3", "--n", "1", "--method", "mc", "--budget", "400", "--u", "0.2"],
            ["mnd", "--d", "3", "--n", "1", "--method", "series", "--u", "0.2", "--K", "50"],
            ["partial-sum", "--d", "2", "--n", "1", "--L", "6", "--spec", str(spec),
             "--theta", "0.1,0.2", "--route", "convolution"],
            ["pdf", "--spec", str(spec), "--points", "3",
             "--out", str(tmp_path / "pdf.json")],
        ]
        for argv in runs:
            assert cli.main(argv) == 0, argv
        kernels.shell_sum(2, 1, [0.1, 0.2])
        kernels.dirichlet_kernel(2, 1, [0.1, 0.2])
        bspline.bspline_eval([0.0, 0.5, 1.0], 0.3)
        divdiff.divided_difference_cos(kernels.shell_seed(2, 1), [0.1, 0.7])
        summary = tracer.summary()
    finally:
        tracer.uninstall()
    assert _traced_attrs(tracer_module) == before
    assert l1torus.shell_sum is before["kernels.shell_sum"]
    for name in ("kernels.shell_sum", "kernels.shell_sum_batch", "kernels.dirichlet_kernel",
                 "bspline_fourier.mean_torus_mc", "summability.partial_sum",
                 "pdf.gram_matrix", "cli.main"):
        assert summary["spans"][name][0] > 0, name
    for counter in ("numerics.lattice_points", "polys.gegenbauer_terms", "bspline.field_evals",
                    "divdiff.knots", "pdf.gram_entries", "bspline_fourier.mc_pairs",
                    "cli.output_bytes"):
        assert summary["counts"][counter] > 0, counter
