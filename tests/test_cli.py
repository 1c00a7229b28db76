"""Command-line interface: contract examples, formats, exit codes, determinism."""
import csv
import io
import json
import math

import pytest

from l1torus.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------------ kernel


def test_kernel_shell_sum_at_origin(capsys):
    code, out = run_cli(capsys, "kernel", "--d", "2", "--n", "1",
                        "--what", "E", "--theta", "0,0")
    assert code == 0
    (row,) = csv_rows(out)
    assert float(row["value"]) == 4.0


def test_kernel_order_zero_ball_sum_is_one(capsys):
    code, out = run_cli(capsys, "kernel", "--d", "2", "--n", "0",
                        "--what", "D", "--theta", "0.3,1.1")
    assert code == 0
    (row,) = csv_rows(out)
    assert float(row["value"]) == 1.0


def test_kernel_biortho_at_one_counts_points(capsys):
    code, out = run_cli(capsys, "kernel", "--d", "3", "--n", "2",
                        "--what", "h", "--u", "1")
    assert code == 0
    (row,) = csv_rows(out)
    assert float(row["value"]) == 36.0


@pytest.mark.parametrize("what", ["G", "H"])
@pytest.mark.parametrize("d, n", [(2, 0), (3, 1), (4, 2)])
def test_kernel_seed_theta_route(capsys, what, d, n):
    from l1torus.kernels import dirichlet_seed_theta, shell_seed_theta

    angle = 1.1
    code, out = run_cli(capsys, "kernel", "--d", str(d), "--n", str(n),
                        "--what", what, "--theta", str(angle))
    assert code == 0
    (row,) = csv_rows(out)
    fn = dirichlet_seed_theta if what == "G" else shell_seed_theta
    assert abs(float(row["value"]) - fn(d, n, angle)) < 1e-14


def test_kernel_theta_grid_rows(capsys):
    code, out = run_cli(capsys, "kernel", "--d", "2", "--n", "1",
                        "--what", "E", "--grid", "4")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 16  # 4 points per axis, 2 axes


def test_kernel_json_format(capsys):
    code, out = run_cli(capsys, "kernel", "--d", "2", "--n", "1", "--what", "h",
                        "--u", "0.25", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["value"] == 1.0


# --------------------------------------------------------------------- mnd


def test_mnd_closed_contract_values(capsys):
    code, out = run_cli(capsys, "mnd", "--d", "2", "--n", "0",
                        "--u", "0.5", "--method", "closed")
    assert code == 0
    (row,) = csv_rows(out)
    assert float(row["value"]) == 0.5
    assert row["stderr"] == ""

    code, out = run_cli(capsys, "mnd", "--d", "3", "--n", "0",
                        "--u", "0", "--method", "closed")
    (row,) = csv_rows(out)
    assert abs(float(row["value"]) - 1.0 / math.pi) < 1e-14


def test_mnd_series_matches_closed_route(capsys):
    code, out = run_cli(capsys, "mnd", "--d", "2", "--n", "2", "--u", "0",
                        "--method", "series", "--K", "2000")
    assert code == 0
    (row,) = csv_rows(out)
    from l1torus.bspline_fourier import mean_d2_closed

    assert abs(float(row["value"]) - mean_d2_closed(2, math.pi / 2.0)) < 2e-3
    assert abs(float(row["value"]) - (-0.13664263984585534)) < 1e-12


def test_mnd_mc_reports_stderr(capsys):
    code, out = run_cli(capsys, "mnd", "--d", "2", "--n", "1", "--u", "0.3",
                        "--method", "mc", "--budget", "20000", "--seed", "5")
    assert code == 0
    (row,) = csv_rows(out)
    assert float(row["stderr"]) > 0.0


@pytest.mark.parametrize("d, n, method", [(2, 1, "series"), (3, 0, "closed"),
                                          (2, 1, "closed"), (2, 1, "mc")])
def test_mnd_rejects_non_finite_u(capsys, d, n, method):
    code = main(["mnd", "--d", str(d), "--n", str(n), "--method", method, "--u", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines() == ["error: u must be finite, got nan"]


def test_mnd_grid_u(capsys):
    code, out = run_cli(capsys, "mnd", "--d", "2", "--n", "1",
                        "--grid-u=-0.5:0.5:5", "--method", "closed")
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 5
    assert abs(float(rows[2]["u"])) < 1e-15


# ------------------------------------------------------------------ verify


def test_verify_single_suite_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "biortho",
                        "--d", "2", "--N", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    (suite,) = payload["suites"]
    assert suite["name"] == "biortho"
    assert suite["max_error"] <= suite["tolerance"]


def test_verify_exit_one_on_failure(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "mean-methods",
                        "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["all_passed"] is False


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


# --------------------------------------------------------------------- pdf


def test_pdf_verdict_fields(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"head": [1.0, 0.5], "tail": {"kind": "all-positive-from", "n0": 2}}))
    code, out = run_cli(capsys, "pdf", "--spec", str(spec), "--points", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["pdf"] is True
    assert payload["spdf"] is True
    assert payload["witness"] is None
    assert payload["min_eig_sample"] > -1e-10


def test_pdf_negative_coefficient(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"head": [1.0, -0.1], "tail": {"kind": "zero"}}))
    code, out = run_cli(capsys, "pdf", "--spec", str(spec), "--points", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["pdf"] is False
    assert payload["witness"] == 1
    assert payload["spdf"] is None


def test_pdf_residue_tail_failure_has_pair_witness(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"head": [1.0, 0.5],
         "tail": {"kind": "residues-positive", "n0": 2, "modulus": 2,
                  "residues": [1]}}))
    code, out = run_cli(capsys, "pdf", "--spec", str(spec), "--points", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["pdf"] is True
    assert payload["spdf"] is False
    n, l = payload["witness"]
    assert n % 2 == 0 and l % 2 == 0


def test_pdf_malformed_spec_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    code, _ = run_cli(capsys, "pdf", "--spec", str(spec))
    assert code == 2


# ------------------------------------------------------------------- count


def test_count_range_rows(capsys):
    code, out = run_cli(capsys, "count", "--d", "3", "--nmax", "4")
    assert code == 0
    rows = csv_rows(out)
    assert [int(r["count"]) for r in rows] == [1, 6, 18, 38, 66]


def test_count_requires_an_index(capsys):
    code, _ = run_cli(capsys, "count", "--d", "3")
    assert code == 2


# ------------------------------------------------------------- partial-sum


def test_partial_sum_routes_agree(capsys, tmp_path):
    spec = tmp_path / "coeffs.json"
    spec.write_text(json.dumps({"head": [0.7, -0.3, 0.5, 0.1],
                                "tail": {"kind": "zero"}}))
    vals = {}
    for route in ("coefficients", "convolution"):
        code, out = run_cli(capsys, "partial-sum", "--d", "2", "--n", "3",
                            "--L", "16", "--spec", str(spec),
                            "--theta", "0.4,-1.2", "--route", route)
        assert code == 0
        (row,) = csv_rows(out)
        vals[route] = float(row["real"])
        assert abs(float(row["imag"])) < 1e-12
    assert abs(vals["coefficients"] - vals["convolution"]) < 1e-12


def test_partial_sum_under_resolved_grid_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "coeffs.json"
    spec.write_text(json.dumps({"head": [1.0], "tail": {"kind": "zero"}}))
    code, _ = run_cli(capsys, "partial-sum", "--d", "2", "--n", "8",
                      "--L", "16", "--spec", str(spec), "--theta", "0,0")
    assert code == 2


# ----------------------------------------------------- seeds & determinism


def test_identical_invocations_are_byte_identical(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        code = main(["mnd", "--d", "2", "--n", "1", "--u", "0.3",
                     "--method", "mc", "--budget", "50000", "--seed", "5",
                     "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_env_var_sets_default_seed(capsys, monkeypatch):
    monkeypatch.setenv("L1TORUS_SEED", "77")
    _, with_env = run_cli(capsys, "mnd", "--d", "2", "--n", "1", "--u", "0.3",
                          "--method", "mc", "--budget", "20000")
    monkeypatch.delenv("L1TORUS_SEED")
    _, explicit = run_cli(capsys, "mnd", "--d", "2", "--n", "1", "--u", "0.3",
                          "--method", "mc", "--budget", "20000",
                          "--seed", "77")
    assert with_env == explicit


def test_env_var_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("L1TORUS_SEED", "not-a-number")
    code, _ = run_cli(capsys, "mnd", "--d", "2", "--n", "0", "--u", "0",
                      "--method", "closed")
    assert code == 2


def test_invalid_choice_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "--d", "2", "--n", "1", "--what", "X"])
    assert exc.value.code == 2
    capsys.readouterr()
