"""Command-line interface: contract examples, formats, exit codes, determinism."""
import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from l1torus import cli
from l1torus.cli import main
from l1torus.numerics import shell_count
from l1torus.verify import SUITES


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


def test_kernel_large_shell_returns_exact_count(capsys):
    # the shell (8, 60) has 143297324288 points and is never enumerated
    code, out = run_cli(capsys, "kernel", "--d", "8", "--n", "60", "--what", "E",
                        "--theta", ",".join(["0"] * 8))
    assert code == 0
    (row,) = csv_rows(out)
    assert row["value"] == str(shell_count(8, 60)) == "143297324288"


def test_two_point_h_request_is_served_row_by_row_as_its_lone_points(capsys):
    # one table of 1.2e6 Gegenbauer values was refused with exit 2, though each point alone
    # was served; the stream holds a block of rows, and each row is its lone point's
    lines = {}
    for us in (("0.1", "0.2"), ("0.1",), ("0.2",)):
        flags = [flag for u in us for flag in ("--u", u)]
        assert main(["kernel", "--d", "3", "--n", "600000", "--what", "h", *flags]) == 0
        lines[us] = capsys.readouterr().out.splitlines()[1:]
    assert lines[("0.1", "0.2")] == lines[("0.1",)] + lines[("0.2",)]


@pytest.mark.parametrize("argv", [
    ["--d", "3", "--n", "1000000000", "--what", "E", "--theta", "0.1,0.2,0.3"],
    ["--d", "8", "--n", "2", "--what", "E", "--grid", "30"],
    ["--d", "3", "--n", "1000000000000", "--what", "h", "--u", "0.5"],
    ["--d", "3", "--n", "3", "--what", "h", "--u", "1e200"],
])
def test_kernel_cost_is_bounded_before_allocation(capsys, argv):
    tracemalloc.start()
    try:
        code = main(["kernel", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "over the limit" in captured.err
    assert peak < 1 << 20


@pytest.mark.parametrize("argv", [
    ["mnd", "--d", "2", "--n", "1", "--method", "closed", "--grid-u", "0:0.5:100000000000"],
    ["kernel", "--d", "3", "--n", "2", "--what", "h", "--grid-u", "0:0.5:100000000000"],
    ["pdf", "--points", "200000"],
    ["verify", "--suite", "shell-count", "--d", "4", "--nmax", "300"],
    ["partial-sum", "--d", "2", "--n", "3", "--L", "3000", "--theta", "0,0"],
    ["mnd", "--d", "2", "--n", "1000000000000", "--method", "closed", "--u", "0.5"],
    ["mnd", "--d", "3", "--n", "1000000000000", "--method", "series", "--u", "0.5"],
    ["mnd", "--d", "3", "--n", "1000000000000", "--method", "mc", "--u", "0.5",
     "--budget", "400"],
    ["count", "--d", "3", "--nmax", "1000000000"],
    # (d - 1)! is beyond the float range from d = 172 on
    ["mnd", "--d", "172", "--n", "1", "--u", "0.5"],
    ["mnd", "--d", "200", "--n", "0", "--method", "closed", "--u", "0.5"],
    ["kernel", "--d", "172", "--n", "0", "--what", "h", "--u", "0.5"],
])
def test_request_cost_is_bounded_before_allocation(capsys, coeff_spec, argv):
    if argv[0] in ("pdf", "partial-sum"):
        argv = [*argv, "--spec", coeff_spec]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "over the limit" in captured.err
    assert peak < 1 << 20


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
angles = st.one_of(st.floats(-10.0, 10.0), non_finite,
                   st.floats(allow_nan=True, allow_infinity=True))


@pytest.fixture(scope="module")
def coeff_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "coeffs.json"
    path.write_text(json.dumps({"head": [0.7, -0.3, 0.5], "tail": {"kind": "zero"}}))
    return str(path)


def _option(flag, value, data):
    """``--flag=value`` or the two tokens ``--flag value``, as drawn."""
    return [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]


def _point_request(what, data, spec):
    """argv of one kernel (E/D/G/H/h) or partial-sum (route name) request."""
    if what in ("E", "D"):
        # n in between would pass the cost bound at up to ~2^31 multiply-adds,
        # seconds per call
        d = data.draw(st.integers(1, 12))
        n = data.draw(st.one_of(st.integers(0, 40), st.integers(10**5, 10**12)))
        theta = data.draw(st.lists(angles, min_size=d, max_size=d))
        return ["kernel", "--d", str(d), "--n", str(n), "--what", what,
                *_option("--theta", ",".join(map(repr, theta)), data)]
    if what in ("G", "H"):
        d, n = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 10**12))
        return ["kernel", "--d", str(d), "--n", str(n), "--what", what,
                *_option("--theta", repr(data.draw(angles)), data)]
    if what == "h":
        # n in between would pass the cost bound at up to 2^20 recurrence steps,
        # seconds per call
        d = data.draw(st.integers(1, 12))
        n = data.draw(st.one_of(st.integers(0, 40), st.integers(10**5, 10**12)))
        u = data.draw(st.one_of(st.floats(-10.0, 10.0), non_finite,
                                st.floats(allow_nan=False, allow_infinity=False)))
        return ["kernel", "--d", str(d), "--n", str(n), "--what", "h",
                *_option("--u", repr(u), data)]
    d, n = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    theta = data.draw(st.lists(angles, min_size=d, max_size=d))
    return ["partial-sum", "--d", str(d), "--n", str(n), "--L", "8", "--spec", spec,
            "--route", what, *_option("--theta", ",".join(map(repr, theta)), data)]


@pytest.mark.filterwarnings("error::Warning:l1torus")
@settings(max_examples=120, deadline=None)
@given(what=st.sampled_from(["E", "D", "G", "H", "h", "coefficients", "convolution"]),
       data=st.data())
def test_kernel_fails_fast_or_prints_finite_values(coeff_spec, what, data):
    argv = _point_request(what, data, coeff_spec)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().strip().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        (row,) = csv_rows(out.getvalue())
        values = [row["real"], row["imag"]] if argv[0] == "partial-sum" else [row["value"]]
        assert all(math.isfinite(float(v)) for v in values)


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.floats(),
                        st.text(max_size=3))
spec_tails = st.one_of(
    st.just({"kind": "zero"}),
    st.builds(lambda n0: {"kind": "all-positive-from", "n0": n0}, st.integers(-2, 8)),
    st.builds(lambda n0, q, res: {"kind": "residues-positive", "n0": n0, "modulus": q,
                                  "residues": res},
              st.integers(-1, 8), st.integers(-1, 8), st.lists(st.integers(-1, 8), max_size=4)),
    json_scalars,
    st.dictionaries(st.sampled_from(["kind", "n0", "modulus", "residues"]), json_scalars,
                    max_size=4),
)
coeff_specs = st.one_of(
    st.fixed_dictionaries({"head": st.lists(st.floats(-2.0, 2.0) | st.integers(0, 3),
                                            max_size=6)}, optional={"tail": spec_tails}),
    st.fixed_dictionaries({"head": st.lists(json_scalars, max_size=4)},
                          optional={"tail": spec_tails}),
    json_scalars,
)
# suites that finish in milliseconds at small overrides
CHEAP_SUITES = ["shell-count", "poisson-divdiff", "poisson-series", "biortho",
                "biortho-generating", "mean-methods", "gram-psd", "spdf-cross"]


def _request(command, data, spec_path):
    """argv of one mnd, pdf, count or verify request."""
    small = st.integers(-2, 6)
    if command == "mnd":
        method = data.draw(st.sampled_from(["closed", "series", "mc"]))
        u = data.draw(st.one_of(st.floats(-1.5, 1.5), non_finite))
        argv = ["mnd", "--d", str(data.draw(small)), "--n", str(data.draw(st.integers(-1, 8))),
                "--method", method, *_option("--u", repr(u), data),
                "--K", str(data.draw(st.integers(-1, 60)))]
        return argv + ["--budget", str(data.draw(st.integers(-4, 400)))] if method == "mc" else argv
    if command == "pdf":
        spec_path.write_text(json.dumps(data.draw(coeff_specs)))
        argv = ["pdf", "--spec", str(spec_path), "--d", str(data.draw(small)),
                "--points", str(data.draw(st.integers(-1, 30)))]
        trunc = data.draw(st.none() | st.integers(-1, 8))
        return argv if trunc is None else argv + ["--trunc", str(trunc)]
    if command == "count":
        which = data.draw(st.sampled_from(["--n", "--nmax"]))
        return ["count", "--d", str(data.draw(st.integers(-1, 12))), which,
                str(data.draw(st.integers(-2, 40)))]
    argv = ["verify", "--suite", data.draw(st.sampled_from(CHEAP_SUITES))]
    for flag, values in (("--d", small), ("--nmax", small), ("--N", small),
                         ("--K", st.integers(-1, 40)),
                         ("--tol", st.floats(-1.0, 1.0) | non_finite)):
        if data.draw(st.booleans()):
            argv += _option(flag, repr(data.draw(values)), data)
    return argv


@pytest.mark.filterwarnings("error::Warning:l1torus")
@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["mnd", "pdf", "count", "verify"]), data=st.data())
def test_requests_fail_fast_or_print_finite_values(tmp_path_factory, command, data):
    argv = _request(command, data, tmp_path_factory.getbasetemp() / "spec.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert len(err.getvalue().strip().splitlines()) == 1
        return
    assert err.getvalue() == ""
    text = out.getvalue()
    if command in ("pdf", "verify"):
        json.loads(text, parse_constant=lambda c: pytest.fail(f"{argv} printed {c}"))
        return
    for row in csv_rows(text):
        for cell in row.values():
            try:
                value = float(cell)
            except ValueError:  # the method name and an empty stderr
                continue
            assert math.isfinite(value), (argv, row)


# an integer option as 10^k: small enough to be served, or far past the float range
powers_of_ten = st.one_of(st.integers(0, 1), st.integers(30, 400)).map(lambda k: str(10**k))


def _integer_request(command, data):
    """argv of one count, kernel (E, D, h), mnd or verify request whose integer
    options are all drawn from ``powers_of_ten``."""
    def big():
        return data.draw(powers_of_ten)

    if command == "count":
        return ["count", "--d", big(), data.draw(st.sampled_from(["--n", "--nmax"])), big()]
    if command in ("E", "D"):
        return ["kernel", "--d", big(), "--n", big(), "--what", command, "--grid", big()]
    if command == "h":
        return ["kernel", "--d", big(), "--n", big(), "--what", "h",
                "--grid-u", f"-0.5:0.5:{big()}"]
    if command == "mnd":
        return ["mnd", "--d", big(), "--n", big(), "--u", "0.5",
                "--method", data.draw(st.sampled_from(["closed", "series", "mc"])),
                "--K", big(), "--budget", big(), "--seed", big()]
    return ["verify", "--suite", data.draw(st.sampled_from(sorted(SUITES))), "--nmax", big(),
            "--K", big(), "--N", big(), "--budget", big()]


_NUMERIC_FLAGS = {"--d", "--n", "--nmax", "--grid", "--K", "--budget", "--seed", "--N", "--u"}
# the sources of a command's points (count: of its index), of which a request names one
_KERNEL_SOURCES = [["--theta", "0,0"], ["--u", "0.5"], ["--grid", "2"], ["--grid-u", "0:0.5:2"]]
_SOURCES = {"count": [["--n", "2"], ["--nmax", "2"]], "mnd": _KERNEL_SOURCES[1::2],
            "E": _KERNEL_SOURCES, "D": _KERNEL_SOURCES, "h": _KERNEL_SOURCES}  # mnd: --u, --grid-u


def _malformed_request(command, argv, data):
    """``argv`` with a non-numeric value for one int or float flag, an unknown flag, or a
    second source of points; verify has no point source to add."""
    kind = data.draw(st.sampled_from(["value", "unknown"] + ["sources"] * (command != "verify")))
    argv = list(argv)
    if kind == "value":
        at = data.draw(st.sampled_from([i for i in range(1, len(argv))
                                        if argv[i - 1] in _NUMERIC_FLAGS]))
        argv[at] = data.draw(st.text(alphabet="abcxyz.,:_", min_size=1))
    elif kind == "unknown":
        at = data.draw(st.sampled_from([i for i, a in enumerate(argv) if a.startswith("--")]
                                       + [len(argv)]))
        argv[at:at] = data.draw(st.sampled_from([["--bogus"], ["--bogus", "1"], ["--x"]]))
    else:
        argv += data.draw(st.sampled_from([f for f in _SOURCES[command] if f[0] not in argv]))
    return argv


@pytest.mark.filterwarnings("error::Warning:l1torus")
@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["count", "E", "D", "h", "mnd", "verify"]), data=st.data())
def test_integer_options_of_any_size_are_served_or_refused_in_one_line(command, data):
    argv = _integer_request(command, data)
    malformed = data.draw(st.booleans())
    if malformed:
        argv = _malformed_request(command, argv, data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # a usage error returns too: SystemExit would fail the test
    if code == 2:
        assert out.getvalue() == ""
        (line,) = err.getvalue().strip().splitlines()
        assert not malformed or line.startswith(("error: argument --", "error: unrecognized"))
    else:  # verify exits 1 when a suite fails at the small overrides, as --K 1 makes it
        assert not malformed
        assert code == 0 or (code == 1 and command == "verify")
        assert err.getvalue() == ""


@pytest.mark.parametrize("argv, flag, value", [
    (["mnd", "--d", "2", "--n", "1"], "--u", "-2.7439940626150516e-05"),
    (["mnd", "--d", "2", "--n", "1", "--method", "closed"], "--grid-u", "-.9:0.9:5"),
    (["kernel", "--d", "2", "--n", "1", "--what", "E"], "--theta", "-0.5,0.3"),
    (["kernel", "--d", "3", "--n", "2", "--what", "G"], "--theta", "-1e-3"),
    (["kernel", "--d", "3", "--n", "2", "--what", "h"], "--grid-u", "-0.9:0.9:5"),
    (["kernel", "--d", "3", "--n", "2", "--what", "h"], "--u", "-inf"),
    (["verify", "--suite", "shell-count", "--nmax", "2"], "--tol", "-1e-3"),
])
def test_a_value_may_start_with_a_minus(capsys, argv, flag, value):
    # argparse reads such a token as an option unless it is a plain negative
    # number; the two-token spelling must print what --flag=value prints
    joined = main([*argv, f"{flag}={value}"]), capsys.readouterr()
    split = main([*argv, flag, value]), capsys.readouterr()
    assert split == joined


@pytest.mark.parametrize("argv", [["--bogus"], ["--bogus", "-1"], ["--u", "0.5", "--bogus"]])
def test_an_unknown_option_is_still_a_usage_error(capsys, argv):
    code = main(["mnd", "--d", "2", "--n", "1", "--u", "-0.5", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith("error: unrecognized arguments: --bogus")


@pytest.mark.parametrize("argv", [
    ["--what", "G", "--theta", "nan"],
    ["--what", "H", "--theta", "inf"],
    ["--what", "h", "--u", "inf"],
    ["--what", "h", "--u", "nan"],
])
def test_kernel_rejects_non_finite_point(capsys, argv):
    code = main(["kernel", "--d", "3", "--n", "2", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    name = "theta" if "--theta" in argv else "u"
    assert captured.err.strip().splitlines() == [f"error: {name} must be finite, got {argv[-1]}"]


_GRID_U = "--grid-u expects float start and stop and an integer count"


@pytest.mark.parametrize("argv, message", [
    (["mnd", "--d", "2", "--n", "1", "--u", "abc"], "argument --u: invalid float value: 'abc'"),
    (["kernel", "--d", "3", "--n", "2", "--what", "h", "--u", "0.5", "--u", "abc"],
     "argument --u: invalid float value: 'abc'"),
    (["mnd", "--d", "2", "--n", "1", "--grid-u", "a:1:3"], f"{_GRID_U}, got 'a:1:3'"),
    (["kernel", "--d", "3", "--n", "2", "--what", "h", "--grid-u", "0:1:2.5"],
     f"{_GRID_U}, got '0:1:2.5'"),
    (["kernel", "--d", "2", "--n", "1", "--what", "G", "--theta", "1,2"],
     "--theta needs 1 angle, got 2"),
    (["kernel", "--d", "2", "--n", "1", "--what", "E", "--theta", "0.5,a"],
     "argument --theta: expected comma-separated floats, got '0.5,a'"),
    (["kernel", "--d", "abc", "--n", "1", "--what", "E", "--theta", "0,0"],
     "argument --d: invalid int value: 'abc'"),
])
def test_a_non_numeric_value_names_its_flag(capsys, argv, message):
    # these printed float()'s and int()'s own messages, which name no flag, or argparse's
    # three usage lines
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {message}"]


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

    # no point with |u| < 1 calls no route, so an n past the route's bound still answers
    code, out = run_cli(capsys, "mnd", "--d", "2", "--n", "1000000000000",
                        "--method", "closed", "--u", "1.5", "--u", "-2")
    assert code == 0
    assert [float(row["value"]) for row in csv_rows(out)] == [0.0, 0.0]


def test_mnd_series_matches_closed_route(capsys):
    from l1torus.bspline_fourier import mean_d2_closed

    for k_flags in (["--K", "2000"], []):
        code, out = run_cli(capsys, "mnd", "--d", "2", "--n", "2", "--u", "0",
                            "--method", "series", *k_flags)
        assert code == 0
        (row,) = csv_rows(out)
        assert abs(float(row["value"]) - mean_d2_closed(2, math.pi / 2.0)) < 1e-12


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


def test_mnd_mc_points_share_one_set_of_draws(capsys):
    # 20 000 pairs: one batch for a lone point, two at three points
    argv = ["mnd", "--d", "3", "--n", "2", "--method", "mc", "--budget", "40000", "--seed", "77"]
    us = ["-0.6", "0.1", "0.45"]
    code, out = run_cli(capsys, *argv, *[t for u in us for t in ("--u", u)])
    assert code == 0
    singles = [run_cli(capsys, *argv, "--u", u)[1].splitlines() for u in us]
    assert out.splitlines() == [singles[0][0]] + [lines[1] for lines in singles]


@pytest.mark.parametrize("argv", [["kernel", "--d", "3", "--n", "9", "--what", "h"],
                                  ["mnd", "--d", "2", "--n", "7", "--method", "closed"]])
def test_grid_u_prints_what_per_point_calls_print(capsys, argv):
    code, out = run_cli(capsys, *argv, "--grid-u=-1.1:1.1:23")
    assert code == 0
    header, *rows = out.splitlines()
    assert len(rows) == 23
    for row in rows:
        assert run_cli(capsys, *argv, f"--u={row.split(',')[2]}")[1].splitlines() == [header, row]


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


def test_verify_biortho_index_applies_to_default_dimensions(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "biortho", "--N", "2")
    assert code == 0
    (suite,) = json.loads(out)["suites"]
    assert suite["params"] == {"cases": [{"d": 2, "max_index": 2}, {"d": 3, "max_index": 2}]}
    assert sorted(suite["details"]) == ["d=2", "d=3"]
    assert [v["size"] for v in suite["details"].values()] == [3, 3]


def test_verify_json_passed_is_a_boolean(capsys):
    # these three suites printed "passed": 1.0, a NumPy bool through float()
    code, out = run_cli(capsys, "verify", "--suite", "biortho-generating",
                        "--suite", "mean-recursion", "--suite", "mean-methods")
    assert code == 0
    suites = json.loads(out)["suites"]
    assert [s["passed"] for s in suites] == [True, True, True]
    assert all(type(s["max_error"]) is float for s in suites)


@pytest.mark.parametrize("argv, message", [
    (["--d", "0"], "d must be >= 1, got 0"),
    (["--nmax", "-1"], "nmax must be >= 0, got -1"),
    (["--N", "-1"], "max_index must be >= 0, got -1"),
    (["--K", "0"], "nterms must be >= 1, got 0"),
    (["--budget", "0"], "budget must be >= 4, got 0"),
    (["--budget", "3"], "budget must be >= 4, got 3"),
    (["--tol", "nan"], "tol must be finite and >= 0, got nan"),
    (["--tol", "inf"], "tol must be finite and >= 0, got inf"),
    (["--tol=-1e-9"], "tol must be finite and >= 0, got -1e-09"),
    (["--suite", "shell-divdiff", "--nmax", "0"],
     "suite shell-divdiff compares no case at {'dims': [2, 3, 4], 'n_range': [1, 0], "
     "'points': 30}"),
])
def test_verify_rejects_out_of_range_overrides(capsys, argv, message):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {message}"]


def test_verify_exit_one_on_failure(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "mean-methods",
                        "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["all_passed"] is False


def test_verify_high_dimension_finishes_or_fails_fast(capsys):
    # d = 16 needs shells of up to 3e7 points, summed without enumeration
    code, out = run_cli(capsys, "verify", "--suite", "shell-divdiff", "--d", "16")
    assert code in (0, 1)
    assert json.loads(out)["suites"][0]["params"]["dims"] == [16]
    # no 40 cosines lay 0.01 apart within the old sampler's 10 000 draws; uniform points serve
    code, out = run_cli(capsys, "verify", "--suite", "shell-divdiff", "--d", "40")
    assert code == 0 and json.loads(out)["suites"][0]["passed"] is True
    # 249! is past the float range: refused before any point is drawn
    code = main(["verify", "--suite", "shell-divdiff", "--d", "250"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: 249! is over the limit of 1.8e+308, the largest float"]


def test_verify_mean_mc_serves_what_its_route_serves(capsys):
    # the suite's own copy of the shell-sum bound charged (nmax + 1)^3 per point against
    # the per-batch limit, so it refused --nmax 9 that one call per dimension serves
    code, out = run_cli(capsys, "verify", "--suite", "mean-mc", "--nmax", "9")
    assert code in (0, 1)
    (suite,) = json.loads(out)["suites"]
    assert [(c["d"], c["n"]) for c in suite["details"]["cases"]][::3] == [
        (d, n) for d in (2, 3) for n in range(10)]


@pytest.mark.parametrize("suite, limit, value, route", [
    ("mean-mc", "_MAX_MC_BUDGET", 1_000_000, "budget 200000 at 3 point(s) for 4 orders"),
    ("mean-methods", "_MAX_VALUES", 100, "closed form for 5 order(s) at 50 point(s)"),
    ("mean-recursion", "_MAX_VALUES", 10_000, "series at n = 7, K = 212"),
])
def test_mean_suites_are_refused_by_their_routes_bounds(capsys, monkeypatch, suite, limit,
                                                         value, route):
    from l1torus import bspline_fourier, numerics

    # each limit is read from the module that holds it
    module = bspline_fourier if hasattr(bspline_fourier, limit) else numerics
    monkeypatch.setattr(module, limit, value)
    code = main(["verify", "--suite", suite])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.startswith(f"error: {route}") and line.endswith(f"over the limit of {value:.3g}")


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


@pytest.mark.parametrize("modulus, witness", [
    (1000000007, [2, 1000000007]),
    # the largest modulus the trial-division bound admits, and the first it refuses
    ((2**16 + 1) ** 2 - 1, [2, 4]),
    ((2**16 + 1) ** 2, None),
    (10**40 + 1, None),
])
def test_pdf_large_modulus_is_searched_or_refused(tmp_path, fresh_env, modulus, witness):
    # a fresh process under a timeout: a search that walks every g <= q hangs
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"head": [1.0], "tail": {
        "kind": "residues-positive", "modulus": modulus, "residues": [1]}}))
    done = subprocess.run([sys.executable, "-m", "l1torus.cli", "pdf", "--spec", str(spec)],
                          env=fresh_env, capture_output=True, text=True, timeout=60)
    if witness is None:
        assert done.returncode == 2 and done.stdout == ""
        (line,) = done.stderr.strip().splitlines()
        assert "over the limit" in line
        return
    assert done.returncode == 0 and done.stderr == ""
    payload = json.loads(done.stdout)
    assert payload["spdf"] is False and payload["witness"] == witness


def test_pdf_malformed_spec_is_usage_error(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text("{not json")
    code, _ = run_cli(capsys, "pdf", "--spec", str(spec))
    assert code == 2


@pytest.mark.parametrize("spec, message", [
    ('{"head": 5}', "needs a 'head' list of numbers"),
    ('{"head": [null]}', "needs a 'head' list of numbers"),
    ('{"head": [true]}', "needs a 'head' list of numbers"),
    ('{"head": ["nan", 1.0]}', "needs a 'head' list of numbers"),
    ('{"tail": {"kind": "zero"}}', "needs a 'head' list of numbers"),
    ('[1.0, 0.5]', "needs a 'head' list of numbers"),
    ('{"head": [NaN, 1.0]}', "head must be finite, got nan"),
    ('{"head": [1.0, Infinity]}', "head must be finite, got inf"),
    pytest.param('{"head": [1' + '0' * 400 + ']}', "beyond the float range", id="huge-int"),
    ('{"head": [1.0], "tail": 5}', "tail must be an object whose kind is one of"),
    ('{"head": [1.0], "tail": {"kind": []}}', "got kind []"),
    ('{"head": [1.0], "tail": {"kind": "all-positive-from"}}', "needs the key 'n0'"),
    ('{"head": [1.0], "tail": {"kind": "residues-positive", "residues": [1]}}',
     "needs the key 'modulus'"),
    ('{"head": [1.0], "tail": {"kind": "residues-positive", "modulus": 2, "residues": 1}}',
     "residues a list"),
    ('{"head": [1.0], "tail": {"kind": "residues-positive", "modulus": 2.0, "residues": [1]}}',
     "must be integers"),
    ('{"head": [1.0], "tail": {"kind": "residues-positive", "modulus": 2, "residues": []}}',
     "residue set must be nonempty"),
])
@pytest.mark.parametrize("command", ["pdf", "partial-sum"])
def test_malformed_spec_values_are_usage_errors(capsys, tmp_path, command, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(spec)
    argv = ["pdf", "--spec", str(path)]
    if command == "partial-sum":
        argv = ["partial-sum", "--d", "2", "--n", "1", "--L", "8", "--spec", str(path),
                "--theta", "0,0"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert message in line


# ------------------------------------------------------------------- count


def test_count_range_rows(capsys):
    code, out = run_cli(capsys, "count", "--d", "3", "--nmax", "4")
    assert code == 0
    rows = csv_rows(out)
    assert [int(r["count"]) for r in rows] == [1, 6, 18, 38, 66]


def test_count_rows_are_bounded(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_MAX_COUNT_ROWS", 5)
    code, out = run_cli(capsys, "count", "--d", "3", "--nmax", "4")
    assert code == 0 and len(csv_rows(out)) == 5
    code = main(["count", "--d", "3", "--nmax", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert "over the limit of 5" in line


def test_count_prints_large_counts_exactly(capsys):
    code, out = run_cli(capsys, "count", "--d", "1000", "--n", "1000")
    assert code == 0
    (row,) = csv_rows(out)
    assert int(row["count"]) == shell_count(1000, 1000)
    code, out = run_cli(capsys, "count", "--d", "3", "--n", "1000000000000")
    (row,) = csv_rows(out)
    assert row["count"] == str(shell_count(3, 10**12)) == "4000000000000000000000002"


_N, _M = str(10**200), str(10**400)  # past the float range: 10^400 as a count index


@pytest.mark.parametrize("argv", [
    ["count", "--d", "1000000000", "--n", "1000000000"],
    ["verify", "--suite", "shell-count", "--d", "1000000000", "--nmax", "1000000000"],
    ["mnd", "--d", "2", "--n", "1", "--method", "mc", "--u", "0.3",
     "--budget", "1000000000000"],
    ["verify", "--suite", "mean-mc", "--budget", "1000000000000"],
    # the exact node count 5^(10^9) of the grid alone would run for minutes
    ["partial-sum", "--d", "1000000000", "--n", "1", "--L", "5", "--theta", "0"],
    ["partial-sum", "--d", "1000000000", "--n", "1", "--L", "5", "--theta", "0",
     "--route", "convolution"],
    # each order of these loops is within its own bound; the loop as a whole is not
    ["verify", "--suite", "shell-divdiff", "--nmax", "1000000000000"],
    ["verify", "--suite", "dirichlet-divdiff", "--nmax", "1000000000000"],
    ["verify", "--suite", "mean-recursion", "--nmax", "1000000000000"],
    ["verify", "--suite", "mean-mc", "--nmax", "1000000000000"],
    ["verify", "--suite", "mean-mc", "--nmax", "20000", "--budget", "4"],
    ["verify", "--suite", "biortho", "--N", "30000"],
    ["verify", "--suite", "biortho", "--N", "100000000"],
    # each point of these requests is within its route's bound; the request is not
    ["mnd", "--d", "3", "--n", "1", "--method", "mc", "--grid-u", "-0.5:0.5:1000"],
    ["kernel", "--d", "3", "--n", "1000000", "--what", "h", "--grid-u", "-0.5:0.5:100"],
    ["mnd", "--d", "3", "--n", "3", "--grid-u", "-0.99:0.99:65536"],
    # integers past the float range: a cost that prints as 2^k, and the estimates
    # and lengths taken before any bound, are refused rather than overflowing
    *[["verify", "--suite", suite, "--nmax", _N] for suite in
      ("shell-divdiff", "dirichlet-divdiff", "mean-recursion", "shell-integral")],
    ["verify", "--suite", "poisson-series", "--K", _N],
    ["verify", "--suite", "mean-methods", "--nmax", _N],
    ["verify", "--suite", "shell-count", "--nmax", _M],
    ["kernel", "--d", "3", "--n", _N, "--what", "E", "--theta", "0,0,0"],
    ["kernel", "--d", "3", "--n", _N, "--what", "D", "--theta", "0,0,0"],
    ["mnd", "--d", "3", "--n", _N, "--method", "mc", "--u", "0.5", "--budget", "400"],
    ["pdf", "--points", _N],
    ["count", "--d", "3", "--n", _M],
    # this suite had no bound at all: it ran instead of being refused
    ["verify", "--suite", "biortho-generating", "--K", "100000000"],
    # the npts x d sample points were drawn before any bound
    ["pdf", "--d", "1000000000", "--points", "1"],
    # the product's cost counted multiply-adds, not its d factor steps: it ran for seconds
    ["pdf", "--d", "1000000", "--points", "1"],
    # each Monte-Carlo batch was within the shell-sum bound; the whole call was not
    ["mnd", "--d", "3", "--n", "118", "--method", "mc", "--budget", "33554432", "--u", "0.3"],
    ["mnd", "--d", "3", "--n", "300", "--method", "mc", "--grid-u", "-0.5:0.5:8",
     "--budget", "4194304"],
])
def test_oversized_requests_exit_two_in_a_fresh_process(coeff_spec, fresh_env, argv):
    # a separate process under a timeout: a request that runs instead of being
    # refused fails the test rather than hanging the suite
    if argv[0] in ("partial-sum", "pdf"):
        argv = [*argv, "--spec", coeff_spec]
    done = subprocess.run([sys.executable, "-m", "l1torus.cli", *argv], env=fresh_env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    (line,) = done.stderr.strip().splitlines()
    assert "over the limit" in line


def test_a_cost_just_past_its_limit_prints_in_full(capsys):
    # 4 194 320 values against 4 194 304 printed as "4.19e+06 ..., over the limit of 4.19e+06"
    code = main(["verify", "--suite", "biortho-generating", "--K", "209715"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert line.endswith(": 4194320 values, over the limit of 4194304"), line


@pytest.mark.parametrize("d", [20, 100])
def test_biortho_generating_refuses_an_infinite_tail_bound(fresh_env, d):
    # every error passed against an infinite bound (d = 20, max_error 0.0), and at d = 100
    # the bound was nan: max_error nan, with two RuntimeWarnings on stderr
    done = subprocess.run([sys.executable, "-m", "l1torus.cli", "verify", "--suite",
                           "biortho-generating", "--d", str(d)], env=fresh_env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.strip().splitlines()
    assert line == (f"error: biortho-generating at d = {d}, r = 0.2, nterms = 80: "
                    f"the series tail has no finite bound")


def test_no_scipy_module_is_loaded_at_run_time(tmp_path, fresh_env):
    # numpy alone at run time: scipy is a test oracle only, and its import cost
    # would come back in every CLI call
    script = ("import sys\n"
              "import l1torus, l1torus.cli\n"
              "code = l1torus.cli.main(['verify', '--budget', '4000', '--out', sys.argv[1]])\n"
              "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    out = tmp_path / "verify.json"
    done = subprocess.run([sys.executable, "-c", script, str(out)], env=fresh_env,
                          capture_output=True, text=True, timeout=120)
    code, loaded = done.stdout.split(" ", 1)
    assert code in ("0", "1") and done.stderr == ""
    assert loaded.strip() == "[]"
    suites = [s["name"] for s in json.loads(out.read_text())["suites"]]
    assert "biortho" in suites and len(suites) > 1


@pytest.mark.parametrize("grid", ["0:inf:5", "-1e308:1e308:5", "nan:1:3"])
def test_non_finite_grid_u_is_one_line_in_a_fresh_process(fresh_env, grid):
    # a fresh process: in this one RuntimeWarning is an error, so a warning printed
    # by np.linspace before the error line would not show
    done = subprocess.run([sys.executable, "-m", "l1torus.cli", "mnd", "--d", "2", "--n", "1",
                           "--grid-u", grid], env=fresh_env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.strip().splitlines()
    assert "must be finite" in line


@pytest.mark.parametrize("argv, refusal", [
    # one row at a time, each summing min(d, n) + 1 binomials, this ran for minutes
    (["--d", "1000", "--nmax", "3000"], None),
    # within the row limit and every per-row bound, and hours of work
    (["--d", "1000", "--nmax", "61000"], "rows x bits, over the limit of 3.36e+07"),
    # computed, then refused by the int-to-str limit in Python's words
    (["--d", "100", "--n", str(10**250)], "has more than 4300 digits"),
], ids=["d1000-nmax3000", "d1000-nmax61000", "d100-n1e250"])
def test_count_requests_are_served_or_refused_in_one_line_in_a_fresh_process(
        fresh_env, argv, refusal):
    done = subprocess.run([sys.executable, "-m", "l1torus.cli", "count", *argv],
                          env={**fresh_env, "PYTHONINTMAXSTRDIGITS": "4300"},
                          capture_output=True, text=True, timeout=120)
    assert "set_int_max_str_digits" not in done.stderr
    if refusal is None:
        assert done.returncode == 0 and done.stderr == ""
        rows = csv_rows(done.stdout)
        assert len(rows) == 3001 and int(rows[-1]["count"]) == shell_count(1000, 3000)
    else:
        assert done.returncode == 2 and done.stdout == ""
        (line,) = done.stderr.strip().splitlines()
        assert refusal in line


def test_count_refuses_a_negative_nmax(capsys):
    code = main(["count", "--d", "3", "--nmax", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == ["error: --nmax must be >= 0, got -1"]


def test_count_requires_an_index(capsys):
    code, _ = run_cli(capsys, "count", "--d", "3")
    assert code == 2


# ------------------------------------------------------------- partial-sum


def test_partial_sum_routes_agree(capsys, tmp_path):
    spec = tmp_path / "coeffs.json"
    spec.write_text(json.dumps({"head": [0.7, -0.3, 0.5, 0.1],
                                "tail": {"kind": "zero"}}))
    # the second case reads the 833-point ball of radius 8 from a 24^3 grid
    for d, n, L, theta in ((2, 3, 16, "0.4,-1.2"), (3, 8, 24, "-0.4,1.2,2.5")):
        vals = {}
        for route in ("coefficients", "convolution"):
            code, out = run_cli(capsys, "partial-sum", "--d", str(d), "--n", str(n),
                                "--L", str(L), "--spec", str(spec),
                                "--theta", theta, "--route", route)
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


@pytest.mark.parametrize("thetas", [[], ["0.1"], ["0.1,x"], ["nan,0"], ["0.1,0.2", "0.3"]])
def test_partial_sum_checks_every_theta_before_sampling(capsys, monkeypatch, coeff_spec,
                                                        thetas):
    # the L^d grid is sampled only for a request that will be served
    calls = []
    sample = cli.SampledTorusFn.sample
    monkeypatch.setattr(cli.SampledTorusFn, "sample",
                        lambda *args: calls.append(args) or sample(*args))
    flags = [f for t in thetas for f in ("--theta", t)]
    code, _ = run_cli(capsys, "partial-sum", "--d", "2", "--n", "1", "--L", "2048",
                      "--spec", coeff_spec, *flags)
    assert code == 2 and calls == []
    code, _ = run_cli(capsys, "partial-sum", "--d", "2", "--n", "1", "--L", "8",
                      "--spec", coeff_spec, "--theta", "0.1,0.2")
    assert code == 0 and len(calls) == 1


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


@pytest.mark.parametrize("argv", [
    ["count", "--d", "2", "--n", "3"],
    ["kernel", "--d", "2", "--n", "1", "--what", "E", "--theta", "0,0"],
    ["partial-sum", "--d", "2", "--n", "1", "--L", "8", "--theta", "0.1,0.2"],
])
def test_a_malformed_seed_variable_leaves_commands_without_seed_alone(capsys, monkeypatch,
                                                                     coeff_spec, argv):
    # the parser read the variable for every --seed default on every call, so these
    # commands, which take no seed, exited 2
    if argv[0] == "partial-sum":
        argv = [*argv, "--spec", coeff_spec]
    expected = run_cli(capsys, *argv)
    monkeypatch.setenv("L1TORUS_SEED", "abc")
    assert run_cli(capsys, *argv) == expected and expected[0] == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("points", ["-1", "0"])
def test_pdf_refuses_fewer_than_one_point(capsys, coeff_spec, points):
    # --points -1 printed numpy's "negative dimensions are not allowed"
    code = main(["pdf", "--spec", coeff_spec, "--points", points])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == ["error: at least one point is required"]


@pytest.mark.parametrize("suite", ["shell-integral", "poisson-bspline"])
def test_field_suites_refuse_dimension_one(capsys, suite):
    # one knot makes M_0 a point mass: the suites said "all knots coincide"
    code = main(["verify", "--suite", suite, "--d", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip().splitlines() == ["error: dimension must be >= 2"]


def test_invalid_choice_is_usage_error(capsys):
    code = main(["kernel", "--d", "2", "--n", "1", "--what", "X"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: argument --what: invalid choice: 'X' (choose from 'E', 'D', 'G', 'H', 'h')"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0
    assert "--nmax" in capsys.readouterr().out


# ----------------------------------------------- one process, many requests


def _in_process(argv):
    """(exit code, stdout, stderr) of one in-process call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv, env):
    done = subprocess.run([sys.executable, "-m", "l1torus.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_one_process_serves_requests_as_fresh_processes_do(fresh_env):
    # the parser is built once per process: no option value, default or error
    # of one call may carry into the next
    first = ["mnd", "--d", "2", "--n", "3", "--method", "closed", "--u", "0.3",
             "--u", "-0.5"]
    requests = [
        first,
        ["kernel", "--d", "3", "--n", "2", "--what", "E", "--theta", "0.1,0.2,0.3",
         "--theta", "-0.5,1,2"],
        ["verify", "--suite", "shell-count", "--suite", "biortho"],
        ["kernel", "--d", "2", "--n", "1", "--what", "X"],
        first,
    ]
    in_process = [_in_process(argv) for argv in requests]
    assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0]
    assert in_process[0] == in_process[-1]
    assert in_process == [_fresh_process(argv, fresh_env) for argv in requests]


@pytest.mark.parametrize("argv", [
    # each was served from one of its two sources, the other dropped without a word
    ["mnd", "--d", "2", "--n", "1", "--u", "0.3", "--grid-u", "0:0.5:2"],
    ["kernel", "--d", "2", "--n", "1", "--what", "E", "--theta", "0.1,0.2", "--grid", "2"],
    ["count", "--d", "2", "--n", "3", "--nmax", "2"],
    # argparse printed three usage lines and raised SystemExit out of main
    ["kernel", "--d", "abc", "--n", "1", "--what", "E", "--theta", "0,0"],
])
def test_usage_errors_are_one_line_in_a_fresh_process(fresh_env, argv):
    code, out, err = _fresh_process(argv, fresh_env)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: argument --")


def test_a_second_call_builds_no_parser(capsys, monkeypatch):
    main(["count", "--d", "2", "--n", "1"])  # the first call of the process builds it
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    assert main(["count", "--d", "3", "--n", "2"]) == 0
    assert main(["kernel", "--d", "2", "--n", "1", "--what", "h", "--u", "0.5"]) == 0
    capsys.readouterr()
    assert built == []


def test_the_seed_variable_is_read_per_call(monkeypatch, fresh_env):
    argv = ["mnd", "--d", "2", "--n", "1", "--u", "0.3", "--method", "mc", "--budget", "2000"]
    outputs = []
    for seed in ("5", "6"):
        monkeypatch.setenv("L1TORUS_SEED", seed)
        outputs.append(_in_process(argv))
        assert outputs[-1] == _fresh_process(argv, {**fresh_env, "L1TORUS_SEED": seed})
    assert outputs[0][0] == 0 and outputs[0][1] != outputs[1][1]


def test_importing_the_cli_builds_no_parser(fresh_env):
    # a parser built at import would cost every importer, workloads without a CLI call too
    script = "import l1torus.cli as c; print(c.build_parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")
