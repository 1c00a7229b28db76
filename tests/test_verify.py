"""The identity-verification suites: all pass at default settings."""
import json
import tracemalloc

import numpy as np
import pytest

from l1torus.verify import SUITES, VerifyConfig, run_suites


def test_every_suite_passes_at_defaults():
    reports = run_suites(list(SUITES), VerifyConfig())
    assert len(reports) == len(SUITES)
    failing = [r.name for r in reports if not r.passed]
    assert failing == [], f"suites failed: {failing}"
    for r in reports:
        assert type(r.passed) is bool and type(r.max_error) is float, r.name
        assert r.max_error <= r.tolerance


def test_reports_are_json_serializable():
    reports = run_suites(["shell-count", "poisson-series"], VerifyConfig())
    payload = [r.to_json() for r in reports]
    text = json.dumps(payload)
    parsed = json.loads(text)
    assert parsed[0]["name"] == "shell-count"
    assert set(parsed[0]) >= {"name", "description", "max_error", "tolerance", "passed"}


@pytest.mark.parametrize("seed", [4, 11, 12, 13, 14])
def test_poisson_bspline_passes_when_a_long_segment_ends_near_one(seed):
    # these seeds draw a long knot segment ending near u = 1, close to the
    # r = 0.8 integrand's pole at 1.025; one Gauss rule per segment missed
    # the 1e-7 tolerance there
    (report,) = run_suites(["poisson-bspline"], VerifyConfig(seed=seed))
    assert report.passed, report.max_error


def test_unknown_suite_is_rejected():
    with pytest.raises(ValueError):
        run_suites(["no-such-suite"], VerifyConfig())


def test_config_overrides_narrow_the_run():
    (report,) = run_suites(["biortho"], VerifyConfig(d=2, max_index=3))
    assert report.passed
    assert report.params["cases"] == [{"d": 2, "max_index": 3}]


def test_a_nan_error_fails_the_suite(monkeypatch):
    import l1torus.verify as verify

    monkeypatch.setitem(verify.SUITES, "shell-count", verify.Suite(
        "stand-in", 1.0, lambda cfg: ({}, [0.0, float("nan"), 0.5], {})))
    (report,) = run_suites(["shell-count"], VerifyConfig())
    assert report.passed is False


def test_tolerance_override_can_force_failure():
    (report,) = run_suites(["mean-methods"], VerifyConfig(tol=1e-30))
    assert not report.passed


# the suites that draw uniform torus points: the identities hold at every point
_SAMPLED = ("shell-divdiff", "shell-integral", "dirichlet-divdiff", "poisson-bspline",
            "poisson-divdiff")


@pytest.mark.parametrize("seed", [VerifyConfig().seed, *range(1, 21)])
def test_sampled_suites_pass_at_many_seeds(seed):
    reports = run_suites(list(_SAMPLED), VerifyConfig(seed=seed))
    assert [r.name for r in reports if not r.passed] == []


@pytest.mark.parametrize("d", [10**30, 10**400], ids=["1e30", "1e400"])
@pytest.mark.parametrize("name", sorted(SUITES))
def test_a_dimension_past_the_float_range_is_refused_or_ignored(name, d):
    # a suite that takes --d refuses it with a ValueError, not an overflow;
    # the others ignore it
    try:
        (report,) = run_suites([name], VerifyConfig(d=d, nmax=1, budget=100))
    except ValueError as refused:
        assert len(str(refused).splitlines()) == 1
        return
    assert name in ("gram-psd", "mean-methods", "spdf-cross") and report.passed


@pytest.mark.parametrize("name, d", [*((name, d) for name in _SAMPLED for d in (172, 10**5)),
                                     ("poisson-series", 10**9)])
def test_a_large_dimension_is_refused_before_its_points_are_drawn(name, d):
    # (d - 1)! past the float range is refused before any point is drawn; the Poisson
    # series' tables are bounded before 10 x 10^9 angles are drawn
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the limit"):
            run_suites([name], VerifyConfig(d=d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_poisson_suites_make_one_call_per_dimension_and_radius(monkeypatch):
    # one batch per (d, r), where one call per point made 189, 40 and 90; poisson-bspline
    # takes its product from poisson_divdiff instead of writing its own
    from l1torus import verify

    calls = []
    for name in ("poisson_divdiff", "poisson_product"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda d, r, theta, real=real:
                            calls.append(np.shape(theta)) or real(d, r, theta))
    for name, count, rows in (("poisson-divdiff", 9, 21), ("poisson-series", 4, 10),
                              ("poisson-bspline", 9, 10)):
        calls.clear()
        (report,) = run_suites([name], VerifyConfig())
        assert report.passed and [shape[0] for shape in calls] == [rows] * count, name


def test_divdiff_suites_make_one_call_per_seed(monkeypatch):
    # one knot-matrix call per (d, n) or (d, r) at the defaults, where one call per point
    # made 720, 810 and 189
    from l1torus import divdiff

    calls = []
    real = divdiff.divided_difference
    monkeypatch.setattr(divdiff, "divided_difference",
                        lambda p, knots: calls.append(p) or real(p, knots))
    for name, count in (("shell-divdiff", 24), ("dirichlet-divdiff", 27), ("poisson-divdiff", 9)):
        calls.clear()
        (report,) = run_suites([name], VerifyConfig())
        assert report.passed and len(calls) == count, (name, len(calls))
