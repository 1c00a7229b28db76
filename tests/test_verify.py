"""The identity-verification suites: all pass at default settings."""
import json
import tracemalloc

import pytest

from l1torus.verify import (
    SUITES,
    VerifyConfig,
    run_suites,
    sample_separated_theta,
)


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


def test_separated_sampler_honors_gap(rng):
    import math

    import numpy as np

    thetas = sample_separated_theta(rng, 3, 25, min_cos_gap=0.05)
    assert thetas.shape == (25, 3)
    for t in thetas:
        c = np.sort(np.cos(t))
        assert np.min(np.diff(c)) >= 0.05
    # the draws are those of the unbounded rejection loop
    ref_rng, seeded = np.random.default_rng(8), np.random.default_rng(8)
    expect = []
    while len(expect) < 25:
        t = ref_rng.uniform(-math.pi, math.pi, 6)
        if np.min(np.diff(np.sort(np.cos(t)))) >= 0.2:
            expect.append(t)
    assert np.array_equal(sample_separated_theta(seeded, 6, 25, min_cos_gap=0.2),
                          np.array(expect))


def test_separated_sampler_gives_up_after_max_draws(rng):
    # three cosines in [-1, 1] cannot be pairwise 1.5 apart
    with pytest.raises(ValueError, match="in 10000 draws"):
        sample_separated_theta(rng, 3, 1, min_cos_gap=1.5)


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


@pytest.mark.parametrize("name, d", [("shell-integral", 10**5), ("poisson-bspline", 10**5),
                                     ("poisson-divdiff", 10**5), ("poisson-series", 10**9)])
def test_a_large_dimension_is_refused_before_its_points_are_drawn(name, d):
    # no 10^5 cosines in [-1, 1] are 0.01 apart: the sampler gives up without drawing;
    # the Poisson series' tables are bounded before 10 x 10^9 angles are drawn
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="in 10000 draws|over the limit"):
            run_suites([name], VerifyConfig(d=d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
