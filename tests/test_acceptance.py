"""Acceptance gate: eight headline checks, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
check re-derives its quantities at the full stated budgets and tolerances;
nothing is cached from the faster unit suites.
"""
import math

import numpy as np

from l1torus.bspline_fourier import (biorthogonality_matrix, mean_d2_closed,
                                     mean_order0_closed, mean_torus_mc)
from l1torus.numerics import DEFAULT_SEED, gauss_legendre
from l1torus.verify import VerifyConfig, run_suites

CFG = VerifyConfig()


def report(num, ok, msg):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'} — {msg}")
    return ok


def suite_by_name(names):
    return {r.name: r for r in run_suites(list(names), CFG)}


def test_acceptance_1_biorthogonality():
    worst_off, worst_diag = 0.0, 0.0
    for d, top in ((2, 6), (3, 5)):
        b = biorthogonality_matrix(d, top)
        off = b - np.diag(np.diag(b))
        worst_off = max(worst_off, float(np.max(np.abs(off))))
        worst_diag = max(worst_diag, float(np.max(np.abs(np.diag(b) - 1.0))))
    ok = worst_off <= 1e-8 and worst_diag <= 1e-6
    assert report(
        1, ok,
        f"pairing matrices (d=2, N=6) and (d=3, N=5) are the identity: "
        f"max off-diag {worst_off:.3e} (tol 1e-8), "
        f"max diag deviation {worst_diag:.3e} (tol 1e-6)")


def test_acceptance_2_shell_divided_difference_and_integral():
    reports = suite_by_name(["shell-divdiff", "shell-integral"])
    dd, integ = reports["shell-divdiff"], reports["shell-integral"]
    ok = dd.passed and integ.passed
    assert report(
        2, ok,
        f"shell sums vs seed divided differences (d in 2..4, n in 1..8, "
        f"30 points): {dd.max_error:.3e} (tol {dd.tolerance:g}); "
        f"vs biortho-weighted field integrals (n in 0..8): "
        f"{integ.max_error:.3e} (tol {integ.tolerance:g})")


def test_acceptance_3_mean_d2_closed_form():
    series = suite_by_name(["mean-methods"])["mean-methods"]
    worst_sigma = 0.0
    for n in range(4):
        for u in (-0.6, 0.0, 0.6):
            est = mean_torus_mc(2, n, u, budget=2_000_000, seed=DEFAULT_SEED)
            ref = mean_d2_closed(n, math.acos(u))
            worst_sigma = max(
                worst_sigma, abs(est.value - ref) / max(3.0 * est.stderr, 1e-15))
    ok = series.passed and worst_sigma <= 1.0
    assert report(
        3, ok,
        f"d=2 mean closed form vs filtered series on 50-point grid: "
        f"{series.max_error:.3e} (tol {series.tolerance:g}); vs Monte-Carlo "
        f"(budget 2e6, 12 cases): worst {3.0 * worst_sigma:.2f} sigma "
        f"(band 3 sigma)")


def test_acceptance_4_order_zero_mean():
    worst_sigma = 0.0
    for u in (-0.5, 0.0, 0.5):
        est = mean_torus_mc(3, 0, u, budget=10_000_000, seed=DEFAULT_SEED)
        ref = mean_order0_closed(3, u)
        worst_sigma = max(
            worst_sigma, abs(est.value - ref) / max(3.0 * est.stderr, 1e-15))
    gl = gauss_legendre(200)
    phi = 0.5 * math.pi * (gl.nodes + 1.0)
    w = 0.5 * math.pi * gl.weights
    worst_int = 0.0
    for d in range(2, 6):
        quad = float(np.dot(
            w, [mean_order0_closed(d, math.cos(p)) * math.sin(p) for p in phi]))
        exact = 1.0 / math.factorial(d - 1)
        worst_int = max(worst_int, abs(quad - exact))
    ok = worst_sigma <= 1.0 and worst_int <= 1e-10
    assert report(
        4, ok,
        f"d=3 order-0 mean vs Monte-Carlo (budget 1e7, u in ±0.5, 0): worst "
        f"{3.0 * worst_sigma:.2f} sigma (band 3 sigma); integral over [-1,1] "
        f"vs 1/(d-1)! for d <= 5: {worst_int:.3e} (tol 1e-10)")


def test_acceptance_5_generating_and_poisson_identities():
    reports = suite_by_name(["biortho-generating", "poisson-bspline",
                             "poisson-divdiff", "poisson-series"])
    ok = all(r.passed for r in reports.values())
    parts = ", ".join(f"{r.name} {r.max_error:.3e} (tol {r.tolerance:g})"
                      for r in reports.values())
    assert report(5, ok, f"generating-function and Poisson dual routes: {parts}")


def test_acceptance_6_mean_recursion():
    r = suite_by_name(["mean-recursion"])["mean-recursion"]
    by_d = {k: v for k, v in r.details.items()}
    parts = ", ".join(f"{k}: {v['max_error']:.3e} (tol {v['tolerance']:g})"
                      for k, v in by_d.items())
    assert report(
        6, r.passed,
        f"alternating-sum recursion at 20 random u in [-0.9, 0.9]: {parts}")


def test_acceptance_7_shell_counts():
    r = suite_by_name(["shell-count"])["shell-count"]
    assert report(
        7, r.passed,
        f"shell counts: enumeration, generating-function count, and "
        f"biortho_poly(d, n, 1)/(d-1)! agree as integers for d <= 4, n <= 10 "
        f"(largest discrepancy {int(r.max_error)})")


def test_acceptance_8_pdf_spdf():
    reports = suite_by_name(["gram-psd", "spdf-cross"])
    gram, cross = reports["gram-psd"], reports["spdf-cross"]
    ok = gram.passed and cross.passed
    assert report(
        8, ok,
        f"Gram PSD floor over 20 random nonnegative kernels: worst ratio "
        f"{gram.max_error:.3e} (tol {gram.tolerance:g}); SPDF certificate vs "
        f"brute-force pair search on {cross.params['specs']} residue specs: "
        f"{'no' if cross.max_error == 0 else 'some'} disagreements")
