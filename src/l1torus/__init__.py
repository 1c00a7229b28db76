"""Numerical toolkit for l1-summability of multivariate Fourier series.

Functions on the d-torus whose Fourier coefficients depend only on the l1
norm of the frequency reduce to univariate objects: lattice-shell sums are
divided differences of explicit seed functions at the knots cos(theta_i),
B-splines of those knots average the shells, and an explicit polynomial
family is biorthogonal to the resulting Fourier means.  The package
implements these objects with dual evaluation routes, verification suites
for every identity, and positive-definiteness checks for shell-coefficient
kernels.
"""
from .bspline import bspline_eval, bspline_values, knot_field_batch
from .bspline_fourier import (DEFAULT_SERIES_TERMS, McEstimate, MeanEvaluator,
                              biorthogonality_matrix, mean_d2_closed,
                              mean_order0_closed, mean_order0_integral,
                              mean_recursion_sides, mean_series, mean_torus_mc)
from .divdiff import divided_difference, divided_difference_cos
from .kernels import (biortho_generating_pair, biortho_generating_tail,
                      biortho_poly, dirichlet_kernel, dirichlet_kernel_batch,
                      dirichlet_seed, dirichlet_seed_poly, dirichlet_seed_theta,
                      poisson_divdiff, poisson_kernel, poisson_product,
                      shell_seed, shell_seed_theta, shell_sum, shell_sum_batch)
from .numerics import (DEFAULT_SEED, QuadRule, ball_enumerate, gauss_gegenbauer,
                       gauss_legendre, rel_err, shell_count, shell_enumerate,
                       torus_trapezoid, wrap_angles)
from .pdf import (CheckResult, GramSpec, MIN_POINT_SEPARATION, gram_matrix,
                  min_eigenvalue, pdf_check, spdf_check, spdf_pair_search)
from .polys import geg_norm_c, gegenbauer_at_one, gegenbauer_sequence
from .summability import (CoeffSeq, ResolutionError, SampledTorusFn, Tail, build_fd,
                          partial_sum, synth, synth_divdiff)
from .verify import (IdentityReport, SUITES, VerifyConfig, field_integrals,
                     run_suites, sample_separated_theta)

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "CoeffSeq", "DEFAULT_SEED", "DEFAULT_SERIES_TERMS", "GramSpec",
    "IdentityReport", "McEstimate", "MeanEvaluator", "MIN_POINT_SEPARATION",
    "QuadRule", "ResolutionError", "SampledTorusFn", "SUITES", "Tail", "VerifyConfig",
    "ball_enumerate", "biorthogonality_matrix", "biortho_generating_pair",
    "biortho_generating_tail", "biortho_poly", "bspline_eval", "bspline_values",
    "build_fd", "dirichlet_kernel", "dirichlet_kernel_batch", "dirichlet_seed",
    "dirichlet_seed_poly", "dirichlet_seed_theta", "divided_difference",
    "divided_difference_cos", "field_integrals", "gauss_gegenbauer", "gauss_legendre",
    "geg_norm_c", "gegenbauer_at_one", "gegenbauer_sequence",
    "gram_matrix", "knot_field_batch", "mean_d2_closed",
    "mean_order0_closed", "mean_order0_integral", "mean_recursion_sides",
    "mean_series", "mean_torus_mc", "min_eigenvalue", "partial_sum",
    "pdf_check", "poisson_divdiff", "poisson_kernel", "poisson_product",
    "rel_err", "run_suites", "sample_separated_theta", "shell_count",
    "shell_enumerate", "shell_seed", "shell_seed_theta",
    "shell_sum", "shell_sum_batch", "spdf_check", "spdf_pair_search",
    "synth", "synth_divdiff", "torus_trapezoid", "wrap_angles",
]
