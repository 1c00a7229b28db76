"""Divided differences of Chebyshev series with confluent (repeated) knots."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.chebyshev import Chebyshev
from numpy.polynomial.polynomial import Polynomial

from l1torus.divdiff import divided_difference, divided_difference_cos

TOL = 1e-10


def newton_distinct(fn, knots):
    """Textbook Newton table for pairwise-distinct knots (oracle)."""
    col = [fn(x) for x in knots]
    for level in range(1, len(knots)):
        col = [
            (col[i + 1] - col[i]) / (knots[i + level] - knots[i])
            for i in range(len(col) - 1)
        ]
    return col[0]


def cheb(power_coeffs):
    """The Chebyshev series of the polynomial with these power-basis coefficients."""
    return Polynomial(power_coeffs).convert(kind=Chebyshev)


def test_knots_are_sorted_and_must_be_nonempty():
    fn = cheb([0.3, -1.0, 0.5, 2.0])
    assert divided_difference(fn, [0.5, -0.2, 0.1]) == divided_difference(fn, (-0.2, 0.1, 0.5))
    with pytest.raises(ValueError, match="at least one knot"):
        divided_difference(fn, [])


def test_single_knot_is_plain_evaluation():
    fn = cheb([1.0, 2.0, 3.0])
    assert abs(divided_difference(fn, [0.4]) - fn(0.4)) < 1e-15


@pytest.mark.parametrize("knots", [
    [0.0, 1.0],
    [0.0, 1.0, 2.0, 3.0],
    [-0.7, -0.1, 0.3, 0.9, 1.4],
])
def test_distinct_knots_match_newton_table(knots, rng):
    fn = Chebyshev(rng.uniform(-1, 1, len(knots) + 2))
    got = divided_difference(fn, knots)
    ref = newton_distinct(fn, knots)
    assert abs(got - ref) < TOL * max(1.0, abs(ref))


def test_series_on_another_domain_is_mapped(rng):
    # the same polynomial on [0, 1] and on the default [-1, 1]
    knots = [0.1, 0.25, 0.55, 0.85]
    mapped = Chebyshev(rng.uniform(-1, 1, 7), domain=[0.0, 1.0])
    plain = mapped.convert(domain=[-1.0, 1.0])
    ref = newton_distinct(plain, knots)
    assert abs(divided_difference(mapped, knots) - ref) < TOL * max(1.0, abs(ref))


@given(
    coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=6),
    knots=st.lists(st.floats(-1, 1), min_size=2, max_size=5, unique=True),
)
@settings(max_examples=50, deadline=None)
def test_permutation_invariance(coeffs, knots):
    fn = Chebyshev(coeffs)
    base = divided_difference(fn, knots)
    shuffled = list(reversed(knots))
    assert abs(divided_difference(fn, shuffled) - base) <= 1e-8 * max(1.0, abs(base))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_annihilates_lower_degree_and_extracts_leading_coefficient(m, rng):
    # over m+1 knots: degree < m gives 0, degree m gives the leading coefficient,
    # for any knot multiplicities
    knots = np.sort(rng.uniform(-1, 1, m + 1))
    confluent = knots.copy()
    confluent[1] = confluent[0]  # force one repeated site
    for kn in (knots, confluent):
        low = cheb(rng.uniform(-1, 1, m))  # degree m-1
        assert abs(divided_difference(low, kn)) < TOL
        lead = rng.uniform(0.5, 2.0)
        high = cheb(np.append(rng.uniform(-1, 1, m), lead))
        assert abs(divided_difference(high, kn) - lead) < TOL


def test_fully_confluent_is_taylor_coefficient():
    # all knots equal: [a, ..., a] f = f^(m)(a) / m!
    poly = cheb([0.3, -1.2, 0.5, 2.0, -0.7])
    a, m = 0.37, 3
    got = divided_difference(poly, [a] * (m + 1))
    expect = poly.deriv(m)(a) / math.factorial(m)
    assert abs(got - expect) < TOL


def test_double_knot_matches_derivative_limit():
    # [a, a, b] f computed against the h -> 0 limit of [a, a+h, b] f
    poly = cheb([0.1, 0.4, -0.3, 0.9])
    a, b = 0.2, 0.8
    got = divided_difference(poly, [a, a, b])
    h = 1e-6
    approx = newton_distinct(poly, [a, a + h, b])
    assert abs(got - approx) < 1e-5


def test_near_coincident_knots_are_merged_not_cancelled():
    # spacing far below any difference quotient's resolution must not blow up
    poly = cheb([0.0, 0.0, 1.0])  # x^2
    a = 0.3
    got = divided_difference(poly, [a, a + 1e-13, 1.0])
    assert abs(got - 1.0) < 1e-9  # leading coefficient of x^2 over 3 knots


def test_cos_wrapper_matches_explicit_cosines(rng):
    fn = Chebyshev(rng.uniform(-1, 1, 6))
    theta = rng.uniform(0.2, math.pi - 0.2, 3)
    got = divided_difference_cos(fn, theta)
    ref = divided_difference(fn, np.cos(theta))
    assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


@st.composite
def knot_matrices(draw):
    """0-8 rows of m + 1 knots, m = 0-6; a row may repeat one knot or nearly repeat it."""
    m, rows = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    mat = np.empty((rows, m + 1))
    for row in mat:
        row[:] = draw(st.lists(st.floats(-1, 1), min_size=m + 1, max_size=m + 1))
        gap = draw(st.sampled_from([None, 0.0, 1e-13]))
        if gap is not None:
            row[draw(st.integers(0, m))] = row[draw(st.integers(0, m))] + gap
    return mat


@given(coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=8),
       domain=st.sampled_from([[-1.0, 1.0], [0.0, 1.0]]), knots=knot_matrices())
@settings(max_examples=200, deadline=None)
def test_knot_matrix_is_its_rows_bit_for_bit(coeffs, domain, knots):
    fn = Chebyshev(coeffs, domain=domain)
    got = divided_difference(fn, knots)
    assert got.shape == (len(knots),)
    assert got.tobytes() == np.array([divided_difference(fn, row) for row in knots]).tobytes()


def test_angle_matrix_is_its_rows_bit_for_bit(rng):
    fn = Chebyshev(rng.uniform(-1, 1, 9))
    for thetas in (rng.uniform(-4.0, 4.0, (30, 3)), np.array([[2.0, 0.8, 0.8]]),
                   np.empty((0, 2))):
        got = divided_difference_cos(fn, thetas)
        want = np.array([divided_difference_cos(fn, t) for t in thetas])
        assert got.tobytes() == want.tobytes()


def test_knot_shapes_and_nonfinite_knots_are_refused():
    fn = cheb([0.3, -1.0, 0.5])
    for bad in (np.zeros((3, 0)), np.zeros((0, 0)), np.zeros((2, 2, 2)), 0.5):
        with pytest.raises(ValueError, match="at least one knot"):
            divided_difference(fn, bad)
        with pytest.raises(ValueError, match="at least one knot"):
            divided_difference_cos(fn, bad)
    for v in (math.nan, math.inf, -math.inf):
        for knots in ([0.1, v, 0.3], [[0.1, 0.2, 0.3], [0.1, v, 0.3]]):
            with pytest.raises(ValueError, match="knots must be finite"):
                divided_difference(fn, knots)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # refused before cos() warns
                with pytest.raises(ValueError, match="theta must be finite"):
                    divided_difference_cos(fn, knots)
