"""Positive definiteness and strictness certificates for shell-coefficient kernels."""
import math

import numpy as np
import pytest

from l1torus.pdf import (
    GramSpec,
    gram_matrix,
    min_eigenvalue,
    pdf_check,
    spdf_check,
    spdf_pair_search,
)
from l1torus.summability import CoeffSeq, Tail


def seq(head, tail):
    return CoeffSeq(head=tuple(head), tail=tail)


def positive_from(n0):
    return Tail(n0, 1, frozenset({0}))


# --------------------------------------------------------------- pdf_check


def test_nonnegative_head_passes():
    assert pdf_check(seq([1.0, 0.0, 0.5], Tail())) == (True, None)


def test_negative_entry_is_witnessed_by_index():
    res = pdf_check(seq([1.0, -0.1], Tail()))
    assert not res.ok
    assert res.witness == 1


# -------------------------------------------------------------- spdf_check


def test_strictness_requires_nonnegativity():
    with pytest.raises(ValueError):
        spdf_check(seq([1.0, -0.1], Tail()))


def test_all_positive_tail_is_strict():
    assert spdf_check(seq([1.0, 0.5], positive_from(2))).ok


def test_finite_support_is_never_strict():
    res = spdf_check(seq([1.0, 0.5, 0.25], Tail()))
    assert not res.ok
    n, l = res.witness
    # the witness pair must genuinely fail in a brute-force window
    assert (n, l) in spdf_pair_search(seq([1.0, 0.5, 0.25], Tail()),
                                      pair_limit=max(l, 8))


def test_full_cover_residue_tail_is_strict():
    # residues {0, 1, 2} mod 3: every divisor class is covered
    tail = Tail(3, 3, frozenset({0, 1, 2}))
    assert spdf_check(seq([1.0], tail)).ok


def test_odd_only_tail_fails_on_even_progressions():
    # positive only on odd indices: pairs with even n and even l never settle
    tail = Tail(2, 2, frozenset({1}))
    res = spdf_check(seq([1.0, 0.5], tail))
    assert not res.ok
    n, l = res.witness
    assert n % 2 == 0 and l % 2 == 0
    # head index 0 is positive, so any pair with n = 0 or l = n is settled;
    # the reported witness must respect that
    assert n != 0 and l - n != 0


def test_symmetric_residues_cover_via_negation():
    # residues {1} mod 5 cover classes {1, 4} via r and -r; divisor 5 is not
    # fully covered, so strictness fails
    tail = Tail(5, 5, frozenset({1}))
    res = spdf_check(seq([1.0], tail))
    assert not res.ok
    # but {1, 2} mod 5 covers {1, 2, 3, 4} plus class 0 via the head? no:
    # class 0 mod 5 stays uncovered, so it still fails
    res2 = spdf_check(seq([1.0], Tail(5, 5, frozenset({1, 2}))))
    assert not res2.ok
    n, l = res2.witness
    assert n % math.gcd(l, 5) == 0


def test_certificate_agrees_with_brute_force_window():
    specs = [
        seq([1.0, 0.5], Tail()),
        seq([1.0], positive_from(1)),
        seq([1.0, 0.0, 0.3], Tail(3, 2, frozenset({1}))),
        seq([0.5], Tail(1, 4, frozenset({1, 3}))),
        seq([0.5], Tail(1, 4, frozenset({1, 2, 3}))),
        seq([1.0, 0.2, 0.0, 0.1], Tail(4, 6, frozenset({2, 4}))),
    ]
    for s in specs:
        verdict = spdf_check(s)
        failures = spdf_pair_search(s, pair_limit=30, m_limit=120)
        if verdict.ok:
            assert failures == []
        else:
            assert failures, f"certificate failed {s} but window found nothing"
            assert verdict.witness in failures


# ------------------------------------------------------------ Gram matrix


def test_gram_matrix_of_nonnegative_kernel_is_psd(rng):
    for d in (2, 3):
        head = rng.uniform(0.0, 1.0, 5)
        s = seq(head, Tail())
        pts = rng.uniform(-math.pi, math.pi, (10, d))
        a = gram_matrix(GramSpec(d, pts, s, 4))
        assert np.max(np.abs(a - a.T)) == 0.0
        scale = max(1.0, float(np.max(np.abs(a))))
        assert min_eigenvalue(a) >= -1e-8 * scale


def test_gram_matrix_diagonal_is_value_at_zero(rng):
    from l1torus.numerics import shell_count

    d = 2
    head = [0.3, 0.2, 0.1]
    s = seq(head, Tail())
    pts = rng.uniform(-math.pi, math.pi, (4, d))
    a = gram_matrix(GramSpec(d, pts, s, 2))
    expect = sum(head[n] * shell_count(d, n) for n in range(3))
    assert np.allclose(np.diag(a), expect, atol=1e-12)


def test_gram_matrix_rejects_coincident_points():
    s = seq([1.0, 0.5], Tail())
    pts = np.array([[0.1, 0.2], [0.1 + 2 * math.pi, 0.2]])
    with pytest.raises(ValueError):
        gram_matrix(GramSpec(2, pts, s, 1))
    # the first coincident pair in row-major order is the one named
    pts = np.array([[0.5, 0.5], [0.1, 0.2], [-1.0, 2.0], [0.1, 0.2 - 2 * math.pi],
                    [-1.0, 2.0]])
    with pytest.raises(ValueError, match="points 1 and 3 coincide"):
        gram_matrix(GramSpec(2, pts, s, 1))


def test_gram_spec_validates_shape():
    s = seq([1.0], Tail())
    with pytest.raises(ValueError):
        GramSpec(2, np.zeros((3, 3)), s, 0)
    with pytest.raises(ValueError):
        GramSpec(2, np.zeros((0, 2)), s, 0)
    with pytest.raises(ValueError):
        GramSpec(2, np.zeros((3, 2)), s, -1)


def test_min_eigenvalue_validates_input():
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        min_eigenvalue(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        min_eigenvalue(np.zeros((2, 3)))
    assert min_eigenvalue(np.diag([3.0, -1.0, 2.0])) == -1.0


def test_strictly_positive_kernel_has_positive_gram(rng):
    # truncated heat-like kernel: strictly positive coefficients out to the
    # truncation give an (empirically) strictly positive definite sample Gram
    d = 2
    head = [math.exp(-0.4 * n) for n in range(7)]
    s = seq(head, positive_from(7))
    pts = rng.uniform(-math.pi, math.pi, (8, d))
    a = gram_matrix(GramSpec(d, pts, s, 6))
    assert min_eigenvalue(a) > 0.0
