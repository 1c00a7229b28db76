"""Coefficient sequences, synthesis routes, and l1 partial sums."""
import math

import numpy as np
import pytest

from l1torus.summability import (
    CoeffSeq,
    ResolutionError,
    SampledTorusFn,
    Tail,
    build_fd,
    partial_sum,
    synth,
    synth_divdiff,
)

HEAD = (0.7, -0.3, 0.5, 0.1)


# ------------------------------------------------------- coefficient spec


def test_head_values_then_tail_rule():
    seq = CoeffSeq(head=(1.0, -0.5), tail=Tail(2, 1, frozenset({0})))
    assert seq.value(0) == 1.0
    assert seq.value(1) == -0.5
    assert seq.is_positive(0)
    assert not seq.is_positive(1)
    assert seq.is_positive(2) and seq.is_positive(17)


def test_zero_tail_is_never_positive():
    seq = CoeffSeq(head=(1.0,), tail=Tail())
    assert seq.tail == CoeffSeq(head=(1.0,)).tail
    assert seq.value(5) == 0.0
    assert not seq.is_positive(5)


def test_residue_tail_positivity_pattern():
    tail = Tail(4, 3, frozenset({1}))
    seq = CoeffSeq(head=(1.0, 0.0, 0.0, 0.0), tail=tail)
    # from n0 = 4 onward, positive exactly when n = 1 mod 3
    assert seq.is_positive(4)
    assert not seq.is_positive(5)
    assert not seq.is_positive(6)
    assert seq.is_positive(7)
    assert seq.is_positive(10)
    assert not seq.is_positive(3)  # before n0 the head rules (entry is 0)


def test_residue_tail_validates_inputs():
    with pytest.raises(ValueError):
        Tail(0, 0, frozenset({0}))  # modulus must be positive
    with pytest.raises(ValueError):
        Tail(0, 3, frozenset({3}))  # residue out of range
    with pytest.raises(ValueError):
        Tail(-1, 3, frozenset({1}))  # n0 must be nonnegative
    # an empty residue set is the zero tail
    assert not any(Tail(0, 3, frozenset()).positive(n) for n in range(12))
    # modulus 1 with residue {0} is the everything-positive tail
    assert Tail(2, 1, frozenset({0})).positive(5)


def test_coeffseq_requires_head_entry():
    with pytest.raises(ValueError):
        CoeffSeq(head=())


@pytest.mark.parametrize("tail", [
    ({"kind": "zero"}, Tail()),
    ({"kind": "all-positive-from", "n0": 3}, Tail(3, 1, frozenset({0}))),
    ({"kind": "residues-positive", "n0": 5, "modulus": 4, "residues": [1, 2]},
     Tail(5, 4, frozenset({1, 2}))),
])
def test_json_round_trip(tail):
    spec, rule = tail
    seq = CoeffSeq.from_json({"head": list(HEAD), "tail": spec})
    assert seq == CoeffSeq(HEAD, rule)
    positive = [n for n in range(12) if seq.is_positive(n)]
    assert positive == [n for n in range(12) if (HEAD[n] > 0 if n < 4 else rule.positive(n))]


def test_from_json_rejects_unknown_tail():
    with pytest.raises(ValueError):
        CoeffSeq.from_json({"head": [1.0], "tail": {"kind": "mystery"}})
    # the tail may be left out: it is then the zero tail
    assert CoeffSeq.from_json({"head": [1.0]}).tail == Tail()


# ------------------------------------------------------------- synthesis


@pytest.mark.parametrize("d", [2, 3])
def test_synthesis_routes_agree(d, rng):
    seq = CoeffSeq(head=HEAD, tail=Tail())
    for t in rng.uniform(-math.pi, math.pi, (8, d)):
        a = synth(d, seq, 3, t)
        b = synth_divdiff(d, seq, 3, t)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_batched_synthesis_matches_per_point(d, rng):
    seq = CoeffSeq(head=HEAD, tail=Tail())
    pts = rng.uniform(-math.pi, math.pi, (7, d))
    batch = synth(d, seq, 3, pts)
    assert batch.shape == (7,)
    for p, got in zip(pts, batch):
        assert abs(got - synth(d, seq, 3, p)) < 1e-12
    with pytest.raises(ValueError):
        synth(d, seq, 3, np.zeros((2, d + 1)))


def test_synthesis_at_origin_sums_counts():
    from l1torus.numerics import shell_count

    d = 2
    seq = CoeffSeq(head=HEAD, tail=Tail())
    expect = sum(HEAD[n] * shell_count(d, n) for n in range(4))
    assert abs(synth(d, seq, 3, [0.0, 0.0]) - expect) < 1e-12


def test_build_fd_skips_constant_term(rng):
    # the polynomial route carries indices >= 1; index 0 enters additively
    d = 2
    seq = CoeffSeq(head=(123.0, 0.5), tail=Tail())
    fn = build_fd(d, seq, 1)
    from l1torus.kernels import shell_seed

    poly = shell_seed(d, 1)
    for u in rng.uniform(-1, 1, 5):
        assert abs(fn(float(u)) - 0.5 * poly(float(u))) < 1e-12


def test_truncation_clips_to_head(rng):
    d = 2
    seq = CoeffSeq(head=HEAD, tail=Tail())
    t = rng.uniform(-math.pi, math.pi, d)
    assert abs(synth(d, seq, 99, t) - synth(d, seq, 3, t)) < 1e-12


# -------------------------------------------------------------- sampling


@pytest.mark.parametrize("d", [2, 3])
def test_grid_coefficients_recover_shell_values(d):
    seq = CoeffSeq(head=HEAD, tail=Tail())
    f = SampledTorusFn.sample(d, 16, lambda th: synth(d, seq, 3, th))
    cases = [[0] * d, [1] + [0] * (d - 1), [1, -1] + [0] * (d - 2),
             [2, 1] + [0] * (d - 2), [4] + [0] * (d - 1)]
    for alpha in cases:
        n = int(np.abs(alpha).sum())
        expect = seq.value(n) if n <= 3 else 0.0
        # the grid coefficient (2 pi)^-d integral of f(y) exp(-i alpha.y) dy
        phase = np.exp(-1j * (f.rule.nodes @ np.asarray(alpha, dtype=float)))
        got = np.dot(f.rule.weights, f.values * phase)
        assert abs(got - expect) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("order", [0, 1, 3])
def test_partial_sum_routes_agree_and_recover_truncation(d, order, rng):
    seq = CoeffSeq(head=HEAD, tail=Tail())
    f = SampledTorusFn.sample(d, 16, lambda th: synth(d, seq, 3, th))
    for t in rng.uniform(-math.pi, math.pi, (4, d)):
        a = partial_sum(f, order, t, route="coefficients")
        b = partial_sum(f, order, t, route="convolution")
        direct = synth(d, seq, order, t)
        assert abs(a - b) < 1e-12
        assert abs(a - direct) < 1e-12
        assert abs(a.imag) < 1e-12


@pytest.mark.parametrize("d, L", [(1, 9), (1, 16), (2, 11), (2, 16), (3, 7), (3, 10)])
def test_spectrum_route_matches_convolution_and_synthesis(d, L, rng):
    # odd and even L: the nodes start at -pi, so the FFT bins carry (-1)^|k|_1
    seq = CoeffSeq(head=HEAD, tail=Tail())
    f = SampledTorusFn.sample(d, L, lambda th: synth(d, seq, 3, th))
    for order in range(min(3, (L - 1) // 2) + 1):
        for t in rng.uniform(-math.pi, math.pi, (3, d)):
            a = partial_sum(f, order, t, route="coefficients")
            assert abs(a - partial_sum(f, order, t, route="convolution")) < 1e-12
            assert abs(a - synth(d, seq, order, t)) < 1e-12


def test_spectrum_route_serves_a_large_ball(rng):
    # 24^3 nodes by the 833 points of the ball of radius 8
    seq = CoeffSeq(head=HEAD, tail=Tail())
    f = SampledTorusFn.sample(3, 24, lambda th: synth(3, seq, 3, th))
    for t in rng.uniform(-math.pi, math.pi, (2, 3)):
        a = partial_sum(f, 8, t, route="coefficients")
        assert abs(a - partial_sum(f, 8, t, route="convolution")) < 1e-12
        assert abs(a - synth(3, seq, 3, t)) < 1e-12


def test_spectrum_is_built_once_and_read_only(monkeypatch, rng):
    shapes = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn", lambda a: shapes.append(a.shape) or fftn(a))
    seq = CoeffSeq(head=HEAD, tail=Tail())
    f = SampledTorusFn.sample(2, 9, lambda th: synth(2, seq, 3, th))
    for order, t in zip((0, 2, 4, 4), rng.uniform(-math.pi, math.pi, (4, 2))):
        partial_sum(f, order, t)
    assert shapes == [(9, 9)]
    assert f.spectrum is f.spectrum and not f.spectrum.flags.writeable
    with pytest.raises(ValueError):
        f.spectrum[0, 0] = 1.0


def test_partial_sum_needs_resolving_grid():
    seq = CoeffSeq(head=HEAD, tail=Tail())
    f = SampledTorusFn.sample(2, 8, lambda th: synth(2, seq, 3, th))
    with pytest.raises(ResolutionError):
        partial_sum(f, 4, [0.0, 0.0])
    with pytest.raises(ValueError):
        partial_sum(f, 2, [0.0, 0.0], route="magic")


def test_sample_needs_one_value_per_node():
    g = SampledTorusFn.sample(2, 6, lambda pts: np.cos(pts).sum(axis=1))
    assert g.values.shape == (36,) and not g.values.flags.writeable
    with pytest.raises(ValueError, match="npts values"):
        SampledTorusFn.sample(2, 6, lambda pts: np.cos(pts))


def test_sample_copies_the_callers_array():
    a = np.zeros(4, dtype=complex)
    f = SampledTorusFn.sample(1, 4, lambda pts: a)
    assert a.flags.writeable
    a[:] = 1.0  # before the spectrum is first built
    assert np.all(f.values == 0.0) and np.all(f.spectrum == 0.0)
