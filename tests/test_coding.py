"""Coding-vector law and online elimination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlnc import (
    CodeParams,
    ConfigError,
    DecoderState,
    sample_coding_matrix,
)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(K=0, q=2, p=0.5, n_hat=4),
        dict(K=-3, q=2, p=0.5, n_hat=4),
        dict(K=4, q=3, p=0.5, n_hat=8),      # not a power of two
        dict(K=4, q=2, p=0.3, n_hat=8),      # below 1/q
        dict(K=4, q=2, p=1.0, n_hat=8),      # degenerate all-zero law
        dict(K=4, q=16, p=0.05, n_hat=8),    # below 1/16
        dict(K=4, q=2, p=0.5, n_hat=4),      # budget must exceed K
        dict(K=4, q=2, p=0.5, n_hat=3),
    ],
)
def test_code_params_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        CodeParams(**kwargs)


def test_code_params_accepts_the_classic_endpoint():
    params = CodeParams(K=4, q=16, p=1.0 / 16, n_hat=10)
    assert params.field.q == 16


def test_zero_fraction_follows_p():
    # 1e5 coefficients at p = 0.5; 3 sigma on the zero fraction
    params = CodeParams(K=20, q=2, p=0.5, n_hat=40)
    mat = sample_coding_matrix(params, 5000, np.random.default_rng(42))
    frac = float(np.mean(mat == 0))
    sigma = (0.5 * 0.5 / mat.size) ** 0.5
    assert abs(frac - 0.5) <= 3 * sigma


def test_all_zero_vector_rate_at_high_sparsity():
    # P(all-zero) = 0.9^20 ~ 0.1216 for K=20
    params = CodeParams(K=20, q=2, p=0.9, n_hat=40)
    mat = sample_coding_matrix(params, 100_000, np.random.default_rng(7))
    rate = float(np.mean(~mat.any(axis=1)))
    expect = 0.9**20
    sigma = (expect * (1 - expect) / mat.shape[0]) ** 0.5
    assert abs(rate - expect) <= 3 * sigma


def test_nonzero_values_are_uniform_over_the_field():
    # every nonzero symbol should appear with frequency (1-p)/(q-1)
    params = CodeParams(K=20, q=16, p=0.8, n_hat=40)
    mat = sample_coding_matrix(params, 50_000, np.random.default_rng(4))
    n = mat.size  # 1e6 coefficients
    expect = (1 - 0.8) / 15
    sigma = (expect * (1 - expect) / n) ** 0.5
    counts = np.bincount(mat.ravel(), minlength=16)
    for value in range(1, 16):
        assert abs(counts[value] / n - expect) <= 3 * sigma, value


def _two_draw_matrix(params, n, rng):
    # the sampler as first written: the integer block is drawn at every q
    zero_mask = rng.random((n, params.K)) < params.p
    values = rng.integers(1, params.q, size=(n, params.K), dtype=np.uint8)
    return np.where(zero_mask, np.uint8(0), values)


@pytest.mark.parametrize("q", [2, 4, 16, 256])
def test_samplers_match_the_two_draw_law_and_stream(q):
    # at q=2 the integer block is skipped; values, dtype and the generator
    # state afterwards must not change
    params = CodeParams(K=7, q=q, p=0.6, n_hat=12)
    for n in [1, 5, 40]:
        want_rng, rng = np.random.default_rng([q, n]), np.random.default_rng([q, n])
        want = _two_draw_matrix(params, n, want_rng)
        got = sample_coding_matrix(params, n, rng)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state


def test_absorb_hand_sequence():
    state = DecoderState(3, 2)
    steps = [
        ((1, 0, 0), True, 1),
        ((0, 1, 0), True, 2),
        ((1, 1, 0), False, 2),  # dependent: sum of the first two
        ((0, 0, 1), True, 3),
    ]
    for vec, innovative, rank in steps:
        assert state.absorb(np.array(vec, dtype=np.uint8)) is innovative
        assert state.rank == rank
    assert state.defect == 0


def test_zero_vector_is_never_innovative():
    for q in (2, 16):
        state = DecoderState(5, q)
        assert not state.absorb(np.zeros(5, dtype=np.uint8))
        assert state.rank == 0


def test_absorb_validates_input():
    state = DecoderState(4, 4)
    with pytest.raises(ConfigError):
        state.absorb(np.zeros(3, dtype=np.uint8))
    with pytest.raises(ConfigError):
        state.absorb(np.array([0, 0, 0, 7], dtype=np.uint8))  # 7 >= q


@pytest.mark.parametrize("bad", [[300, 0], [-1, 0], [1.5, 0], [1.0, 0],
                                 ["1", "0"], [[1], [2, 3]]])
def test_outside_input_must_be_in_range_integers(bad):
    # numpy's uint8 conversion raised OverflowError on 300 and -1,
    # truncated 1.5 to 1 without a word, and raised ValueError on ragged input
    state = DecoderState(2, 16)
    with pytest.raises(ConfigError):
        state.absorb(bad)
    assert state.rank == 0
    assert state.absorb([15, 0]) and state.absorb([0, 1])


def test_basis_matrix_is_reduced():
    rng = np.random.default_rng(8)
    state = DecoderState(6, 16)
    params = CodeParams(K=6, q=16, p=0.5, n_hat=12)
    while state.rank < 4:
        state.absorb(sample_coding_matrix(params, 1, rng)[0])
    basis = state.basis_matrix()
    assert basis.shape == (4, 6)
    # reduced echelon: each pivot column holds a single 1
    for row in basis:
        piv = int(np.nonzero(row)[0][0])
        assert row[piv] == 1
        assert int(np.count_nonzero(basis[:, piv])) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.sampled_from([2, 4, 16]), st.integers(0, 2**32 - 1))
def test_rank_never_decreases_and_steps_by_at_most_one(K, q, seed):
    rng = np.random.default_rng(seed)
    params = CodeParams(K=K, q=q, p=(1.0 / q + 0.9) / 2, n_hat=K + 1)
    state = DecoderState(K, q)
    prev = 0
    for _ in range(3 * K):
        grew = state.absorb(sample_coding_matrix(params, 1, rng)[0])
        assert state.rank - prev == (1 if grew else 0)
        assert 0 <= state.rank <= K
        prev = state.rank
