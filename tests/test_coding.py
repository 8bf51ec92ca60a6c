"""Coding-vector law, online elimination, and payload roundtrips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlnc import (
    CodeParams,
    ConfigError,
    DecoderState,
    NotDecodableError,
    decode_payloads,
    encode_payload,
    get_field,
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
    gf = get_field(2)
    with pytest.raises(ConfigError):
        encode_payload(gf, [[1, 2], [3, 4]], bad)
    with pytest.raises(ConfigError):
        encode_payload(gf, [[1, 2], bad], [1, 1])
    assert state.absorb([15, 0]) and state.absorb([0, 1])
    with pytest.raises(ConfigError):
        decode_payloads(state, [[1, 2], bad])
    with pytest.raises(ConfigError):
        encode_payload(gf, [[1, 2]], 1)  # not a vector
    # q = 2 payload blocks carry whole bytes, other fields their symbols
    assert list(encode_payload(gf, [[255, 2], [0, 4]], [1, 1])) == [255, 6]
    with pytest.raises(ConfigError, match="not field elements"):
        encode_payload(get_field(16), [[15, 2], [16, 4]], [1, 1])


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


def test_encode_payload_gf2_is_xor():
    gf = get_field(2)
    sources = [np.array([0xAA, 0x01]), np.array([0x0F, 0xF0]), np.array([0x55, 0x55])]
    out = encode_payload(gf, sources, np.array([1, 1, 0], dtype=np.uint8))
    assert np.array_equal(out, sources[0] ^ sources[1])
    unit = encode_payload(gf, sources, np.array([0, 0, 1], dtype=np.uint8))
    assert np.array_equal(unit, sources[2])


def test_encode_payload_rejects_mismatched_blocks():
    gf = get_field(2)
    with pytest.raises(ConfigError):
        encode_payload(gf, [np.array([1, 2]), np.array([3])],
                       np.array([1, 1], dtype=np.uint8))
    with pytest.raises(ConfigError):
        encode_payload(gf, [np.array([1, 2])], np.array([1, 1], dtype=np.uint8))


@pytest.mark.parametrize("K,q,p,payload_bytes", [(4, 2, 0.5, 32), (8, 16, 0.7, 16)])
def test_payload_roundtrip(K, q, p, payload_bytes):
    rng = np.random.default_rng(100 + K)
    params = CodeParams(K=K, q=q, p=p, n_hat=10 * K)
    gf = get_field(q)
    high = 256 if q == 2 else q
    sources = [rng.integers(0, high, size=payload_bytes).astype(np.uint8)
               for _ in range(K)]
    state = DecoderState(K, q)
    payloads = []
    while state.defect:
        vec = sample_coding_matrix(params, 1, rng)[0]
        coded = encode_payload(gf, sources, vec)
        if state.absorb(vec):
            payloads.append(coded)
    recovered = decode_payloads(state, payloads)
    for got, want in zip(recovered, sources):
        assert np.array_equal(got, want)


def test_decode_refuses_below_full_rank():
    state = DecoderState(3, 2)
    state.absorb(np.array([1, 0, 0], dtype=np.uint8))
    state.absorb(np.array([0, 1, 0], dtype=np.uint8))
    with pytest.raises(NotDecodableError):
        decode_payloads(state, [np.zeros(4, dtype=np.uint8)] * 3)


@pytest.mark.parametrize("first", [1, 3])
def test_decode_validates_payload_blocks(first):
    # first = 1 decodes without a multiplication, first = 3 scales row 0
    state = DecoderState(2, 16)
    state.absorb(np.array([first, 0], dtype=np.uint8))
    state.absorb(np.array([0, 1], dtype=np.uint8))
    ok = np.array([1, 2, 3], dtype=np.uint8)
    with pytest.raises(ConfigError, match="one length"):
        decode_payloads(state, [ok, np.array([4, 5], dtype=np.uint8)])
    with pytest.raises(ConfigError, match="not field elements"):
        decode_payloads(state, [np.array([1, 200, 3], dtype=np.uint8), ok])
    assert len(decode_payloads(state, [ok, ok])) == 2


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
