"""Field arithmetic checked against polynomial long division and the axioms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_mul
from srlnc import ConfigError, get_field

FIELD_SIZES = (2, 4, 8, 16)


def test_gf16_multiplication_hand_value():
    # x^3 * x = x^4 = x + 1 under x^4 + x + 1
    gf = get_field(16)
    assert gf.poly == 0b10011
    assert gf.mul(0x8, 0x2) == 0x3


@pytest.mark.parametrize("q", FIELD_SIZES + (256,))
def test_mul_table_matches_long_division(q):
    gf = get_field(q)
    for a in range(q):
        for b in range(q):
            assert gf.mul(a, b) == poly_mul(a, b, gf.m, gf.poly), (a, b)


@pytest.mark.parametrize("q", FIELD_SIZES)
def test_field_axioms_exhaustive(q):
    T = get_field(q).mul_table.astype(np.int64)
    idx = np.arange(q)
    # commutativity, identity, zero
    assert np.array_equal(T, T.T)
    assert np.array_equal(T[1], idx)
    assert not T[0].any()
    # associativity: (a*b)*c == a*(b*c) over the full cube
    lhs = T[T][:, :, idx]          # lhs[a,b,c] = T[T[a,b], c]
    rhs = T[:, T].reshape(q, q, q)  # rhs[a,b,c] = T[a, T[b,c]]
    assert np.array_equal(lhs, rhs)
    # distributivity over the xor addition
    a = idx[:, None, None]
    b = idx[None, :, None]
    c = idx[None, None, :]
    assert np.array_equal(T[a, b ^ c], T[a, b] ^ T[a, c])


@pytest.mark.parametrize("q", FIELD_SIZES + (256,))
def test_inverses_exhaustive(q):
    gf = get_field(q)
    for a in range(1, q):
        inv = gf.inv(a)
        assert gf.mul(a, inv) == 1
        assert gf.mul(inv, a) == 1
    # the inverse is unique, so the table must be a self-inverse permutation
    assert sorted(int(gf.inv_table[a]) for a in range(1, q)) == list(range(1, q))


def test_zero_has_no_inverse():
    gf = get_field(16)
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    # dividing by zero is multiplying by the inverse of 0
    with pytest.raises(ZeroDivisionError):
        gf.mul(5, gf.inv(0))


@pytest.mark.parametrize("q", [0, 1, 3, 6, 100, 512])
def test_invalid_field_orders_rejected(q):
    with pytest.raises(ConfigError):
        get_field(q)


def test_get_field_is_cached():
    assert get_field(16) is get_field(16)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf256_axioms_sampled(a, b, c):
    gf = get_field(256)
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
    assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
    if a:
        assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("q, lane", [(2, 1), (4, 2), (8, 4), (16, 4), (32, 8),
                                     (64, 8), (128, 8), (256, 8)])
@pytest.mark.parametrize("K", [1, 9, 17, 33, 70])
def test_pack_puts_element_j_in_its_byte_aligned_lane(q, lane, K):
    # Element j sits in bits lane * (j % per) of word j // per, per = 64 //
    # lane, and every other bit is zero: at q = 8 that is bits 4 * (j % 16)
    # of word j // 16.
    gf = get_field(q)
    per = 64 // lane
    sym = np.random.default_rng([q, K]).integers(0, q, size=(3, K), dtype=np.uint8)
    words = gf.pack(sym)
    assert words.shape == (3, -(-K // per))
    want = np.zeros(words.shape, dtype=object)
    for j in range(K):
        want[:, j // per] += sym[:, j].astype(object) << (lane * (j % per))
    assert words.tolist() == want.tolist()
