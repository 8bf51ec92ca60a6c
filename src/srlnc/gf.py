"""Arithmetic in the binary extension fields GF(2^m) for 1 <= m <= 8.

Field elements are plain Python integers in ``[0, q)``, read as polynomials
over GF(2): bit ``i`` of the integer is the coefficient of ``x^i``.  Addition
is XOR.  Multiplication is carry-less polynomial multiplication reduced by a
fixed irreducible polynomial, precomputed into a full ``q x q`` table, so a
field costs O(q^2) to build once and every later operation is a lookup.

The table layout also gives vectorised row operations for free: indexing the
multiplication table with a scalar and a uint8 array scales a whole coding
vector in one numpy call, which is what the decoder relies on.  For rank
alone, ``GF.pack`` packs vectors into uint64 words and ``GF.prefix_pivots``
eliminates many streams of packed vectors at once; the simulator and the
enumeration oracle both use them.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, count

#: Reduction polynomial per extension degree, bit i = coefficient of
#: x^i.  Degree 4 is x^4+x+1 and degree 8 is x^8+x^4+x^3+x+1; the others are
#: the usual low-weight choices.  Every entry is verified irreducible when the
#: field is built (an inverse must exist for each nonzero element).
DEFAULT_POLYNOMIALS = {
    1: 0b11,         # x + 1
    2: 0b111,        # x^2 + x + 1
    3: 0b1011,       # x^3 + x + 1
    4: 0b10011,      # x^4 + x + 1
    5: 0b100101,     # x^5 + x^2 + 1
    6: 0b1000011,    # x^6 + x + 1
    7: 0b10001001,   # x^7 + x^3 + 1
    8: 0b100011011,  # x^8 + x^4 + x^3 + x + 1
}


class GF:
    """One binary extension field with table-driven multiplication.

    Parameters
    ----------
    q : int
        Field order, a power of two between 2 and 256.

    Attributes
    ----------
    q, m : int
        Field order and extension degree.
    poly : int
        Reduction polynomial, ``DEFAULT_POLYNOMIALS[m]``.
    mul_table : numpy.ndarray
        ``(q, q)`` uint8 table, ``mul_table[a, b] = a * b``.
    inv_table : numpy.ndarray
        ``(q,)`` uint8 table of multiplicative inverses; entry 0 is unused.
    """

    def __init__(self, q: int):
        q = count(q, "field order", low=2, high=256)
        if q & (q - 1):
            raise ConfigError(f"field order must be a power of two, got {q!r}")
        m = q.bit_length() - 1
        self.q = q
        self.m = m
        self.poly = DEFAULT_POLYNOMIALS[m]
        self.mul_table, self.inv_table = self._build_tables()

    def _build_tables(self):
        q, m, poly = self.q, self.m, self.poly
        a = np.arange(q, dtype=np.uint32)[:, None]
        b = np.arange(q, dtype=np.uint32)[None, :]
        # Carry-less product, then reduction from the top bit down.
        prod = np.zeros((q, q), dtype=np.uint32)
        for bit in range(m):
            prod ^= np.where((b >> bit) & 1, a << bit, 0)
        for deg in range(2 * m - 2, m - 1, -1):
            prod ^= np.where((prod >> deg) & 1, np.uint32(poly << (deg - m)), 0)
        mul = prod.astype(np.uint8)

        inv = np.zeros(q, dtype=np.uint8)
        rows, cols = np.nonzero(mul == 1)
        inv[rows] = cols
        if not np.all(inv[1:] > 0):
            raise ConfigError(
                f"polynomial {poly:#x} is not irreducible over GF(2): "
                "some nonzero element has no inverse"
            )
        return mul, inv

    # -- scalar operations (addition is XOR) --------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def __repr__(self):
        return f"GF({self.q}, poly={self.poly:#x})"

    # -- batched elimination ------------------------------------------------

    def pack(self, sym: np.ndarray) -> np.ndarray:
        """Vectors of field elements packed into uint64 words for
        :meth:`prefix_pivots`.

        ``sym`` is a ``(..., K)`` uint8 array; the result is ``(..., W)``
        uint64 with element j in lane ``j % (64 // m)`` of word
        ``j // (64 // m)``, ``m`` bits a lane, unused lanes zero.  At q = 2
        that is bit j of the little-endian bit string, which ``np.packbits``
        writes directly.
        """
        *lead, K = sym.shape
        m, per = self.m, 64 // self.m
        W = -(-K // per)
        if m == 1:
            bits = np.zeros((*lead, 64 * W), dtype=np.uint8)
            bits[..., :K] = sym
            packed = np.packbits(bits, bitorder="little")
            return packed.view("<u8").reshape(*lead, W)
        words = np.zeros((*lead, W), dtype=np.uint64)
        for j in range(K):
            words[..., j // per] |= np.left_shift(
                sym[..., j], np.uint64(m * (j % per)), dtype=np.uint64)
        return words

    def prefix_pivots(self, words: np.ndarray, K: int) -> np.ndarray:
        """Pivot flags of forward elimination on S streams of N vectors.

        ``words`` is an ``(S, N, W)`` uint64 array of length-K vectors packed
        by :meth:`pack`.  Returns the ``(S, N)`` bool array ``piv``:
        ``piv[s, t]`` is True exactly when vector t of stream s lies outside
        the span of vectors ``0 .. t-1``, so the cumulative sum along a
        stream is the rank of each of its prefixes.

        The rows are held word-major, ``(W, S, N + 1)``.  The extra last row
        of each stream is a sentinel, nonzero in every lane, so a stream with
        no pivot in a column picks the sentinel.  Column by column, the
        earliest row with a nonzero element in the column becomes its pivot,
        and the column is cleared from that row and every later one by
        adding a multiple of the pivot row.  The pivot row's own multiplier
        is 1, so the same update clears the pivot row to zero.  Every other
        row only has earlier rows added to it, so every prefix keeps its
        span, and the rows left standing at the end are zero.

        At q = 2 every multiplier is 0 or 1: the column test is one shift
        and AND, and the update adds the pivot times that bit, with no
        table.  Above q = 2 the multiples come in the style of the Method of
        Four Russians: for every 4 bits of the multiplier one table holds all
        16 combinations of ``alpha^b * pivot``, built by doubling, and one
        gather applies it.  Multiplying by the generator alpha is a shift
        and a reduction in every lane of a word at once.
        """
        S, N, W = words.shape
        m, per = self.m, 64 // self.m
        lows = sum(1 << (m * i) for i in range(per))
        below_top = np.uint64(lows * ((1 << (m - 1)) - 1))
        lows, reduce = np.uint64(lows), np.uint64(self.poly & (self.q - 1))
        one, top, lane = np.uint64(1), np.uint64(m - 1), np.uint64(self.q - 1)
        mul = self.mul_table.ravel()
        inv = self.inv_table.astype(np.uint64) << np.uint64(m)

        work = np.empty((W, S, N + 1), dtype=np.uint64)
        work[:, :, :N] = words.transpose(2, 0, 1)
        at = np.arange(S)
        streams = at.astype(np.uint64)[:, None]
        row0 = at * (N + 1)  # flat index of each stream's first row
        firsts = np.empty((K, S), dtype=np.intp)
        for j in range(K):
            w = j // per
            rest = work[w:]
            flat_rest = rest.reshape(len(rest), -1)
            rest[:, :, N] = lows  # restore the sentinel the last column used
            col = (work[w] >> np.uint64(m * (j % per))) & lane
            first = firsts[j] = (col if m == 1 else col != 0).argmax(axis=1)
            at_first = row0 + first
            pivot = flat_rest[:, at_first]
            if m > 1:
                # Multiplier of each row: its element over the pivot's.
                col = mul.take(inv[col.take(at_first)][:, None] | col)
            if m == 1:
                rest ^= pivot[:, :, None] * col
                continue
            for b0 in range(0, m, 4):
                k = min(4, m - b0)
                table = np.zeros(rest.shape[:2] + (1 << k,), dtype=np.uint64)
                for i in range(k):
                    if b0 + i:
                        pivot = ((pivot & below_top) << one) ^ (
                            ((pivot >> top) & lows) * reduce)
                    table[:, :, 1 << i: 2 << i] = (
                        table[:, :, :1 << i] ^ pivot[:, :, None])
                pick = (streams << np.uint64(k)) | (
                    (col >> np.uint64(b0)) & np.uint64((1 << k) - 1))
                rest ^= table.reshape(len(rest), -1).take(pick, axis=1)
        piv = np.zeros((S, N + 1), dtype=bool)
        piv[at, firsts] = True
        return piv[:, :N]


# typed, so that an equal value of another type (2.0, True) is checked by
# GF rather than handed the cached field.
@functools.lru_cache(maxsize=None, typed=True)
def get_field(q: int) -> GF:
    """Shared field instance for the given order."""
    return GF(q)
