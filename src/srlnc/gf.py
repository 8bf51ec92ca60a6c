"""Arithmetic in the binary extension fields GF(2^m) for 1 <= m <= 8.

Field elements are plain Python integers in ``[0, q)``, read as polynomials
over GF(2): bit ``i`` of the integer is the coefficient of ``x^i``.  Addition
is XOR.  Multiplication is carry-less polynomial multiplication reduced by a
fixed irreducible polynomial, precomputed into a full ``q x q`` table, so a
field costs O(q^2) to build once and every later operation is a lookup.

The table layout also gives vectorised row operations for free: indexing the
multiplication table with a scalar and a uint8 array scales a whole coding
vector in one numpy call, which is what the decoder relies on.  For rank
alone, ``GF.pack`` packs vectors into uint64 words in byte-aligned lanes and
``GF.prefix_pivots`` eliminates many streams of packed vectors at once,
looking up the multiples of each pivot row in a byte table built with the
field; the simulator and the enumeration oracle both use them.
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
    lane : int
        Bits a packed element takes in :meth:`pack`'s words: 1, 2, 4 or 8,
        the least of them that is at least m.
    """

    def __init__(self, q: int):
        q = count(q, "field order", low=2, high=256)
        if q & (q - 1):
            raise ConfigError(f"field order must be a power of two, got {q!r}")
        m = q.bit_length() - 1
        self.q = q
        self.m = m
        self.poly = DEFAULT_POLYNOMIALS[m]
        self.lane = 1 << (m - 1).bit_length()
        self.mul_table, self.inv_table = self._build_tables()
        # q = 2 eliminates without multiples, so it needs no byte table
        self._alpha = self._build_alpha_table() if m > 1 else None

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

    def _build_alpha_table(self):
        q, m, lane = self.q, self.m, self.lane
        # scaled[a, b]: a times each lane of byte b.  Lane values from q up
        # cannot occur, so masking them into the field changes nothing.
        shifts = np.arange(0, 8, lane)
        lanes = (np.arange(256)[:, None] >> shifts) & (q - 1)
        scaled = (self.mul_table[:, lanes].astype(np.intp) << shifts).sum(axis=2)
        # Entry 256 e + b: alpha^i / e times byte b, in byte i, for i < m.
        alpha = np.zeros((q, 256, lane), dtype=np.uint8)
        alpha[:, :, :m] = scaled[self.mul_table[self.inv_table][:, 1 << np.arange(m)]
                                 ].transpose(0, 2, 1)
        return alpha.view(f"<u{lane}").ravel()

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
        uint64 with element j in lane ``j % per`` of word ``j // per``, a
        lane being :attr:`lane` bits and ``per = 64 // lane``; unused bits
        are zero.  No lane straddles a byte, so the pack builds each byte
        from its lanes (at q = 2 with ``np.packbits``) and views the bytes
        as little-endian words.
        """
        *lead, K = sym.shape
        lane = self.lane
        n = 8 // lane  # lanes a byte
        size = -(-K // n)  # bytes a vector takes
        if n == 1:
            packed = sym
        else:
            cells = np.zeros((*lead, n * size), dtype=np.uint8)
            cells[..., :K] = sym
            if lane == 1:
                packed = np.packbits(cells, bitorder="little").reshape(*lead, size)
            else:
                packed = cells[..., ::n].copy()
                for i in range(1, n):
                    packed |= cells[..., i::n] << np.uint8(lane * i)
        words = np.zeros((*lead, 8 * -(-size // 8)), dtype=np.uint8)
        words[..., :size] = packed
        return words.view("<u8")

    def prefix_pivots(self, words: np.ndarray, K: int) -> np.ndarray:
        """Pivot flags of forward elimination on S streams of N vectors.

        ``words`` is an ``(S, N, W)`` uint64 array of length-K vectors packed
        by :meth:`pack`.  Returns the ``(S, N)`` bool array ``piv``:
        ``piv[s, t]`` is True exactly when vector t of stream s lies outside
        the span of vectors ``0 .. t-1``, so the cumulative sum along a
        stream is the rank of each of its prefixes.

        The rows are held word-major, ``(W, S, N + 1)``.  The extra last row
        of each stream is a sentinel, 1 in every lane, so a stream with no
        pivot in a column picks the sentinel.  Column by column, the earliest
        row with a nonzero element in the column becomes its pivot, and the
        column is cleared from that row and every later one by adding the
        row's element times the pivot row over the pivot's own element.  The
        pivot row adds itself, so the same update clears it to zero.  Every
        other row only has earlier rows added to it, so every prefix keeps
        its span, and the rows left standing at the end are zero.

        At q = 2 every element is 0 or 1: the column test is one shift and
        AND, and the update adds the pivot times that bit, with no table.
        Above q = 2 the multiples come from a byte table built with the
        field, as in GF(2^e) elimination with precomputed multiples of the
        pivot row (Albrecht, "The M4RIE library for dense linear algebra
        over small fields with even characteristic", ISSAC 2012).  One
        ``take`` at the pivot's element e and each byte of the pivot row
        gives the m rows ``alpha^i / e * pivot``; XORs of them fill all 16
        multiples for each 4 bits of an element, and one gather adds each
        row's element times ``pivot / e``.
        """
        S, N, W = words.shape
        m, lane = self.m, self.lane
        per = 64 // lane
        lows = np.uint64(sum(1 << (lane * i) for i in range(per)))
        mask = np.uint64(self.q - 1)

        work = np.empty((W, S, N + 1), dtype=np.uint64)
        work[:, :, :N] = words.transpose(2, 0, 1)
        at = np.arange(S)
        row0 = at * (N + 1)  # flat index of each stream's first row
        firsts = np.empty((K, S), dtype=np.intp)
        # Multiples of the pivot row: (word, multiplier, stream), one 16-row
        # block per 4 bits of the multiplier.  Row 0 of a block stays zero.
        table = np.zeros((W, 16 * -(-m // 4), S), dtype=np.uint64)
        for j in range(K):
            w = j // per
            rest = work[w:]
            flat_rest = rest.reshape(len(rest), -1)
            rest[:, :, N] = lows  # restore the sentinel the last column used
            col = (work[w] >> np.uint64(lane * (j % per))) & mask
            first = firsts[j] = (col if m == 1 else col != 0).argmax(axis=1)
            at_first = row0 + first
            pivot = flat_rest.take(at_first, axis=1)
            if m == 1:
                rest ^= pivot[:, :, None] * col
                continue
            col = col.view(np.intp)
            # alpha^i over the pivot's element times the pivot row, i < m
            alpha = self._alpha.take(
                (col.take(at_first) << 8)[:, None]
                + pivot.view(np.uint8).reshape(len(rest), S, 8))
            alpha = np.ascontiguousarray(np.moveaxis(
                alpha.view(np.uint8).reshape(*alpha.shape, lane)[..., :m], -1, 0))
            alpha = alpha.view(np.uint64).reshape(m, len(rest), 1, S)
            tb = table[w:]
            for b0 in range(0, m, 4):
                block = tb[:, 4 * b0:]
                for i in range(min(4, m - b0)):
                    np.bitwise_xor(block[:, :1 << i], alpha[b0 + i],
                                   out=block[:, 1 << i:2 << i])
                # the element's 4 bits from b0 on, the row in the block
                digit = col if m <= 4 else col & 15 if b0 == 0 else col >> 4
                pick = digit * S + (at[:, None] + 4 * b0 * S)
                rest ^= tb.reshape(len(rest), -1).take(pick, axis=1)
        piv = np.zeros((S, N + 1), dtype=bool)
        piv[at, firsts] = True
        return piv[:, :N]


# typed, so that an equal value of another type (2.0, True) is checked by
# GF rather than handed the cached field.
@functools.lru_cache(maxsize=None, typed=True)
def get_field(q: int) -> GF:
    """Shared field instance for the given order."""
    return GF(q)
