"""Sparse random linear coding over GF(q).

A source generation is ``K`` packets.  Every broadcast slot carries one coded
packet whose coding vector has independent coefficients drawn from the biased
law: zero with probability ``p``, and each of the ``q - 1`` nonzero values
with probability ``(1 - p) / (q - 1)``.  ``p = 1/q`` recovers the uniform
(classic) coefficient distribution; larger ``p`` makes the code sparser.

Receivers run online Gaussian elimination: ``DecoderState`` keeps a reduced
echelon basis of the coding vectors absorbed so far and reports whether each
new vector was innovative.  Payload encoding and decoding are provided for
round trips and demonstrations; statistical experiments track vectors only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotDecodableError, count, sparsity
from .gf import GF, get_field


@dataclass(frozen=True)
class CodeParams:
    """Static description of one coded generation.

    K: source packets per generation (at least 1, typically <= 64).
    q: field order, a power of two between 2 and 256.
    p: probability that a coding coefficient is zero, in [1/q, 1).
    n_hat: transmission budget in slots, strictly greater than K.
    """

    K: int
    q: int
    p: float
    n_hat: int

    def __post_init__(self):
        K = count(self.K, "K", low=1)
        q = get_field(self.q).q
        p = sparsity(self.p, q)
        n_hat = count(self.n_hat, "n_hat", low=K + 1)
        # stored normalised, so no numpy scalar reaches the float arithmetic
        for name, value in (("K", K), ("q", q), ("p", p), ("n_hat", n_hat)):
            object.__setattr__(self, name, value)

    @property
    def field(self) -> GF:
        return get_field(self.q)


def sample_coding_matrix(
    params: CodeParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` length-K coding vectors from the biased coefficient law.

    Two blocks are drawn, a uniform block for the zero mask and then an
    integer block for the nonzero values, so the stream layout does not
    depend on the outcome.  At q = 2 every nonzero value is 1 and the integer
    block draws nothing (numpy's ``integers(1, 2)`` leaves the generator
    untouched), so it is skipped.
    """
    u = rng.random((n, params.K))
    values = None
    if params.q > 2:
        values = rng.integers(1, params.q, size=(n, params.K), dtype=np.uint8)
    return coefficient_law(u, values, params.p)


def coefficient_law(u: np.ndarray, values: np.ndarray | None,
                    p: float) -> np.ndarray:
    """The biased coefficient law applied to drawn blocks of any shape.

    A uniform ``u >= p`` makes its coefficient nonzero, and the nonzero one
    takes its entry of ``values`` (None at q = 2, where it is 1).  Returns
    uint8 field elements.
    """
    nonzero = u >= p
    if values is None:
        return nonzero.view(np.uint8)
    return np.where(nonzero, values, np.uint8(0))


class DecoderState:
    """Online Gaussian elimination over GF(q).

    Maintains a reduced echelon basis of the innovative coding vectors seen so
    far: every basis row has a leading 1 at its pivot column and every pivot
    column is zero in all other rows.  Rows are uint8 arrays and elimination
    goes through the field's multiplication table, at q = 2 as well (its 2 x 2
    table scales by 0 or 1).

    The original (unreduced) vector of each innovative absorption is kept so
    payloads can be decoded later; dependent vectors leave the state unchanged.
    """

    def __init__(self, K: int, q: int):
        self.K = count(K, "K", low=1)
        self.field = get_field(q)
        self.q = self.field.q
        self._rows: dict[int, np.ndarray] = {}  # pivot index -> uint8 row
        self.originals: list[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def defect(self) -> int:
        return self.K - self.rank

    def absorb(self, vector: np.ndarray) -> bool:
        """Fold one coding vector into the basis.

        Returns True when the vector was innovative (rank grew by one).  The
        vector is validated for length, integer type and element range; the
        state is left untouched for dependent vectors.
        """
        v = _symbols(vector, self.q)
        if v.shape != (self.K,):
            raise ConfigError(f"expected a length-{self.K} vector, got shape {v.shape}")
        if self.rank == self.K:
            return False
        grew = self._absorb_row(v.copy())
        if grew:
            self.originals.append(v)
        return grew

    def _absorb_row(self, w: np.ndarray) -> bool:
        gf = self.field
        rows = self._rows
        for piv, row in rows.items():
            c = int(w[piv])
            if c:
                w ^= gf.mul_table[c, row]
        nz = np.nonzero(w)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        lead = int(w[piv])
        if lead != 1:
            w = gf.mul_table[gf.inv(lead), w]
        for other_piv, row in rows.items():
            c = int(row[piv])
            if c:
                rows[other_piv] = row ^ gf.mul_table[c, w]
        rows[piv] = w
        return True

    def basis_matrix(self) -> np.ndarray:
        """Current basis as a (rank, K) uint8 array, rows ordered by pivot."""
        out = np.zeros((self.rank, self.K), dtype=np.uint8)
        for i, piv in enumerate(sorted(self._rows)):
            out[i] = self._rows[piv]
        return out


def _symbols(values, bound: int, what: str = "field elements") -> np.ndarray:
    """Outside input as a new uint8 array, refusing anything that is not an
    integer in ``0 .. bound - 1`` (a float is refused, not truncated)."""
    try:
        a = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{what} must form a regular array") from exc
    if a.dtype.kind not in "biu":
        raise ConfigError(f"{what} must be integers, got {a.dtype} values")
    if a.size and not (a.min() >= 0 and a.max() < bound):
        raise ConfigError(f"values outside 0..{bound - 1}; not {what}")
    return a.astype(np.uint8)


def _payload_blocks(gf: GF, blocks) -> np.ndarray:
    """Payload blocks as one uint8 array, a row per block.

    Blocks must share one length, and their entries must be field symbols
    (values below q).  The exception is q = 2, where payload bytes may be
    arbitrary: coefficients are 0/1 and every combination is a plain XOR,
    which is GF(2)-linear bit by bit.
    """
    if gf.q == 2:
        rows = [_symbols(b, 256, "bytes") for b in blocks]
    else:
        rows = [_symbols(b, gf.q) for b in blocks]
    if any(r.ndim != 1 or r.shape != rows[0].shape for r in rows):
        raise ConfigError("payload blocks must share one length")
    return np.stack(rows)


def _combine(gf: GF, blocks: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Sum of the validated payload blocks scaled by field coefficients."""
    acc = np.zeros(blocks.shape[1], dtype=np.uint8)
    for g, b in zip(coefficients, blocks):
        g = int(g)
        if g == 0:
            continue
        acc ^= b if gf.q == 2 else gf.mul_table[g, b]
    return acc


def encode_payload(gf: GF, sources, coding_vector: np.ndarray) -> np.ndarray:
    """Combine K equal-length source payload blocks with one coding vector
    (block rules as in ``_payload_blocks``)."""
    v = _symbols(coding_vector, gf.q)
    if v.shape != (len(sources),):
        raise ConfigError("one coefficient per source block is required")
    return _combine(gf, _payload_blocks(gf, sources), v)


def decode_payloads(state: DecoderState, payloads) -> list[np.ndarray]:
    """Recover the K source blocks from a full-rank decoder state.

    ``payloads`` must line up with ``state.originals``: one payload block per
    innovative absorption, in absorption order, under the block rules of
    ``_payload_blocks``.  Raises NotDecodableError while the defect is
    positive.
    """
    if state.defect != 0:
        raise NotDecodableError(
            f"defect is {state.defect}; {state.defect} more innovative "
            "packets are needed before payloads can be recovered"
        )
    if len(payloads) != state.K:
        raise ConfigError(f"expected {state.K} payload blocks, got {len(payloads)}")
    blocks = _payload_blocks(state.field, payloads)
    K = state.K
    # The originals G are independent, so the reduced basis of the rows
    # [G | I] is [I | G^-1], and source i is row i of G^-1 applied to the
    # payloads.
    inverse = DecoderState(2 * K, state.q)
    for g, e in zip(state.originals, np.eye(K, dtype=np.uint8)):
        inverse.absorb(np.concatenate([g, e]))
    return [_combine(state.field, blocks, row)
            for row in inverse.basis_matrix()[:, K:]]
