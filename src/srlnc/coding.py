"""Sparse random linear coding over GF(q).

A source generation is ``K`` packets.  Every broadcast slot carries one coded
packet whose coding vector has independent coefficients drawn from the biased
law: zero with probability ``p``, and each of the ``q - 1`` nonzero values
with probability ``(1 - p) / (q - 1)``.  ``p = 1/q`` recovers the uniform
(classic) coefficient distribution; larger ``p`` makes the code sparser.

Receivers run online Gaussian elimination: ``DecoderState`` keeps a reduced
echelon basis of the coding vectors absorbed so far and reports whether each
new vector was innovative.  Every reported number is a rank event, so only
vectors are tracked; ``DecoderState`` is the slot-by-slot oracle of the
simulator's batched ``GF.prefix_pivots``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, count, probability, sparsity
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


@dataclass(frozen=True)
class ChannelParams:
    """Erasure probabilities of the three channels in the model.

    eps_b: probability a broadcast packet is lost to Bob.
    eps_e: probability a broadcast packet is lost to Eve.
    eps_k: probability Bob's acknowledgment is lost (1 = fully jammed
        feedback, 0 = perfect feedback).

    The model requires eps_b <= eps_e: the whole countermeasure is built on
    the eavesdropper's channel being no better than the legitimate one, and
    the analysis breaks down otherwise.
    """

    eps_b: float
    eps_e: float
    eps_k: float

    def __post_init__(self) -> None:
        for name in ("eps_b", "eps_e", "eps_k"):
            object.__setattr__(self, name, probability(getattr(self, name), name))
        if self.eps_b > self.eps_e:
            raise ConfigError(
                f"eps_b={self.eps_b} exceeds eps_e={self.eps_e}: the model assumes "
                "the eavesdropper's channel is no better than the legitimate "
                "receiver's, and its guarantees do not hold the other way around"
            )


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
    n = count(n, "n")
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
    table scales by 0 or 1).  Dependent vectors leave the state unchanged.
    """

    def __init__(self, K: int, q: int):
        self.K = count(K, "K", low=1)
        self.field = get_field(q)
        self.q = self.field.q
        self._rows: dict[int, np.ndarray] = {}  # pivot index -> uint8 row

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
        w = _symbols(vector, self.q)
        if w.shape != (self.K,):
            raise ConfigError(f"expected a length-{self.K} vector, got shape {w.shape}")
        if self.rank == self.K:
            return False
        gf, rows = self.field, self._rows
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


def _symbols(values, bound: int) -> np.ndarray:
    """Outside input as a new uint8 array, refusing anything that is not an
    integer in ``0 .. bound - 1`` (a float is refused, not truncated)."""
    try:
        a = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ConfigError("field elements must form a regular array") from exc
    if a.dtype.kind not in "biu":
        raise ConfigError(f"field elements must be integers, got {a.dtype} values")
    if a.size and not (a.min() >= 0 and a.max() < bound):
        raise ConfigError(f"values outside 0..{bound - 1}; not field elements")
    return a.astype(np.uint8)
