"""Monte Carlo simulation of the broadcast-with-jammed-feedback protocol.

One trial plays the whole story: the source broadcasts sparse-coded packets,
the legitimate receiver (Bob) and the eavesdropper (Eve) independently lose
each packet to erasure but otherwise see the SAME coding vector, Bob
acknowledges in every slot from the moment he can decode, and the source
stops after the first slot whose ACK survives the (possibly jammed) feedback
channel, or after the transmission budget runs out.

Rank tracking is done over GF(2) regardless of the field: a length-K vector
over GF(2^m) is expanded into m binary rows of width m*K (the rows are the
vector scaled by the first m powers of the field generator, each symbol then
split into bits).  A set of field vectors has rank r exactly when the
expansion has binary rank m*r, and a fresh vector is innovative exactly when
its first expanded row falls outside the current binary span.  Rows are
packed into Python integers so elimination is bare XOR.  This tracker is
deliberately independent of coding.DecoderState (which carries payload
bookkeeping); the test suite cross-validates the two.

Determinism: every trial seeds its own generator from (base_seed, base_seed
XOR trial_index), so estimates are reproducible bit for bit no matter how
trials are batched or how many worker processes run them.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coding import CodeParams, sample_coding_matrix
from .errors import ConfigError
from .chain import ChannelParams
from .gf import get_field

_MASK64 = (1 << 64) - 1

# Trials per work unit when running under a process pool.  Fixed so the
# trial -> block assignment never depends on the worker count.
_BLOCK = 2048


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation campaign.

    The ACK for a decoding-completing packet is attempted in that same slot,
    and a successful ACK stops the source after the current slot, whose
    broadcast Eve still overhears.  eve_counts_stopping_slot=False suppresses Eve's reception in that final
    slot; it exists to measure the alternative reading of the stopping rule
    and is not a supported operating mode.
    """

    code: CodeParams
    chan: ChannelParams
    trials: int = 20000
    base_seed: int = 0
    eve_counts_stopping_slot: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError(f"trials={self.trials!r} must be a positive integer")
        if not isinstance(self.base_seed, int) or not 0 <= self.base_seed <= _MASK64:
            raise ConfigError(
                f"base_seed={self.base_seed!r} must fit in an unsigned 64-bit integer"
            )


@dataclass(frozen=True)
class TrialOutcome:
    """What one trial produced."""

    slots_used: int
    bob_decoded: bool
    eve_decoded: bool
    n_bob: int
    n_eve: int


@dataclass(frozen=True)
class SimStats:
    """Aggregated estimates with 95% normal-approximation halfwidths
    (1.96 * sqrt(phat(1-phat)/trials))."""

    trials: int
    intercept_hat: float
    delivery_hat: float
    intercept_ci: float
    delivery_ci: float
    mean_slots: float


class _Expander:
    """Precomputed scaling rows for the binary expansion of one field."""

    def __init__(self, q: int, K: int):
        gfq = get_field(q)
        self.m = gfq.m
        self.K = K
        self.full = gfq.m * K
        if self.m > 1:
            # Field elements 1, a, a^2, ... a^(m-1): the polynomial basis.
            powers = [1 << j for j in range(self.m)]
            self.scale_rows = gfq.mul_table[powers]
        else:
            self.scale_rows = None

    def expand(self, sym: np.ndarray) -> tuple[int, ...]:
        """Packed binary rows of one coding vector; () for the zero vector."""
        if not sym.any():
            return ()
        m = self.m
        if m == 1:
            packed = np.packbits(sym, bitorder="little")
            return (int.from_bytes(packed.tobytes(), "little"),)
        scaled = self.scale_rows[:, sym]
        bits = np.unpackbits(scaled[..., None], axis=2, count=m, bitorder="little")
        packed = np.packbits(bits.reshape(m, -1), axis=1, bitorder="little")
        return tuple(
            int.from_bytes(packed[j].tobytes(), "little") for j in range(m)
        )


def _rank_absorb(pivots: dict[int, int], x: int) -> bool:
    """Forward-eliminate one packed row; True if it enlarged the span."""
    while x:
        top = x.bit_length() - 1
        row = pivots.get(top)
        if row is None:
            pivots[top] = x
            return True
        x ^= row
    return False


def _absorb_slot(pivots: dict[int, int], rank: int, rows: tuple[int, ...]) -> int:
    """Absorb all expanded rows of one received vector, returning new rank.

    The first row decides innovation: if it collapses into the span, the
    remaining rows are scalings of the same vector and collapse too.
    """
    if not rows or not _rank_absorb(pivots, rows[0]):
        return rank
    rank += 1
    for r in rows[1:]:
        if _rank_absorb(pivots, r):
            rank += 1
    return rank


def _trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.default_rng(
        [base_seed & _MASK64, (base_seed ^ trial_index) & _MASK64]
    )


def _play(cfg: SimConfig, exp: _Expander, rng: np.random.Generator) -> TrialOutcome:
    code, chan = cfg.code, cfg.chan
    N, full = code.n_hat, exp.full
    vectors = sample_coding_matrix(code, N, rng)
    # A draw below the erasure probability is a lost packet, so reception is
    # u >= eps; same convention for the ACK channel.
    bob_rx = rng.random(N) >= chan.eps_b
    eve_rx = rng.random(N) >= chan.eps_e
    ack_ok = rng.random(N) >= chan.eps_k

    bob_piv: dict[int, int] = {}
    eve_piv: dict[int, int] = {}
    bob_rank = 0
    eve_rank = 0
    slots = N
    for t in range(N):
        if bob_rank == full and eve_rank == full:
            # Decoding is settled; only the stopping slot is left to find.
            rest = np.flatnonzero(ack_ok[t:])
            slots = t + int(rest[0]) + 1 if rest.size else N
            break
        need_bob = bob_rx[t] and bob_rank < full
        need_eve = eve_rx[t] and eve_rank < full
        rows = exp.expand(vectors[t]) if (need_bob or need_eve) else ()
        if need_bob:
            bob_rank = _absorb_slot(bob_piv, bob_rank, rows)
        stop_now = bob_rank == full and ack_ok[t]
        if need_eve and (cfg.eve_counts_stopping_slot or not stop_now):
            eve_rank = _absorb_slot(eve_piv, eve_rank, rows)
        if stop_now:
            slots = t + 1
            break
    return TrialOutcome(
        slots_used=slots,
        bob_decoded=bob_rank == full,
        eve_decoded=eve_rank == full,
        n_bob=int(bob_rx[:slots].sum()),
        n_eve=int(eve_rx[:slots].sum()),
    )


def run_trial(cfg: SimConfig, trial_index: int) -> TrialOutcome:
    """Play one protocol round end to end, deterministically in
    (base_seed, trial_index)."""
    if not isinstance(trial_index, int) or trial_index < 0:
        raise ConfigError(f"trial_index={trial_index!r} must be a nonnegative integer")
    exp = _Expander(cfg.code.q, cfg.code.K)
    return _play(cfg, exp, _trial_rng(cfg.base_seed, trial_index))


def _run_block(cfg: SimConfig, start: int, stop: int) -> tuple[int, int, int]:
    """Aggregate trials start..stop-1: (eve_decoded, bob_decoded, slots)."""
    exp = _Expander(cfg.code.q, cfg.code.K)
    eve = bob = slots = 0
    for idx in range(start, stop):
        out = _play(cfg, exp, _trial_rng(cfg.base_seed, idx))
        eve += out.eve_decoded
        bob += out.bob_decoded
        slots += out.slots_used
    return eve, bob, slots


def _halfwidth(phat: float, n: int) -> float:
    return 1.96 * math.sqrt(phat * (1.0 - phat) / n)


def estimate(cfg: SimConfig, workers: int | None = None) -> SimStats:
    """Run the whole campaign and aggregate.

    workers > 1 fans fixed-size trial blocks out to a process pool; the
    per-trial seeding makes the result identical to the serial run.
    """
    n = cfg.trials
    spans = [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
    if workers is not None and workers > 1 and len(spans) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, *zip(*[(cfg, a, b) for a, b in spans])))
    else:
        parts = [_run_block(cfg, a, b) for a, b in spans]
    eve = sum(p[0] for p in parts)
    bob = sum(p[1] for p in parts)
    slots = sum(p[2] for p in parts)
    i_hat = eve / n
    d_hat = bob / n
    return SimStats(
        trials=n,
        intercept_hat=i_hat,
        delivery_hat=d_hat,
        intercept_ci=_halfwidth(i_hat, n),
        delivery_ci=_halfwidth(d_hat, n),
        mean_slots=slots / n,
    )
