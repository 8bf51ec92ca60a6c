"""Monte Carlo simulation of the broadcast-with-jammed-feedback protocol.

One trial plays the whole story: the source broadcasts sparse-coded packets,
the legitimate receiver (Bob) and the eavesdropper (Eve) independently lose
each packet to erasure but otherwise see the SAME coding vector, Bob
acknowledges in every slot from the moment he can decode, and the source
stops after the first slot whose ACK survives the (possibly jammed) feedback
channel, or after the transmission budget runs out.

Trajectories.  A trial draws all of its coding vectors, erasures and ACKs
up front, and its outcome depends only on Bob's and Eve's rank after each
slot and on which ACKs survive.  So the simulator computes both prefix-rank
trajectories over the whole budget first, for a chunk of trials at once, and
applies the stopping rule afterwards: the source stops in the first slot t
where Bob's rank is K and the ACK of slot t survives (else after the
budget), Bob has decoded if his rank reaches K by then, and Eve has decoded
if her rank after slot t is K.

Ranks come from one batched elimination kernel, ``GF.prefix_pivots``.  A
chunk's coding vectors are packed once by ``GF.pack`` into uint64 words,
one element a lane of 1, 2, 4 or 8 bits (the fewest that hold log2 q bits,
so no lane straddles a byte): 64 elements a word at q = 2, 16 at q = 16 and
8 from q = 32 on.  Each receiver's copy of a trial's vectors is one stream,
made by multiplying the packed words by that receiver's reception mask, so
an erased slot is a zero row, and Bob's and Eve's streams of the chunk run
together.  Elimination only ever adds earlier rows to later ones, so every
prefix keeps its span and the rank after slot t is the number of pivot rows
among the first t.  The kernel is deliberately independent of
coding.DecoderState, its one-vector oracle:
``test_packed_binary_tracker_matches_the_decoder`` checks its pivot flags
and prefix ranks against ``DecoderState.absorb`` slot by slot.

Determinism: trial i draws from numpy's ``default_rng([base_seed, base_seed
XOR i])`` stream, so estimates are reproducible bit for bit no matter how
trials are batched or how many worker processes run them.  A
``SeedSequence`` per trial would cost about as much as the rest of a q = 2
trial, so ``_seed_words`` runs its hash for a whole chunk at once, as uint32
array arithmetic (numpy keeps it stable, NEP 19), and ``_trial_rngs`` builds
each trial's generator from its words through numpy's own constructors.
The chunk's draws, in the order ``coding.sample_coding_matrix`` and the
channels use (the coefficient uniforms, at q > 2 the nonzero values, then
the erasure and ACK uniforms), land in shared arrays, and the coefficient
law (``coding.coefficient_law``) is applied to all of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import ChannelParams, CodeParams, coefficient_law
# sample_coding_matrix draws what one trial's coefficient block holds; it is
# not called here, but bench/spans.py wraps it under this module's name.
from .coding import sample_coding_matrix  # noqa: F401
from .errors import count

_MASK64 = (1 << 64) - 1

# Trials per work unit when running under a process pool.  Fixed so the
# trial -> block assignment never depends on the worker count.
_BLOCK = 2048
# Trials per elimination call; bounds the working arrays of a block (about
# 7 MB at K=20 and a budget of 100, most of it the chunk's uniforms).
_CHUNK = 256


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation campaign.

    The ACK for a decoding-completing packet is attempted in that same slot,
    and a successful ACK stops the source after the current slot, whose
    broadcast Eve still overhears: her rank is read after the stopping slot.
    """

    code: CodeParams
    chan: ChannelParams
    trials: int = 20000
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", count(self.trials, "trials", low=1))
        # seeds and trial indices fit in an unsigned 64-bit integer
        object.__setattr__(self, "base_seed",
                           count(self.base_seed, "base_seed", high=_MASK64))


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


# numpy's SeedSequence hash (uint32 arithmetic, 16-bit xorshift).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1


def _hash_consts(init: int, mult: int, uses: int) -> np.ndarray:
    """Constants k = 0 .. uses of a SeedSequence hash, as a column: use k of
    the hash xors with constant k and multiplies by constant k + 1."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32
                     for k in range(uses + 1)], dtype=np.uint32)[:, None]


# Hash A takes the 4 entropy words and 12 mixing steps, hash B the 8 outputs.
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, 16)
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 8)


def _seed_words(base_seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence([base_seed, base_seed ^ i]).generate_state(4, uint64)``
    for i = start..stop-1, as a (4, stop - start) uint64 array."""
    b = np.uint64(base_seed) ^ np.arange(start, stop, dtype=np.uint64)
    b_lo = (b & np.uint64(_MASK32)).astype(np.uint32)
    b_hi = (b >> np.uint64(32)).astype(np.uint32)
    # The entropy words: each int becomes its little-endian uint32 words (0
    # becomes [0]), and the 4-word pool pads the rest with zeros; b_hi is 0
    # exactly when b is one word.
    if base_seed >> 32:
        entropy = [base_seed & _MASK32, base_seed >> 32, b_lo, b_hi]
    else:
        entropy = [base_seed, b_lo, b_hi, 0]

    def hashmix(values, consts, k):
        # row r of values takes use k + r of the hash
        n = len(values)
        values = (values ^ consts[k:k + n]) * consts[k + 1:k + n + 1]
        return values ^ (values >> np.uint32(16))

    pool = hashmix(np.array([np.broadcast_to(w, b.shape) for w in entropy],
                            dtype=np.uint32), _CONSTS_A, 0)
    # Each source word is hashed into the other three in turn; it is not
    # itself changed while it is the source.
    for i_src in range(4):
        dst = [i for i in range(4) if i != i_src]
        hashed = hashmix(pool[[i_src] * 3], _CONSTS_A, 4 + 3 * i_src)
        mixed = (np.uint32(_MIX_MULT_L) * pool[dst]
                 - np.uint32(_MIX_MULT_R) * hashed)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _CONSTS_B, 0).astype(np.uint64)
    # uint32 words pair up little-endian into uint64 words
    return out[0::2] | out[1::2] << np.uint64(32)


class _TrialSeed:
    """One trial's 4 ``_seed_words`` in a contiguous array: the state that
    ``np.random.PCG64`` reads from the numpy seed sequence it is given."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_rngs(base_seed: int, start: int, stop: int):
    """``default_rng([base_seed, base_seed ^ i])`` for i = start..stop-1.  The
    registration loads numpy.random, and with it hashlib, on first use."""
    np.random.bit_generator.ISeedSequence.register(_TrialSeed)
    for words in _seed_words(base_seed, start, stop).T.copy():
        yield np.random.Generator(np.random.PCG64(_TrialSeed(words)))


def _draw(cfg: SimConfig, start: int, stop: int):
    """What trials start..stop-1 draw: the packed coding vectors ``(B, N,
    W)``, which packets Bob and Eve receive ``(B, 2, N)`` and which ACKs
    survive ``(B, N)``."""
    code, chan = cfg.code, cfg.chan
    K, N, B = code.K, code.n_hat, stop - start
    # Each trial's stream in order: the coefficient law's uniforms, at q > 2
    # its nonzero values, then Bob's erasure, Eve's erasure and ACK draws.
    u = np.empty((B, N, K))
    values = None if code.q == 2 else np.empty((B, N, K), dtype=np.uint8)
    draws = np.empty((B, 3, N))
    for k, rng in enumerate(_trial_rngs(cfg.base_seed, start, stop)):
        rng.random(out=u[k])
        if values is not None:
            values[k] = rng.integers(1, code.q, size=(N, K), dtype=np.uint8)
        rng.random(out=draws[k])
    # A draw below the erasure probability is a lost packet, so reception is
    # u >= eps; same convention for the ACK channel.
    rx = draws[:, :2] >= np.array([chan.eps_b, chan.eps_e])[:, None]
    words = code.field.pack(coefficient_law(u, values, code.p))
    return words, rx, draws[:, 2] >= chan.eps_k


def _outcomes(cfg: SimConfig, start: int, stop: int):
    """Trials start..stop-1 as arrays: slots used, Bob decoded, Eve decoded,
    Bob's and Eve's received counts."""
    K, N, B = cfg.code.K, cfg.code.n_hat, stop - start
    words, rx, ack_ok = _draw(cfg, start, stop)
    # Bob's stream of each trial, then Eve's: the chunk's packed vectors
    # times the receiver's reception mask, so a lost packet is a zero row.
    streams = words * rx.transpose(1, 0, 2)[..., None]
    piv = cfg.code.field.prefix_pivots(streams.reshape(2 * B, N, -1), K)
    rank = np.zeros((2, B, N + 1), dtype=np.int32)
    np.cumsum(piv.reshape(2, B, N), axis=2, out=rank[:, :, 1:])

    at = np.arange(B)
    stop_now = (rank[0, :, 1:] == K) & ack_ok
    stopped = stop_now.any(axis=1)
    slots = np.where(stopped, stop_now.argmax(axis=1) + 1, N)
    counted = np.arange(N) < slots[:, None]
    return (
        slots,
        rank[0, :, N] == K,
        rank[1, at, slots] == K,
        (rx[:, 0] & counted).sum(axis=1),
        (rx[:, 1] & counted).sum(axis=1),
    )


def run_trial(cfg: SimConfig, trial_index: int) -> TrialOutcome:
    """Play one protocol round end to end, deterministically in
    (base_seed, trial_index)."""
    trial_index = count(trial_index, "trial_index", high=_MASK64)
    slots, bob, eve, n_bob, n_eve = _outcomes(cfg, trial_index, trial_index + 1)
    return TrialOutcome(int(slots[0]), bool(bob[0]), bool(eve[0]),
                        int(n_bob[0]), int(n_eve[0]))


def _run_block(cfg: SimConfig, start: int, stop: int) -> tuple[int, int, int]:
    """Aggregate trials start..stop-1: (eve_decoded, bob_decoded, slots)."""
    eve = bob = slots = 0
    for a in range(start, stop, _CHUNK):
        s, b, e, _, _ = _outcomes(cfg, a, min(a + _CHUNK, stop))
        eve += int(e.sum())
        bob += int(b.sum())
        slots += int(s.sum())
    return eve, bob, slots


def _halfwidth(phat: float, n: int) -> float:
    return 1.96 * math.sqrt(phat * (1.0 - phat) / n)


def estimate(cfg: SimConfig, workers: int = 1) -> SimStats:
    """Run the whole campaign and aggregate.

    workers > 1 fans fixed-size trial blocks out to a process pool, one
    worker per block at most; per-trial seeding keeps the serial result.
    """
    workers = count(workers, "workers", low=1)
    n = cfg.trials
    spans = [(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)]
    if workers > 1 and len(spans) > 1:
        # imported here: multiprocessing is only needed on the pool path
        from concurrent.futures import ProcessPoolExecutor

        # the fork start method forks every worker at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(spans))) as pool:
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
