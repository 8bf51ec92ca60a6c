"""Monte Carlo simulator: determinism, hand-computable cases, moment checks.

Statistical assertions use 3-sigma bands around exact targets; seeds are
fixed so the suite is reproducible, and the bands were chosen against the
frozen seeds with comfortable margin.
"""

import math
import tracemalloc

import numpy as np
import pytest

from srlnc import sim
from srlnc.coding import (
    ChannelParams, CodeParams, DecoderState, sample_coding_matrix,
)
from srlnc.errors import ConfigError
from srlnc.gf import get_field
from srlnc.sim import SimConfig, SimStats, TrialOutcome, estimate, run_trial

from oracles import smoothed_sigma


def _cfg(K, q, p, eps_b, eps_e, eps_k, n_hat, trials=1000, seed=0, **kw):
    return SimConfig(
        code=CodeParams(K=K, q=q, p=p, n_hat=n_hat),
        chan=ChannelParams(eps_b=eps_b, eps_e=eps_e, eps_k=eps_k),
        trials=trials,
        base_seed=seed,
        **kw,
    )


def test_config_validation():
    good = _cfg(2, 2, 0.6, 0.1, 0.2, 0.5, 8)
    with pytest.raises(ConfigError):
        _cfg(2, 2, 0.6, 0.1, 0.2, 0.5, 8, trials=0)
    with pytest.raises(ConfigError):
        _cfg(2, 2, 0.6, 0.1, 0.2, 0.5, 8, seed=-1)
    with pytest.raises(ConfigError):
        run_trial(good, -1)


def test_trial_index_must_fit_in_64_bits():
    # an index that wraps to trial i's stream would silently repeat trial i
    cfg = _cfg(4, 16, 0.3, 0.1, 0.3, 0.7, 16, seed=2**64 - 1)
    run_trial(cfg, 2**64 - 1)
    for i in range(3):
        with pytest.raises(ConfigError):
            run_trial(cfg, 2**64 + i)


def _trial_rng(base_seed, trial_index):
    # the definition of trial i's stream
    return np.random.default_rng([base_seed, base_seed ^ trial_index])


# base seeds: one and two uint32 words, both word boundaries, and three
# fixed random 64-bit values
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1,
          0x9E3779B97F4A7C15, 0x5DEECE66D, 0xD1B54A32D192ED03]


@pytest.mark.parametrize("a", _SEEDS)
def test_trial_states_reproduce_the_default_rng_streams(a):
    top = 2**64
    spans = [
        (0, 2 * sim._CHUNK + 1),      # chunk boundaries 255/256, 511/512
        (a, a + 1),                   # a ^ i = 0
        (a ^ 5, (a ^ 5) + 1),         # a ^ i = 5, one word
        (2**32 - 2, 2**32 + 2),       # i across the word boundary
        (a ^ 2**32, (a ^ 2**32) + 1),  # a ^ i two words, or one when a >= 2^32
        (top - 3, top),               # the largest indices
    ]
    for start, stop in spans:
        words = sim._seed_words(a, start, stop)
        assert words.shape == (4, stop - start)
        rngs = list(sim._trial_rngs(a, start, stop))
        assert len(rngs) == stop - start
        for k, i in enumerate(range(start, stop)):
            seq = np.random.SeedSequence([a, a ^ i])
            assert np.array_equal(words[:, k], seq.generate_state(4, np.uint64)), i
            assert rngs[k].bit_generator.state == _trial_rng(a, i).bit_generator.state, (a, i)


def test_trial_draws_follow_their_own_streams():
    # what _outcomes draws for trial i is what default_rng([a, a ^ i]) draws
    for q, p in [(2, 0.7), (16, 0.3)]:
        cfg = _cfg(5, q, p, 0.1, 0.3, 0.6, 12, seed=2**40 + q)
        for i, rng in enumerate(sim._trial_rngs(cfg.base_seed, 0, 20)):
            old = _trial_rng(cfg.base_seed, i)
            assert np.array_equal(sample_coding_matrix(cfg.code, 12, rng),
                                  sample_coding_matrix(cfg.code, 12, old))
            assert np.array_equal(rng.random(36), old.random(36))


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 128, 256])
@pytest.mark.parametrize("K", [1, 3, 8, 9, 16, 17, 20, 32, 33, 64, 65, 70])
def test_packed_binary_tracker_matches_the_decoder(q, K):
    # The simulator's elimination kernel against the GF(q) decoder on one
    # seeded sparse stream of 3K + 5 vectors, so both verdicts occur, on a
    # copy with about a fifth of the slots erased (zero rows), and on an
    # all-erased copy that has no pivot and picks the sentinel in every
    # column, all in one batch.  A word holds 64 elements at q=2, 32 at q=4,
    # 16 at q=8 and 16 (4-bit lanes) and 8 from q=32 on (8-bit lanes), so
    # K=64/65, 32/33, 16/17 and 8/9 are the one-word/two-word edges; K=70
    # needs several packed words per row at every q.
    code = CodeParams(K=K, q=q, p=0.75, n_hat=3 * K + 5)
    rng = np.random.default_rng([q, K])
    vectors = sample_coding_matrix(code, code.n_hat, rng)
    erased = vectors * (rng.random(code.n_hat) >= 0.2)[:, None]
    streams = np.stack([vectors, erased, np.zeros_like(vectors)])
    gf = get_field(q)
    pivots = gf.prefix_pivots(gf.pack(streams), K)
    assert pivots.shape == (3, code.n_hat)
    assert not pivots[2].any()
    for stream, piv in zip(streams[:2], pivots):
        dec = DecoderState(K, q)
        for t, v in enumerate(stream):
            assert piv[t] == dec.absorb(v)
            assert piv[:t + 1].sum() == dec.rank
        # Both verdicts occur wherever a vector is nonzero.  At K=1, q=128
        # all 8 drawn coefficients are zero, so only the zero stream is met.
        assert set(piv) == ({True, False} if stream.any() else {False})


# (q, eps_k, n_hat, eve_decoded, bob_decoded, total slots) of estimate()
# at K=20, eps_b=0.05, eps_e=0.2, 60 trials, base_seed 1000 + q,
# p = _GOLDEN_P[q], recorded from the per-trial tracker that preceded the
# batched kernel.
_GOLDEN_P = {2: 0.7, 4: 0.5, 16: 0.3, 256: 0.1}
_GOLDEN_TOTALS = [
    (2, 0.0, 21, 0, 17, 1255), (2, 0.0, 40, 14, 60, 1387),
    (2, 0.0, 100, 13, 60, 1392), (2, 0.9, 21, 0, 17, 1260),
    (2, 0.9, 40, 44, 60, 1852), (2, 0.9, 100, 40, 60, 2015),
    (2, 1.0, 21, 0, 17, 1260), (2, 1.0, 40, 60, 60, 2400),
    (2, 1.0, 100, 60, 60, 6000), (4, 0.0, 21, 1, 33, 1246),
    (4, 0.0, 40, 1, 60, 1265), (4, 0.0, 100, 8, 60, 1292),
    (4, 0.9, 21, 2, 33, 1259), (4, 0.9, 40, 38, 60, 1679),
    (4, 0.9, 100, 39, 60, 1883), (4, 1.0, 21, 3, 33, 1260),
    (4, 1.0, 40, 60, 60, 2400), (4, 1.0, 100, 60, 60, 6000),
    (16, 0.0, 21, 5, 41, 1239), (16, 0.0, 40, 8, 60, 1280),
    (16, 0.0, 100, 6, 60, 1263), (16, 0.9, 21, 6, 41, 1258),
    (16, 0.9, 40, 41, 60, 1747), (16, 0.9, 100, 38, 60, 1906),
    (16, 1.0, 21, 6, 41, 1260), (16, 1.0, 40, 60, 60, 2400),
    (16, 1.0, 100, 60, 60, 6000), (256, 0.0, 21, 2, 41, 1241),
    (256, 0.0, 40, 5, 60, 1263), (256, 0.0, 100, 6, 60, 1256),
    (256, 0.9, 21, 3, 41, 1258), (256, 0.9, 40, 43, 60, 1747),
    (256, 0.9, 100, 39, 60, 1860), (256, 1.0, 21, 3, 41, 1260),
    (256, 1.0, 40, 60, 60, 2400), (256, 1.0, 100, 60, 60, 6000),
]

# (q, trial index, slots_used, bob_decoded, eve_decoded, n_bob, n_eve) of
# run_trial at K=20, p = _GOLDEN_P[q], n_hat=40, eps = (0.05, 0.2, 0.8),
# base_seed 77 + q, recorded like the totals above.
_GOLDEN_OUTCOMES = [
    (16, 0, 34, True, True, 34, 30), (16, 1, 30, True, True, 28, 24),
    (16, 2, 24, True, False, 23, 17), (16, 3, 22, True, False, 20, 18),
    (16, 4, 22, True, False, 22, 14), (16, 5, 34, True, True, 30, 29),
    (16, 6, 22, True, False, 20, 19), (16, 7, 22, True, False, 22, 19),
    (16, 8, 25, True, False, 23, 19), (16, 9, 30, True, True, 29, 25),
    (256, 0, 34, True, True, 33, 27), (256, 1, 21, True, False, 20, 17),
    (256, 2, 22, True, False, 21, 18), (256, 3, 20, True, False, 20, 15),
    (256, 4, 22, True, False, 22, 16), (256, 5, 25, True, False, 21, 19),
    (256, 6, 24, True, True, 21, 21), (256, 7, 25, True, True, 25, 21),
    (256, 8, 23, True, False, 22, 17), (256, 9, 26, True, False, 25, 16),
]


def test_estimate_totals_match_the_golden_pins():
    for q, eps_k, n_hat, eve, bob, slots in _GOLDEN_TOTALS:
        s = estimate(_cfg(20, q, _GOLDEN_P[q], 0.05, 0.2, eps_k, n_hat,
                          trials=60, seed=1000 + q))
        got = (round(s.intercept_hat * 60), round(s.delivery_hat * 60),
               round(s.mean_slots * 60))
        assert got == (eve, bob, slots), (q, eps_k, n_hat)


def test_trial_outcomes_match_the_golden_pins():
    for q, i, *want in _GOLDEN_OUTCOMES:
        cfg = _cfg(20, q, _GOLDEN_P[q], 0.05, 0.2, 0.8, 40, seed=77 + q)
        assert run_trial(cfg, i) == TrialOutcome(*want), (q, i)


def test_batched_outcomes_equal_single_trials_across_chunks():
    # one block spanning a sub-chunk boundary, trial by trial and in total
    n = sim._CHUNK + 40
    cfg = _cfg(6, 16, 0.3, 0.1, 0.3, 0.6, 14, trials=n, seed=21)
    singles = [run_trial(cfg, i) for i in range(n)]
    slots, bob, eve, n_bob, n_eve = sim._outcomes(cfg, 0, n)
    for i, out in enumerate(singles):
        assert out == TrialOutcome(int(slots[i]), bool(bob[i]), bool(eve[i]),
                                   int(n_bob[i]), int(n_eve[i])), i
    assert sim._run_block(cfg, 0, n) == (
        sum(o.eve_decoded for o in singles),
        sum(o.bob_decoded for o in singles),
        sum(o.slots_used for o in singles),
    )


def test_block_memory_stays_bounded():
    # a full pool block at the largest figure budget, feedback jammed so
    # every trial runs all 100 slots, at q=16 and on the GF(2) path
    for q, p in [(16, 0.3), (2, 0.7)]:
        cfg = _cfg(20, q, p, 0.01, 0.26, 1.0, 100, trials=sim._BLOCK, seed=4)
        tracemalloc.start()
        try:
            sim._run_block(cfg, 0, sim._BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, q


def test_run_trial_is_deterministic_in_seed_and_index():
    cfg = _cfg(4, 16, 0.3, 0.1, 0.3, 0.7, 16, seed=123)
    a = run_trial(cfg, 17)
    b = run_trial(cfg, 17)
    assert a == b
    # a different index almost surely tells a different story
    outcomes = {run_trial(cfg, i) for i in range(20)}
    assert len(outcomes) > 1


def test_estimate_is_reproducible_and_worker_invariant():
    # trials spans two pool blocks so the workers=2 path actually forks
    cfg = _cfg(2, 2, 0.6, 0.1, 0.3, 0.8, 6, trials=4100, seed=9)
    s1 = estimate(cfg, workers=1)
    s2 = estimate(cfg, workers=1)
    assert s1 == s2
    s3 = estimate(cfg, workers=2)
    assert s3 == s1


# (trials, workers allowed, workers the pool asks for): 4097 trials fill
# three blocks, and one block runs without a pool.
@pytest.mark.parametrize("trials, workers, want", [
    (4097, 64, [3]), (4097, 2, [2]), (2048, 64, [])])
def test_the_pool_asks_for_no_more_workers_than_blocks(monkeypatch, trials,
                                                       workers, want):
    # Under fork every worker starts at the first submit, so the pool asks
    # for one worker per block at most; a stand-in records the request and
    # maps in this process.
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = _cfg(2, 2, 0.6, 0.1, 0.3, 0.8, 6, trials=trials, seed=9)
    assert estimate(cfg, workers=workers) == estimate(cfg, workers=1)
    assert asked == want


def test_blind_eavesdropper_never_decodes():
    cfg = _cfg(2, 2, 0.6, 0.2, 1.0, 0.5, 12, trials=400, seed=3)
    for i in range(50):
        assert not run_trial(cfg, i).eve_decoded
    assert estimate(cfg).intercept_hat == 0.0


def test_perfect_channels_give_identical_receiver_states():
    # no erasures anywhere: both parties absorb the same vectors, so their
    # decoder trajectories coincide trial by trial
    cfg = _cfg(4, 16, 0.2, 0.0, 0.0, 0.6, 16, seed=77)
    for i in range(200):
        out = run_trial(cfg, i)
        assert out.n_bob == out.n_eve == out.slots_used
        assert out.bob_decoded == out.eve_decoded


def test_jammed_feedback_always_burns_the_whole_budget():
    cfg = _cfg(3, 2, 0.6, 0.05, 0.3, 1.0, 10, trials=300, seed=5)
    for i in range(60):
        assert run_trial(cfg, i).slots_used == 10
    assert estimate(cfg).mean_slots == 10.0


def test_clean_feedback_stops_early():
    # rank 2 can stall (all twelve draws on one line, prob ~0.005), so
    # delivery is near-certain rather than certain
    cfg = _cfg(2, 2, 0.6, 0.0, 0.1, 0.0, 12, trials=500, seed=8)
    stats = estimate(cfg)
    assert stats.delivery_hat >= 0.98
    assert stats.mean_slots < 6.0


def test_slots_concentrate_at_k_for_a_large_field():
    # dense uniform vectors over GF(256): the first K are independent with
    # probability prod_{j=1..K}(1 - q^-j) >= (1 - 1/256)^K
    K, trials = 4, 1500
    cfg = _cfg(K, 256, 1 / 256, 0.0, 0.0, 0.0, 12, trials=trials, seed=31)
    hits = sum(run_trial(cfg, i).slots_used == K for i in range(trials))
    frac = hits / trials
    floor = (1 - 1 / 256) ** K
    assert frac >= floor - 3 * smoothed_sigma(frac, trials)


def test_single_packet_hand_case():
    # K=1, q=2, p=1/2, lossless links, jammed feedback, budget 2: the lone
    # coefficient is nonzero in at least one of two slots w.p. 3/4
    trials = 100_000
    cfg = _cfg(1, 2, 0.5, 0.0, 0.0, 1.0, 2, trials=trials, seed=2024)
    stats = estimate(cfg)
    sigma = smoothed_sigma(stats.intercept_hat, trials)
    assert abs(stats.intercept_hat - 0.75) <= 3 * sigma
    assert stats.intercept_hat == stats.delivery_hat


def test_receiver_packet_count_matches_binomial_moments():
    # with feedback fully jammed every trial runs all N slots, so n_bob is
    # Binomial(N, 1 - eps_b)
    N, eps_b, trials = 12, 0.3, 4000
    cfg = _cfg(4, 2, 0.6, eps_b, 0.4, 1.0, N, seed=63)
    ns = np.array([run_trial(cfg, i).n_bob for i in range(trials)], dtype=float)
    mean_target = N * (1 - eps_b)
    var_target = N * eps_b * (1 - eps_b)
    assert abs(ns.mean() - mean_target) <= 3 * math.sqrt(var_target / trials)
    assert abs(ns.var() - var_target) <= 0.15 * var_target


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_trial_outcome_invariants(seed):
    cfg = _cfg(3, 16, 0.4, 0.1, 0.35, 0.6, 9, seed=seed)
    for i in range(150):
        out = run_trial(cfg, i)
        assert isinstance(out, TrialOutcome)
        assert 1 <= out.slots_used <= 9
        assert 0 <= out.n_bob <= out.slots_used
        assert 0 <= out.n_eve <= out.slots_used
        if out.bob_decoded:
            assert out.n_bob >= 3
        if out.eve_decoded:
            assert out.n_eve >= 3


def test_stats_halfwidths_match_the_normal_formula():
    cfg = _cfg(2, 2, 0.7, 0.1, 0.3, 0.5, 8, trials=600, seed=14)
    s = estimate(cfg)
    assert isinstance(s, SimStats)
    assert s.trials == 600
    for phat, ci in ((s.intercept_hat, s.intercept_ci),
                     (s.delivery_hat, s.delivery_ci)):
        assert ci == pytest.approx(1.96 * math.sqrt(phat * (1 - phat) / 600))
