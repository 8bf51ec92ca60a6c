"""Monte Carlo simulator: determinism, hand-computable cases, moment checks.

Statistical assertions use 3-sigma bands around exact targets; seeds are
fixed so the suite is reproducible, and the bands were chosen against the
frozen seeds with comfortable margin.
"""

import math

import numpy as np
import pytest

from srlnc.chain import ChannelParams
from srlnc.coding import CodeParams, DecoderState, sample_coding_matrix
from srlnc.errors import ConfigError
from srlnc.sim import (
    SimConfig,
    SimStats,
    TrialOutcome,
    _absorb_slot,
    _Expander,
    estimate,
    run_trial,
)

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


@pytest.mark.parametrize("q", [2, 4, 16, 256])
@pytest.mark.parametrize("K", [1, 3, 8, 20])
def test_packed_binary_tracker_matches_the_decoder(q, K):
    # The simulator's GF(2)-expanded rank tracker against the GF(q) decoder
    # on one seeded sparse stream of 3K + 5 vectors, so both verdicts occur.
    code = CodeParams(K=K, q=q, p=0.75, n_hat=3 * K + 5)
    vectors = sample_coding_matrix(code, code.n_hat,
                                   np.random.default_rng([q, K]))
    exp = _Expander(q, K)
    dec = DecoderState(K, q)
    pivots: dict[int, int] = {}
    rank = 0
    verdicts = set()
    for v in vectors:
        before = rank
        rank = _absorb_slot(pivots, rank, exp.expand(v))
        innovative = dec.absorb(v)
        assert (rank > before) == innovative
        assert rank == exp.m * dec.rank
        verdicts.add(innovative)
    assert verdicts == {True, False}


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


def test_stopping_slot_accounting_flag():
    # K=1, no erasures, clean feedback: Bob stops at the first nonzero
    # vector, which is also the only vector Eve has seen.  Counting that
    # slot gives Eve everything; suppressing it starves her completely.
    kw = dict(trials=400, seed=44)
    on = estimate(_cfg(1, 2, 0.5, 0.0, 0.0, 0.0, 3, **kw))
    off = estimate(_cfg(1, 2, 0.5, 0.0, 0.0, 0.0, 3,
                        eve_counts_stopping_slot=False, **kw))
    assert off.intercept_hat == 0.0
    assert on.intercept_hat > 0.8
    assert on.delivery_hat == off.delivery_hat
