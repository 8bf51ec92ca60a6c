"""Every count and probability argument, checked by one rule.

A count is anything ``operator.index`` accepts except bool, and comes back
as a Python int; a probability is a real number in [0, 1], not bool and not
NaN, and comes back as a Python float.  Each row below is one call site: the
same bad values are refused everywhere, and a numpy scalar gives what the
Python-typed call gives, down to the type of every stored number.
"""

import dataclasses
import math

import numpy as np
import pytest

from srlnc import (
    GF,
    ChainState,
    ChannelParams,
    CodeParams,
    ConfigError,
    DecoderState,
    ImConfig,
    RankTables,
    SimConfig,
    build_chain,
    chain_delivery_probability,
    estimate,
    exact_full_rank_prob,
    exact_innovation_prob,
    get_field,
    intercept_gain,
    intercept_probability,
    label_of,
    run_trial,
    sample_coding_matrix,
    state_of,
)

_CODE = CodeParams(K=4, q=2, p=0.6, n_hat=8)
_CHAN = ChannelParams(eps_b=0.1, eps_e=0.3, eps_k=0.5)
_TABLES = RankTables(2, 0.6)
_CHAIN = build_chain(_CODE, _CHAN)
_SIM = SimConfig(_CODE, _CHAN, trials=10, base_seed=5)


def _sim(**kw):
    return dataclasses.astuple(dataclasses.replace(_SIM, **kw))[2:]


def _im(**kw):
    cfg = ImConfig(CodeParams(K=4, q=2, p=0.5, n_hat=8), _CHAN, **kw)
    return cfg.d_hat, cfg.p_max


def _gain(n_hat, workers=1):
    cfg = ImConfig(CodeParams(K=4, q=2, p=0.5, n_hat=8), _CHAN, d_hat=0.5)
    return [dataclasses.astuple(g)
            for g in intercept_gain(cfg, [n_hat], trials=20, workers=workers)]


def _infeasible_gain(workers):
    # D_hat = 1 leaves every budget infeasible, so no simulation starts and
    # only the check at the top of intercept_gain sees the worker count
    cfg = ImConfig(CodeParams(K=5, q=2, p=0.5, n_hat=10),
                   ChannelParams(0.05, 0.2, 1.0), d_hat=1.0)
    points = intercept_gain(cfg, range(6, 21), trials=10, workers=workers)
    assert {g.status for g in points} == {"infeasible"}
    return [dataclasses.astuple(g) for g in points]


# (call site, good value, call); the call returns what the test compares
COUNTS = [
    ("CodeParams.K", 4, lambda v: dataclasses.astuple(CodeParams(K=v, q=2, p=0.6, n_hat=8))),
    ("CodeParams.q", 16, lambda v: dataclasses.astuple(CodeParams(K=4, q=v, p=0.6, n_hat=8))),
    ("CodeParams.n_hat", 8, lambda v: dataclasses.astuple(CodeParams(K=4, q=2, p=0.6, n_hat=v))),
    ("GF", 16, lambda v: (GF(v).q, GF(v).m)),
    ("get_field", 16, lambda v: (get_field(v).q, get_field(v).m)),
    ("DecoderState.K", 4, lambda v: (DecoderState(v, 2).K, DecoderState(v, 2).defect)),
    ("DecoderState.q", 16, lambda v: DecoderState(4, v).q),
    ("SimConfig.trials", 7, lambda v: _sim(trials=v)),
    ("SimConfig.base_seed", 7, lambda v: _sim(base_seed=v)),
    ("run_trial", 3, lambda v: dataclasses.astuple(run_trial(_SIM, v))),
    ("intercept_probability", 6, lambda v: intercept_probability(_CHAIN, v)),
    ("chain_delivery_probability", 6, lambda v: chain_delivery_probability(_CHAIN, v)),
    ("label_of bob_defect", 2, lambda v: label_of(ChainState(v, 1), 4)),
    ("label_of eve_defect", 1, lambda v: label_of(ChainState(2, v), 4)),
    ("intercept_gain n_hats", 10, _gain),
    ("state_of", 17, lambda v: dataclasses.astuple(state_of(v, 4))),
    ("RankTables.K", 4, lambda v: RankTables(2, 0.6).W(v)),
    ("RankTables.q", 16, lambda v: (RankTables(v, 0.6).q, RankTables(v, 0.6).W(4))),
    ("rho c", 2, lambda v: _TABLES.rho(v, 5)),
    ("rho r", 5, lambda v: _TABLES.rho(2, v)),
    ("pi ell", 2, lambda v: _TABLES.pi(v, 5)),
    ("pi r", 5, lambda v: _TABLES.pi(2, v)),
    ("full_rank_probs c", 4, lambda v: _TABLES.full_rank_probs(v, 8).tolist()),
    ("full_rank_probs r_max", 8, lambda v: _TABLES.full_rank_probs(4, v).tolist()),
    ("exact_full_rank_prob r", 3, lambda v: exact_full_rank_prob(v, 2, 0.6, 2)),
    ("exact_full_rank_prob c", 2, lambda v: exact_full_rank_prob(3, v, 0.6, 2)),
    ("exact_innovation_prob t", 1, lambda v: exact_innovation_prob(v, 3, 0.6, 2)),
    ("exact_innovation_prob K", 3, lambda v: exact_innovation_prob(1, v, 0.6, 2)),
    ("sample_coding_matrix n", 3,
     lambda v: sample_coding_matrix(_CODE, v, np.random.default_rng(9)).tolist()),
    # 10 trials fill one block, so even 2 workers run serially here
    ("estimate workers", 2, lambda v: dataclasses.astuple(estimate(_SIM, v))),
    ("intercept_gain workers", 2, lambda v: _gain(10, workers=v)),
    ("intercept_gain workers, no feasible budget", 2, _infeasible_gain),
]

PROBABILITIES = [
    ("CodeParams.p", 0.6, lambda v: dataclasses.astuple(CodeParams(K=4, q=2, p=v, n_hat=8))),
    ("ChannelParams.eps_b", 0.1, lambda v: dataclasses.astuple(ChannelParams(v, 0.3, 1.0))),
    ("ChannelParams.eps_e", 0.3, lambda v: dataclasses.astuple(ChannelParams(0.1, v, 1.0))),
    ("ChannelParams.eps_k", 0.5, lambda v: dataclasses.astuple(ChannelParams(0.1, 0.3, v))),
    ("ImConfig.d_hat", 0.9, lambda v: _im(d_hat=v)),
    ("ImConfig.p_max", 0.9, lambda v: _im(p_max=v)),
    ("RankTables.p", 0.6, lambda v: (RankTables(2, v).p, RankTables(2, v).W(4))),
]

BAD = [True, 2.0, -1, "3", math.nan, None]


def _types(x):
    """x with every number replaced by its type, through tuples and lists."""
    if isinstance(x, (tuple, list)):
        return [_types(v) for v in x]
    return type(x)


def _same(got, want):
    assert got == want
    assert _types(got) == _types(want)


@pytest.mark.parametrize("site,good,call", COUNTS + PROBABILITIES,
                         ids=[row[0] for row in COUNTS + PROBABILITIES])
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_bad_values_are_refused_everywhere(site, good, call, bad):
    with pytest.raises(ConfigError):
        call(bad)


@pytest.mark.parametrize("site,good,call", COUNTS, ids=[row[0] for row in COUNTS])
@pytest.mark.parametrize("wrap", [np.int64, np.int32])
def test_numpy_counts_give_the_python_result(site, good, call, wrap):
    _same(call(wrap(good)), call(good))


@pytest.mark.parametrize("site,good,call", PROBABILITIES,
                         ids=[row[0] for row in PROBABILITIES])
@pytest.mark.parametrize("wrap", [np.float32, np.float64])
def test_numpy_probabilities_give_the_python_result(site, good, call, wrap):
    _same(call(wrap(good)), call(float(wrap(good))))


def test_integer_probabilities_are_stored_as_floats():
    chan = ChannelParams(eps_b=0, eps_e=0, eps_k=1)
    assert _types(dataclasses.astuple(chan)) == [float] * 3


# a worker count is at least 1 (None runs serially, as 1 does)
def test_zero_workers_are_refused():
    with pytest.raises(ConfigError):
        estimate(_SIM, 0)
    with pytest.raises(ConfigError):
        _gain(10, workers=0)
    with pytest.raises(ConfigError):
        _infeasible_gain(0)


def test_a_float_budget_is_refused_not_truncated():
    with pytest.raises(ConfigError):
        _gain(10.5)



@pytest.mark.parametrize("bad", ["no", 1, 0.0, None], ids=repr)
def test_ack_received_must_be_a_bool(bad):
    with pytest.raises(ConfigError):
        label_of(ChainState(0, 1, bad), 4)


def test_numpy_bools_give_the_python_labels():
    for flag in (True, False):
        assert label_of(ChainState(0, 1, np.bool_(flag)), 4) == label_of(
            ChainState(0, 1, flag), 4)


# The sparsity range [1/q, 1) is one check, with one message, at every site.
@pytest.mark.parametrize("p", [0.4, 1.0])
def test_sparsity_range_is_one_check(p):
    calls = [
        lambda: CodeParams(K=4, q=2, p=p, n_hat=8),
        lambda: RankTables(2, p),
        lambda: exact_innovation_prob(1, 3, p, 2),
        lambda: exact_full_rank_prob(3, 2, p, 2),
    ]
    messages = set()
    for call in calls:
        with pytest.raises(ConfigError) as exc:
            call()
        messages.add(str(exc.value))
    assert messages == {
        f"p={p} outside [1/q, 1) = [0.5, 1) for q=2: below 1/q the "
        "coefficients are no longer sparse-biased, and p=1 would send only "
        "zero vectors"
    }
