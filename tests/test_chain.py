"""Absorbing-chain structure, hand-checked entries, and both metrics."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    build_chain_reference,
    chain_distribution_dense,
    chain_intercept_by_paths,
)
from srlnc import (
    ChainState,
    ChannelParams,
    CodeParams,
    ConfigError,
    NumericalIntegrityError,
    RankTables,
    SimConfig,
    TransitionMatrix,
    build_chain,
    chain_delivery_probability,
    delivery_probability,
    estimate,
    initial_label,
    intercept_labels,
    intercept_probability,
    label_of,
    n_states,
    state_of,
)
from srlnc.chain import TRANSITION_MODES


def _chain(K, q, p, eps_b, eps_e, eps_k, mode="paper-exact", n_hat=None):
    code = CodeParams(K=K, q=q, p=p, n_hat=n_hat if n_hat else 4 * K)
    chan = ChannelParams(eps_b=eps_b, eps_e=eps_e, eps_k=eps_k)
    return build_chain(code, chan, mode)


def test_channel_params_validation():
    ChannelParams(eps_b=0.0, eps_e=0.0, eps_k=1.0)
    ChannelParams(eps_b=0.1, eps_e=0.1, eps_k=0.0)  # reliable feedback allowed
    with pytest.raises(ConfigError):
        ChannelParams(eps_b=0.3, eps_e=0.1, eps_k=1.0)  # Eve may not be better off
    for bad in (-0.1, 1.5):
        with pytest.raises(ConfigError):
            ChannelParams(eps_b=bad, eps_e=0.5, eps_k=1.0)
        with pytest.raises(ConfigError):
            ChannelParams(eps_b=0.0, eps_e=0.5, eps_k=bad)


def test_label_bijection_and_special_labels():
    for K in (1, 2, 5, 20):
        seen = set()
        for d_b in range(K + 1):
            for d_e in range(K + 1):
                lbl = label_of(ChainState(d_b, d_e, False), K)
                assert state_of(lbl, K) == ChainState(d_b, d_e, False)
                seen.add(lbl)
        for d_e in range(K + 1):
            lbl = label_of(ChainState(0, d_e, True), K)
            assert state_of(lbl, K) == ChainState(0, d_e, True)
            seen.add(lbl)
        assert len(seen) == n_states(K) == (K + 1) * (K + 2)
        assert initial_label(K) == (K + 1) ** 2 + K
        assert label_of(ChainState(K, K, False), K) == (K + 1) ** 2 + K
        assert label_of(ChainState(0, 0, True), K) == 0
        assert set(intercept_labels(K)) == {tau * (K + 1) for tau in range(K + 2)}


def test_unreachable_states_and_labels_rejected():
    with pytest.raises(ConfigError):
        label_of(ChainState(2, 1, True), 4)  # ACK received implies d_B = 0
    with pytest.raises(ConfigError):
        label_of(ChainState(5, 0, False), 4)  # defect beyond K
    with pytest.raises(ConfigError):
        state_of(-1, 4)
    with pytest.raises(ConfigError):
        state_of(n_states(4), 4)


def test_hand_checked_transition_entry():
    # From the start (d_B=K, d_E=K): Bob erased, Eve receives and innovates.
    P = _chain(2, 2, 0.5, 0.1, 0.3, 1.0)
    src = initial_label(2)
    (w,) = [w for i, j, w in P.triplets() if (i, j) == (src, src - 1)]
    assert w == pytest.approx(0.1 * 0.7 * 0.75, abs=1e-12)


def test_acknowledgment_row_entries():
    # State (0,0,0): Bob is done, ACK pending. The ACK lands w.p. 1-eps_k.
    K = 3
    P = _chain(K, 2, 0.6, 0.1, 0.3, 0.25)
    row = {j: w for i, j, w in P.triplets() if i == K + 1}
    assert row == {0: pytest.approx(0.75, abs=1e-12),
                   K + 1: pytest.approx(0.25, abs=1e-12)}


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 7),
    st.sampled_from([2, 16]),
    st.floats(0.05, 0.95),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 0.3, 0.85, 1.0]),
    st.sampled_from(TRANSITION_MODES),
)
def test_structural_invariants_hold_for_random_parameters(
        K, q, p_frac, eb, extra, eps_k, mode):
    p = 1.0 / q + p_frac * (0.95 - 1.0 / q)
    eps_b = round(eb * 0.5, 6)
    eps_e = round(min(1.0, eps_b + extra * (1.0 - eps_b)), 6)
    P = _chain(K, q, p, eps_b, eps_e, eps_k, mode)
    S = (K + 1) * (K + 2)
    assert P.n_states == S
    trip = P.triplets()
    rows = {}
    for i, j, w in trip:
        assert 0.0 <= w <= 1.0
        assert j <= i, "lower-triangular labeling violated"
        rows.setdefault(i, []).append(w)
    for i in range(S):
        got = rows.get(i, [])
        assert len(got) <= 6
        assert math.fsum(got) == pytest.approx(1.0, abs=1e-9), i
    # absorbing block: labels 0..K are pure self-loops
    for i in range(K + 1):
        row = [(j, w) for a, j, w in trip if a == i]
        assert row == [(i, 1.0)]


def _assert_matches_reference(code, chan, mode):
    """build_chain equals the row-by-row reference bit for bit."""
    P = build_chain(code, chan, mode)
    src, dst, prob, clamps = build_chain_reference(
        code, chan, RankTables(code.K, code.q, code.p), mode)
    for got, want in ((P.src, src), (P.dst, dst), (P.prob, prob)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros included
    assert P.clamp_count == clamps
    return P


@pytest.mark.parametrize("K", [1, 2, 3, 6, 20])
@pytest.mark.parametrize("q", [2, 16, 256])
def test_builder_matches_the_row_by_row_reference(K, q):
    # p = 1/q takes the classic innovation table; (1, 1) is the blackout
    # channel, where every receiving row self-loops.
    for p in (1.0 / q, 0.6, 0.9):
        code = CodeParams(K=K, q=q, p=p, n_hat=2 * K)
        for mode in TRANSITION_MODES:
            for eps_b, eps_e in ((0.05, 0.3), (0.0, 0.4), (1.0, 1.0)):
                for eps_k in (0.0, 0.5, 1.0):
                    chan = ChannelParams(eps_b=eps_b, eps_e=eps_e, eps_k=eps_k)
                    _assert_matches_reference(code, chan, mode)


@pytest.mark.parametrize("K, q", [(20, 2), (12, 256)])
def test_builder_matches_the_reference_where_brackets_clamp(K, q):
    code = CodeParams(K=K, q=q, p=0.99, n_hat=2 * K)
    for mode in TRANSITION_MODES:
        for eps_k in (0.0, 0.5, 1.0):
            chan = ChannelParams(eps_b=0.0, eps_e=0.4, eps_k=eps_k)
            P = _assert_matches_reference(code, chan, mode)
            assert P.clamp_count > 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 20),
    st.sampled_from([2, 16, 256]),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from(TRANSITION_MODES),
)
def test_builder_matches_the_reference_for_random_parameters(
        K, q, p_frac, eps_b, extra, eps_k, mode):
    p = 1.0 / q + p_frac * (0.99 - 1.0 / q)
    eps_e = min(1.0, eps_b + extra * (1.0 - eps_b))
    _assert_matches_reference(
        CodeParams(K=K, q=q, p=p, n_hat=2 * K),
        ChannelParams(eps_b=eps_b, eps_e=eps_e, eps_k=eps_k), mode)


# clamp_count and its warning, as recorded from the row-by-row builder.
@pytest.mark.parametrize("K, q, p, eps, want", [
    (20, 2, 0.99, (0.0, 0.4, 0.0), 74),
    (20, 2, 0.99, (0.05, 0.3, 0.5), 73),
    (12, 256, 0.99, (0.0, 0.4, 0.0), 11),
    (20, 2, 0.7, (0.01, 0.26, 1.0), 0),
])
def test_clamp_count_and_its_warning(K, q, p, eps, want, caplog):
    for mode in TRANSITION_MODES:
        caplog.clear()
        P = _chain(K, q, p, *eps, mode=mode)
        assert P.clamp_count == want
        logged = [r.getMessage() for r in caplog.records
                  if r.name == "srlnc.chain" and r.levelname == "WARNING"]
        assert logged == ([
            f"{want} bracket term(s) clamped to 0 while building the chain "
            f"at K={K} p={p:g}; the innovation table is outside its comfort "
            "zone"] if want else [])


def _chain_with_W(monkeypatch, K, W, eps_b, eps_e, eps_k):
    """A chain built from an injected innovation table."""
    monkeypatch.setattr("srlnc.chain.RankTables",
                        lambda K, q, p: SimpleNamespace(W=W))
    return build_chain(CodeParams(K=K, q=2, p=0.6, n_hat=2 * K),
                       ChannelParams(eps_b=eps_b, eps_e=eps_e, eps_k=eps_k))


def test_build_rejects_a_transition_outside_the_unit_interval(monkeypatch):
    # W = 1.5: the first row hit is Bob done, Eve one short, where Eve's
    # "stays" entry (1 - eps_k)(1 - advance) = 0.5 * (1 - 1.5) < 0.
    K = 3
    label = label_of(ChainState(0, 1), K)
    with pytest.raises(NumericalIntegrityError,
                       match=rf"transition to {label - K - 2} has probability "
                             r"-0.25 outside \[0, 1\]") as err:
        _chain_with_W(monkeypatch, K, (1.5,) * K, 0.0, 0.0, 0.5)
    assert f"row {label} ({state_of(label, K)})" in str(err.value)


def test_build_rejects_non_self_transitions_summing_above_one(monkeypatch):
    # W = 1.5 with eps_e = 0.5 keeps every entry <= 1, but with Bob one
    # short and Eve done the two ACK branches carry 0.75 each.
    K = 3
    label = label_of(ChainState(1, 0), K)
    with pytest.raises(NumericalIntegrityError,
                       match="non-self transitions sum to 1.5 > 1") as err:
        _chain_with_W(monkeypatch, K, (1.5,) * K, 0.0, 0.5, 0.5)
    assert f"row {label} ({state_of(label, K)})" in str(err.value)


def _rebuilt(P, trips):
    """A TransitionMatrix over P's labels holding exactly the given entries."""
    src, dst, prob = (np.array(col) for col in zip(*trips))
    return TransitionMatrix(P.K, P.mode, src, dst, prob)


def _verify_rejects(label, edit, phrase):
    """Replace row `label` of a valid K=3 chain by edit(row), both lists of
    (dst, prob), and expect verify() to reject it naming the row."""
    P = _chain(3, 2, 0.6, 0.1, 0.3, 0.8)
    row = [(j, w) for i, j, w in P.triplets() if i == label]
    trips = sorted([t for t in P.triplets() if t[0] != label]
                   + [(label, j, w) for j, w in edit(row)])
    with pytest.raises(NumericalIntegrityError, match=phrase) as err:
        _rebuilt(P, trips).verify()
    message = str(err.value)
    assert f"row {label} ({state_of(label, 3)})" in message, message


def test_verify_accepts_a_rebuilt_chain():
    P = _chain(3, 2, 0.6, 0.1, 0.3, 0.8)
    _rebuilt(P, P.triplets()).verify()


def test_verify_rejects_a_destination_above_the_diagonal_or_out_of_range():
    start = initial_label(3)
    for bad in (start + 1, -1):
        _verify_rejects(start, lambda row: [(bad if j == start else j, w)
                                            for j, w in row],
                        "not lower-triangular or out of range")


def test_verify_rejects_a_probability_outside_the_unit_interval():
    label = initial_label(3) - 1
    for bad in (-1e-3, 1.0 + 1e-6, float("nan")):
        _verify_rejects(label, lambda row: [(j, bad if j == label - 1 else w)
                                            for j, w in row],
                        r"outside \[0, 1\]")


def test_verify_rejects_rows_that_do_not_sum_to_one():
    start = initial_label(3)
    _verify_rejects(start, lambda row: [(j, w * 0.999) for j, w in row],
                    "sum to")
    _verify_rejects(start, lambda row: [], "sum to 0.0")  # no entries at all


def test_verify_rejects_absorbing_rows_that_are_not_pure_self_loops():
    _verify_rejects(3, lambda row: [(2, 1.0)], "absorbing")  # leaks
    _verify_rejects(0, lambda row: [(0, 0.5), (0, 0.5)], "absorbing")  # split


def test_verify_rejects_a_label_outside_the_state_space():
    P = _chain(3, 2, 0.6, 0.1, 0.3, 0.8)
    S = n_states(3)
    trips = P.triplets() + [(S, S - 1, 1.0)]
    with pytest.raises(NumericalIntegrityError, match=f"row label {S} "):
        _rebuilt(P, trips).verify()


def test_blackout_channel_self_loops():
    # nothing is ever received: every (d_B>=1, d_E>=1) row self-loops
    K = 3
    P = _chain(K, 2, 0.6, 1.0, 1.0, 1.0)
    for i, j, w in P.triplets():
        if w == 0.0:
            continue
        st_i = state_of(i, K)
        if st_i.bob_defect >= 1 and st_i.eve_defect >= 1:
            assert (j, w) == (i, 1.0)
    assert intercept_probability(P, 50) == 0.0


def test_intercept_trivial_cases():
    P = _chain(3, 2, 0.6, 0.1, 0.3, 0.9)
    assert intercept_probability(P, 0) == 0.0
    blind = _chain(2, 2, 0.6, 0.2, 1.0, 0.9)
    for n in (0, 1, 4, 16):
        assert intercept_probability(blind, n) == 0.0


def test_intercept_hand_case_k1():
    # per slot the lone coefficient is nonzero w.p. 0.5; two slots
    P = _chain(1, 2, 0.5, 0.0, 0.0, 1.0, n_hat=2)
    assert intercept_probability(P, 2) == pytest.approx(0.75, abs=1e-12)


def test_intercept_monotone_in_budget():
    P = _chain(3, 2, 0.65, 0.1, 0.3, 0.9)
    vals = [intercept_probability(P, n) for n in range(13)]
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1e-12
    # absorbing chain: the tail converges
    assert intercept_probability(P, 400) == pytest.approx(
        intercept_probability(P, 500), abs=1e-9)


def test_fully_jammed_feedback_never_reaches_ack_states():
    code = CodeParams(K=4, q=2, p=0.7, n_hat=16)
    chan = ChannelParams(eps_b=0.1, eps_e=0.3, eps_k=1.0)
    P = build_chain(code, chan)
    for n in range(16 + 1):
        dist = P.distribution(n)
        assert float(dist.sum()) == pytest.approx(1.0, abs=1e-9), n
        # delta=1 labels are 0..K; with eps_k=1 they must stay empty
        assert float(dist[: 4 + 1].sum()) == 0.0, n


def test_path_enumeration_agreement():
    # exhaustive walk over every transition path must reproduce the
    # propagated intercept exactly
    for K in (1, 2):
        for mode in TRANSITION_MODES:
            for eps_k in (0.8, 1.0):
                P = _chain(K, 2, 0.6, 0.1, 0.3, eps_k, mode)
                for n_hat in range(5):
                    want = chain_intercept_by_paths(P, n_hat)
                    got = intercept_probability(P, n_hat)
                    assert got == pytest.approx(want, abs=1e-12), (K, mode, n_hat)


@pytest.mark.parametrize("q, p", [(2, 0.7), (16, 0.3)])
@pytest.mark.parametrize("mode", TRANSITION_MODES)
@pytest.mark.parametrize("eps_k", [0.0, 0.9])
def test_distribution_matches_dense_propagation(q, p, mode, eps_k):
    P = _chain(20, q, p, 0.05, 0.3, eps_k, mode)
    for n_hat in (0, 1, 7, 40):
        want = chain_distribution_dense(P, n_hat)
        got = P.distribution(n_hat)
        assert np.max(np.abs(got - want)) <= 1e-12, n_hat


def test_modes_coincide_when_feedback_is_fully_jammed():
    code = CodeParams(K=4, q=2, p=0.7, n_hat=16)
    chan = ChannelParams(eps_b=0.05, eps_e=0.3, eps_k=1.0)
    a = build_chain(code, chan, "paper-exact").triplets()
    b = build_chain(code, chan, "consistent").triplets()
    assert a == b


def test_modes_differ_exactly_by_the_acknowledgment_swap():
    # The two variants disagree only on rows where Bob is done, the ACK is
    # pending, and Eve still lacks packets; there, the masses on the two
    # frozen destinations (d_E and d_E - 1) trade places.  Everything else
    # must be identical entry for entry.
    K = 5
    code = CodeParams(K=K, q=2, p=0.6, n_hat=20)
    chan = ChannelParams(eps_b=0.05, eps_e=0.3, eps_k=0.5)
    rows_pe: dict[int, dict[int, float]] = {}
    rows_co: dict[int, dict[int, float]] = {}
    for i, j, w in build_chain(code, chan, "paper-exact").triplets():
        rows_pe.setdefault(i, {})[j] = w
    for i, j, w in build_chain(code, chan, "consistent").triplets():
        rows_co.setdefault(i, {})[j] = w
    assert rows_pe.keys() == rows_co.keys()
    for i in rows_pe:
        st_i = state_of(i, K)
        if st_i.ack_received or st_i.bob_defect != 0 or st_i.eve_defect == 0:
            assert rows_pe[i] == rows_co[i], i
            continue
        d_e = st_i.eve_defect
        swapped = dict(rows_co[i])
        swapped[d_e], swapped[d_e - 1] = swapped[d_e - 1], swapped[d_e]
        assert rows_pe[i] == pytest.approx(swapped, abs=1e-15), i


def test_unknown_mode_rejected():
    code = CodeParams(K=3, q=2, p=0.6, n_hat=12)
    chan = ChannelParams(eps_b=0.1, eps_e=0.2, eps_k=1.0)
    for mode in ("other", "exact"):
        with pytest.raises(ConfigError):
            build_chain(code, chan, mode)


def test_delivery_trivial_and_hand_cases():
    # all of Bob's packets erased
    code = CodeParams(K=3, q=2, p=0.6, n_hat=12)
    assert delivery_probability(
        code, ChannelParams(eps_b=1.0, eps_e=1.0, eps_k=1.0)) == 0.0
    # K=1, two slots, lossless: P(a 2x1 classic matrix is nonzero) = 3/4
    one = CodeParams(K=1, q=2, p=0.5, n_hat=2)
    assert delivery_probability(
        one, ChannelParams(eps_b=0.0, eps_e=0.0, eps_k=1.0)
    ) == pytest.approx(0.75, abs=1e-12)
    # budget below K is an empty sum
    assert delivery_probability(
        code, ChannelParams(eps_b=0.1, eps_e=0.2, eps_k=1.0), n_hat=2) == 0.0


def test_delivery_matches_monte_carlo():
    # classic endpoint so the analytical side is exact; 3 sigma on the sim
    code = CodeParams(K=20, q=2, p=0.5, n_hat=40)
    chan = ChannelParams(eps_b=0.01, eps_e=0.26, eps_k=1.0)
    want = delivery_probability(code, chan)
    stats = estimate(SimConfig(code=code, chan=chan, trials=5000, base_seed=17))
    sigma = max(stats.delivery_ci / 1.96, 1e-4)
    assert abs(stats.delivery_hat - want) <= 3 * sigma


def test_chain_delivery_examples():
    code = CodeParams(K=4, q=2, p=0.7, n_hat=200)
    chan = ChannelParams(eps_b=0.0, eps_e=0.3, eps_k=1.0)
    P = build_chain(code, chan, "paper-exact")
    assert chain_delivery_probability(P, 0) == 0.0
    # huge budget, lossless Bob channel: both receivers finish almost surely,
    # so even the narrow label window of this formula fills up
    assert chain_delivery_probability(P, 50 * 4) >= 0.9999


def test_chain_delivery_against_the_binomial_form():
    # The chain-side formula only counts ACK-received labels plus (0,0,0),
    # so it can credit Bob's decode no earlier than the ACK or Eve's own
    # completion.  Within 0.05 of the binomial form when Eve's channel is
    # as good as Bob's; exact when the feedback never fails.
    code5 = CodeParams(K=5, q=2, p=0.5, n_hat=10)
    sym = ChannelParams(eps_b=0.05, eps_e=0.05, eps_k=1.0)
    direct = delivery_probability(code5, sym)
    P5 = build_chain(code5, sym, "paper-exact")
    assert chain_delivery_probability(P5, 10) == pytest.approx(direct, abs=0.05)

    instant_ack = ChannelParams(eps_b=0.05, eps_e=0.3, eps_k=0.0)
    Pi = build_chain(code5, instant_ack, "paper-exact")
    assert chain_delivery_probability(Pi, 10) == pytest.approx(
        delivery_probability(code5, instant_ack), abs=1e-9)

    # and the documented blind spot: with the ACK channel fully jammed and
    # Eve much worse off than Bob, the window misses Bob-done states, so
    # the chain figure sits far below the binomial one
    lopsided = ChannelParams(eps_b=0.05, eps_e=0.3, eps_k=1.0)
    Pl = build_chain(code5, lopsided, "paper-exact")
    assert (delivery_probability(code5, lopsided)
            - chain_delivery_probability(Pl, 10)) > 0.2


def test_intercept_monotone_in_p_on_the_restricted_grid():
    # Largely nonincreasing in p up to 0.75 for the strongly jammed family.
    # Two measured qualifications, both inherited from the innovation table:
    # the grid starts just above 1/q (the exact classic branch sits below
    # the approximation, so mixing them steps upward), and a 2.5e-3 slack
    # absorbs the micro-upticks near 0.75 where the openly non-monotone
    # stretch of 0.75..0.85 begins.
    for q, grid in ((2, [0.52, 0.55, 0.6, 0.65, 0.7, 0.75]),
                    (16, [1 / 16 + 0.01, 0.2, 0.35, 0.5, 0.65, 0.75])):
        for eps_b in (0.01, 0.05, 0.1):
            for eps_k in (0.85, 0.9, 0.95, 1.0):
                chan = ChannelParams(eps_b=eps_b, eps_e=eps_b + 0.25,
                                     eps_k=eps_k)
                vals = []
                for p in grid:
                    code = CodeParams(K=20, q=q, p=p, n_hat=40)
                    P = build_chain(code, chan, "paper-exact")
                    vals.append(intercept_probability(P, 40))
                for a, b in zip(vals, vals[1:]):
                    assert b <= a + 2.5e-3, (q, eps_b, eps_k, vals)


def test_intercept_seam_step_is_the_known_exception():
    # the classic endpoint evaluates exactly while the approximation just
    # above it overshoots; pin the direction so the seam stays visible
    chan = ChannelParams(eps_b=0.1, eps_e=0.35, eps_k=1.0)
    vals = []
    for p in (0.5, 0.55):
        code = CodeParams(K=20, q=2, p=p, n_hat=40)
        P = build_chain(code, chan, "paper-exact")
        vals.append(intercept_probability(P, 40))
    assert vals[1] > vals[0] + 0.01
