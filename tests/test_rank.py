"""Rank and innovation probability tables.

The closed forms at p = 1/q are exact; away from that point the model is an
approximation, so tests split into exact assertions (classic endpoint, rho,
the recursion base) and tolerance assertions against exact enumeration.
"""

import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MpRowCountModel,
    budget_baseline,
    classic_full_rank,
    classic_innovation,
    empirical_rank,
    full_rank_column_by_loop,
    innovation_table_by_loop,
    pi_table_by_loop,
    sparse_full_rank_gf2,
    sparse_innovation_gf2,
)
from srlnc import (
    ChannelParams,
    CodeParams,
    ConfigError,
    RankTables,
    classic_full_rank_prob,
    classic_innovation_prob,
    exact_full_rank_prob,
    exact_innovation_prob,
)
from srlnc import rank
from srlnc.rank import _fill_full_rank


def test_rho_hand_values():
    # p = 1/q: a single sparse column entry is zero w.p. 1/2, so 0.5^3
    assert RankTables(2, 0.5).rho(1, 3) == pytest.approx(0.125, abs=1e-15)
    # combination of two biased bits is zero w.p. p^2 + (1-p)^2
    assert RankTables(2, 0.7).rho(2, 1) == pytest.approx(0.58, abs=1e-15)
    # zero-height columns: empty product
    assert RankTables(2, 0.6).rho(5, 0) == 1.0


def test_rho_rejects_negative_arguments():
    model = RankTables(2, 0.6)
    with pytest.raises(ConfigError):
        model.rho(-1, 3)
    with pytest.raises(ConfigError):
        model.rho(1, -3)
    # non-integer counts are refused too, whichever argument they are in
    for c, r in ((1.5, 3), (2, 3.5)):
        with pytest.raises(ConfigError):
            model.rho(c, r)
    assert model.rho(np.int64(2), np.int64(3)) == model.rho(2, 3)


def test_rho_against_direct_convolution():
    # P(sum of c biased GF(2) bits = 0) per row, independent rows
    for c in range(0, 6):
        for p in (0.5, 0.6, 0.8):
            per_row = sum(
                math.comb(c, k) * (1 - p) ** k * p ** (c - k)
                for k in range(0, c + 1, 2)
            )
            for r in (0, 1, 3):
                assert RankTables(2, p).rho(c, r) == pytest.approx(per_row**r,
                                                                   abs=1e-12)


# p grids of the rho parity test, fixed before it was first run
_RHO_PARITY_P = {
    2: (0.5, 0.501, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99),
    16: (1 / 16, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99),
}


@pytest.mark.parametrize("q", [2, 16])
def test_scalar_rho_is_the_rho_the_tables_use(q):
    # the kernel raises each per-row probability to the power r with numpy's
    # pow; the scalar rho must give the same float, and pi(1, r) = rho(1, r)
    r = np.arange(41)
    for p in _RHO_PARITY_P[q]:
        model = RankTables(q, p)
        kernel = rank._power(np.array(model._per_rows(20))[:, None], r)[:, 0]
        for c in range(21):
            for k in r.tolist():
                want = float(kernel[c, k]).hex()
                assert model.rho(c, k).hex() == want, (p, c, k)
        for k in r.tolist():
            assert model.pi(1, k) == model.rho(1, k), (p, k)


def test_pi_recursion_first_step_uses_the_row_count_factor():
    t = RankTables(2, 0.7)
    # the first-order term is the base case
    assert t.pi(1, 3) == t.rho(1, 3)
    # one step of the recursion: the factor is rho(s, r), here rho(1, 3)
    assert t.pi(2, 3) == pytest.approx(t.rho(2, 3) - t.rho(1, 3) * t.pi(1, 3),
                                       abs=1e-15)


def test_classic_closed_forms_match_exact_rationals():
    for q in (2, 16):
        for r in range(0, 11):
            for c in range(0, r + 1):
                want = float(classic_full_rank(r, c, q))
                assert classic_full_rank_prob(r, c, q) == pytest.approx(
                    want, abs=1e-12)
        for K in range(1, 11):
            for t in range(K):
                want = float(classic_innovation(t, K, q))
                assert classic_innovation_prob(t, K, q) == pytest.approx(
                    want, abs=1e-12)


def test_model_collapses_to_classic_at_p_equals_one_over_q():
    for q in (2, 16):
        p = 1.0 / q
        tables = RankTables(q, p)
        assert tables.classic
        for t in range(8):
            assert tables.W(8)[t] == pytest.approx(
                classic_innovation_prob(t, 8, q), abs=1e-14)
        for r in range(8, 13):
            assert tables.full_rank_prob(r, 8) == pytest.approx(
                classic_full_rank_prob(r, 8, q), abs=1e-14)


def test_full_rank_prob_edges():
    model = RankTables(2, 0.6)
    assert model.full_rank_prob(0, 0) == 1.0
    assert model.full_rank_prob(5, 0) == 1.0
    assert RankTables(2, 0.5).full_rank_prob(1, 1) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ConfigError):
        model.full_rank_prob(2, 3)  # more columns than rows
    with pytest.raises(ConfigError):
        model.full_rank_prob(3, -1)
    # numpy integers are integers; floats are not
    assert model.full_rank_prob(np.int64(5), 4) == model.full_rank_prob(5, 4)
    for r, c in ((5.0, 4), (5, 2.5)):
        with pytest.raises(ConfigError):
            model.full_rank_prob(r, c)


def test_p_domain_is_enforced():
    for bad in (0.3, 1.0, -0.1):
        with pytest.raises(ConfigError):
            RankTables(2, bad)
    with pytest.raises(ConfigError):
        RankTables(16, 0.05)  # below 1/16


def test_full_rank_prob_against_enumeration():
    # model tolerance on small matrices; exact enumeration is the judge.
    # Square cells carry the peak error (the acceptance suite prints the
    # full signed table and the one cell that exceeds 0.05).
    for (r, c) in [(2, 1), (3, 2), (3, 3), (4, 3)]:
        for p in (0.5, 0.6, 0.7, 0.8):
            want = exact_full_rank_prob(r, c, p, 2)
            got = RankTables(2, p).full_rank_prob(r, c)
            assert got == pytest.approx(want, abs=0.05)


def test_enumeration_matches_fraction_dp():
    # two independent ground-truth implementations must agree tightly
    for (r, c) in [(1, 1), (2, 2), (3, 1), (3, 3), (4, 2), (4, 4), (5, 3)]:
        for p in (0.5, 0.6, 0.8):
            dp = float(sparse_full_rank_gf2(r, c, p))
            assert exact_full_rank_prob(r, c, p, 2) == pytest.approx(
                dp, abs=1e-10), (r, c, p)


def test_enumeration_gf16_spot_value():
    # single column: P(non-zero) = 1 - p^r for any field
    assert exact_full_rank_prob(2, 1, 0.3, 16) == pytest.approx(
        1 - 0.3**2, abs=1e-12)
    # and the two-column case agrees with the classic form at p = 1/16
    assert exact_full_rank_prob(2, 2, 1 / 16, 16) == pytest.approx(
        classic_full_rank_prob(2, 2, 16), abs=1e-12)


@pytest.mark.parametrize("q, r, c", [(8, 3, 2), (32, 2, 2), (64, 3, 1),
                                     (128, 2, 1)])
def test_enumeration_matches_classic_form_at_wide_lanes(q, r, c):
    # At p = 1/q the law is uniform, so the enumeration must give the classic
    # product; these fields pack their elements into lanes wider than m bits.
    assert exact_full_rank_prob(r, c, 1 / q, q) == pytest.approx(
        classic_full_rank_prob(r, c, q), abs=1e-12)


def test_enumeration_refuses_oversized_jobs():
    with pytest.raises(ConfigError):
        exact_full_rank_prob(6, 6, 0.6, 2)
    with pytest.raises(ConfigError):
        exact_full_rank_prob(3, 4, 0.6, 2)  # r < c
    with pytest.raises(ConfigError):
        exact_full_rank_prob(3, 2.5, 0.6, 2)
    with pytest.raises(ConfigError):
        exact_innovation_prob(1.5, 3, 0.6, 2)
    assert (exact_full_rank_prob(np.int64(3), np.int64(2), 0.6, 2)
            == exact_full_rank_prob(3, 2, 0.6, 2))
    assert (exact_innovation_prob(np.int64(1), np.int64(3), 0.6, 2)
            == exact_innovation_prob(1, 3, 0.6, 2))


def test_innovation_table_hand_checks():
    W = RankTables(2, 0.6).W(3)
    assert W[0] == pytest.approx(1 - 0.6**3, abs=1e-15)
    want = float(sparse_innovation_gf2(1, 3, 0.6))
    assert W[1] == pytest.approx(want, abs=0.05)
    assert exact_innovation_prob(1, 3, 0.6, 2) == pytest.approx(want, abs=1e-10)
    # classic K=20 spot value used by the CLI table test as well
    assert RankTables(2, 0.5).W(20)[19] == pytest.approx(0.5, abs=1e-15)


def test_innovation_table_validates_K():
    tables = RankTables(2, 0.6)
    assert len(tables.W(4)) == 4
    # numpy integers count as integers for K and pi's arguments
    assert tables.pi(2, np.int64(3)) == tables.pi(2, 3)
    assert tables.W(np.int64(20)) is tables.W(20)
    for ell, r in ((1.5, 3), (2, 3.5)):
        with pytest.raises(ConfigError):
            tables.pi(ell, r)
    for K in (0, 2.5, 4.0):
        with pytest.raises(ConfigError):
            tables.W(K)


def test_w_monotone_in_t():
    # nonincreasing in t on both branches, classic endpoint included
    for q, ps in ((2, [0.5, 0.52, 0.6, 0.7, 0.8, 0.9, 0.95]),
                  (16, [1 / 16, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95])):
        for K in (5, 12, 20):
            for p in ps:
                W = RankTables(q, p).W(K)
                for t in range(K - 1):
                    assert W[t + 1] <= W[t] + 1e-12, (K, q, p, t)


def test_w_monotone_in_p_on_the_sound_range():
    # Nonincreasing in p at fixed t, asserted for p in (1/q, 0.90].  The
    # two ends are excluded on purpose and pinned separately below: the
    # exact classic branch at p = 1/q sits under the approximation's limit
    # for t near K, and above ~0.9 the deepest row can tick upward.
    for q, ps in ((2, [0.52, 0.6, 0.7, 0.8, 0.9]),
                  (16, [1 / 16 + 0.01, 0.2, 0.4, 0.6, 0.8, 0.9])):
        for K in (5, 12, 20):
            rows = [RankTables(q, p).W(K) for p in ps]
            for t in range(K):
                for a, b in zip(rows, rows[1:]):
                    assert b[t] <= a[t] + 1e-12, (K, q, t)


def test_w_seam_and_tail_exceptions_are_the_known_ones():
    # (1) seam: the approximation does not converge to the exact classic
    # value as p -> 1/q from above; near t = K the limit overshoots, so a
    # grid that mixes the two branches is not monotone there.
    classic = RankTables(2, 0.5).W(20)[19]
    above = RankTables(2, 0.500001).W(20)[19]
    assert classic == pytest.approx(0.5, abs=1e-12)
    assert above > classic + 0.05
    # (2) extreme tail: the deepest row turns upward past ~0.92 at K=20
    assert RankTables(2, 0.94).W(20)[19] > RankTables(2, 0.92).W(20)[19]
    # shallower rows stay monotone through the full searchable range
    for t in range(19):
        assert (RankTables(2, 0.95).W(20)[t]
                <= RankTables(2, 0.92).W(20)[t] + 1e-12), t


def test_tables_are_clamped_probabilities():
    for p in (0.55, 0.75, 0.9, 0.97):
        tables = RankTables(2, p)
        assert all(0.0 <= w <= 1.0 for w in tables.W(10))
        for r in range(10, 21):
            assert 0.0 <= tables.full_rank_prob(r, 10) <= 1.0


@pytest.mark.parametrize("q", [2, 16, 256])
def test_innovation_table_matches_the_loop_over_orders(q):
    for K in (1, 2, 3, 9, 20, 40, 70):
        for p in (1.0 / q + 1e-9, 0.6, 0.9, 0.99):
            tables = RankTables(q, p)
            want = innovation_table_by_loop(tables, K)
            assert np.array(tables.W(K)).tobytes() == np.array(want).tobytes(), (K, p)


@pytest.mark.parametrize("q", [2, 4, 16, 256])
def test_overflowing_innovation_exponent_is_clipped_without_numpy_warnings(
        q, caplog):
    # At K=30, p=0.99 the exponent of W overflows; the clipped table must
    # come back with the library's own log warning and no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        W = RankTables(q, 0.99).W(30)
    assert len(W) == 30
    assert all(0.0 <= w <= 1.0 for w in W)
    assert any(r.name == "srlnc.rank" and r.levelname == "WARNING"
               and "innovation table not monotone" in r.getMessage()
               for r in caplog.records)


# Sparsities the table path is pinned at: both ends of the search range and
# points between, per field.
_PINNED_P = {2: (0.5 + 1e-9, 0.55, 0.7, 0.85, 0.9, 0.95),
             16: (1 / 16 + 1e-9, 0.1, 0.3, 0.6, 0.85, 0.95)}


@pytest.mark.parametrize("q", (2, 16))
def test_tables_match_a_40_digit_evaluation(q):
    K = 20
    for p in _PINNED_P[q]:
        tables = RankTables(q, p)
        mp = MpRowCountModel(q, p)
        for r in range(K, 101):
            assert abs(tables.full_rank_prob(r, K) - mp.full_rank(r, K)) <= 1e-12, (p, r)
        for t, want in enumerate(mp.innovation(K)):
            assert abs(tables.W(K)[t] - want) <= 1e-12, (p, t)


def test_binomial_rows_are_the_exact_coefficients_rounded_once():
    # Every row up to 1029 against Pascal's rule over integers, built apart
    # from the package's recurrence, through the uncached builder; rows up to
    # 60 are the floats of math.comb the model has always read.  Then the
    # cached rows at the n where log-gamma is off by 4.3e-14 to 1.7e-12.
    exact = [1]
    for n in range(1030):
        assert rank._binom_row.__wrapped__(n).tolist() == [float(b) for b in exact], n
        exact = [1, *map(operator.add, exact, exact[1:]), 1]
    for n in (61, 100, 200, 1029):
        row = rank._binom_row(n)
        assert row.tolist() == [float(math.comb(n, k)) for k in range(n + 1)], n
        assert not row.flags.writeable


# (q, N̂, p*): optimize-fig2 solves (K = 20, eps_b = 0.05, D̂ = 0.99) whose
# reception sums read the binomial rows above 60.
_FIG2_ROOTS = ((2, 80, "0x1.cf243999fd7e8p-1"), (16, 91, "0x1.d4d66f99e507bp-1"))


@pytest.mark.parametrize("q, n_hat, p", _FIG2_ROOTS)
def test_delivery_above_budget_60_matches_a_40_digit_reception_sum(q, n_hat, p):
    p = float.fromhex(p)
    got = rank.delivery_probability(CodeParams(K=20, q=q, p=p, n_hat=n_hat),
                                    ChannelParams(eps_b=0.05, eps_e=0.2, eps_k=1.0))
    want = MpRowCountModel(q, p).reception_sum(20, n_hat, 0.05)
    assert abs(got - want) <= 1e-14


def test_full_rank_vector_matches_the_scalar_reads():
    tables = RankTables(16, 0.4)
    vec = tables.full_rank_probs(8, 30)
    assert len(vec) == 23
    assert vec.tolist() == [tables.full_rank_prob(r, 8) for r in range(8, 31)]
    with pytest.raises(ConfigError):
        tables.full_rank_probs(8, 7)


def test_widened_table_equals_one_built_at_full_width():
    for q, p in ((2, 0.7), (16, 0.3)):
        grown = RankTables(q, p)
        narrow = grown.full_rank_probs(20, 40).copy()
        wide = grown.full_rank_probs(20, 100)
        direct = RankTables(q, p)
        assert np.array_equal(wide, direct.full_rank_probs(20, 100))
        assert np.array_equal(narrow, wide[:21])


# Sparsities, besides 1/q + 1e-9 just above classic, at which the
# order-at-a-time pi kernel is held to its term-at-a-time loop: through the
# middle, up to where the approximation breaks down.
_PARITY_P = (0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.9999)
# (20, 21) leaves the order-20 full-rank column one entry wide, the shape in
# which numpy's sum over the orders would switch to pairwise addition.
_PARITY_SIZES = ((1, 5), (2, 3), (20, 21), (20, 22), (20, 176), (61, 200))


def _assert_model_matches_the_loops(q, p, L, R):
    model = RankTables(q, p)
    table = rank._pi_kernel(np.array(model._per_rows(L))[:, None], np.arange(R))[:, 0]
    assert table.shape == (L, R)
    assert table.tobytes() == pi_table_by_loop(model, L, R).tobytes(), (L, R)
    for c in sorted({1, 2, L // 2, L - 1, L} - {0}):
        if c >= R:
            continue
        got = model.full_rank_probs(c, R - 1)
        want = full_rank_column_by_loop(model, c, R - 1)
        assert got.tobytes() == want.tobytes(), (L, R, c)


# The ids name the pi recursion's reading (row-count) the parity covers.
@pytest.mark.parametrize("q", [2, 4, 16, 256], ids=lambda q: f"row-count-{q}")
def test_pi_table_and_full_rank_columns_match_the_term_loops(q):
    for p in (1.0 / q + 1e-9, *(p for p in _PARITY_P if p > 1.0 / q)):
        for L, R in _PARITY_SIZES:
            _assert_model_matches_the_loops(q, p, L, R)


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 4, 16, 256]),
    u=st.floats(1e-9, 1.0 - 1e-9),
    L=st.integers(1, 40),
    R=st.integers(1, 90),
)
def test_pi_recursion_by_orders_equals_the_term_loop(q, u, L, R):
    p = 1.0 / q + u * (1.0 - 1.0 / q)
    if not 1.0 / q < p < 1.0:
        return
    _assert_model_matches_the_loops(q, p, L, R)


def _batch_ps(q):
    # just above classic, through the middle, and where the exponent overflows
    return [1.0 / q + 1e-9,
            *(p for p in (0.3, 0.6, 0.9, 0.99, 0.9999) if p > 1.0 / q)]


def _assert_rows_match_models_built_alone(models, c, r_max):
    for m in models:
        alone = RankTables(m.q, m.p).full_rank_probs(c, r_max)
        got = m.full_rank_probs(c, r_max)
        assert got.tobytes() == alone.tobytes(), (m.q, m.p, c, r_max)


# (c, r_max): one-column batches (r = 2 alone is where numpy would square a
# broadcast exponent instead of calling pow), single orders, the figure
# sizes and one beyond them.
_BATCH_SIZES = ((1, 1), (2, 2), (2, 9), (5, 30), (20, 20), (20, 21),
                (20, 100), (40, 120))


@pytest.mark.parametrize("q", [2, 4, 16, 256])
def test_batched_full_rank_rows_equal_each_p_built_alone(q):
    for c, r_max in _BATCH_SIZES:
        models = [RankTables(q, p) for p in _batch_ps(q)]
        _fill_full_rank(models, c, r_max)
        _assert_rows_match_models_built_alone(models, c, r_max)


@pytest.mark.parametrize("q", [2, 4, 16, 256])
def test_batch_over_models_of_different_cached_widths(q):
    # each short model gets its whole column, and the classic model is
    # left to its own closed form
    models = [RankTables(q, p) for p in (1.0 / q, *_batch_ps(q))]
    models[1].full_rank_probs(20, 20)  # one entry, r = 20
    models[2].full_rank_probs(20, 45)  # r = 20 .. 45
    _fill_full_rank(models[3:5], 20, 33)
    _fill_full_rank(models[5:], 20, 25)
    _fill_full_rank(models, 20, 90)
    assert all(len(m._full_rank[20]) >= 71 for m in models[1:])
    _assert_rows_match_models_built_alone(models, 20, 90)
    _fill_full_rank(models, 20, 64)  # nothing lacking: nothing changes
    _assert_rows_match_models_built_alone(models, 20, 64)


@pytest.mark.parametrize("q", [2, 16])
def test_a_model_filled_in_budget_order_holds_the_column_built_whole(q):
    # optimize-fig2's budgets at K = 20: every fifth from 21, then 80
    shared = [RankTables(q, p) for p in _batch_ps(q)]
    for N in (*range(21, 80, 5), 80):
        rank.decoding_probabilities(shared, 20, N, 0.05)
    for m in shared:
        whole = RankTables(q, m.p).full_rank_probs(20, 80)
        assert m._full_rank[20].tobytes() == whole.tobytes(), m.p


def test_a_narrower_read_after_a_wider_one_runs_no_kernel(monkeypatch):
    model = RankTables(2, 0.7)
    wide = model.full_rank_probs(20, 60)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel called for a column already stored")

    monkeypatch.setattr(rank, "_pi_kernel", refuse)
    monkeypatch.setattr(rank, "_full_rank_kernel", refuse)
    stored = model._full_rank[20]
    narrow = model.full_rank_probs(20, 33)
    assert model._full_rank[20] is stored
    assert np.shares_memory(narrow, stored)
    assert narrow.tobytes() == wide[:14].tobytes()
    [got] = rank.decoding_probabilities([model], 20, 40, 0.05)
    assert 0.0 <= got <= 1.0


@pytest.mark.parametrize("p, q, c", [(0.9999, 2, 20), (0.99, 2, 40)])
def test_overflowing_full_rank_exponent_is_logged_not_warned(p, q, c, caplog):
    # The full-rank exponent overflows at these points; the column must come
    # back clipped, with one srlnc.rank log record naming (q, p, c) and no
    # RuntimeWarning.
    model = RankTables(q, p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = model.full_rank_probs(c, c)
        widened = model.full_rank_probs(c, 3 * c)
    assert np.array_equal(first, widened[:1])
    assert np.all((widened >= 0.0) & (widened <= 1.0))
    records = [r for r in caplog.records
               if r.name == "srlnc.rank" and "full-rank exponent overflows" in r.getMessage()]
    assert len(records) == 1
    assert records[0].levelname == "WARNING"
    assert f"q={q} p={p:g} c={c};" in records[0].getMessage()


# R̂ of one seeded draw of 20000 streams against exact values.  Every cell
# must lie within 4 sigma of the exact probability P, with sigma =
# sqrt(P (1 - P) / streams); over the 40 cells a false failure has a chance
# of at most about 0.25%.  Seed and grid were fixed before the first run.
_STREAMS, _SEED = 20000, 1


def _assert_within_4_sigma(cells):
    """cells: {n: (R̂, exact P)}."""
    far = {n: (r, P) for n, (r, P) in cells.items()
           if abs(r - P) > 4.0 * math.sqrt(P * (1.0 - P) / _STREAMS)}
    assert not far, f"n: (R̂, exact) beyond 4 sigma: {far}"


@pytest.mark.parametrize("p", [0.6, 0.8])
@pytest.mark.parametrize("q, K, ns", [(2, 3, (3, 4, 5)), (2, 4, (4, 5)),
                                      (4, 2, (2, 3, 4)), (4, 3, (3,))])
def test_empirical_rank_matches_enumeration(q, K, ns, p):
    rhat = empirical_rank(K, q, max(ns), _STREAMS, _SEED)(p)
    _assert_within_4_sigma(
        {n: (rhat[n], exact_full_rank_prob(n, K, p, q)) for n in ns})


@pytest.mark.parametrize("q", [2, 16])
def test_empirical_rank_matches_the_classic_closed_form(q):
    rhat = empirical_rank(20, q, 30, _STREAMS, _SEED)(1.0 / q)
    _assert_within_4_sigma(
        {n: (rhat[n], classic_full_rank_prob(n, 20, q)) for n in range(20, 31)})


@pytest.mark.parametrize("q", [2, 16])
def test_decoding_probabilities_at_p_1_over_q_equal_the_exact_sum(q):
    # the receiver's binomial sum over the classic full-rank form, against
    # the Fraction oracle at K = 20 and every budget N = 21 .. 40
    model = rank._model(q, 1.0 / q)
    for eps in (0.05, 0.1, 0.2, 0.35):
        D = budget_baseline(20, q, 40, eps, eps, 0.9)[0]
        for N in range(21, 41):
            [got] = rank.decoding_probabilities([model], 20, N, eps)
            assert abs(got - float(D[N])) <= 1e-12, (eps, N)


# (q, eps_b, eps_e): the randomised classic budget's intercept at D̂ = 0.9,
# 0.95, 0.99 (K = 20, N <= 40, eps_K = 1), and its n_budget where pinned
_BUDGET_PINS = {
    (2, 0.05, 0.2): ((0.3519, 0.4985, 0.7692), (25, 27, 29)),
    (2, 0.1, 0.35): ((0.0991, 0.1675, 0.3841), None),
    (16, 0.05, 0.2): ((0.1653, 0.2536, 0.4327), (23, 23, 24)),
    (16, 0.1, 0.35): ((0.0391, 0.0711, 0.1690), None),
}


@pytest.mark.parametrize("key", sorted(_BUDGET_PINS))
def test_budget_baseline_reproduces_the_randomised_classic_budget(key):
    q, eps_b, eps_e = key
    intercepts, budgets = _BUDGET_PINS[key]
    for i, d_hat in enumerate((0.9, 0.95, 0.99)):
        _, _, n_budget, intercept = budget_baseline(20, q, 40, eps_b, eps_e,
                                                    d_hat)
        assert abs(float(intercept) - intercepts[i]) <= 1e-4, d_hat
        if budgets is not None:
            assert n_budget == budgets[i], d_hat
