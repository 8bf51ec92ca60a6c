"""Constrained sparsity solver and the gain-versus-budget curve."""

import dataclasses
import warnings

import pytest

from srlnc import chain
from srlnc.chain import build_chain, intercept_probability
from srlnc.coding import ChannelParams, CodeParams
from srlnc.errors import ConfigError, NumericalIntegrityError
from srlnc import optimize, rank
from srlnc.optimize import GainPoint, ImConfig, ImSolution, intercept_gain, solve_im
from srlnc.rank import delivery_probability

from oracles import grid_search_pstar, solve_im_sequential


def _im(K=5, q=2, eps_b=0.05, eps_e=0.2, eps_k=1.0, n_hat=17, **kw):
    return ImConfig(
        code=CodeParams(K=K, q=q, p=1.0 / q, n_hat=n_hat),
        chan=ChannelParams(eps_b=eps_b, eps_e=eps_e, eps_k=eps_k),
        **kw,
    )


def _intercept(cfg, p, mode="paper-exact"):
    """The chain's intercept at sparsity p for cfg's budget and channel, as
    srlnc optimize prices it."""
    code = dataclasses.replace(cfg.code, p=p)
    P = build_chain(code, cfg.chan, mode)
    return intercept_probability(P, code.n_hat)


def test_config_validation():
    with pytest.raises(ConfigError):
        _im(d_hat=1.5)
    with pytest.raises(ConfigError):
        _im(d_hat=-0.1)
    with pytest.raises(ConfigError):
        _im(q=2, p_max=0.4)  # below 1/q
    with pytest.raises(ConfigError):
        _im(p_max=1.0)


def test_the_solver_reads_no_transition_law_and_prices_no_intercept():
    assert [f.name for f in dataclasses.fields(ImConfig)] == [
        "code", "chan", "d_hat", "p_max"]
    assert [f.name for f in dataclasses.fields(ImSolution)] == [
        "p_star", "delivery", "status", "iterations", "bracket_width"]


@pytest.mark.parametrize("d_hat,status", [
    (0.99, "interior-root"), (0.0, "saturated-at-pmax"),
    (1.0, "infeasible")])
def test_solve_and_gain_curve_build_no_chain(monkeypatch, d_hat, status):
    def refuse(*args, **kwargs):
        raise AssertionError("the solver built or propagated a chain")

    for module in (chain, optimize):
        monkeypatch.setattr(module, "build_chain", refuse)
        monkeypatch.setattr(module, "intercept_probability", refuse)
    cfg = _im(d_hat=d_hat)
    assert solve_im(cfg).status == status
    (point,) = intercept_gain(cfg, [17], trials=20, base_seed=3)
    assert point.status == status


def test_zero_floor_saturates_at_pmax():
    cfg = _im(d_hat=0.0)
    sol = solve_im(cfg)
    assert sol.status == "saturated-at-pmax"
    assert sol.p_star == 0.95
    assert sol.iterations == 0
    assert sol.bracket_width == 0.0
    intercept = _intercept(cfg, sol.p_star)
    assert 0.0 <= intercept <= _intercept(cfg, cfg.p_min)


def test_certain_delivery_over_a_lossy_link_is_infeasible():
    sol = solve_im(_im(d_hat=1.0, eps_b=0.05, eps_e=0.2))
    assert sol.status == "infeasible"
    assert sol.p_star is None and sol.delivery is None
    assert sol.iterations == 0 and sol.bracket_width == 0.0


def test_reference_case_agrees_with_dense_grid():
    cfg = _im(K=5, q=2, eps_b=0.05, eps_e=0.2, eps_k=1.0, n_hat=17, d_hat=0.99)
    sol = solve_im(cfg)
    assert sol.status == "interior-root"
    oracle = grid_search_pstar(5, 2, 17, 0.05, 1.0, 0.99, 0.95)
    assert oracle is not None
    assert abs(sol.p_star - oracle) <= 2e-4


@pytest.mark.parametrize("kw", [
    dict(K=5, q=2, eps_b=0.05, eps_e=0.2, eps_k=1.0, n_hat=17, d_hat=0.99),
    dict(K=8, q=16, eps_b=0.10, eps_e=0.3, eps_k=1.0, n_hat=14, d_hat=0.90),
    dict(K=4, q=2, eps_b=0.02, eps_e=0.3, eps_k=0.9, n_hat=12, d_hat=0.95),
])
def test_interior_root_postconditions(kw):
    cfg = _im(**kw)
    sol = solve_im(cfg)
    assert sol.status == "interior-root"
    assert cfg.p_min < sol.p_star < cfg.p_max
    assert sol.iterations <= 60
    # the constraint is met from above, within the solver tolerance
    assert 0.0 <= sol.delivery - cfg.d_hat <= optimize._TOL
    code = dataclasses.replace(cfg.code, p=sol.p_star)
    # the solver reads the same (q, p) rank model, so the two agree exactly
    assert delivery_probability(code, cfg.chan) == sol.delivery
    # p_star is maximal: one step to the right already violates the floor
    right = dataclasses.replace(cfg.code, p=sol.p_star + 0.01)
    d_right = delivery_probability(right, cfg.chan)
    assert d_right < cfg.d_hat
    assert _intercept(cfg, cfg.p_min) >= _intercept(cfg, sol.p_star)


def test_monotonicity_audit_rejects_a_rising_constraint(monkeypatch):
    cfg = _im(K=4, q=2, eps_b=0.05, eps_e=0.2, n_hat=12, d_hat=0.9)
    lo, hi = cfg.p_min, cfg.p_max
    curve = rank.decoding_probabilities

    # the audit sees delivery evaluated at the reversed sparsities
    monkeypatch.setattr(optimize, "decoding_probabilities",
                        lambda models, K, N, eps: curve(
                            [rank._model(m.q, lo + hi - m.p) for m in models],
                            K, N, eps))
    with pytest.raises(NumericalIntegrityError, match="not nonincreasing"):
        solve_im(cfg)


def test_gain_vanishes_for_a_blind_eavesdropper():
    cfg = _im(K=3, q=2, eps_b=0.1, eps_e=1.0, eps_k=0.8, n_hat=9, d_hat=0.8)
    points = intercept_gain(cfg, [8, 10], trials=300, base_seed=6)
    assert [pt.n_hat for pt in points] == [8, 10]
    for pt in points:
        assert pt.status in ("interior-root", "saturated-at-pmax")
        assert pt.intercept_classic == 0.0
        assert pt.intercept_opt == 0.0
        assert pt.gain == 0.0
        assert pt.ci_low <= 0.0 <= pt.ci_high


def test_gain_curve_leaves_gaps_at_infeasible_budgets():
    cfg = _im(K=5, q=2, eps_b=0.2, eps_e=0.4, eps_k=1.0, d_hat=0.999)
    points = intercept_gain(cfg, [6, 7, 60], trials=200, base_seed=1)
    starved, fed = points[:2], points[2]
    for pt in starved:
        assert pt.status == "infeasible"
        assert pt.p_star is None and pt.gain is None
        assert pt.intercept_classic is None and pt.intercept_opt is None
        assert pt.ci_low is None and pt.ci_high is None
    assert fed.status in ("interior-root", "saturated-at-pmax")
    assert fed.gain is not None
    assert fed.ci_low <= fed.gain <= fed.ci_high


def test_gain_curve_is_deterministic():
    cfg = _im(K=3, q=2, eps_b=0.05, eps_e=0.3, eps_k=1.0, n_hat=9, d_hat=0.9)
    a = intercept_gain(cfg, [7, 9], trials=250, base_seed=42)
    b = intercept_gain(cfg, [7, 9], trials=250, base_seed=42)
    assert a == b
    assert all(isinstance(pt, GainPoint) for pt in a)


def test_solution_shape():
    sol = solve_im(_im(d_hat=0.97))
    assert isinstance(sol, ImSolution)
    assert sol.status in ("interior-root", "saturated-at-pmax", "infeasible")


# Every number srlnc optimize prints, as float.hex, with the status and the
# iteration count, recorded before the pi recursion ran one order at a time:
# (p_star, delivery, intercept at p_star, intercept at 1/q, bracket_width,
# status, iterations).  Each bisection step reads pi from a new kernel call,
# so a change in the last bit of any pi value moves p_star, the iteration
# count or the final bracket here.  The two intercepts were recorded when
# solve_im still returned them; they are the chain's, under the key's mode,
# at the pinned p_star and at 1/q.
# Keys: (q, n_hat, mode, eps_k) at K=20 on the figure-2a channel
# (eps_b=0.05, eps_e=0.2, D_hat=0.99, p_max=0.95); the rows at eps_k=1 are
# the 30 budgets of the benchmark's optimize-fig2 workload.
_SOLVE_PINS = {
    (2, 21, "paper-exact", 1.0): (None, None, None, "0x1.3c64b11a22fe2p-6", "0x0.0p+0", "infeasible", 0),
    (2, 26, "paper-exact", 1.0): (None, None, None, "0x1.f075d38e3dd25p-2", "0x0.0p+0", "infeasible", 0),
    (2, 31, "paper-exact", 1.0): ("0x1.860eccce6a962p-1", "0x1.fae159820e56fp-1", "0x1.d7b3e1f0e7f54p-1", "0x1.cf19dac2ddab2p-1", "0x1.ccccccc510000p-16", "interior-root", 14),
    (2, 36, "paper-exact", 1.0): ("0x1.98d1e0014d344p-1", "0x1.fae15bc97d7c9p-1", "0x1.fa54784233b14p-1", "0x1.faed86b1e0c1cp-1", "0x1.ccccccc580000p-20", "interior-root", 18),
    (2, 41, "paper-exact", 1.0): ("0x1.a48cf3344e054p-1", "0x1.fae14aaa7cf54p-1", "0x1.fee2e3d34b799p-1", "0x1.ff9388ceccdf9p-1", "0x1.ccccccc540000p-19", "interior-root", 17),
    (2, 46, "paper-exact", 1.0): ("0x1.adc44ccdc009bp-1", "0x1.fae15c5290890p-1", "0x1.ff97db245b56bp-1", "0x1.fff773236ec14p-1", "0x1.ccccccc520000p-18", "interior-root", 16),
    (2, 51, "paper-exact", 1.0): ("0x1.b547d334062a8p-1", "0x1.fae154994cc92p-1", "0x1.ffbe12f2d50c1p-1", "0x1.ffff556d5c5b3p-1", "0x1.ccccccc500000p-20", "interior-root", 18),
    (2, 56, "paper-exact", 1.0): ("0x1.bb8806671e850p-1", "0x1.fae165b82acb6p-1", "0x1.ffc5f82c6d21fp-1", "0x1.fffff2bb71d67p-1", "0x1.ccccccc500000p-20", "interior-root", 18),
    (2, 61, "paper-exact", 1.0): ("0x1.c0d0f333d49eep-1", "0x1.fae1501eaccc8p-1", "0x1.ffc64d679fdafp-1", "0x1.fffffef7df79cp-1", "0x1.ccccccc540000p-19", "interior-root", 17),
    (2, 66, "paper-exact", 1.0): ("0x1.c557b333c12e2p-1", "0x1.fae1500824e2bp-1", "0x1.ffc7a1a28b064p-1", "0x1.ffffffeb761c8p-1", "0x1.ccccccc520000p-18", "interior-root", 16),
    (2, 71, "paper-exact", 1.0): ("0x1.c9436ccd49f0cp-1", "0x1.fae1535c87b65p-1", "0x1.ffcdb7411e931p-1", "0x1.fffffffe6725ap-1", "0x1.ccccccc500000p-20", "interior-root", 18),
    (2, 76, "paper-exact", 1.0): ("0x1.ccb160006e694p-1", "0x1.fae14e3dd449bp-1", "0x1.ffd839e63cba8p-1", "0x1.ffffffffe0357p-1", "0x1.ccccccc500000p-20", "interior-root", 18),
    (2, 80, "paper-exact", 1.0): ("0x1.cf243999fd7e8p-1", "0x1.fae158f4f913bp-1", "0x1.ffe1dcc1890c8p-1", "0x1.fffffffffbe18p-1", "0x1.ccccccc500000p-20", "interior-root", 18),
    (16, 21, "paper-exact", 1.0): (None, None, None, "0x1.bd9490861c931p-5", "0x0.0p+0", "infeasible", 0),
    (16, 26, "paper-exact", 1.0): ("0x1.771efb351123dp-1", "0x1.fae165f1d2b24p-1", "0x1.7b2a9a107ce38p-1", "0x1.786fdd2dcd090p-1", "0x1.c666665ec0000p-19", "interior-root", 18),
    (16, 31, "paper-exact", 1.0): ("0x1.8ade2e67ef871p-1", "0x1.fae1642c44264p-1", "0x1.f8439ee305742p-1", "0x1.f8b54c0cb92b0p-1", "0x1.c666665ec0000p-19", "interior-root", 18),
    (16, 36, "paper-exact", 1.0): ("0x1.9978ff347d99ep-1", "0x1.fae15ce11af02p-1", "0x1.ffcd96e87c44ep-1", "0x1.ffdd827b7609fp-1", "0x1.c666665e80000p-20", "interior-root", 19),
    (16, 41, "paper-exact", 1.0): ("0x1.a4d98ccde6560p-1", "0x1.fae15286ed6dbp-1", "0x1.ffff1297b7a16p-1", "0x1.ffffaea5ec21ap-1", "0x1.c666665ec0000p-16", "interior-root", 15),
    (16, 46, "paper-exact", 1.0): ("0x1.adf5ad9a8c026p-1", "0x1.fae1534585621p-1", "0x1.fffffbb87b6a9p-1", "0x1.ffffff89c8db6p-1", "0x1.c666665f00000p-20", "interior-root", 19),
    (16, 51, "paper-exact", 1.0): ("0x1.b56ae99a6bfa6p-1", "0x1.fae14c873c34ap-1", "0x1.ffffffe8e4344p-1", "0x1.ffffffff879afp-1", "0x1.c666665ec0000p-18", "interior-root", 17),
    (16, 56, "paper-exact", 1.0): ("0x1.bba26c00b7ad4p-1", "0x1.fae15042b1cb3p-1", "0x1.ffffffff5f923p-1", "0x1.ffffffffffa2ep-1", "0x1.c666665e80000p-20", "interior-root", 19),
    (16, 61, "paper-exact", 1.0): ("0x1.c0e56ccd6de0ap-1", "0x1.fae14959feb85p-1", "0x1.fffffffffa2c9p-1", "0x1.0000000000000p+0", "0x1.c666665ec0000p-17", "interior-root", 16),
    (16, 66, "paper-exact", 1.0): ("0x1.c56810008db4cp-1", "0x1.fae14f8b1b19bp-1", "0x1.ffffffffffb6cp-1", "0x1.0000000000000p+0", "0x1.c666665ee0000p-18", "interior-root", 17),
    (16, 71, "paper-exact", 1.0): ("0x1.c950b8007ceafp-1", "0x1.fae166c8fe61cp-1", "0x1.fffffffffffaap-1", "0x1.0000000000000p+0", "0x1.c666665ec0000p-19", "interior-root", 18),
    (16, 76, "paper-exact", 1.0): ("0x1.ccbc759a07d36p-1", "0x1.fae15fcc72fd4p-1", "0x1.ffffffffffff5p-1", "0x1.0000000000000p+0", "0x1.c666665e80000p-20", "interior-root", 19),
    (16, 81, "paper-exact", 1.0): ("0x1.cfc12399fadc9p-1", "0x1.fae15f170a86cp-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.c666665f00000p-21", "interior-root", 20),
    (16, 86, "paper-exact", 1.0): ("0x1.d26ff40055bd4p-1", "0x1.fae15db7066cap-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.c666665f00000p-20", "interior-root", 19),
    (16, 91, "paper-exact", 1.0): ("0x1.d4d66f99e507bp-1", "0x1.fae15fbdeab60p-1", "0x1.ffffffffffffdp-1", "0x1.0000000000000p+0", "0x1.c666665f00000p-21", "interior-root", 20),
    (16, 96, "paper-exact", 1.0): ("0x1.d6ff7599dbc08p-1", "0x1.fae15ec212487p-1", "0x1.ffffffffffffdp-1", "0x1.0000000000000p+0", "0x1.c666665e80000p-20", "interior-root", 19),
    (16, 100, "paper-exact", 1.0): ("0x1.d8939acd082bdp-1", "0x1.fae15636edba6p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.c666665f00000p-21", "interior-root", 20),
    (2, 40, "consistent", 0.5): ("0x1.a271d99abd772p-1", "0x1.fae1605ad6572p-1", "0x1.0962995a13e10p-2", "0x1.13af478f33817p-2", "0x1.ccccccc500000p-19", "interior-root", 17),
}


def _fig2a_point(q, n_hat, mode, eps_k):
    """The solver's config at a pinned key; the mode is the chain's only."""
    return _im(K=20, q=q, eps_b=0.05, eps_e=0.2, eps_k=eps_k, n_hat=n_hat,
               d_hat=0.99, p_max=0.95)


def _hex(x):
    return None if x is None else float(x).hex()


def _hex_fields(sol):
    """(p_star, delivery, bracket_width, status, iterations), floats as hex."""
    return (_hex(sol.p_star), _hex(sol.delivery), _hex(sol.bracket_width),
            sol.status, sol.iterations)


# The ids name the pi recursion's reading (row-count) the pins were recorded
# under.
@pytest.mark.parametrize("key", list(_SOLVE_PINS),
                         ids=lambda k: "{}-{}-row-count-{}-{}".format(*k))
def test_solver_path_is_pinned_bit_for_bit(key):
    p_star, delivery, i_opt, i_classic, width, status, iterations = _SOLVE_PINS[key]
    cfg = _fig2a_point(*key)
    assert _hex_fields(solve_im(cfg)) == (p_star, delivery, width, status,
                                          iterations)
    mode = key[2]
    if p_star is not None:
        assert _hex(_intercept(cfg, float.fromhex(p_star), mode)) == i_opt
    assert _hex(_intercept(cfg, cfg.p_min, mode)) == i_classic


# (eps_b, eps_e, eps_k) of the grid the batched solver is held to the
# one-p-at-a-time solve on.
_PARITY_CHANNELS = ((0.05, 0.2, 1.0), (0.1, 0.35, 1.0), (0.01, 0.26, 0.9))


def _solve_or_audit_failure(solver, cfg):
    try:
        return _hex_fields(solver(cfg))
    except NumericalIntegrityError as exc:
        return str(exc)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Points per _fill_full_rank call of the bisection's walk: one entry
    per kernel call, since the last clear()."""
    calls = []
    fill = optimize._fill_full_rank

    def counting(models, c, r_max):
        calls.append(len(models))
        return fill(models, c, r_max)

    monkeypatch.setattr(optimize, "_fill_full_rank", counting)
    return calls


@pytest.mark.parametrize("K", [5, 20])
@pytest.mark.parametrize("q", [2, 4, 16, 256])
def test_batched_solve_equals_the_one_p_at_a_time_solve(kernel_calls, K, q):
    # every field of every solution, as float.hex, or the same audit message.
    # No solve costs more than one kernel call per three iterations, plus
    # one, so no channel or field size turns the prediction into a call per
    # midpoint; a count, not a timing.
    for chan in _PARITY_CHANNELS:
        for n_hat in sorted({K + 1, K + 2, 2 * K, 3 * K + 7, 4 * K}):
            for d_hat in (0.5, 0.9, 0.99):
                for p_max in (0.8, 0.95):
                    cfg = _im(K=K, q=q, eps_b=chan[0], eps_e=chan[1],
                              eps_k=chan[2], n_hat=n_hat, d_hat=d_hat,
                              p_max=p_max)
                    want = _solve_or_audit_failure(solve_im_sequential, cfg)
                    kernel_calls.clear()
                    got = _solve_or_audit_failure(solve_im, cfg)
                    assert got == want, (chan, n_hat, d_hat, p_max)
                    if isinstance(got, tuple):
                        budget = -(-got[4] // 3) + 1
                        assert len(kernel_calls) <= budget, (chan, n_hat, d_hat, p_max)


def _overflow_warnings(caplog, solver, cfg):
    """solver's solution from an empty model cache, as float.hex, and the
    full-rank overflow warnings it logged; a numpy RuntimeWarning raises."""
    rank._model.cache_clear()
    caplog.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solver(cfg)
    return _hex_fields(sol), sorted(
        r.getMessage() for r in caplog.records
        if r.name == "srlnc.rank" and r.levelname == "WARNING"
        and "full-rank exponent overflows" in r.getMessage())


# srlnc optimize --K 40 --q 2 --Nhat 120 --p-max 0.99 overflows on the audit
# grid; the q=4 point also overflows at a midpoint of a batch that the walk
# never reads.
@pytest.mark.parametrize("K, q, n_hat, d_hat, p_max", [
    (40, 2, 120, 0.99, 0.99),
    (40, 4, 200, 0.1, 0.995),
])
def test_overflow_warnings_match_the_one_p_at_a_time_solve(
        caplog, K, q, n_hat, d_hat, p_max):
    # The full-rank exponent overflows at some of the sparsities the solve
    # reads.  Each solver starts from an empty model cache, and the batched
    # one must log the same (q, p, c) warnings, although it fills columns
    # for midpoints the walk never reads, and no numpy RuntimeWarning.
    cfg = _im(K=K, q=q, eps_b=0.0, eps_e=0.0, eps_k=1.0, n_hat=n_hat,
              d_hat=d_hat, p_max=p_max)
    want_sol, want = _overflow_warnings(caplog, solve_im_sequential, cfg)
    got_sol, got = _overflow_warnings(caplog, solve_im, cfg)
    assert want, "the reference solve no longer overflows"
    assert got_sol == want_sol
    assert got == want


# The points of the test above, with the predictor as it is and mirrored
# about the floor, which fills many midpoints off the walk.
@pytest.mark.parametrize("K, q, n_hat, d_hat, p_max, mirrored", [
    (40, 2, 120, 0.99, 0.99, True),
    (40, 4, 200, 0.1, 0.995, False),
    (40, 4, 200, 0.1, 0.995, True),
])
def test_an_overflow_at_an_unread_midpoint_is_not_logged(
        caplog, monkeypatch, K, q, n_hat, d_hat, p_max, mirrored):
    # A model notes an overflow when its column is filled and logs it when
    # the column is first read.  Here the prediction fills a midpoint that
    # overflows and that the walk never reads (its note stays unlogged), and
    # the warnings are still those of the one-p-at-a-time solve.
    cfg = _im(K=K, q=q, eps_b=0.0, eps_e=0.0, eps_k=1.0, n_hat=n_hat,
              d_hat=d_hat, p_max=p_max)
    filled, fill = [], optimize._fill_full_rank

    def recording(models, c, r_max):
        filled.extend(models)
        return fill(models, c, r_max)

    monkeypatch.setattr(optimize, "_fill_full_rank", recording)
    if mirrored:
        predicted = optimize._predicted_delivery
        monkeypatch.setattr(optimize, "_predicted_delivery",
                            lambda ps, ds, x: 2.0 * d_hat - predicted(ps, ds, x))
    want = _overflow_warnings(caplog, solve_im_sequential, cfg)
    got = _overflow_warnings(caplog, solve_im, cfg)
    assert any(False in m._overflowed.values() for m in filled), \
        "no overflowing midpoint is left unread"
    assert got == want


# (K, eps_b, eps_e, eps_k, n_hat, d_hat, p_max) at every q of the
# wrong-prediction test: interior roots, one saturated solve and one audit
# failure (delivery turns up near p = 0.999 at K=20).
_MISPREDICTED = (
    (5, 0.05, 0.2, 1.0, 17, 0.99, 0.95),
    (20, 0.05, 0.2, 1.0, 41, 0.99, 0.95),
    (20, 0.01, 0.26, 0.9, 40, 0.9, 0.8),
    (5, 0.1, 0.35, 1.0, 22, 0.5, 0.95),
    (5, 0.05, 0.2, 1.0, 20, 0.5, 0.8),
    (20, 0.05, 0.2, 1.0, 60, 0.99, 0.999),
)


@pytest.mark.parametrize("q", [2, 16, 256])
@pytest.mark.parametrize("wrong", ["wrong-way", "nan", "one-point-path"])
def test_a_wrong_prediction_never_changes_a_result(kernel_calls, q, wrong):
    # The prediction only picks which midpoints one kernel call fills; the
    # walk reads the real delivery at each.  Here the interpolant is
    # mirrored about the floor (so every predicted step goes the other way
    # wherever the interpolant is right), or returns NaN (every step goes
    # left), or the path stops after the walk's next midpoint.
    real_delivery, real_path = optimize._predicted_delivery, optimize._predicted_path
    statuses, mispredicted = set(), 0
    for K, eps_b, eps_e, eps_k, n_hat, d_hat, p_max in _MISPREDICTED:
        cfg = _im(K=K, q=q, eps_b=eps_b, eps_e=eps_e, eps_k=eps_k,
                  n_hat=n_hat, d_hat=d_hat, p_max=p_max)
        want = _solve_or_audit_failure(solve_im_sequential, cfg)
        with pytest.MonkeyPatch.context() as mp:
            if wrong == "wrong-way":
                mp.setattr(optimize, "_predicted_delivery",
                           lambda ps, ds, x: 2.0 * d_hat - real_delivery(ps, ds, x))
            elif wrong == "nan":
                mp.setattr(optimize, "_predicted_delivery",
                           lambda ps, ds, x: float("nan"))
            else:
                mp.setattr(optimize, "_predicted_path",
                           lambda *args: real_path(*args)[:1])
            kernel_calls.clear()
            got = _solve_or_audit_failure(solve_im, cfg)
        assert got == want, (K, eps_b, eps_e, eps_k, n_hat, d_hat, p_max)
        statuses.add(got[3] if isinstance(got, tuple) else "audit failure")
        if isinstance(got, tuple) and got[3] == "interior-root":
            mispredicted += len(kernel_calls) > 1
            if wrong == "one-point-path":
                assert len(kernel_calls) == got[4]
    assert statuses == {"interior-root", "saturated-at-pmax", "audit failure"}
    assert mispredicted  # the broken predictor did cost kernel calls


# These are counts of kernel calls and of the midpoints they fill, not
# timings: they hold on any host.  A one-midpoint-at-a-time bisection makes
# one call per iteration, 14 to 20 at these points; a predicted walk that
# misses early, or fills far past where the walk stops, exceeds the budget.
def test_kernel_calls_per_solve_at_the_figure_2a_points(caplog, kernel_calls):
    caplog.set_level("DEBUG", logger="srlnc.optimize")
    calls, points = [], []
    for key in _SOLVE_PINS:
        if key[2:] != ("paper-exact", 1.0):
            continue
        kernel_calls.clear()
        caplog.clear()
        sol = solve_im(_fig2a_point(*key))
        # one DEBUG line per solve, with the counts the kernel saw
        [line] = [r.getMessage() for r in caplog.records
                  if r.name == "srlnc.optimize" and r.levelname == "DEBUG"]
        assert line.endswith(f"{sol.status} after {sol.iterations} iterations, "
                             f"{len(kernel_calls)} kernel calls, "
                             f"{sum(kernel_calls)} midpoints filled"), line
        if sol.status != "infeasible":
            calls.append(len(kernel_calls))
            points.append(sum(kernel_calls))
    assert len(calls) == 27
    assert sum(calls) / len(calls) <= 2.5
    assert sum(points) / len(points) <= 30
