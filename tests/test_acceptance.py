"""Acceptance gate: one test per headline claim, run at the stated tolerance.

Each test prints one ``ACCEPTANCE n <label>: PASS/FAIL`` line (plus its
supporting numbers) before asserting, so a full transcript survives even when
a criterion goes red.  Run with ``pytest tests/test_acceptance.py -v -s``.

Two criteria fail by design and are documented as such in the README: the
figure-1a mean-squared error (criterion 1) lands at ~5.3e-3 against the
3e-3 bound because the analytical chain is memoryless where the protocol is
not, and the enumeration sweep (criterion 7) exceeds 0.05 at the single
square cell r=c=4, p=0.6, an intrinsic soft spot of the rank approximation.
Gaming either bound would hide real model behavior.

Budget: the whole file runs in a few minutes on one core; the heavy
simulations state their trial counts inline.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np

from srlnc.chain import (
    ChannelParams,
    build_chain,
    delivery_probability,
    intercept_probability,
    label_of,
    n_states,
    state_of,
)
from srlnc.coding import CodeParams
from srlnc.optimize import ImConfig, intercept_gain, solve_im
from srlnc.rank import RankTables
from srlnc.sim import SimConfig, estimate, run_trial

from oracles import (
    chain_intercept_by_paths,
    classic_full_rank,
    classic_innovation,
    grid_search_pstar,
    smoothed_sigma,
    sparse_full_rank_gf2,
)


def _report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} {detail}")


def _sim_intercept(K, q, p, eps_b, eps_e, eps_k, n_hat, trials, seed):
    cfg = SimConfig(
        code=CodeParams(K=K, q=q, p=p, n_hat=n_hat),
        chan=ChannelParams(eps_b, eps_e, eps_k),
        trials=trials, base_seed=seed,
    )
    return estimate(cfg).intercept_hat


def test_criterion_1_figure_1a_mse():
    # K=20, q=2, budget 40, eps_B=0.01, eps_E=0.26, feedback fully jammed;
    # detailed root-cause analysis of the overshoot lives in the project
    # notes: the chain resets span memory every slot, the protocol does not.
    K, q, n_hat, trials = 20, 2, 40, 20000
    chan = ChannelParams(0.01, 0.26, 1.0)
    grid = [round(0.50 + 0.05 * i, 2) for i in range(9)]
    theory, sim = [], []
    for p in grid:
        code = CodeParams(K=K, q=q, p=p, n_hat=n_hat)
        P = build_chain(code, chan, "paper-exact")
        theory.append(intercept_probability(P, n_hat))
        sim.append(_sim_intercept(K, q, p, 0.01, 0.26, 1.0, n_hat, trials, 7))
    mse = sum((t - s) ** 2 for t, s in zip(theory, sim)) / len(grid)
    ok = mse <= 3e-3
    _report(1, "figure-1a theory-vs-sim MSE", ok,
            f"mse={mse:.4e} bound=3e-3 trials={trials}")
    for p, t, s in zip(grid, theory, sim):
        print(f"    p={p:.2f}  chain={t:.4f}  sim={s:.4f}  diff={t - s:+.4f}")
    assert ok, f"MSE {mse:.4e} exceeds 3e-3 (documented honest failure)"


def test_criterion_2_figure_1b_flatness():
    # q=16 intercept nearly constant over 1/16 <= p <= 0.73
    K, q, n_hat, trials = 20, 16, 40, 6000
    grid = [1 / 16, 0.2, 0.35, 0.5, 0.65, 0.73]
    vals = [
        _sim_intercept(K, q, p, 0.01, 0.26, 1.0, n_hat, trials, 21000 + i)
        for i, p in enumerate(grid)
    ]
    spread = max(vals) - min(vals)
    ok = spread <= 0.05
    _report(2, "figure-1b flatness over p", ok,
            f"spread={spread:.4f} bound=0.05 trials={trials}")
    for p, v in zip(grid, vals):
        print(f"    p={p:.4f}  sim={v:.4f}")
    assert ok


def test_criterion_3_theory_is_an_upper_bound():
    # every figure-1 parameter set with eps_K >= 0.9: consistent-mode theory
    # >= sim - 3 sigma at every point; paper-exact margins are reported but
    # not asserted (the claim under test is about the bound's direction)
    K, n_hat = 20, 40
    panels = {2: ([0.5, 0.6, 0.7, 0.8, 0.85, 0.9], 2500),
              16: ([1 / 16, 0.3, 0.5, 0.73, 0.9], 2000)}
    worst_cons = worst_exact = math.inf
    checked, seed = 0, 0
    failures = []
    for q, (grid, trials) in panels.items():
        for eps_b in (0.01, 0.05, 0.1):
            eps_e = round(eps_b + 0.25, 6)
            for eps_k in (0.9, 0.95, 1.0):
                chan = ChannelParams(eps_b, eps_e, eps_k)
                for p in grid:
                    code = CodeParams(K=K, q=q, p=p, n_hat=n_hat)
                    i_cons = intercept_probability(
                        build_chain(code, chan, "consistent"), n_hat)
                    i_exact = intercept_probability(
                        build_chain(code, chan, "paper-exact"), n_hat)
                    s = _sim_intercept(K, q, p, eps_b, eps_e, eps_k,
                                       n_hat, trials, 33000 + seed)
                    seed += 1
                    sigma = smoothed_sigma(s, trials)
                    floor = s - 3 * sigma
                    worst_cons = min(worst_cons, i_cons - floor)
                    worst_exact = min(worst_exact, i_exact - floor)
                    checked += 1
                    if i_cons < floor:
                        failures.append((q, eps_b, eps_k, p, i_cons, floor))
    ok = not failures
    _report(3, "upper-bound direction (consistent mode)", ok,
            f"points={checked} min_margin={worst_cons:+.4f} "
            f"paper_exact_min_margin={worst_exact:+.4f}")
    for f in failures:
        print(f"    below floor: q={f[0]} eps_b={f[1]} eps_k={f[2]} "
              f"p={f[3]} theory={f[4]:.4f} floor={f[5]:.4f}")
    assert ok


def test_criterion_4_figure_2a_peak_gain():
    # delivery floor 0.90 per the calibration recorded in the project notes
    base = ImConfig(
        code=CodeParams(K=5, q=2, p=0.5, n_hat=17),
        chan=ChannelParams(0.05, 0.2, 1.0),
        d_hat=0.90,
    )
    points = intercept_gain(base, range(9, 21), trials=10000, base_seed=11)
    gains = {pt.n_hat: pt.gain for pt in points if pt.gain is not None}
    n_star, g_max = max(gains.items(), key=lambda kv: kv[1])
    jam85 = dataclasses.replace(base,
                                chan=ChannelParams(0.05, 0.2, 0.85))
    (pt85,) = intercept_gain(jam85, [17], trials=10000, base_seed=11)
    ok = (0.166 <= g_max <= 0.226 and 14 <= n_star <= 20
          and 0.12 <= pt85.gain <= 0.18)
    _report(4, "figure-2a peak Monte Carlo gain", ok,
            f"max_gain={g_max:.4f} at N_hat={n_star} (band [0.166,0.226], "
            f"peak near 17); eps_K=0.85 gain={pt85.gain:.4f} "
            "(band [0.12,0.18])")
    for n in sorted(gains):
        print(f"    N_hat={n:2d}  gain={gains[n]:+.4f}")
    assert ok


def test_criterion_5_best_relative_reduction():
    # witness point frozen from a dev-time scan of the whole figure-2 preset
    # family (see project notes): panel eps_B=0.05/eps_E=0.3, K=20, q=16,
    # eps_K=1, N_hat=32, delivery floor 0.70.  The family maximum is at
    # least this point's value.
    cfg = ImConfig(
        code=CodeParams(K=20, q=16, p=1 / 16, n_hat=32),
        chan=ChannelParams(0.05, 0.3, 1.0),
        d_hat=0.70,
    )
    (pt,) = intercept_gain(cfg, [32], trials=6000, base_seed=5)
    rel = pt.gain / pt.intercept_classic
    ok = rel >= 0.75
    _report(5, "figure-2 family best relative reduction", ok,
            f"achieved={rel:.4f} (bound 0.75; reference headline 0.82) at "
            f"K=20 q=16 N_hat=32 D_hat=0.70 p_star={pt.p_star:.4f} "
            f"I_classic={pt.intercept_classic:.4f} I_opt={pt.intercept_opt:.4f}")
    assert ok


def test_criterion_6_classic_endpoint_exactness():
    worst = 0.0
    for q in (2, 16):
        for K in range(1, 31):
            tables = RankTables(K, q, 1.0 / q)
            for t in range(K):
                err = abs(tables.W[t] - float(classic_innovation(t, K, q)))
                worst = max(worst, err)
            for r in range(K, K + 9):
                err = abs(tables.full_rank_prob(r, K)
                          - float(classic_full_rank(r, K, q)))
                worst = max(worst, err)
    ok = worst <= 1e-12
    _report(6, "classic endpoint exactness K<=30", ok,
            f"max_abs_err={worst:.3e} bound=1e-12")
    assert ok


def test_criterion_7_enumeration_oracle_suite():
    # clause 1: rank approximation vs exact Fraction enumeration, the shapes
    # the model consumes (documented red cell: r=c=4, p=0.6)
    worst_cell, worst_err = None, 0.0
    rows = []
    for K in (1, 2, 3, 4):
        for p in (0.5, 0.6, 0.7, 0.8):
            tables = RankTables(K, 2, p)
            for r in (K, K + 1, K + 2):
                for c in range(K + 1):
                    got = tables.full_rank_prob(r, c)
                    exact = float(sparse_full_rank_gf2(r, c, p))
                    err = got - exact
                    rows.append((K, p, r, c, err))
                    if abs(err) > abs(worst_err):
                        worst_err, worst_cell = err, (K, p, r, c)
    enum_ok = abs(worst_err) <= 0.05

    # clause 2: chain intercept equals brute-force path enumeration
    path_worst = 0.0
    for K in (1, 2):
        for mode in ("paper-exact", "consistent"):
            for eps_k in (0.8, 1.0):
                code = CodeParams(K=K, q=2, p=0.6, n_hat=4)
                chan = ChannelParams(0.1, 0.3, eps_k)
                P = build_chain(code, chan, mode)
                for n in range(5):
                    diff = abs(intercept_probability(P, n)
                               - chain_intercept_by_paths(P, n))
                    path_worst = max(path_worst, diff)
    path_ok = path_worst <= 1e-12

    # clause 3: the K=1 hand case
    trials = 20000
    hand = _sim_intercept(1, 2, 0.5, 0.0, 0.0, 1.0, 2, trials, 7)
    hand_ok = abs(hand - 0.75) <= 3 * smoothed_sigma(hand, trials)

    ok = enum_ok and path_ok and hand_ok
    _report(7, "enumeration-oracle property suite", ok,
            f"enum_worst={worst_err:+.4f} at (K,p,r,c)={worst_cell} "
            f"(bound 0.05); path_worst={path_worst:.2e} (bound 1e-12); "
            f"hand_case={hand:.4f} (target 0.75)")
    over = [(K, p, r, c, e) for K, p, r, c, e in rows if abs(e) > 0.05]
    for K, p, r, c, e in over:
        print(f"    over bound: K={K} p={p} r={r} c={c} err={e:+.4f}")
    assert ok, "documented honest failure at the square enumeration cell"


def test_criterion_8_structural_invariants():
    battery = [(5, 2, 0.6), (12, 16, 0.3), (20, 2, 0.7), (8, 16, 1 / 16)]
    chan = ChannelParams(0.05, 0.3, 0.9)
    for K, q, p in battery:
        code = CodeParams(K=K, q=q, p=p, n_hat=2 * K)
        P = build_chain(code, chan, "paper-exact")
        trips = list(P.triplets())
        S = len({i for i, _, _ in trips})
        assert S == n_states(K) == (K + 1) * (K + 2)
        sums = {}
        for i, j, v in trips:
            assert j <= i, "upper-triangular entry"
            assert 0.0 <= v <= 1.0
            sums.setdefault(i, []).append(v)
        for i in range(S):
            assert abs(math.fsum(sums[i]) - 1.0) <= 1e-9
        for i in range(n_states(K)):
            assert label_of(state_of(i, K), K) == i

    # intercept nondecreasing in the budget
    code = CodeParams(K=5, q=2, p=0.6, n_hat=20)
    P = build_chain(code, chan, "paper-exact")
    curve = [intercept_probability(P, n) for n in range(21)]
    assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    # W monotone in t everywhere; monotone in p on the approximation branch
    # (the two intrinsic exceptions at the classic seam and the K=20 q=2
    # t=19 tail are pinned by direction in the unit suite and printed here)
    for q in (2, 16):
        lo = 1 / q + 0.01
        grid = [lo + (0.90 - lo) * i / 19 for i in range(20)]
        for K in (5, 12, 20):
            for p in grid:
                W = RankTables(K, q, p).W
                assert all(b <= a + 1e-12 for a, b in zip(W, W[1:]))
            for t in range(K):
                col = [RankTables(K, q, p).W[t] for p in grid]
                assert all(b <= a + 1e-12 for a, b in zip(col, col[1:]))
    seam_lo = RankTables(20, 2, 0.5).W[19]
    seam_hi = RankTables(20, 2, 0.500001).W[19]
    tail_92 = RankTables(20, 2, 0.92).W[19]
    tail_95 = RankTables(20, 2, 0.95).W[19]

    # deterministic parallel simulation
    cfg = SimConfig(code=CodeParams(K=4, q=2, p=0.6, n_hat=10),
                    chan=chan, trials=4100, base_seed=13)
    assert estimate(cfg, workers=1) == estimate(cfg, workers=2)
    assert run_trial(cfg, 5) == run_trial(cfg, 5)

    _report(8, "structural invariants", True,
            f"battery={len(battery)} chains; known W exceptions: classic "
            f"seam {seam_lo:.4f}->{seam_hi:.4f} at p=1/2+, tail "
            f"{tail_92:.4f}->{tail_95:.4f} over p=0.92->0.95 (t=K-1 only)")


def test_criterion_9_solver_vs_grid_oracle():
    rng = np.random.default_rng(99)
    configs, gaps = [], []
    while len(configs) < 5:
        K = int(rng.integers(4, 13))
        q = int(rng.choice([2, 16]))
        n_hat = int(rng.integers(K + 4, 3 * K + 5))
        eps_b = float(rng.uniform(0.0, 0.1))
        eps_e = min(1.0, eps_b + float(rng.uniform(0.05, 0.25)))
        d_hat = float(rng.uniform(0.55, 0.9))
        cfg = ImConfig(
            code=CodeParams(K=K, q=q, p=1.0 / q, n_hat=n_hat),
            chan=ChannelParams(eps_b, eps_e, 1.0),
            d_hat=d_hat,
        )
        sol = solve_im(cfg)
        if sol.status != "interior-root":
            continue
        oracle = grid_search_pstar(K, q, n_hat, eps_b, 1.0, d_hat, 0.95)
        assert oracle is not None
        configs.append((K, q, n_hat, round(eps_b, 4), round(d_hat, 4)))
        gaps.append(abs(sol.p_star - oracle))

    sat = solve_im(dataclasses.replace(cfg, d_hat=0.0))
    inf = solve_im(dataclasses.replace(
        cfg, d_hat=1.0, chan=ChannelParams(0.05, 0.3, 1.0)))
    trivial_ok = (sat.status == "saturated-at-pmax"
                  and inf.status == "infeasible")

    ok = max(gaps) <= 2e-4 and trivial_ok
    _report(9, "solver agrees with 1e-4 grid oracle", ok,
            f"max_gap={max(gaps):.2e} bound=2e-4 over {len(configs)} "
            f"feasible configs; trivial statuses "
            f"{sat.status}/{inf.status}")
    for c, g in zip(configs, gaps):
        print(f"    config (K,q,N_hat,eps_b,D_hat)={c}  gap={g:.2e}")
    assert ok
