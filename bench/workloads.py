"""The benchmark's workloads: fixed lists of ``srlnc`` invocations.

Each op is one argument list for ``srlnc.cli.main`` plus the parameters the
checks need.  The lists are cut from the paper's figure panels; only the
simulator seeds vary, derived from the workload seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

K = 20
FIG1_NHAT = 2 * K
FIG1_EPS_B = (0.01, 0.05, 0.1)
FIG1_EPS_K = (0.0, 0.5, 0.85, 0.9, 0.95, 1.0)
FIG2A = dict(eps_b=0.05, eps_e=0.2, eps_k=1.0, d_hat=0.99, p_max=0.95)
# Budgets visited by optimize-fig2: every fifth point of the figure-2 grids
# (K+1 .. 4K at q=2, K+1 .. 100 at q=16) plus each grid's last point.
FIG2_NHAT_STRIDE = 5
# Trials per simulate op: about 20 ms per op at q=2 and 35 ms at q=16.
SIM_TRIALS = {2: 100, 16: 50}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the parameters it was built from."""

    kind: str  # "simulate", "chain" or "optimize"
    argv: tuple[str, ...]
    q: int
    n_hat: int
    eps_b: float
    eps_e: float
    eps_k: float
    p: float | None = None
    trials: int | None = None
    d_hat: float | None = None
    p_max: float | None = None


def fig1_p_grid(q: int) -> list[float]:
    """The sparsity grid of figure 1a (q=2) or 1b (q=16)."""
    if q == 2:
        return [round(0.50 + 0.05 * i, 2) for i in range(9)]
    return [1.0 / q] + [round(0.10 + 0.05 * i, 2) for i in range(17)]


def fig2_nhat_grid(q: int) -> list[int]:
    stop = 4 * K if q == 2 else 100
    grid = list(range(K + 1, stop + 1, FIG2_NHAT_STRIDE))
    return grid if grid[-1] == stop else grid + [stop]


def _point_args(q: int, n_hat: int, eps_b: float, eps_e: float,
                eps_k: float) -> list[str]:
    return ["--K", str(K), "--q", str(q), "--Nhat", str(n_hat),
            "--eps-b", repr(eps_b), "--eps-e", repr(eps_e),
            "--eps-k", repr(eps_k)]


def _sim_ops(q: int, seed: int) -> list[Op]:
    rng = random.Random(f"simulate:{q}:{seed}")
    eps_b, eps_e, trials = 0.01, 0.26, SIM_TRIALS[q]
    ops = []
    for p in fig1_p_grid(q):
        for eps_k in FIG1_EPS_K:
            argv = ["simulate", *_point_args(q, FIG1_NHAT, eps_b, eps_e, eps_k),
                    "--p", repr(p), "--trials", str(trials),
                    "--seed", str(rng.getrandbits(63))]
            ops.append(Op("simulate", tuple(argv), q, FIG1_NHAT, eps_b, eps_e,
                          eps_k, p=p, trials=trials))
    return ops


def _chain_ops() -> list[Op]:
    """Every figure-1a and 1b point, in the order ``srlnc sweep`` visits them."""
    ops = []
    for q in (2, 16):
        for eps_b in FIG1_EPS_B:
            eps_e = round(eps_b + 0.25, 6)
            for p in fig1_p_grid(q):
                for eps_k in FIG1_EPS_K:
                    argv = ["chain", *_point_args(q, FIG1_NHAT, eps_b, eps_e, eps_k),
                            "--p", repr(p)]
                    ops.append(Op("chain", tuple(argv), q, FIG1_NHAT, eps_b,
                                  eps_e, eps_k, p=p))
    return ops


def optimize_op(q: int, n_hat: int, eps_b: float, eps_e: float, eps_k: float,
                d_hat: float, p_max: float) -> Op:
    argv = ["optimize", *_point_args(q, n_hat, eps_b, eps_e, eps_k),
            "--Dhat", repr(d_hat), "--p-max", repr(p_max)]
    return Op("optimize", tuple(argv), q, n_hat, eps_b, eps_e, eps_k,
              d_hat=d_hat, p_max=p_max)


def _optimize_ops() -> list[Op]:
    return [optimize_op(q, n_hat, **FIG2A)
            for q in (2, 16) for n_hat in fig2_nhat_grid(q)]


WORKLOADS = {
    "sim-fig1a": lambda seed: _sim_ops(2, seed),
    "sim-fig1b": lambda seed: _sim_ops(16, seed),
    "chain-fig1": lambda seed: _chain_ops(),
    "optimize-fig2": lambda seed: _optimize_ops(),
}


def probe_ops(workload: str, seed: int) -> list[Op]:
    """Ops the traced run adds so that every layer has spans on every workload.

    A workload's own ops leave some layers idle (no simulation in chain-fig1,
    no rank model in the simulation workloads).  One op at the workload's own
    field size covers them; its spans feed the per-call layer times but not
    the per-op counts.
    """
    q = 16 if workload == "sim-fig1b" else 2
    sim = [op for op in _sim_ops(q, seed) if op.p == 0.7 and op.eps_k == 1.0]
    opt = [optimize_op(q, FIG1_NHAT, 0.01, 0.26, 1.0, 0.99, 0.95)]
    if workload.startswith("sim-"):
        return opt
    if workload == "chain-fig1":
        return sim + opt
    return sim
