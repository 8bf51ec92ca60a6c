"""Sparsity optimization: minimize interception subject to delivery.

The problem is to pick the coefficient sparsity p that minimizes the
eavesdropper's intercept probability while keeping the legitimate receiver's
delivery probability at or above a floor d_hat.  Over the operating range
(feedback mostly jammed), the intercept probability falls with p while
delivery also falls with p, so the optimum sits where the delivery constraint
becomes active: the solver is a bisection on delivery(p) - d_hat, not a
generic optimizer.  The intercept values at the solution and at the classic
endpoint p = 1/q are reported alongside so the monotonicity assumption can be
audited for any parameter set.

Delivery comes from the rank kernel of ``srlnc.rank``, which evaluates many
sparsities in one call.  The 50-point monotonicity audit is one such call,
on rank models that stay in the shared model cache.  The bisection asks one
call for the midpoints of its next three levels (seven points, on models that
are dropped afterwards), then walks them in the order a one-midpoint-at-a-time
bisection visits them: every midpoint, its delivery, the early exits, the
iteration count and the final bracket are the same, bit for bit.

`intercept_gain` produces the payoff curve: for a range of transmission
budgets it solves the constrained problem and estimates, by simulation, how
much interception the optimized sparsity removes compared with classic
uniform coding.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# delivery_probability is the one-p form of the batched delivery below; it
# stays importable here, beside the names the solver calls, for bench/spans.py.
from .chain import (
    ChannelParams,
    DEFAULT_MODE,
    TRANSITION_MODES,
    _reception_weights,
    build_chain,
    delivery_probability,
    intercept_probability,
)
from .coding import CodeParams
from .errors import ConfigError, NumericalIntegrityError
from .rank import RankTables, _fill_full_rank, _model, _SparseRankModel
from .sim import SimConfig, estimate

log = logging.getLogger(__name__)

# Bisection steps at most; the bracket falls below 1e-13 well before.
_MAX_ITER = 100
# Grid size for the pre-bisection monotonicity audit of delivery(p).
_MONOTONE_GRID = 50
_MONOTONE_SLACK = 1e-10
# Bisection levels whose midpoints one kernel call evaluates ahead of the walk
# (two measured about the same, four slower).
_LOOKAHEAD = 3


@dataclass(frozen=True)
class ImConfig:
    """Inputs of one constrained-sparsity solve.

    code.p is ignored (p is the decision variable); code supplies K, q and
    the transmission budget.  The search runs over [1/q, p_max].  Delivery
    and intercept come from the one pi recursion of ``srlnc.rank``; mode
    picks the chain's transition law.
    """

    code: CodeParams
    chan: ChannelParams
    d_hat: float = 0.99
    p_max: float = 0.95
    tol: float = 1e-6
    mode: str = DEFAULT_MODE

    def __post_init__(self) -> None:
        if not 0.0 <= self.d_hat <= 1.0:
            raise ConfigError(f"d_hat={self.d_hat!r} must be in [0, 1]")
        if not self.p_min < self.p_max < 1.0:
            raise ConfigError(
                f"p_max={self.p_max!r} must lie in (1/q, 1) = "
                f"({self.p_min}, 1) for q={self.code.q}"
            )
        if not self.tol > 0.0:
            raise ConfigError(f"tol={self.tol!r} must be positive")
        if self.mode not in TRANSITION_MODES:
            raise ConfigError(
                f"mode must be one of {TRANSITION_MODES}, got {self.mode!r}"
            )

    @property
    def p_min(self) -> float:
        return 1.0 / self.code.q


@dataclass(frozen=True)
class ImSolution:
    """Result of one solve.

    delivery/intercept are evaluated at p_star (None when infeasible);
    intercept_classic is the model intercept at p = 1/q for the same budget,
    kept for auditing the gain the optimizer claims.  bracket_width is the
    final bisection bracket (0 for saturated solutions).
    """

    p_star: float | None
    delivery: float | None
    intercept: float | None
    intercept_classic: float
    status: str
    iterations: int
    bracket_width: float


def _filled_models(cfg: ImConfig, ps, shared: bool) -> list[_SparseRankModel]:
    """Rank models at every p in ps, their full-rank column K filled up to
    n_hat by one kernel call.  Shared models come from the rank module's
    cache and stay there; the others are dropped with the list."""
    q = cfg.code.q
    models = [_model(q, p) if shared else _SparseRankModel(q, p) for p in ps]
    _fill_full_rank(models, cfg.code.K, cfg.code.n_hat)
    return models


def _delivery(cfg: ImConfig, weights: np.ndarray, model: _SparseRankModel) -> float:
    """delivery_probability at the model's p, given its reception weights."""
    K, N = cfg.code.K, cfg.code.n_hat
    return min(1.0, float(weights @ model.full_rank_probs(K, N)))


def _delivery_curve(cfg: ImConfig, ps) -> list[float]:
    """delivery_probability at every p in ps, from one kernel call."""
    weights = _reception_weights(cfg.code.K, cfg.code.n_hat, cfg.chan.eps_b)
    return [_delivery(cfg, weights, m) for m in _filled_models(cfg, ps, shared=True)]


def _midpoints(lo: float, hi: float) -> list[float]:
    """Every midpoint the bisection can reach in its next _LOOKAHEAD steps
    from the bracket [lo, hi], computed as the walk computes it."""
    brackets, mids = [(lo, hi)], []
    for _ in range(_LOOKAHEAD):
        halves = []
        for a, b in brackets:
            mid = 0.5 * (a + b)
            mids.append(mid)
            halves += [(a, mid), (mid, b)]
        brackets = halves
    return mids


def _model_intercept(cfg: ImConfig, p: float) -> float:
    code = dataclasses.replace(cfg.code, p=p)
    P = build_chain(code, cfg.chan, RankTables(code.K, code.q, p), cfg.mode)
    return intercept_probability(P, code.n_hat)


def solve_im(cfg: ImConfig) -> ImSolution:
    """Find the largest sparsity p in [1/q, p_max] with delivery(p) >= d_hat.

    Delivery is checked to be nonincreasing on a 50-point grid first; a
    violation aborts with a numerical-integrity error rather than returning a
    root of a function that is not actually monotone.
    """
    # The grid starts a hair above p_min: at exactly 1/q delivery switches to
    # the closed-form classic branch, which sits below the approximation's
    # right-limit, and that model seam is not the bisection's problem.  The
    # midpoints the search actually evaluates all lie strictly above 1/q.
    grid = np.linspace(cfg.p_min, cfg.p_max, _MONOTONE_GRID)
    grid[0] = cfg.p_min + 1e-9 * (cfg.p_max - cfg.p_min)
    vals = _delivery_curve(cfg, grid.tolist())
    worst = max(b - a for a, b in zip(vals, vals[1:]))
    if worst > _MONOTONE_SLACK:
        at = int(np.argmax(np.diff(vals)))
        raise NumericalIntegrityError(
            f"delivery is not nonincreasing over [{cfg.p_min}, {cfg.p_max}]: "
            f"it rises by {worst:.3e} near p={grid[at]:.4f}; bisection needs "
            "a monotone constraint, try a finer evaluation grid or narrower "
            "p_max"
        )

    i_classic = _model_intercept(cfg, cfg.p_min)

    d_lo, d_hi = vals[0], vals[-1]
    if d_lo < cfg.d_hat:
        log.warning(
            "constraint infeasible: delivery(%.4f) = %.6f < d_hat = %.6f",
            cfg.p_min, d_lo, cfg.d_hat,
        )
        return ImSolution(
            p_star=None, delivery=None, intercept=None,
            intercept_classic=i_classic, status="infeasible",
            iterations=0, bracket_width=0.0,
        )
    if d_hi >= cfg.d_hat:
        return ImSolution(
            p_star=cfg.p_max, delivery=d_hi,
            intercept=_model_intercept(cfg, cfg.p_max),
            intercept_classic=i_classic, status="saturated-at-pmax",
            iterations=0, bracket_width=0.0,
        )

    lo, hi = float(grid[0]), cfg.p_max  # delivery(lo) >= d_hat > delivery(hi)
    best_p, best_d = lo, d_lo
    iterations = 0
    # Midpoint -> rank model, filled for the next _LOOKAHEAD levels; delivery
    # is read only where the walk goes, and a midpoint outside the batch
    # starts the next one.
    ahead: dict[float, _SparseRankModel] = {}
    weights = _reception_weights(cfg.code.K, cfg.code.n_hat, cfg.chan.eps_b)
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid not in ahead:
            mids = _midpoints(lo, hi)
            ahead = dict(zip(mids, _filled_models(cfg, mids, shared=False)))
        d_mid = _delivery(cfg, weights, ahead[mid])
        iterations += 1
        if d_mid >= cfg.d_hat:
            lo, best_p, best_d = mid, mid, d_mid
            if d_mid - cfg.d_hat <= cfg.tol:
                break
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return ImSolution(
        p_star=best_p, delivery=best_d,
        intercept=_model_intercept(cfg, best_p),
        intercept_classic=i_classic, status="interior-root",
        iterations=iterations, bracket_width=hi - lo,
    )


@dataclass(frozen=True)
class GainPoint:
    """One budget point of the gain curve.

    Simulation-based estimates; ci_low/ci_high bound the gain at 95% using
    the variance sum of the two independent estimates.  Infeasible budgets
    keep status and leave every estimate as None.
    """

    n_hat: int
    p_star: float | None
    status: str
    intercept_classic: float | None
    intercept_opt: float | None
    gain: float | None
    ci_low: float | None
    ci_high: float | None


def _leg_seed(base_seed: int, n_hat: int, leg: str) -> int:
    # imported here: hashlib loads OpenSSL, which nothing else needs
    import hashlib

    digest = hashlib.blake2s(
        f"{base_seed}:{n_hat}:{leg}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def intercept_gain(
    cfg: ImConfig,
    n_hats: Iterable[int],
    trials: int = 10000,
    base_seed: int = 0,
    workers: int | None = None,
) -> list[GainPoint]:
    """Gain of optimized sparsity over classic coding across budgets.

    For each transmission budget, solve the constrained problem, then
    estimate both intercept probabilities by simulation with independent,
    deterministically derived seeds per (budget, leg).
    """
    points: list[GainPoint] = []
    for n_hat in n_hats:
        point_cfg = dataclasses.replace(
            cfg, code=dataclasses.replace(cfg.code, n_hat=int(n_hat))
        )
        sol = solve_im(point_cfg)
        if sol.status == "infeasible":
            points.append(GainPoint(
                n_hat=int(n_hat), p_star=None, status=sol.status,
                intercept_classic=None, intercept_opt=None,
                gain=None, ci_low=None, ci_high=None,
            ))
            continue
        legs = {}
        for leg, p in (("classic", point_cfg.p_min), ("optimized", sol.p_star)):
            code = dataclasses.replace(point_cfg.code, p=p)
            sim_cfg = SimConfig(
                code=code, chan=cfg.chan, trials=trials,
                base_seed=_leg_seed(base_seed, int(n_hat), leg),
            )
            legs[leg] = estimate(sim_cfg, workers=workers)
        i_classic = legs["classic"].intercept_hat
        i_opt = legs["optimized"].intercept_hat
        gain = i_classic - i_opt
        halfwidth = 1.96 * float(np.sqrt(
            i_classic * (1.0 - i_classic) / trials
            + i_opt * (1.0 - i_opt) / trials
        ))
        points.append(GainPoint(
            n_hat=int(n_hat), p_star=sol.p_star, status=sol.status,
            intercept_classic=i_classic, intercept_opt=i_opt,
            gain=gain, ci_low=gain - halfwidth, ci_high=gain + halfwidth,
        ))
    return points
