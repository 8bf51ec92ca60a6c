"""Sparsity optimization: minimize interception subject to delivery.

The problem is to pick the coefficient sparsity p that minimizes the
eavesdropper's intercept probability while keeping the legitimate receiver's
delivery probability at or above a floor d_hat.  Delivery falls with p, and
the solver returns the delivery root p*, the largest p whose delivery meets
d_hat, by a bisection on delivery(p) - d_hat, not a generic optimizer.  p*
minimizes the intercept only where the intercept also falls with p, as it
does with the feedback mostly jammed; with working feedback the model can
price it above classic coding, and ``srlnc optimize`` then logs a warning.
The solver returns p* and the delivery there; the intercept is the
objective priced once the search is over, by ``srlnc.chain.intercept`` at
p* and at the classic endpoint p = 1/q, and the search never reads it.
``srlnc optimize`` prints both.

Delivery is the reception sum of ``srlnc.rank``, whose kernel evaluates many
sparsities in one call, and a pi value does not depend on the batch it is
computed in.  The 50-point monotonicity audit is one such call, on rank
models that stay in the shared model cache.  Its (p, delivery) pairs, and
every midpoint read since, trace the curve the bisection walks down: a cubic
through the four known points around a midpoint predicts which side of the
floor it lands on, and so the walk's path down to the predicted tolerance
exit or the 1e-13 bracket.  One kernel call fills every midpoint of that path (on models
that are dropped afterwards).  The walk itself reads the real delivery at
each midpoint, so every decision, the early exits, the iteration count and
the final bracket are those of a one-midpoint-at-a-time bisection, bit for
bit; a midpoint the prediction missed starts a new prediction from the
points read so far.  At the figure-2a points that is about two kernel calls
per solve.

`intercept_gain` produces the payoff curve: for a range of transmission
budgets it solves the constrained problem and estimates, by simulation, how
much interception the optimized sparsity removes compared with classic
uniform coding.
"""

from __future__ import annotations

import bisect
import dataclasses
import logging
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .coding import ChannelParams, CodeParams
from .errors import ConfigError, NumericalIntegrityError, count, probability
from .rank import RankTables, _fill_full_rank, _model, decoding_probabilities
from .sim import SimConfig, estimate

# The solver calls none of these three.  bench/spans.py wraps them in this
# module's namespace, so they stay importable here until its patch points go.
from .chain import build_chain, intercept_probability
from .rank import delivery_probability

log = logging.getLogger(__name__)

# Bisection steps at most; the bracket falls below 1e-13 well before.
_MAX_ITER = 100
# The bisection stops once a midpoint's delivery is within this of d_hat.
_TOL = 1e-6
# Grid size for the pre-bisection monotonicity audit of delivery(p).
_MONOTONE_GRID = 50
_MONOTONE_SLACK = 1e-10


@dataclass(frozen=True)
class ImConfig:
    """Inputs of one constrained-sparsity solve.

    code.p is ignored (p is the decision variable); code supplies K, q and
    the transmission budget.  The search runs over [1/q, p_max].  Delivery
    comes from the pi recursion of ``srlnc.rank``, and no chain is built, so
    there is no transition law to pick.
    """

    code: CodeParams
    chan: ChannelParams
    d_hat: float = 0.99
    p_max: float = 0.95

    def __post_init__(self) -> None:
        for name in ("d_hat", "p_max"):
            object.__setattr__(self, name, probability(getattr(self, name), name))
        if not self.p_min < self.p_max < 1.0:
            raise ConfigError(
                f"p_max={self.p_max!r} must lie in (1/q, 1) = "
                f"({self.p_min}, 1) for q={self.code.q}"
            )

    @property
    def p_min(self) -> float:
        return 1.0 / self.code.q


@dataclass(frozen=True)
class ImSolution:
    """Result of one solve: p_star and the delivery there (both None when
    infeasible), and bracket_width, the final bisection bracket (0 unless the
    root is interior).  The intercept is ``srlnc.chain.intercept``'s to
    price, at p_star and at p = 1/q; ``srlnc optimize`` prints both.
    """

    p_star: float | None
    delivery: float | None
    status: str
    iterations: int
    bracket_width: float


def _predicted_delivery(ps: list[float], ds: list[float], x: float) -> float:
    """Delivery at x from the cubic through the four known points around it;
    ps is sorted and holds at least four distinct sparsities."""
    i = min(max(bisect.bisect(ps, x) - 2, 0), len(ps) - 4)
    xs, ys = ps[i:i + 4], ds[i:i + 4]
    total = 0.0
    for j in range(4):
        term = ys[j]
        for k in range(4):
            if k != j:
                term *= (x - xs[k]) / (xs[j] - xs[k])
        total += term
    return total


def _bisect(cfg: ImConfig, delivery: Callable[[float, float, float], float],
            lo: float, hi: float) -> tuple[list[float], float, float]:
    """The bisection on delivery >= d_hat from the bracket [lo, hi]: the
    midpoints it visits and its final bracket.

    ``delivery(mid, lo, hi)`` is delivery at the midpoint of [lo, hi].  The
    walk stops at the tolerance exit (lo is then the midpoint), at a
    bracket below 1e-13, or after _MAX_ITER steps.
    """
    mids = []
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        d_mid = delivery(mid, lo, hi)
        if d_mid >= cfg.d_hat:
            lo = mid
            if d_mid - cfg.d_hat <= _TOL:
                break
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return mids, lo, hi


def _predicted_path(cfg: ImConfig, known: dict[float, float],
                    lo: float, hi: float) -> list[float]:
    """The midpoints the bisection visits from the bracket [lo, hi] if
    delivery follows the interpolant of the known (p, delivery) points.  The
    first one is the walk's next midpoint whatever the prediction."""
    ps = sorted(known)
    ds = [known[p] for p in ps]
    return _bisect(cfg, lambda mid, lo, hi: _predicted_delivery(ps, ds, mid),
                   lo, hi)[0]


def _solved(cfg: ImConfig, sol: ImSolution, calls: int = 0,
            filled: int = 0) -> ImSolution:
    """sol, after one DEBUG line on what the bisection cost."""
    log.debug("solve_im K=%d q=%d n_hat=%d: %s after %d iterations, "
              "%d kernel calls, %d midpoints filled", cfg.code.K, cfg.code.q,
              cfg.code.n_hat, sol.status, sol.iterations, calls, filled)
    return sol


def solve_im(cfg: ImConfig) -> ImSolution:
    """Find the largest sparsity p in [1/q, p_max] with delivery(p) >= d_hat.

    Delivery is checked to be nonincreasing on a 50-point grid first; a
    violation aborts with a numerical-integrity error rather than returning a
    root of a function that is not actually monotone.  Only rank models are
    evaluated: the solve builds no chain.
    """
    # The grid starts a hair above p_min: at exactly 1/q delivery switches to
    # the closed-form classic branch, which sits below the approximation's
    # right-limit, and that model seam is not the bisection's problem.  The
    # midpoints the search actually evaluates all lie strictly above 1/q.
    q, K, N, eps_b = cfg.code.q, cfg.code.K, cfg.code.n_hat, cfg.chan.eps_b
    grid = np.linspace(cfg.p_min, cfg.p_max, _MONOTONE_GRID)
    grid[0] = cfg.p_min + 1e-9 * (cfg.p_max - cfg.p_min)
    vals = decoding_probabilities([_model(q, p) for p in grid.tolist()], K, N, eps_b)
    worst = max(b - a for a, b in zip(vals, vals[1:]))
    if worst > _MONOTONE_SLACK:
        at = int(np.argmax(np.diff(vals)))
        raise NumericalIntegrityError(
            f"delivery is not nonincreasing over [{cfg.p_min}, {cfg.p_max}]: "
            f"it rises by {worst:.3e} near p={grid[at]:.4f}; bisection needs "
            "a monotone constraint, try a finer evaluation grid or narrower "
            "p_max"
        )

    d_lo, d_hi = vals[0], vals[-1]
    if d_lo < cfg.d_hat:
        log.warning(
            "constraint infeasible: delivery(%.4f) = %.6f < d_hat = %.6f",
            cfg.p_min, d_lo, cfg.d_hat,
        )
        return _solved(cfg, ImSolution(
            p_star=None, delivery=None, status="infeasible",
            iterations=0, bracket_width=0.0,
        ))
    if d_hi >= cfg.d_hat:
        return _solved(cfg, ImSolution(
            p_star=cfg.p_max, delivery=d_hi, status="saturated-at-pmax",
            iterations=0, bracket_width=0.0,
        ))

    # Every (p, delivery) read so far, and the rank models of the predicted
    # path, filled by one kernel call.  Delivery is read only where the walk
    # goes, so unread midpoints log no overflow; a miss starts a new prediction.
    known = dict(zip(grid.tolist(), vals))
    ahead: dict[float, RankTables] = {}
    calls = filled = 0

    def delivery(mid: float, lo: float, hi: float) -> float:
        nonlocal ahead, calls, filled
        if mid not in ahead:
            path = _predicted_path(cfg, known, lo, hi)
            models = [RankTables(q, p) for p in path]
            _fill_full_rank(models, K, N)
            ahead = dict(zip(path, models))
            calls += 1
            filled += len(path)
        [known[mid]] = decoding_probabilities([ahead[mid]], K, N, eps_b)
        return known[mid]

    # delivery(lo) >= d_hat > delivery(hi), and lo stays a point read
    mids, lo, hi = _bisect(cfg, delivery, float(grid[0]), cfg.p_max)
    return _solved(cfg, ImSolution(
        p_star=lo, delivery=known[lo], status="interior-root",
        iterations=len(mids), bracket_width=hi - lo,
    ), calls, filled)


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
    workers: int = 1,
) -> list[GainPoint]:
    """Gain of optimized sparsity over classic coding across budgets.

    For each transmission budget, solve the constrained problem, then
    estimate both intercept probabilities by simulation with independent,
    deterministically derived seeds per (budget, leg).  ``workers`` is
    checked before any solve, even where no budget is feasible.
    """
    workers = count(workers, "workers", low=1)
    points: list[GainPoint] = []
    for n_hat in n_hats:
        n_hat = count(n_hat, "n_hat")
        point_cfg = dataclasses.replace(
            cfg, code=dataclasses.replace(cfg.code, n_hat=n_hat)
        )
        sol = solve_im(point_cfg)
        if sol.status == "infeasible":
            points.append(GainPoint(
                n_hat=n_hat, p_star=None, status=sol.status,
                intercept_classic=None, intercept_opt=None,
                gain=None, ci_low=None, ci_high=None,
            ))
            continue
        legs = {}
        for leg, p in (("classic", point_cfg.p_min), ("optimized", sol.p_star)):
            code = dataclasses.replace(point_cfg.code, p=p)
            sim_cfg = SimConfig(
                code=code, chan=cfg.chan, trials=trials,
                base_seed=_leg_seed(base_seed, n_hat, leg),
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
            n_hat=n_hat, p_star=sol.p_star, status=sol.status,
            intercept_classic=i_classic, intercept_opt=i_opt,
            gain=gain, ci_low=gain - halfwidth, ci_high=gain + halfwidth,
        ))
    return points
