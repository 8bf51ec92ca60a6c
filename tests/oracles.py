"""Reference implementations the test suite trusts.

Everything here favours obvious correctness over speed: exact rational
arithmetic, 40-digit mpmath evaluation, brute-force path walks, polynomial
long division.  Only public
entry points of the package are touched (and only where an oracle must
consume a package object, like a transition matrix), so a bug in the
library cannot leak into the values it is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np


def poly_mul(a: int, b: int, m: int, poly: int) -> int:
    """Multiply a and b in GF(2^m) by shift-and-reduce with `poly`.

    `poly` carries the x^m bit, e.g. 0b10011 for x^4 + x + 1.
    """
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= poly
    return acc


def classic_full_rank(r: int, c: int, q: int) -> Fraction:
    """P(an r x c matrix with iid uniform GF(q) entries has rank c), exact.

    The textbook product: column j is independent of the previous j-1 with
    probability 1 - q^(j-1-r).
    """
    if c > r:
        return Fraction(0)
    out = Fraction(1)
    for i in range(c):
        out *= 1 - Fraction(q) ** (i - r)
    return out


def classic_innovation(t: int, K: int, q: int) -> Fraction:
    """P(a uniform vector avoids a t-dimensional subspace of GF(q)^K)."""
    return 1 - Fraction(q) ** (t - K)


def sparse_full_rank_gf2(r: int, c: int, p: Fraction | float) -> Fraction:
    """P(c biased-sparse columns of height r are linearly independent), GF(2).

    Exact dynamic programme over the span built so far.  A span is stored as
    the frozenset of all 2^dim vectors it contains (bitmask integers), so
    absorbing an outside vector v is span | {s ^ v}.  Mass on paths where
    some column fell inside the span is dropped: full column rank means every
    column was innovative.  Entries are 0 with probability p, 1 otherwise,
    kept as Fractions throughout.
    """
    if c == 0:
        return Fraction(1)
    if c > r:
        return Fraction(0)
    p = Fraction(p).limit_denominator(10**6)
    weights = []
    for v in range(1 << r):
        ones = v.bit_count()
        weights.append(p ** (r - ones) * (1 - p) ** ones)
    dist: dict[frozenset[int], Fraction] = {frozenset({0}): Fraction(1)}
    for _ in range(c):
        grown: dict[frozenset[int], Fraction] = {}
        for span, mass in dist.items():
            for v in range(1 << r):
                if v in span:
                    continue
                bigger = frozenset(span | {s ^ v for s in span})
                w = mass * weights[v]
                if bigger in grown:
                    grown[bigger] += w
                else:
                    grown[bigger] = w
        dist = grown
    return sum(dist.values(), Fraction(0))


def sparse_innovation_gf2(t: int, K: int, p) -> Fraction:
    """Exact P(column t+1 innovative | first t independent), sparse GF(2)."""
    return sparse_full_rank_gf2(K, t + 1, p) / sparse_full_rank_gf2(K, t, p)


def chain_intercept_by_paths(P, n_hat: int) -> float:
    """Intercept probability by walking every transition path of n_hat steps.

    Exponential in n_hat: intended for K <= 2 and n_hat <= 4.  Consumes only
    the public triplet dump, so it exercises none of the propagation code.
    Absorbing states self-loop in the dump, which makes "reached within n
    steps" the same as "occupied after exactly n steps".
    """
    from srlnc import initial_label, intercept_labels

    adj: dict[int, list[tuple[int, float]]] = {}
    for i, j, w in P.triplets():
        adj.setdefault(i, []).append((j, w))
    targets = frozenset(intercept_labels(P.K))

    def walk(label: int, steps: int) -> float:
        if steps == 0:
            return 1.0 if label in targets else 0.0
        return sum(w * walk(j, steps - 1) for j, w in adj.get(label, ()))

    return walk(initial_label(P.K), n_hat)


def chain_distribution_dense(P, n_hat: int) -> list[float]:
    """Distribution after n_hat slots by dense vector-matrix products.

    Expands the public triplet dump into a full S x S matrix of Python
    floats and multiplies the distribution through it slot by slot, with no
    numpy and none of the package's propagation code.
    """
    from srlnc import initial_label, n_states

    S = n_states(P.K)
    dense = [[0.0] * S for _ in range(S)]
    for i, j, w in P.triplets():
        dense[i][j] += w
    dist = [0.0] * S
    dist[initial_label(P.K)] = 1.0
    for _ in range(n_hat):
        nxt = [0.0] * S
        for mass, row in zip(dist, dense):
            if mass:
                nxt = [acc + mass * w for acc, w in zip(nxt, row)]
        dist = nxt
    return dist


def innovation_table_by_loop(tables) -> tuple[float, ...]:
    """W of a sparse (p > 1/q) RankTables, one term of its exponent at a time.

    expo[t] accumulates C(t, ell-1) pi(ell, K) / base^ell over ell = 2 .. t+1
    in ascending ell, with base = 1 - p^K, and W = clip(base exp(-expo), 0, 1).
    The same float operations in the same order as the package's table, so
    the two must agree bit for bit; pi comes from the public scalar pi.
    Binomials are exact up to K = 61.
    """
    K = tables.K
    base = 1.0 - tables.p ** K
    expo = np.zeros(K)
    for ell in range(2, K + 1):
        pi = tables.pi(ell, K)
        for t in range(ell - 1, K):
            expo[t] += float(math.comb(t, ell - 1)) * pi / base ** ell
    with np.errstate(over="ignore"):
        return tuple(np.clip(base * np.exp(-expo), 0.0, 1.0).tolist())


def pi_table_by_loop(model, L: int, R: int) -> np.ndarray:
    """The (L, R) pi table of a rank model, one term of the recursion at a time.

    pi(ell, .) = rho(ell, .) - sum_{s=1}^{ell-1} (C(ell-1, s) rho(s, .)) pi(ell-s, .)
    with the terms subtracted in ascending s, where rho(s, .) is
    model.rho(s, 1) ** r.  The same float operations in the same order as the
    package's pi kernel over the columns r = 0 .. R-1, so the two must agree
    bit for bit.  Binomials are exact up to L = 61.
    """
    r = np.arange(R)
    rho = [model.rho(c, 1) ** r for c in range(L + 1)]
    pi = np.empty((L, R))
    for ell in range(1, L + 1):
        val = rho[ell].copy()
        for s in range(1, ell):
            val -= (float(math.comb(ell - 1, s)) * rho[s]) * pi[ell - s - 1]
        pi[ell - 1] = val
    return pi


def full_rank_column_by_loop(model, c: int, r_max: int) -> np.ndarray:
    """full_rank_prob(r, c) of a sparse (p > 1/q) rank model for r = c ..
    r_max, one order of the exponent at a time.

    expo accumulates C(c, ell) pi(ell, r) / base^ell over ell = 2 .. c in
    ascending ell, with base = 1 - p^r, and the column is
    clip(base^c exp(-expo), 0, 1).  The same float operations in the same
    order as the package's column, so the two must agree bit for bit; pi comes
    from pi_table_by_loop, not from the package.  Binomials are exact up to
    c = 60.
    """
    pi = pi_table_by_loop(model, c, r_max + 1)[:, c:]
    base = 1.0 - model.p ** np.arange(c, c + pi.shape[1])
    expo = np.zeros(pi.shape[1])
    for ell in range(2, c + 1):
        expo += float(math.comb(c, ell)) * pi[ell - 1] / base**ell
    with np.errstate(over="ignore"):
        return np.clip(base**c * np.exp(-expo), 0.0, 1.0)


def build_chain_reference(code, chan, tables, mode: str = "paper-exact"):
    """The transition matrix built one row at a time, as (src, dst, prob,
    clamp_count).

    Walks the labels in order and fills each row as a dict in the order the
    transition law lists its destinations; the self-loop takes what is left,
    max(0, 1 - sum of the other entries in that order).  Bracket terms that
    go negative are clamped to 0 and counted.  Reads only code.K, the three
    erasure probabilities and tables.W; checks nothing and logs nothing.
    `srlnc.build_chain` must return the same arrays bit for bit.
    """
    K = code.K
    eb, ee, ek = chan.eps_b, chan.eps_e, chan.eps_k
    W = tables.W
    clamps = 0

    def clamped(x: float) -> float:
        nonlocal clamps
        if x < 0.0:
            clamps += 1
            return 0.0
        return x

    def horizontal(d_b: int, d_e: int) -> float:
        if d_b >= d_e:
            return eb * (1.0 - ee) * W[K - d_e]
        return clamped((1.0 - ee) * (W[K - d_e] - (1.0 - eb) * W[K - d_b]))

    def vertical(d_b: int, d_e: int) -> float:
        if d_e >= d_b:
            return ee * (1.0 - eb) * W[K - d_b]
        return clamped((1.0 - eb) * (W[K - d_b] - (1.0 - ee) * W[K - d_e]))

    def diagonal(d_b: int, d_e: int) -> float:
        return (1.0 - eb) * (1.0 - ee) * W[K - min(d_b, d_e)]

    srcs: list[int] = []
    dsts: list[int] = []
    probs: list[float] = []
    for i in range((K + 1) * (K + 2)):
        # labels 0..K: ACK received, Bob done, Eve's defect frozen at i
        ack = i <= K
        d_b, d_e = (0, i) if ack else (i // (K + 1) - 1, i % (K + 1))
        row: dict[int, float] = {}
        if ack:
            pass
        elif d_b >= 2 and d_e >= 1:
            row[i - 1] = horizontal(d_b, d_e)
            row[i - K - 1] = vertical(d_b, d_e)
            row[i - K - 2] = diagonal(d_b, d_e)
        elif d_b == 1 and d_e >= 1:
            row[i - 1] = horizontal(d_b, d_e)
            row[i - K - 1] = ek * vertical(d_b, d_e)
            row[i - K - 2] = ek * diagonal(d_b, d_e)
            row[i - 2 * K - 2] = (1.0 - ek) * vertical(d_b, d_e)
            row[i - 2 * K - 3] = (1.0 - ek) * diagonal(d_b, d_e)
        elif d_b == 0 and d_e >= 1:
            advance = (1.0 - ee) * W[K - d_e]
            row[i - 1] = ek * advance
            if mode == "paper-exact":
                row[i - K - 1] = (1.0 - ek) * advance
                row[i - K - 2] = (1.0 - ek) * (1.0 - advance)
            else:
                row[i - K - 2] = (1.0 - ek) * advance
                row[i - K - 1] = (1.0 - ek) * (1.0 - advance)
        elif d_b >= 2 and d_e == 0:
            row[i - K - 1] = (1.0 - eb) * W[K - d_b]
        elif d_b == 1 and d_e == 0:
            gain = (1.0 - eb) * W[K - 1]
            row[i - 2 * K - 2] = (1.0 - ek) * gain
            row[i - K - 1] = ek * gain
        else:
            row[i - K - 1] = 1.0 - ek
        total = 0.0
        for prob in row.values():
            total += prob
        row[i] = row.get(i, 0.0) + max(0.0, 1.0 - total)
        for j in sorted(row):
            srcs.append(i)
            dsts.append(j)
            probs.append(row[j])
    return np.array(srcs), np.array(dsts), np.array(probs), clamps


def grid_search_pstar(K: int, q: int, n_hat: int, eps_b: float, eps_k: float,
                      d_hat: float, p_max: float, step: float = 1e-4):
    """Largest sparsity on a dense grid whose delivery still meets d_hat.

    Scans the entire grid without early exit (so a non-monotone blip cannot
    fool it) and returns None when no grid point is feasible.  This is the
    dumb-but-sure counterpart of the bisection solver.
    """
    from srlnc import ChannelParams, CodeParams, delivery_probability

    chan = ChannelParams(eps_b=eps_b, eps_e=min(1.0, eps_b + 0.2), eps_k=eps_k)
    p_min = 1.0 / q
    n = int(round((p_max - p_min) / step))
    best = None
    for k in range(n + 1):
        p = p_min + k * step
        if not (p_min <= p < 1.0):
            continue
        code = CodeParams(K=K, q=q, p=p, n_hat=n_hat)
        d = delivery_probability(code, chan)
        if d >= d_hat:
            best = p
    return best


def smoothed_sigma(p_hat: float, trials: int) -> float:
    """Binomial sigma with a +1/+2 smoothed proportion.

    Stays positive when the raw estimate sits at exactly 0 or 1, where the
    plug-in sigma degenerates and a 3-sigma band would have zero width.
    """
    x = round(p_hat * trials)
    pt = (x + 1.0) / (trials + 2.0)
    return (pt * (1.0 - pt) / trials) ** 0.5


class MpRowCountModel:
    """The sparse rank model of one (q, p), row-count reading, at 40 digits.

    Evaluates the pi recursion one scalar at a time, exactly as the model is
    written, with p taken at its exact binary value:

        pi(ell, r) = rho(ell, r) - sum_{s<ell} C(ell-1, s) rho(s, r) pi(ell-s, r)
        R(r, c)    = clamp(b^c exp(-sum_{ell=2}^{c} C(c, ell) pi(ell, r) / b^ell))
        W_t        = clamp(B exp(-sum_{ell=2}^{t+1} C(t, ell-1) pi(ell, K) / B^ell))

    with b = 1 - p^r and B = 1 - p^K.  Shares no code with the package.
    """

    DPS = 40

    def __init__(self, q: int, p: float):
        self.q = q
        with mpmath.workdps(self.DPS):
            self.p = mpmath.mpf(p)
            self.lam = 1 - q * (1 - self.p) / (q - 1)

    def _rho(self, c: int, r: int):
        return ((1 + (self.q - 1) * self.lam ** c) / self.q) ** r

    def _pi_column(self, r: int, ell_max: int) -> list:
        """[pi(1, r), ..., pi(ell_max, r)]."""
        col: list = []
        for ell in range(1, ell_max + 1):
            val = self._rho(ell, r)
            for s in range(1, ell):
                val -= math.comb(ell - 1, s) * self._rho(s, r) * col[ell - s - 1]
            col.append(val)
        return col

    @staticmethod
    def _clamp(x):
        return min(mpmath.mpf(1), max(mpmath.mpf(0), x))

    def full_rank(self, r: int, c: int) -> float:
        with mpmath.workdps(self.DPS):
            pi = self._pi_column(r, c)
            base = 1 - self.p ** r
            expo = mpmath.fsum(math.comb(c, ell) * pi[ell - 1] / base ** ell
                               for ell in range(2, c + 1))
            return float(self._clamp(base ** c * mpmath.exp(-expo)))

    def innovation(self, K: int) -> list[float]:
        with mpmath.workdps(self.DPS):
            pi = self._pi_column(K, K)
            base = 1 - self.p ** K
            out = []
            for t in range(K):
                expo = mpmath.fsum(math.comb(t, ell - 1) * pi[ell - 1] / base ** ell
                                   for ell in range(2, t + 2))
                out.append(float(self._clamp(base * mpmath.exp(-expo))))
            return out



def solve_im_sequential(cfg):
    """The constrained-sparsity solve one sparsity at a time.

    The audit grid and every bisection midpoint are separate
    `delivery_probability` calls, in the order a plain bisection visits
    them, and the result is built the way `srlnc.solve_im` builds it.  The batched solver must return the same
    `ImSolution`, field by field and bit for bit, and raise the same audit
    failure.
    """
    import dataclasses

    from srlnc import NumericalIntegrityError, delivery_probability
    from srlnc.optimize import ImSolution

    def delivery_at(p):
        code = dataclasses.replace(cfg.code, p=p)
        return delivery_probability(code, cfg.chan)

    grid = np.linspace(cfg.p_min, cfg.p_max, 50)
    grid[0] = cfg.p_min + 1e-9 * (cfg.p_max - cfg.p_min)
    vals = [delivery_at(float(p)) for p in grid]
    worst = max(b - a for a, b in zip(vals, vals[1:]))
    if worst > 1e-10:
        at = int(np.argmax(np.diff(vals)))
        raise NumericalIntegrityError(
            f"delivery is not nonincreasing over [{cfg.p_min}, {cfg.p_max}]: "
            f"it rises by {worst:.3e} near p={grid[at]:.4f}; bisection needs "
            "a monotone constraint, try a finer evaluation grid or narrower "
            "p_max"
        )
    d_lo, d_hi = vals[0], vals[-1]
    if d_lo < cfg.d_hat:
        return ImSolution(None, None, "infeasible", 0, 0.0)
    if d_hi >= cfg.d_hat:
        return ImSolution(cfg.p_max, d_hi, "saturated-at-pmax", 0, 0.0)
    lo, hi = float(grid[0]), cfg.p_max
    best_p, best_d = lo, d_lo
    iterations = 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        d_mid = delivery_at(mid)
        iterations += 1
        if d_mid >= cfg.d_hat:
            lo, best_p, best_d = mid, mid, d_mid
            if d_mid - cfg.d_hat <= cfg.tol:
                break
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return ImSolution(best_p, best_d, "interior-root", iterations, hi - lo)
