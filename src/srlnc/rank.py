"""Rank statistics of sparse random matrices over GF(q).

Everything here is driven by one scalar: the probability ``lam`` that scaling
a biased coefficient by a fixed nonzero constant leaves the uniform character
sum unchanged, ``lam = 1 - q(1-p)/(q-1)``.  From it we get

* ``rho(c, r)``: probability that a fixed nonzero combination of ``c``
  independent sparse columns of height ``r`` is the zero vector,
  ``[ (1/q) (1 + (q-1) lam^c) ]^r``;
* ``pi(ell, r)``: signed correction terms obtained by peeling smaller
  zero-sum subsets out of ``rho`` with a binomial convolution;
* ``full_rank_prob(r, c)``: exponential approximation of the probability that
  an ``r x c`` sparse matrix (``r >= c``) has rank ``c``;
* ``RankTables.innovation_probability(t)``: probability that one more sparse
  vector is independent of ``t`` already-independent ones, for ``t < K``.

At ``p = 1/q`` exactly, every output switches to the closed classic-RLNC
formulas (``1 - q^(t-K)`` and the full-rank product), which are exact rather
than approximate.  For ``p > 1/q`` the approximation is known to be tight for
moderate dimensions but carries no formal error bound; the test suite
pins it against exhaustive enumeration for small matrices.

The recursion for ``pi`` is printed ambiguously in its source: the second
subscript of the convolution factor reads as the subset size where a row
count would be expected.  Read literally, the factor is rho(s, ell); here it
is rho(s, r), the row-count reading, which makes ``pi(ell, r)`` the
probability that ``ell`` specific columns form a minimal zero-sum set.  That
is the reading exhaustive enumeration verifies, and the only one implemented.

Tables.  One rank model exists per ``(q, p)``, kept warm by an lru cache.
It holds ``pi(ell, r)`` for ``ell <= L``, ``r = 0 .. R`` in one numpy array,
built one order at a time: one multiply writes every term
``(C(ell-1, s) rho(s, .)) pi(ell-s, .)``, s = 1 .. ell-1, into rows below
``rho(ell, .)``, and ``np.subtract.reduce`` down the rows subtracts them one
row after another, so each element sees the scalar ``val -= term(s)`` in
ascending ``s``, bit for bit (subtract has no pairwise path; a sum has one).
A wider request rebuilds the array (``r`` at least doubling) without changing
the values it held.  ``full_rank_probs(c, r_max)`` gives ``full_rank_prob(r,
c)`` for every ``r = c .. r_max`` (memoised per ``c``), the innovation table W
of ``RankTables`` uses the column ``r = K``, and the scalar ``pi`` and
``full_rank_prob`` are lookups.

Negative ``pi``.  ``pi`` is read as a probability but the recursion itself
goes negative in places: ``RankTables(20, 2, 0.9).pi(19, 20)`` is about
``-5.46e-8``, and a 40-digit mpmath evaluation of the same recursion agrees to
12 digits.  It is not floating-point cancellation, so no reordering of the
arithmetic removes it; making ``pi`` nonnegative is a change of model.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from .errors import ConfigError
from .gf import get_field

log = logging.getLogger(__name__)

def _binom(n: int, k: int) -> float:
    """Binomial coefficient as a float; log-gamma above 60 to dodge overflow."""
    if k < 0 or k > n:
        return 0.0
    if n <= 60:
        return float(math.comb(n, k))
    return math.exp(
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


@functools.lru_cache(maxsize=1024)
def _binom_row(n: int) -> np.ndarray:
    """Read-only array of _binom(n, k) for k = 0 .. n."""
    row = np.array([_binom(n, k) for k in range(n + 1)])
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=64)
def _pascal(n: int) -> np.ndarray:
    """Read-only array of _binom(i, k) for i, k = 0 .. n (zero for k > i)."""
    out = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        out[i, : i + 1] = _binom_row(i)
    out.flags.writeable = False
    return out


def classic_full_rank_prob(r: int, c: int, q: int) -> float:
    """Exact classic (uniform-coefficient) full-rank probability of an r x c
    matrix with r >= c: prod_{i=0}^{c-1} (1 - q^(i-r))."""
    out = 1.0
    for i in range(c):
        out *= 1.0 - float(q) ** (i - r)
    return out


def classic_innovation_prob(t: int, K: int, q: int) -> float:
    """Exact classic probability that a fresh uniform vector escapes a
    t-dimensional subspace of GF(q)^K: 1 - q^(t-K)."""
    return 1.0 - float(q) ** (t - K)


def _validate_pq(p: float, q: int) -> None:
    get_field(q)
    if not (1.0 / q <= p < 1.0):
        raise ConfigError(f"p={p} outside [1/q, 1) for q={q}")


class _SparseRankModel:
    """rho/pi/full-rank machinery for one (q, p).

    Independent of the generation size.  ``_pi[ell - 1, r]`` holds pi(ell, r)
    for r = 0 .. R; the array is replaced by a larger one when a caller needs
    more, never written in place, so readers always see a complete table.
    """

    def __init__(self, q: int, p: float):
        _validate_pq(p, q)
        self.q = q
        self.p = p
        self.classic = p == 1.0 / q
        self._lam = 1.0 - q * (1.0 - p) / (q - 1.0)
        self._pi = np.empty((0, 0))
        self._full_rank: dict[int, np.ndarray] = {}
        self._overflowed: set[int] = set()  # columns c already logged

    def _per_row(self, c: int) -> float:
        return (1.0 + (self.q - 1.0) * self._lam**c) / self.q

    def rho(self, c: int, r: int) -> float:
        """P(a fixed nonzero combination of c sparse columns of height r
        sums to zero)."""
        if c < 0 or r < 0:
            raise ConfigError("rho needs nonnegative arguments")
        return self._per_row(c) ** r

    def pi_table(self, ell_max: int, r_max: int) -> np.ndarray:
        """Array whose entry [ell - 1, r] is pi(ell, r), covering at least
        ell = 1 .. ell_max and r = 0 .. r_max."""
        L, R = self._pi.shape
        if ell_max > L or r_max >= R:
            # Widening r at least doubles the table, so a caller stepping r
            # upwards one at a time triggers O(log r) rebuilds, not O(r).
            R = R if r_max < R else max(r_max + 1, 2 * R)
            self._pi = self._build_pi(max(ell_max, L), R)
        return self._pi

    def _build_pi(self, L: int, R: int) -> np.ndarray:
        per_row = [self._per_row(c) for c in range(L + 1)]
        rho = np.power(np.array(per_row)[:, None], np.arange(R))
        pi = np.empty((L, R))
        # Row 0 holds rho(ell, .), row s the term (C(ell-1, s) rho(s, .))
        # pi(ell-s, .); subtract.reduce goes down the rows one at a time.
        work = np.empty((L, R))
        for ell in range(1, L + 1):
            work[0] = rho[ell]
            np.multiply(_binom_row(ell - 1)[1:ell, None] * rho[1:ell],
                        pi[: ell - 1][::-1], out=work[1:ell])
            np.subtract.reduce(work[:ell], axis=0, out=pi[ell - 1])
        pi.flags.writeable = False
        return pi

    def pi(self, ell: int, r: int) -> float:
        """Signed correction term of order ell for columns of height r."""
        if not (isinstance(ell, int) and isinstance(r, int)) or ell < 1 or r < 0:
            raise ConfigError(f"pi needs integers ell >= 1 and r >= 0, got {ell}, {r}")
        return float(self.pi_table(ell, r)[ell - 1, r])

    def full_rank_probs(self, c: int, r_max: int) -> np.ndarray:
        """Read-only array of full_rank_prob(r, c) for r = c .. r_max."""
        if not (isinstance(c, int) and isinstance(r_max, int)) or not 0 <= c <= r_max:
            raise ConfigError(
                f"full-rank probabilities need integers r >= c >= 0, "
                f"got r={r_max}, c={c}"
            )
        got = self._full_rank.get(c)
        if got is None or len(got) <= r_max - c:
            got = self._full_rank_column(c, r_max)
            got.flags.writeable = False
            self._full_rank[c] = got
        return got[: r_max - c + 1]

    def _full_rank_column(self, c: int, r_max: int) -> np.ndarray:
        """full_rank_prob(r, c) for r = c up to r_max or further, as far as
        the pi table reaches."""
        if c == 0:
            return np.ones(r_max + 1)
        if self.classic:
            return np.array([classic_full_rank_prob(r, c, self.q)
                             for r in range(c, r_max + 1)])
        pi = self.pi_table(c, r_max)[:, c:]
        # base > 0 because p < 1 and r >= 1.
        base = 1.0 - self.p ** np.arange(c, c + pi.shape[1])
        # Row ell - 1 is order ell; row 0 (order 1 is not in the sum) is the
        # zero start, and the running sum adds one order at a time.
        powers = np.array([base**ell for ell in range(1, c + 1)])
        terms = _binom_row(c)[1:, None] * pi[:c] / powers
        terms[0] = 0.0
        expo = np.cumsum(terms, axis=0)[-1]
        with np.errstate(over="ignore"):
            decay = np.exp(-expo)
        if np.isinf(decay).any() and c not in self._overflowed:
            self._overflowed.add(c)
            log.warning("full-rank exponent overflows at q=%d p=%g c=%d; "
                        "approximation outside its range", self.q, self.p, c)
        return np.clip(base**c * decay, 0.0, 1.0)

    def full_rank_prob(self, r: int, c: int) -> float:
        """P(an r x c sparse random matrix has rank c), for r >= c >= 0."""
        return float(self.full_rank_probs(c, r)[r - c])


@functools.lru_cache(maxsize=256)
def _model(q: int, p: float) -> _SparseRankModel:
    return _SparseRankModel(q, p)


def rho(c: int, r: int, p: float, q: int) -> float:
    """Module-level convenience wrapper; see _SparseRankModel.rho."""
    return _model(q, p).rho(c, r)


def full_rank_prob(r: int, c: int, p: float, q: int) -> float:
    """Full-rank probability of an r x c sparse matrix (r >= c)."""
    return _model(q, p).full_rank_prob(r, c)


class RankTables:
    """Innovation and full-rank probabilities for one (K, q, p).

    Every value comes from the row-count pi recursion of the module
    docstring, held by the rank model that all tables of one (q, p) share.
    The innovation table ``W[t]`` for ``t = 0 .. K-1`` is built from its pi
    table on first use, so callers that only need full-rank probabilities
    (the delivery constraint) never pay for it.  Instances are cheap and safe
    to share between threads: the shared model only ever replaces its arrays
    by larger complete ones.

    W[t] is the probability that, given t mutually independent sparse columns
    of height K, one more sparse column is independent of them.  It is exact
    at p = 1/q and an approximation above; it is clamped to [0, 1] and checked
    to be nonincreasing in t (violations beyond 1e-9 are logged, not raised,
    because extreme p can push the approximation outside its comfort zone).
    """

    def __init__(self, K: int, q: int, p: float):
        if not isinstance(K, int) or K < 1:
            raise ConfigError(f"K must be a positive integer, got {K!r}")
        self.K = K
        self.q = q
        self.p = p
        self._mdl = _model(q, p)
        self.classic = self._mdl.classic

    @functools.cached_property
    def W(self) -> tuple[float, ...]:
        """Innovation table, W[t] for t = 0 .. K-1."""
        W = self._innovation_table()
        worst = max((W[t + 1] - W[t] for t in range(self.K - 1)), default=0.0)
        if worst > 1e-9:
            log.warning(
                "innovation table not monotone at K=%d q=%d p=%g "
                "(worst increase %.3g); approximation outside its range",
                self.K, self.q, self.p, worst,
            )
        return W

    def _innovation_table(self) -> tuple[float, ...]:
        K = self.K
        if self.classic:
            return tuple(classic_innovation_prob(t, K, self.q) for t in range(K))
        pi = self._mdl.pi_table(K, K)[:, K]
        # base > 0 because p < 1 and K >= 1.
        base = 1.0 - self.p**K
        # W[t] sums over ell = 2 .. t+1 with weight C(t, ell-1): row ell - 2 of
        # `terms` is order ell for every t (0 for t < ell - 1), and the running
        # sum down the rows adds one order at a time, as a loop over ell would.
        binoms = _pascal(K - 1)[:, 1:].T
        powers = np.array([base**ell for ell in range(2, K + 1)])
        terms = np.where(binoms > 0.0, binoms * pi[1:K, None] / powers[:, None], 0.0)
        expo = np.cumsum(terms, axis=0)[-1] if K > 1 else np.zeros(1)
        # At extreme p, exp overflows to inf; the clip maps it to 1 and the W
        # property logs the non-monotone table, so numpy's warning adds nothing.
        with np.errstate(over="ignore"):
            return tuple(np.clip(base * np.exp(-expo), 0.0, 1.0).tolist())

    def innovation_probability(self, t: int) -> float:
        """W[t] for 0 <= t <= K-1."""
        if not isinstance(t, int) or not (0 <= t < self.K):
            raise ConfigError(f"t={t!r} outside 0..{self.K - 1}")
        return self.W[t]

    def full_rank_prob(self, r: int, c: int) -> float:
        return self._mdl.full_rank_prob(r, c)

    def full_rank_probs(self, c: int, r_max: int) -> np.ndarray:
        """Read-only array of full_rank_prob(r, c) for r = c .. r_max."""
        return self._mdl.full_rank_probs(c, r_max)

    def rho(self, c: int, r: int) -> float:
        return self._mdl.rho(c, r)

    def pi(self, ell: int, r: int) -> float:
        return self._mdl.pi(ell, r)

    def matches(self, K: int, q: int, p: float) -> bool:
        return self.K == K and self.q == q and self.p == p


# -- exhaustive enumeration ---------------------------------------------------
#
# Ground truth for small matrices: sum the coefficient-law weight of every
# possible r x c matrix whose rank is c.  Exponential in r*c, guarded by
# `limit`; used by the CLI's --with-oracle column and for audits.

_ENUM_LIMIT = 1 << 21


# Matrices ranked per call of the elimination kernel.
_ENUM_BATCH = 1 << 14


def exact_full_rank_prob(r: int, c: int, p: float, q: int,
                         limit: int = _ENUM_LIMIT) -> float:
    """Exact P(rank = c) of an r x c biased-sparse matrix by enumeration.

    Refuses to enumerate more than `limit` matrices (q ** (r*c) of them).
    The matrices are ranked in batches by ``GF.prefix_pivots`` and counted
    by their number of nonzero entries, which fixes their weight.
    """
    _validate_pq(p, q)
    if c < 0 or r < c:
        raise ConfigError(f"enumeration needs r >= c >= 0, got {r}, {c}")
    if c == 0:
        return 1.0
    cells = r * c
    total = q ** cells
    if total > limit:
        raise ConfigError(
            f"enumeration of q^(r*c) = {q}^{cells} matrices exceeds the "
            f"limit of {limit}"
        )
    gfq = get_field(q)
    # Matrix number n holds digit k of n in base q at cell k, row-major.
    shifts = np.arange(0, gfq.m * cells, gfq.m, dtype=np.uint64)
    full = np.zeros(cells + 1, dtype=np.int64)  # full-rank count per nonzeros
    for start in range(0, total, _ENUM_BATCH):
        n = np.arange(start, min(start + _ENUM_BATCH, total), dtype=np.uint64)
        cell = ((n[:, None] >> shifts) & np.uint64(q - 1)).astype(np.uint8)
        ok = gfq.prefix_pivots(cell.reshape(-1, r, c)).sum(axis=1) == c
        full += np.bincount(np.count_nonzero(cell[ok], axis=1),
                            minlength=cells + 1)
    nz = np.arange(cells + 1)
    w_nz = (1.0 - p) / (q - 1.0)
    return float(np.sum(full * (p ** (cells - nz) * w_nz ** nz)))


def exact_innovation_prob(t: int, K: int, p: float, q: int,
                          limit: int = _ENUM_LIMIT) -> float:
    """Exact counterpart of the innovation probability W[t] by enumeration.

    Ratio of the exact full-rank probabilities of t+1 and t columns of
    height K: the chance that vector t+1 is innovative given the first t
    were mutually independent.
    """
    if not 0 <= t < K:
        raise ConfigError(f"t={t!r} outside 0..{K - 1}")
    # The denominator is positive for every p < 1: any full-rank matrix
    # carries positive weight under the coefficient law.
    denom = exact_full_rank_prob(K, t, p, q, limit)
    return exact_full_rank_prob(K, t + 1, p, q, limit) / denom
