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
* ``W(K)[t]``: probability that one more sparse vector of length ``K`` is
  independent of ``t`` already-independent ones, for ``t < K``, in the same
  exponential form (``_exp_form``);
* ``decoding_probabilities``: the reception sum, the chance that a receiver
  losing each of N slots with probability eps collects K independent ones;
* ``delivery_probability(code, chan)``: that sum for Bob, at eps_b.

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

Tables.  ``RankTables(q, p)`` is the one rank model class; ``_model(q, p)``
keeps a shared instance per ``(q, p)`` warm in an lru cache, and the
solver's path models and ``srlnc rank`` build their own.
Every pi value comes from one kernel over a vector of p and a range of
columns r, laid out as (ell, p, r) and built one order at a time: one
multiply writes every term ``(C(ell-1, s) rho(s, .)) pi(ell-s, .)``, s = 1
.. ell-1, into rows below ``rho(ell, .)``, and ``np.subtract.reduce`` down
axis 0 subtracts them one row after another, so each element sees the scalar
``val -= term(s)`` in ascending ``s``, bit for bit (subtract has no pairwise
path; a sum has one).  No pi table is kept.  A model keeps what its readers
come back for: per ``c``, the column ``full_rank_prob(r, c)`` for ``r = c ..
r_max``, built whole for the widest ``r_max`` asked so far, and per ``K``,
the innovation table ``W(K)``, built from pi at the one column ``r = K``.
The scalar ``pi`` runs the kernel at its one column.

The recursion never mixes columns: pi(ell, r) reads rho(., r) and pi(., r)
at the same r only, and the full-rank exponent at r reads column r alone.
So ``_fill_full_rank``, the one writer of full-rank columns, serves many
models of one q from one kernel call, and a model's column is the same
whichever models share the call.

Negative ``pi``.  ``pi`` is read as a probability but the recursion itself
goes negative in places: ``RankTables(2, 0.9).pi(19, 20)`` is about
``-5.46e-8``, and a 40-digit mpmath evaluation of the same recursion agrees to
12 digits.  It is not floating-point cancellation, so no reordering of the
arithmetic removes it; making ``pi`` nonnegative is a change of model.
"""

from __future__ import annotations

import functools
import logging
import math

import numpy as np

from .coding import ChannelParams, CodeParams
from .errors import ConfigError, count, sparsity
from .gf import get_field

log = logging.getLogger(__name__)

def _binom(n: int, k: int) -> float:
    """Binomial coefficient as a float, by log-gamma above 60.  C(n, n/2)
    leaves the float range from n = 1030 on: ConfigError there."""
    if k < 0 or k > n:
        return 0.0
    if n <= 60:
        return float(math.comb(n, k))
    try:
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        )
    except OverflowError:
        raise ConfigError(
            f"C({n}, {k}) overflows a float: row counts and transmission "
            "budgets above 1029 are out of range"
        ) from None


@functools.lru_cache(maxsize=1024)
def _binom_row(n: int) -> np.ndarray:
    """Read-only array of _binom(n, k) for k = 0 .. n."""
    row = np.array([_binom(n, k) for k in range(n + 1)])
    row.flags.writeable = False
    return row


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


def _power(base: np.ndarray, r: np.ndarray) -> np.ndarray:
    """base[..., None] ** r as one power over flat, full operands.

    numpy squares an exponent of 2 that it sees with stride 0 (broadcast, or
    a one-element loop of more than one dimension) instead of calling its
    pow, and the two can differ in the last bit.  Flat full operands always
    take pow, whatever the batch's shape.
    """
    shape = (*base.shape, len(r))
    flat = np.power(np.broadcast_to(base[..., None], shape).ravel(),
                    np.broadcast_to(r, shape).ravel())
    return flat.reshape(shape)


def _pi_kernel(per_row: np.ndarray, r: np.ndarray) -> np.ndarray:
    """pi(ell, r) for ell = 1 .. L under every p at once.

    ``per_row[c, j]`` is the per-row zero probability of c columns under the
    j-th p, for c = 0 .. L; entry ``[ell - 1, j, k]`` of the result is
    pi(ell, r[k]) under it.
    """
    L = per_row.shape[0] - 1
    rho = _power(per_row, r)
    pi = np.empty((L, *rho.shape[1:]))
    # Row 0 holds rho(ell, .), row s the term (C(ell-1, s) rho(s, .))
    # pi(ell-s, .); subtract.reduce goes down the rows one at a time.
    work = np.empty_like(pi)
    for ell in range(1, L + 1):
        work[0] = rho[ell]
        np.multiply(_binom_row(ell - 1)[1:ell, None, None] * rho[1:ell],
                    pi[: ell - 1][::-1], out=work[1:ell])
        np.subtract.reduce(work[:ell], axis=0, out=pi[ell - 1])
    return pi


def _full_rank_kernel(p: np.ndarray, pi: np.ndarray,
                      r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """full_rank_prob(r[k], c) under every sparse p[j], with c = len(pi) >= 1.

    ``pi[ell - 1, j, k]`` is pi(ell, r[k]) under p[j]; returns the (j, k)
    probabilities and where the exponent overflowed.
    """
    c = pi.shape[0]
    # base > 0 because p < 1 and r >= 1.
    base = 1.0 - _power(p, r)
    powers = np.array([base**ell for ell in range(1, c + 1)])
    terms = _binom_row(c)[1:, None, None] * pi / powers
    terms[0] = 0.0
    return _exp_form(base**c, terms)


def _exp_form(lead, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """clip(lead * exp(-expo), 0, 1), inf read as 1, and where exp overflowed;
    expo adds the rows of ``terms`` (row ell - 1 is order ell) in order."""
    expo = np.cumsum(terms, axis=0)[-1]
    with np.errstate(over="ignore"):
        decay = np.exp(-expo)
    return np.clip(lead * decay, 0.0, 1.0), np.isinf(decay)


class RankTables:
    """The rank model of one sparse code point (q, p), for every generation
    size.  ``_full_rank[c]`` holds full_rank_prob(r, c) for r = c .. as far
    as any caller has asked, and ``_innovation[K]`` the table W(K).  A
    column is replaced by a longer one, never written in place, so readers
    see complete values and an instance is safe to share between threads.
    """

    def __init__(self, q: int, p: float):
        q = get_field(q).q
        p = sparsity(p, q)
        self.q = q
        self.p = p
        self.classic = p == 1.0 / q
        self._lam = 1.0 - q * (1.0 - p) / (q - 1.0)
        self._full_rank: dict[int, np.ndarray] = {}
        # column c -> whether its overflow has been logged; the warning
        # waits for the first read, so columns filled ahead of need stay quiet
        self._overflowed: dict[int, bool] = {}
        self._innovation: dict[int, tuple[float, ...]] = {}

    def _per_rows(self, L: int) -> list[float]:
        """rho(c, 1) for c = 0 .. L: the chance that one row of a fixed
        nonzero combination of c sparse columns is zero."""
        q, lam = self.q, self._lam
        return [(1.0 + (q - 1.0) * lam**c) / q for c in range(L + 1)]

    def _pi_column(self, L: int, r: int) -> np.ndarray:
        """pi(ell, r) for ell = 1 .. L at the one column r."""
        per_row = np.array(self._per_rows(L))[:, None]
        return _pi_kernel(per_row, np.array([r]))[:, 0, 0]

    def rho(self, c: int, r: int) -> float:
        """P(a fixed nonzero combination of c sparse columns of height r
        sums to zero)."""
        c, r = count(c, "c"), count(r, "r")
        # numpy's pow, as in the pi kernel: Python's differs in the last bit
        return float(_power(np.array(self._per_rows(c)[c]), np.array([r]))[0])

    def pi(self, ell: int, r: int) -> float:
        """Signed correction term of order ell for columns of height r."""
        ell, r = count(ell, "ell", low=1), count(r, "r")
        return float(self._pi_column(ell, r)[ell - 1])

    def full_rank_probs(self, c: int, r_max: int) -> np.ndarray:
        """Read-only array of full_rank_prob(r, c) for r = c .. r_max."""
        c = count(c, "c")
        r_max = count(r_max, "r", low=c)
        _fill_full_rank([self], c, r_max)
        if self._overflowed.get(c) is False:
            self._overflowed[c] = True
            log.warning("full-rank exponent overflows at q=%d p=%g c=%d; "
                        "approximation outside its range", self.q, self.p, c)
        return self._full_rank[c][: r_max - c + 1]

    def full_rank_prob(self, r: int, c: int) -> float:
        """P(an r x c sparse random matrix has rank c), for r >= c >= 0."""
        return float(self.full_rank_probs(c, r)[r - c])

    def W(self, K: int) -> tuple[float, ...]:
        """W[t], t = 0 .. K-1: the chance that one more sparse column of
        height K is independent of t mutually independent ones, memoised per
        K.  Exact at p = 1/q and an approximation above, clamped to [0, 1].
        Every read, not only the first, logs a rise in t beyond 1e-9, where
        extreme p has pushed the approximation outside its range."""
        K = count(K, "K", low=1)
        W = self._innovation.get(K)
        if W is None and self.classic:
            W = tuple(classic_innovation_prob(t, K, self.q) for t in range(K))
        elif W is None:
            # built from pi at the one column r = K; base > 0 as p < 1, K >= 1
            base = 1.0 - self.p**K
            # W[t] sums over ell = 2 .. t+1 with weight C(t, ell-1) in row ell-1
            binoms = np.zeros((K, K))
            for t in range(1, K):
                binoms[1:t + 1, t] = _binom_row(t)[1:]
            pi = self._pi_column(K, K)
            powers = np.array([base**ell for ell in range(1, K + 1)])
            terms = np.where(binoms > 0.0, binoms * pi[:, None] / powers[:, None], 0.0)
            W = tuple(_exp_form(base, terms)[0].tolist())
        self._innovation[K] = W
        worst = max((W[t + 1] - W[t] for t in range(K - 1)), default=0.0)
        if worst > 1e-9:
            log.warning(
                "innovation table not monotone at K=%d q=%d p=%g "
                "(worst increase %.3g); approximation outside its range",
                K, self.q, self.p, worst,
            )
        return W


def _fill_full_rank(models: list[RankTables], c: int, r_max: int) -> None:
    """Give every model of one q its full-rank column c up to r_max.

    The only code that writes a full-rank column.  A model whose column is
    shorter gets the whole column r = c .. r_max, which replaces the old one:
    one kernel call covers the sparse models, and the closed form covers
    classic models and c = 0 (an empty product).  ``full_rank_probs`` logs an
    overflow noted here when the column is first read.
    """
    short = [m for m in models if len(m._full_rank.get(c, ())) <= r_max - c]
    sparse = [m for m in short if c and not m.classic]
    cols = {m: np.array([classic_full_rank_prob(r, c, m.q)
                         for r in range(c, r_max + 1)])
            for m in short if m not in sparse}
    if sparse:
        r = np.arange(c, r_max + 1)
        per_row = np.array([m._per_rows(c) for m in sparse]).T
        rows, over = _full_rank_kernel(np.array([m.p for m in sparse]),
                                       _pi_kernel(per_row, r), r)
        cols.update(zip(sparse, rows))
        for m, col_over in zip(sparse, over):
            if col_over.any():
                m._overflowed.setdefault(c, False)
    for m, col in cols.items():
        col.flags.writeable = False
        m._full_rank[c] = col


def decoding_probabilities(models: list[RankTables], K: int, N: int,
                           eps: float) -> list[float]:
    """Per model of one q, the binomial sum over n = K .. N received of
    full_rank_prob(n, K), clamped to 1; one kernel call fills every model."""
    _fill_full_rank(models, K, N)
    n = np.arange(K, N + 1)
    weights = _binom_row(N)[K:] * (1.0 - eps) ** n * eps ** (N - n)
    return [min(1.0, float(weights @ m.full_rank_probs(K, N))) for m in models]


def delivery_probability(code: CodeParams, chan: ChannelParams) -> float:
    """Probability that Bob decodes within the transmission budget: the
    reception sum at eps_b, on the rank model of (code.q, code.p)."""
    return decoding_probabilities([_model(code.q, code.p)], code.K,
                                  code.n_hat, chan.eps_b)[0]


# typed, as get_field: an equal value of another type gets its own model,
# built through the checks, rather than the cached one.
@functools.lru_cache(maxsize=256, typed=True)
def _model(q: int, p: float) -> RankTables:
    return RankTables(q, p)


# -- exhaustive enumeration ---------------------------------------------------
#
# Ground truth for small matrices: sum the coefficient-law weight of every
# possible r x c matrix whose rank is c.  Exponential in r*c, guarded by
# _ENUM_LIMIT; used by the CLI's --with-oracle column and for audits.

_ENUM_LIMIT = 1 << 21


# Matrices ranked per call of the elimination kernel.
_ENUM_BATCH = 1 << 14


def exact_full_rank_prob(r: int, c: int, p: float, q: int) -> float:
    """Exact P(rank = c) of an r x c biased-sparse matrix by enumeration.

    Refuses to enumerate more than _ENUM_LIMIT matrices (q ** (r*c) of them).
    The matrices are ranked in batches by ``GF.prefix_pivots`` and counted
    by their number of nonzero entries, which fixes their weight.
    """
    q = get_field(q).q
    p = sparsity(p, q)
    c = count(c, "c")
    r = count(r, "r", low=c)
    if c == 0:
        return 1.0
    cells = r * c
    total = q ** cells
    if total > _ENUM_LIMIT:
        raise ConfigError(
            f"enumeration of q^(r*c) = {q}^{cells} matrices exceeds the "
            f"limit of {_ENUM_LIMIT}"
        )
    gfq = get_field(q)
    m = gfq.m
    # Matrix number n holds digit k of n in base q at cell k, row-major, so
    # row i is the c digits from bit m*c*i on: already one word in the
    # packed lane layout of GF.pack (c*m <= 64 because n fits in 64 bits).
    shifts = np.arange(0, m * cells, m, dtype=np.uint64)
    row_mask = np.uint64((1 << m * c) - 1)
    full = np.zeros(cells + 1, dtype=np.int64)  # full-rank count per nonzeros
    for start in range(0, total, _ENUM_BATCH):
        n = np.arange(start, min(start + _ENUM_BATCH, total), dtype=np.uint64)
        rows = (n[:, None] >> shifts[::c]) & row_mask
        ok = gfq.prefix_pivots(rows[:, :, None], c).sum(axis=1) == c
        cell = (n[ok][:, None] >> shifts) & np.uint64(q - 1)
        full += np.bincount(np.count_nonzero(cell, axis=1),
                            minlength=cells + 1)
    nz = np.arange(cells + 1)
    w_nz = (1.0 - p) / (q - 1.0)
    return float(np.sum(full * (p ** (cells - nz) * w_nz ** nz)))


def exact_innovation_prob(t: int, K: int, p: float, q: int) -> float:
    """Exact counterpart of the innovation probability W[t] by enumeration.

    Ratio of the exact full-rank probabilities of t+1 and t columns of
    height K: the chance that vector t+1 is innovative given the first t
    were mutually independent.
    """
    K = count(K, "K")
    t = count(t, "t", high=K - 1)
    # The denominator is positive for every p < 1: any full-rank matrix
    # carries positive weight under the coefficient law.
    denom = exact_full_rank_prob(K, t, p, q)
    return exact_full_rank_prob(K, t + 1, p, q) / denom
