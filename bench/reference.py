"""Reference computations the benchmark checks srlnc's outputs against.

Nothing here imports srlnc.  Three independent evaluations:

* exact classic (dense RLNC, p = 1/q) full-rank, delivery and intercept
  probabilities as ``Fraction`` sums over the number of packets received,
  taken at the exact binary value of the float erasure probabilities;
* an ``mpmath`` evaluation of the paper's sparse rank model: rho, the
  row-count reading of the pi recursion, the full-rank approximation and the
  binomial delivery formula, carried at 40 significant digits;
* the smoothed binomial standard deviation used to bound Monte Carlo
  estimates.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import mpmath

_DPS = 40


# -- exact classic sums -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def classic_full_rank(n: int, K: int, q: int) -> Fraction:
    """P(n uniform vectors span GF(q)^K) = prod_{i<K} (1 - q^(i-n)); 0 if n < K."""
    if n < K:
        return Fraction(0)
    out = Fraction(1)
    for i in range(K):
        out *= 1 - Fraction(1, q ** (n - i))
    return out


@functools.lru_cache(maxsize=None)
def classic_receive_full_rank(N: int, eps: float, K: int, q: int) -> Fraction:
    """P(full rank after N slots, each received with probability 1 - eps).

    sum_n C(N, n) (1-eps)^n eps^(N-n) prod_{i<K} (1 - q^(i-n)).  With
    eps = eps_b this is the classic delivery probability; with eps = eps_e
    and a fully jammed feedback channel it is the classic intercept.
    """
    e = Fraction(eps)
    return sum(
        (math.comb(N, n) * (1 - e) ** n * e ** (N - n) * classic_full_rank(n, K, q)
         for n in range(K, N + 1)),
        Fraction(0),
    )


# -- mpmath evaluation of the sparse rank model --------------------------------


class MpRankModel:
    """rho, pi (row-count reading), full-rank and delivery for one (q, p).

    p is taken at its exact binary value.  At p == 1/q the full-rank value is
    the classic product, as in the model.
    """

    def __init__(self, q: int, p: float):
        self.q = q
        self.p = p
        self.classic = p == 1.0 / q
        with mpmath.workdps(_DPS):
            self._p = mpmath.mpf(p)
            self._lam = 1 - q * (1 - self._p) / (q - 1)
        self._rho: dict[int, list] = {}  # r -> [rho(1, r), rho(2, r), ...]
        self._pi: dict[int, list] = {}   # r -> [pi(1, r), pi(2, r), ...]

    def rho(self, c: int, r: int):
        """P(a fixed nonzero combination of c sparse columns of height r is 0)."""
        with mpmath.workdps(_DPS):
            return ((1 + (self.q - 1) * self._lam ** c) / self.q) ** r

    def pi(self, ell: int, r: int):
        """pi(ell, r) = rho(ell, r) - sum_{s<ell} C(ell-1, s) rho(s, r) pi(ell-s, r)."""
        rho = self._rho.setdefault(r, [])
        row = self._pi.setdefault(r, [])
        with mpmath.workdps(_DPS):
            while len(row) < ell:
                k = len(row) + 1
                rho.append(self.rho(k, r))
                row.append(rho[k - 1] - mpmath.fsum(
                    math.comb(k - 1, s) * rho[s - 1] * row[k - s - 1]
                    for s in range(1, k)
                ))
        return row[ell - 1]

    def full_rank(self, r: int, c: int):
        """base^c exp(-sum_{ell=2}^{c} C(c, ell) pi(ell, r) / base^ell), clamped."""
        if c == 0:
            return mpmath.mpf(1)
        with mpmath.workdps(_DPS):
            if self.classic:
                out = mpmath.mpf(1)
                for i in range(c):
                    out *= 1 - mpmath.mpf(self.q) ** (i - r)
                return out
            base = 1 - self._p ** r
            if base <= 0:
                return mpmath.mpf(0)
            expo = mpmath.fsum(
                math.comb(c, ell) * self.pi(ell, r) / base ** ell
                for ell in range(2, c + 1)
            )
            return min(mpmath.mpf(1), max(mpmath.mpf(0), base ** c * mpmath.exp(-expo)))

    def delivery(self, N: int, K: int, eps_b: float):
        """min(1, sum_{n=K}^{N} C(N, n) (1-eps_b)^n eps_b^(N-n) R(n, K))."""
        with mpmath.workdps(_DPS):
            e = mpmath.mpf(eps_b)
            total = mpmath.fsum(
                math.comb(N, n) * (1 - e) ** n * e ** (N - n) * self.full_rank(n, K)
                for n in range(K, N + 1)
            )
            return min(mpmath.mpf(1), total)


# -- Monte Carlo bound ---------------------------------------------------------


def smoothed_sigma(p0: float, n: int) -> float:
    """Binomial standard deviation of a proportion over n trials, with p0
    pulled half a trial towards 1/2 so that it stays positive at p0 = 0 or 1."""
    pt = (n * p0 + 0.5) / (n + 1)
    return math.sqrt(pt * (1.0 - pt) / n)
