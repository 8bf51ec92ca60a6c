"""Tests of the benchmark's reference computations.

    python3 -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from fractions import Fraction

import mpmath
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference as ref  # noqa: E402


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


@pytest.mark.parametrize("n,K", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 2)])
def test_classic_full_rank_counts_spanning_binary_matrices(n, K):
    spanning = sum(_gf2_rank(rows) == K
                   for rows in itertools.product(range(2 ** K), repeat=n))
    assert ref.classic_full_rank(n, K, 2) == Fraction(spanning, 2 ** (n * K))


def test_classic_full_rank_is_zero_below_K():
    assert ref.classic_full_rank(3, 4, 16) == 0


def test_classic_receive_full_rank_sums_the_binomial_law():
    # N=2, K=1, q=2: full rank unless every received vector is zero.
    e = Fraction(0.25)
    want = sum(math.comb(2, n) * (1 - e) ** n * e ** (2 - n)
               * (1 - Fraction(1, 2 ** n)) for n in (1, 2))
    assert ref.classic_receive_full_rank(2, 0.25, 1, 2) == want
    assert ref.classic_receive_full_rank(40, 0.0, 20, 2) == ref.classic_full_rank(40, 20, 2)


@pytest.mark.parametrize("q,p", [(2, 0.7), (16, 0.3), (16, 0.9)])
@pytest.mark.parametrize("r", [1, 20, 63])
def test_pi_of_one_column_is_rho(q, p, r):
    model = ref.MpRankModel(q, p)
    assert model.pi(1, r) == model.rho(1, r)


def test_pi_matches_the_recursion_by_hand():
    model = ref.MpRankModel(2, 0.8)
    with mpmath.workdps(40):
        want = model.rho(2, 5) - model.rho(1, 5) * model.rho(1, 5)
        assert mpmath.almosteq(model.pi(2, 5), want, rel_eps=mpmath.mpf(10) ** -35)


@pytest.mark.parametrize("q", [2, 4, 16])
@pytest.mark.parametrize("r,c", [(20, 20), (23, 20), (40, 20), (7, 3)])
def test_full_rank_at_classic_point_equals_fraction_product(q, r, c):
    got = ref.MpRankModel(q, 1.0 / q).full_rank(r, c)
    want = ref.classic_full_rank(r, c, q)
    with mpmath.workdps(40):
        assert abs(got - mpmath.mpf(want.numerator) / want.denominator) < mpmath.mpf(10) ** -35


def test_delivery_at_classic_point_equals_fraction_sum():
    got = ref.MpRankModel(16, 1.0 / 16).delivery(40, 20, 0.05)
    want = ref.classic_receive_full_rank(40, 0.05, 20, 16)
    assert abs(float(got) - float(want)) < 1e-30 + 1e-15 * float(want)


def test_smoothed_sigma():
    assert ref.smoothed_sigma(0.0, 100) > 0.0
    assert ref.smoothed_sigma(1.0, 100) == pytest.approx(ref.smoothed_sigma(0.0, 100))
    assert ref.smoothed_sigma(0.3, 100) == pytest.approx(ref.smoothed_sigma(0.7, 100))
    plain = math.sqrt(0.5 * 0.5 / 10_000)
    assert ref.smoothed_sigma(0.5, 10_000) == pytest.approx(plain, rel=1e-6)
