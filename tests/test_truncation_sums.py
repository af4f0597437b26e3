"""O(1) truncation sums: against mpmath, against the exact N -> infinity limits,
and without O(N) memory."""
import math
import tracemalloc

import pytest

from ringsplit import BarrierModel, post_insertion_cost, truncation_sums
from table_checks import exact_sums

ALPHAS = [1e-6, 1e-3, 0.3, math.pi / 4, 1.3, math.pi / 2]
TRUNCATIONS = [1, 5, 19, 20, 21, 100, 10**4, 10**5, 10**9, 10**12]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_sums_match_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    epsilon = 0.7
    with mpmath.workdps(50):
        for n_trunc in TRUNCATIONS:
            exact = exact_sums(mpmath, alpha, n_trunc)
            sums = truncation_sums(alpha, n_trunc)
            report = post_insertion_cost(alpha, n_trunc, BarrierModel(epsilon))
            overlap_after = (mpmath.mpf(epsilon) ** 2 * exact["tensor"]) ** 2
            where = (alpha, n_trunc)
            assert abs(sums.deficit / exact["deficit"] - 1) <= 1e-15, where
            assert abs(sums.completeness / exact["completeness"] - 1) <= 1e-15, where
            assert abs(sums.sum_rule - exact["sum_rule"]) <= 1e-15, where
            assert abs(report.overlap_after / overlap_after - 1) <= 5e-15, where
            assert report.deficit_reference == report.deficit_shifted == sums.deficit
            assert report.sum_rule_overlap == sums.sum_rule


@pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.3])
def test_sums_reach_the_exact_limits(alpha):
    # W1 = (alpha/2 - sin(2 alpha)/4)/pi, W2 = 1 - W1; sum(A*C) -> O1 =
    # (alpha cos(alpha) - sin(alpha))/(2 pi), sum(B*D) -> cos(alpha) - O1. These
    # limits are evaluated in float64 and W1 cancels by up to 4 bits at 0.3,
    # hence tolerances of a few ulps; test_sums_match_mpmath is the tight check.
    weight_1 = (alpha / 2 - math.sin(2 * alpha) / 4) / math.pi
    cross_1 = (alpha * math.cos(alpha) - math.sin(alpha)) / (2 * math.pi)
    for n_trunc in (1, 20, 21, 10**4):
        sums = truncation_sums(alpha, n_trunc)
        assert math.isclose(sums.weight_1 + sums.tail_1, weight_1, rel_tol=2e-15)
        assert math.isclose(sums.weight_2 + sums.tail_2, 1 - weight_1, rel_tol=2e-15)
    # the alternating tails fall as 1/N^2, below 1e-24 here
    sums = truncation_sums(alpha, 10**12)
    assert math.isclose(sums.cross_1, cross_1, rel_tol=1e-15)
    assert abs(sums.cross_2 - (math.cos(alpha) - cross_1)) <= 5e-16


def test_sums_reject_bad_truncation():
    with pytest.raises(ValueError):
        truncation_sums(math.pi / 4, 0)
    with pytest.raises(TypeError):
        truncation_sums(math.pi / 4, 10.0)


def test_huge_truncation_allocates_nothing_of_size_n():
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        report = post_insertion_cost(math.pi / 4, 10**12, BarrierModel(0.5))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert 0.0 < report.deficit_reference < 1e-12
