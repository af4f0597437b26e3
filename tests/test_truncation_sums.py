"""O(1) truncation sums: against mpmath, against the exact N -> infinity limits,
and without O(N) memory."""
import dataclasses
import math
import tracemalloc

import numpy as np
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


SWEEP = np.array([1e-100, 1e-6, 1e-3, 0.3, math.pi / 4, 1.3, math.pi / 2,
                  *np.linspace(0.01, 1.5, 41)])


@pytest.mark.parametrize("n_trunc", [1, 19, 20, 21, 1000, 10**12, 10**20])
def test_array_of_alphas_gives_the_float_sums_bit_for_bit(n_trunc):
    sums = truncation_sums(SWEEP, n_trunc)
    each = [truncation_sums(alpha, n_trunc) for alpha in SWEEP.tolist()]
    for field in dataclasses.fields(sums):
        values = [getattr(s, field.name) for s in each]
        assert all(type(value) is float for value in values), field.name
        assert np.array_equal(getattr(sums, field.name), values), (n_trunc, field.name)


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("n_trunc", [20, 1000, 10**20])
def test_array_of_alphas_gives_the_float_reports_as_columns(epsilon, n_trunc):
    report = post_insertion_cost(SWEEP, n_trunc, BarrierModel(epsilon))
    each = [post_insertion_cost(alpha, n_trunc, BarrierModel(epsilon))
            for alpha in SWEEP.tolist()]
    for field in dataclasses.fields(report):
        column = getattr(report, field.name)
        values = [getattr(r, field.name) for r in each]
        # one alpha keeps the Python types; an array gives a column per field
        assert {type(value) for value in values} == \
            {{"n_trunc": int, "note": str}.get(field.name, float)}, field.name
        assert isinstance(column, np.ndarray) and column.shape == SWEEP.shape, field.name
        assert np.array_equal(column, values), (n_trunc, field.name)
    # every cell of the note column is the one string of the float report
    assert {id(note) for note in report.note} == {id(each[0].note)}


@pytest.mark.parametrize("bad,message", [
    (2.0, "barrier angle must lie in (0, pi/2], got 2.0"),
    (0.0, "barrier angle must lie in (0, pi/2], got 0.0"),
    (-0.1, "barrier angle must lie in (0, pi/2], got -0.1"),
    (math.nan, "barrier angle must lie in (0, pi/2], got nan"),
    (1e-200, "alpha=1e-200 is too small for float64"),
])
@pytest.mark.parametrize("call", [truncation_sums, post_insertion_cost])
def test_array_with_one_bad_alpha_raises_naming_it(call, bad, message):
    alphas = np.array([0.3, math.pi / 4, bad, 1.2, 1e-5])
    with pytest.raises(ValueError) as excinfo:
        call(alphas, 100)
    assert str(excinfo.value).startswith(message)
