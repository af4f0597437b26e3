"""Property tests over alpha and the truncation (test-only dependency: hypothesis)."""
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from ringsplit import (BarrierModel, coefficient, expand, oracle_coefficient,  # noqa: E402
                       post_insertion_cost, reference_state, shifted_state,
                       sign_discrepancies, truncation_sums)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, math.pi / 2), n_trunc=st.integers(1, 2000))
def test_closed_form_sums_match_dot_products(alpha, n_trunc):
    # the mode-by-mode route: dot products of the expand() arrays
    ref, sh = (expand(s, alpha, n_trunc) for s in (reference_state(), shifted_state(alpha)))
    a, b, c, d = ref.norm_coeffs_1, ref.norm_coeffs_2, sh.norm_coeffs_1, sh.norm_coeffs_2
    sums = truncation_sums(alpha, n_trunc)
    assert math.isclose(sums.weight_1, a @ a, rel_tol=1e-13)
    assert math.isclose(sums.weight_1, c @ c, rel_tol=1e-13)
    assert math.isclose(sums.weight_2, b @ b, rel_tol=1e-13)
    assert math.isclose(sums.weight_2, d @ d, rel_tol=1e-13)
    # |sum A*C| <= sum A^2, so the weight sets the scale of the cross sums
    assert abs(sums.cross_1 - a @ c) <= 1e-13 * sums.weight_1
    assert abs(sums.cross_2 - b @ d) <= 1e-13 * sums.weight_2


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, math.pi / 2), n=st.integers(1, 60),
       kind=st.sampled_from("abcd"))
def test_closed_form_matches_oracle(alpha, n, kind):
    assert abs(coefficient(kind, n, alpha) - oracle_coefficient(kind, n, alpha)) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, math.pi / 2))
def test_sign_log_is_kind_d_for_every_mode(alpha):
    records = sign_discrepancies(alpha, 8)
    assert [(r.kind, r.n) for r in records] == [("d", n) for n in range(1, 9)]


#: alpha over the whole float64 range the closed forms accept, log-uniform
#: draws included so that tiny angles are not rare
ALPHAS = st.one_of(st.floats(1e-100, math.pi / 2),
                   st.floats(-100.0, 0.0).map(lambda e: 10.0 ** e))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=ALPHAS, n_max=st.integers(1, 10**4))
def test_shifted_coefficients_are_signed_reference_ones_bit_for_bit(alpha, n_max):
    n = np.arange(1, n_max + 1)
    sign = (-1.0) ** n
    assert np.array_equal(coefficient("c", n, alpha), sign * coefficient("a", n, alpha))
    assert np.array_equal(coefficient("d", n, alpha), sign * coefficient("b", n, alpha))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=ALPHAS, n_trunc=st.integers(1, 10**12))
def test_ideal_barriers_cost_nothing(alpha, n_trunc):
    report = post_insertion_cost(alpha, n_trunc, BarrierModel(0.0))
    assert report.cost_after == 0.0 <= report.cost_before


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=ALPHAS, n_trunc=st.integers(1, 10**12),
       epsilons=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2))
def test_cost_after_bounded_and_monotone_in_epsilon(alpha, n_trunc, epsilons):
    # not bounded by cost_before for epsilon > 0: at alpha = pi/2 the
    # candidates are orthogonal (cost_before 0), and cost_after is 0.0046 at
    # epsilon = 1 and N = 1000
    low, high = (post_insertion_cost(alpha, n_trunc, BarrierModel(eps)).cost_after
                 for eps in sorted(epsilons))
    assert 0.0 <= low <= high <= 0.5
