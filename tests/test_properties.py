"""Property tests over alpha and the truncation (test-only dependency: hypothesis)."""
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ringsplit import expand, reference_state, shifted_state, truncation_sums  # noqa: E402


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(1e-3, math.pi / 2), n_trunc=st.integers(1, 2000))
def test_closed_form_sums_match_dot_products(alpha, n_trunc):
    # the mode-by-mode route: dot products of the expand() arrays
    a, b = (expand(reference_state(), alpha, n_trunc).norm_coeffs(c) for c in (1, 2))
    c, d = (expand(shifted_state(alpha), alpha, n_trunc).norm_coeffs(c) for c in (1, 2))
    sums = truncation_sums(alpha, n_trunc)
    assert math.isclose(sums.weight_1, a @ a, rel_tol=1e-13)
    assert math.isclose(sums.weight_1, c @ c, rel_tol=1e-13)
    assert math.isclose(sums.weight_2, b @ b, rel_tol=1e-13)
    assert math.isclose(sums.weight_2, d @ d, rel_tol=1e-13)
    # |sum A*C| <= sum A^2, so the weight sets the scale of the cross sums
    assert abs(sums.cross_1 - a @ c) <= 1e-13 * sums.weight_1
    assert abs(sums.cross_2 - b @ d) <= 1e-13 * sums.weight_2
