import math

import numpy as np
import pytest

from ringsplit import ConvergenceError, integrate, project_mode


def test_polynomial_exact():
    assert math.isclose(integrate(lambda x: x ** 2, 0.0, 1.0), 1.0 / 3.0,
                        abs_tol=1e-15)


def test_full_period_sine_squared():
    value = integrate(lambda th: np.sin(th) ** 2, 0.0, 2.0 * math.pi, panels=4)
    assert math.isclose(value, math.pi, abs_tol=1e-13)


def test_oscillatory_product():
    # sin(theta) against sin(40 theta) over a full period vanishes
    value = integrate(lambda th: np.sin(th) * np.sin(40 * th), 0.0, 2.0 * math.pi,
                      panels=40)
    assert abs(value) < 1e-13


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 1.0, 1.0)


def test_convergence_failure_carries_estimate():
    # kink at an irrational point never lands on a panel edge
    kink = 1.0 / 3.0
    with pytest.raises(ConvergenceError) as excinfo:
        integrate(lambda x: np.abs(x - kink), 0.0, 1.0, tol=1e-16)
    assert excinfo.value.achieved > 1e-16


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 1), (5, 4), (7, 7)])
def test_mode_orthogonality(n, m):
    lo, hi = 0.7, 0.7 + 1.9
    width = hi - lo

    def mode(theta):
        return np.sin(m * math.pi * (theta - lo) / width)

    value = project_mode(mode, lo, hi, n)
    expected = width / 2.0 if n == m else 0.0
    assert abs(value - expected) < 1e-13


def test_project_mode_rejects_bad_index():
    with pytest.raises(ValueError):
        project_mode(lambda th: th, 0.0, 1.0, 0)
