import math

import numpy as np
import pytest

from ringsplit import ConvergenceError, integrate, project_mode, quadrature
from ringsplit.quadrature import project_modes


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


def _chamber_waves(alpha):
    """Each chamber's bounds and its two candidate waveforms (kinds a/c, then b/d)."""
    waves = [lambda th: np.sin(th), lambda th: np.sin(th - alpha)]
    return [((0.0, alpha), waves), ((alpha, 2.0 * math.pi), waves)]


@pytest.mark.parametrize("alpha", [0.3, math.pi / 4, math.pi / 2])
def test_project_modes_matches_per_mode_integration(alpha):
    # the route before batching: one adaptive integration of the explicit
    # product per mode, with max(4, n) panels
    modes = np.arange(1, 61)
    for (lo, hi), waves in _chamber_waves(alpha):
        batched = project_modes(waves, lo, hi, modes)
        assert batched.shape == (2, 60)
        for f, row in zip(waves, batched):
            for n, value in zip(modes.tolist(), row):
                scale = n * math.pi / (hi - lo)
                reference = integrate(lambda th: f(th) * np.sin(scale * (th - lo)), lo, hi,
                                      panels=max(4, n))
                assert abs(value - reference) <= 1e-14, (lo, n)


def test_project_modes_independent_of_the_modes_asked_for(monkeypatch):
    (lo, hi), waves = _chamber_waves(math.pi / 4)[1]
    modes = np.arange(1, 301)
    default = project_modes(waves, lo, hi, modes)
    # the nodes and phases of modes 1..300 come from the kept table; computed
    # per group of Gauss points, for other modes in another order or with no
    # table kept, they give the same bits, since each value depends only on
    # n, the panel count and the waveform
    picked = np.array([300, 7, 150, 1, 299])
    assert np.array_equal(project_modes(waves, lo, hi, picked), default[:, picked - 1])
    monkeypatch.setattr(quadrature, "LEVEL_CACHE_VALUES", 0)
    assert np.array_equal(project_modes(waves, lo, hi, modes), default)
    # nor does projecting one mode and one waveform alone (4 panels up to mode 16)
    monkeypatch.undo()
    small = project_modes(waves, lo, hi, modes[:16])
    assert all(project_mode(f, lo, hi, n) == small[i, n - 1]
               for i, f in enumerate(waves) for n in range(1, 17))


def test_gauss_rule_is_symmetric_and_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    nodes, weights = quadrature._gauss_rule()
    order = quadrature.ORDER
    assert nodes.shape == weights.shape == (order,)
    assert np.all(np.diff(nodes) > 0)
    # mirrored bit for bit, as numpy's leggauss makes its rule
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    with mp.workdps(40):
        for node, weight in zip(nodes[order // 2:].tolist(), weights[order // 2:].tolist()):
            root = mp.findroot(lambda t: mp.legendre(order, t), mp.mpf(node))
            slope = order * (mp.legendre(order - 1, root) - root * mp.legendre(order, root)) \
                / (1 - root ** 2)
            exact = 2 / ((1 - root ** 2) * slope ** 2)
            assert abs(node - root) <= math.ulp(node), node
            assert abs((weight - exact) / exact) <= 2e-13, node
    # exact for every polynomial up to degree 2 * ORDER - 1
    for j in range(order):
        assert abs(np.sum(weights * nodes ** (2 * j)) - 2 / (2 * j + 1)) <= 1e-15, j


def test_project_modes_kink_fails_with_estimate():
    kink = 1.0 / 3.0
    with pytest.raises(ConvergenceError) as excinfo:
        project_modes([lambda x: np.abs(x - kink)], 0.0, 1.0, [1, 2, 3])
    assert excinfo.value.achieved > quadrature.TOL


def test_project_modes_rejects_mode_zero():
    with pytest.raises(ValueError, match="mode index must be >= 1"):
        project_modes([np.sin], 0.0, 1.0, [1, 0, 2])
