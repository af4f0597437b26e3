import math

import numpy as np
import pytest

from ringsplit import (autocorrelation, evolve, expand, reference_state,
                       revival_period, sample_amplitude, sample_density,
                       shifted_state)

PI4 = math.pi / 4


def _expansion(n_trunc=300, alpha=PI4):
    return expand(reference_state(), alpha, n_trunc)


def test_revival_period_formula():
    assert math.isclose(revival_period(PI4), PI4, rel_tol=1e-15)
    assert math.isclose(revival_period(2.0), 16.0 / math.pi, rel_tol=1e-15)
    with pytest.raises(ValueError):
        revival_period(0.0)


def test_evolve_identity_at_time_zero():
    e = _expansion()
    state = evolve(e, 1, 0.0)
    np.testing.assert_array_equal(state.coefficients, e.norm_coeffs_1.astype(complex))


@pytest.mark.parametrize("chamber", [1, 2])
def test_revival_is_exact(chamber):
    e = _expansion(1000)
    period = revival_period(e.geometry.width(chamber))
    start = evolve(e, chamber, 0.0)
    revived = evolve(e, chamber, period)
    assert np.max(np.abs(revived.coefficients - start.coefficients)) < 1e-12


def test_norm_conserved_exactly():
    e = _expansion()
    reference = evolve(e, 1, 0.0).norm_sq
    for t in (0.0, 0.017, 1.3, 55.5):
        assert evolve(e, 1, t).norm_sq == reference
    # materialized complex coefficients agree with the invariant norm
    state = evolve(e, 1, 0.37)
    assert abs(float(np.vdot(state.coefficients, state.coefficients).real)
               - reference) < 1e-13


def test_time_reversal():
    e = _expansion(200)
    t = 0.233
    forward = evolve(e, 2, t)
    undone = forward.coefficients * np.conj(forward.phases())
    np.testing.assert_allclose(undone, e.norm_coeffs_2.astype(complex), atol=1e-14)


def test_evolve_rejects_non_finite_time():
    with pytest.raises(ValueError):
        evolve(_expansion(10), 1, math.nan)


def test_evolve_rejects_time_without_phase_resolution():
    e = _expansion(300)
    limit = 2.0 ** 52 * revival_period(e.geometry.width(1)) / 300 ** 2
    evolve(e, 1, 0.99 * limit)
    for t in (1.01 * limit, -1.01 * limit):
        with pytest.raises(ValueError, match="2\\*\\*52"):
            evolve(e, 1, t)


def test_density_vanishes_at_chamber_ends():
    e = _expansion(400)
    state = evolve(e, 1, 0.1)
    lo, hi = e.geometry.bounds(1)
    density = sample_density(state, [lo, hi])
    assert np.all(density < 10.0 * e.deficit)


def test_density_integral_matches_norm():
    e = _expansion(1000)
    for chamber in (1, 2):
        state = evolve(e, chamber, 0.0)
        lo, hi = e.geometry.bounds(chamber)
        grid = np.linspace(lo, hi, 4096)
        integral = float(np.trapezoid(sample_density(state, grid), grid))
        assert abs(integral - state.norm_sq) < 1e-6


def test_reconstruction_matches_candidate_at_time_zero():
    # interior of each chamber, 5% margin away from the endpoints
    e = _expansion(1000)
    tol = 10.0 * e.deficit
    for chamber in (1, 2):
        lo, hi = e.geometry.bounds(chamber)
        width = hi - lo
        grid = np.linspace(lo + 0.05 * width, hi - 0.05 * width, 701)
        amps = sample_amplitude(evolve(e, chamber, 0.0), grid)
        target = reference_state().amplitude(grid)
        assert np.max(np.abs(amps - target)) < tol
        assert np.max(np.abs(np.abs(amps) ** 2 - target ** 2)) < tol


def test_reconstruction_of_shifted_candidate():
    alpha = math.pi / 3
    e = expand(shifted_state(alpha), alpha, 1000)
    lo, hi = e.geometry.bounds(2)
    width = hi - lo
    grid = np.linspace(lo + 0.05 * width, hi - 0.05 * width, 501)
    amps = sample_amplitude(evolve(e, 2, 0.0), grid)
    target = shifted_state(alpha).amplitude(grid)
    assert np.max(np.abs(amps - target)) < 10.0 * e.deficit


def test_grid_outside_chamber_rejected():
    e = _expansion(20)
    state = evolve(e, 1, 0.0)
    with pytest.raises(ValueError):
        sample_density(state, [PI4 + 0.1])
    with pytest.raises(ValueError):
        sample_density(state, [-0.2])


def test_autocorrelation_properties():
    e = _expansion(500)
    assert autocorrelation(e, 1, 0.0) == 1.0 + 0.0j
    period = revival_period(e.geometry.width(1))
    assert abs(autocorrelation(e, 1, period) - 1.0) < 1e-12
    for t in np.linspace(0.0, 3.0, 40):
        assert abs(autocorrelation(e, 1, float(t))) <= 1.0 + 1e-14


def test_autocorrelation_dips_between_revivals():
    e = _expansion(500)
    period = revival_period(e.geometry.width(1))
    assert abs(autocorrelation(e, 1, 0.31 * period)) < 0.999
