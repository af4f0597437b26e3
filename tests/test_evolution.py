import math
import tracemalloc

import numpy as np
import pytest

from ringsplit import (evolve, expand, reference_state,
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
    with pytest.raises(ValueError, match="positive finite"):
        revival_period(1e-300)  # the period underflows to 0


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


@pytest.mark.parametrize("path", [sample_density, sample_amplitude])
def test_grid_slack_scales_with_the_chamber(path):
    # a fixed 1e-12 of slack once let points 9 widths beyond a 1e-13 chamber through
    alpha = 1e-13
    state = evolve(_expansion(50, alpha), 1, 0.0)
    with pytest.raises(ValueError, match="outside chamber 1"):
        path(state, [0.0, 5e-13, 1e-12])
    with pytest.raises(ValueError, match="outside chamber 1"):
        path(state, [-1e-24, alpha])
    assert path(state, np.linspace(0.0, alpha, 5)).shape == (5,)


@pytest.mark.parametrize("chamber", [1, 2])
def test_evolved_state_carries_its_revival_fraction(chamber):
    e = _expansion(40)
    period = revival_period(e.geometry.width(chamber))
    assert evolve(e, chamber, 0.37 * period).tau == 0.37 * period / period
    assert evolve(e, chamber, -2.5).tau == -2.5 / period


# ---------------------------------------------------------------- FFT (DST-I) path

def _uniform_grid(e, chamber, points):
    lo, hi = e.geometry.bounds(chamber)
    return np.linspace(lo, hi, points)


def _fold_edges(points):
    m = points - 1
    return sorted({n for n in (1, m - 1, m, m + 1, 2 * m, 2 * m + 1, 5 * m + 3) if n >= 1})


@pytest.mark.parametrize("points,n_trunc", [(g, n) for g in (2, 3, 257, 4096)
                                            for n in _fold_edges(g)])
def test_uniform_grid_density_matches_dense_basis(points, n_trunc):
    # the dense oracle costs O(N*G); on the 4096-point grid compare every
    # 61st point plus both ends instead of all of them
    picks = np.r_[0:points:1 if points <= 257 else 61, points - 2, points - 1]
    alpha = 0.7
    for state in (reference_state(), shifted_state(alpha)):
        e = expand(state, alpha, n_trunc)
        for chamber in (1, 2):
            grid = _uniform_grid(e, chamber, points)
            period = revival_period(e.geometry.width(chamber))
            for t in (0.0, 0.37 * period, period / 3):
                evolved = evolve(e, chamber, t)
                density = sample_density(evolved, grid)
                assert density.shape == (points,)
                dense = np.abs(sample_amplitude(evolved, grid[picks])) ** 2
                tol = 1e-12 * max(1.0, float(density.max()))
                assert np.max(np.abs(density[picks] - dense)) <= tol


@pytest.mark.parametrize("chamber", [1, 2])
def test_half_period_mirrors_the_initial_density(chamber):
    # exp(-i pi n^2) = (-1)^n at T/2 maps psi(theta) to -psi(lo + hi - theta)
    e = _expansion(3001)
    grid = _uniform_grid(e, chamber, 4096)
    start = sample_density(evolve(e, chamber, 0.0), grid)
    half = revival_period(e.geometry.width(chamber)) / 2
    mirrored = sample_density(evolve(e, chamber, half), grid)
    assert np.max(np.abs(mirrored - start[::-1])) < 1e-13


def test_uniform_grid_snapshot_allocates_no_dense_basis():
    # the dense N x G basis would take 2000 * 4096 * 8 B = 66 MB, several times over
    e = _expansion(2000)
    state = evolve(e, 2, 0.37)
    grid = _uniform_grid(e, 2, 4096)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sample_density(state, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("chamber", [1, 2])
def test_other_grids_take_the_dense_path(chamber):
    e = _expansion(500)
    state = evolve(e, chamber, 0.21)
    lo, hi = e.geometry.bounds(chamber)
    width = hi - lo
    sub = np.linspace(lo + 0.1 * width, hi - 0.1 * width, 257)
    nudged = _uniform_grid(e, chamber, 257)
    nudged[100] = np.nextafter(nudged[100], hi)
    for grid in (sub, nudged):
        np.testing.assert_array_equal(sample_density(state, grid),
                                      np.abs(sample_amplitude(state, grid)) ** 2)
