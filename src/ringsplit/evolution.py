"""Free evolution inside each chamber after the insertion.

The barriers are impenetrable, so the chambers evolve independently: each
orthonormal-mode coefficient just picks up the phase exp(-i*E_n*t/hbar) with
E_n the Dirichlet-well level. Because the spectrum is quadratic, every
chamber state revives exactly at T = 4*M*width^2/(pi*hbar); the phase at time
t is computed from the fractional part of n^2 * tau, tau = t/T, which is the
same number as E_n*t/hbar modulo 2*pi without a large E_n*t to reduce.

tau is a rounded float all the same: the CLI's ``--time-fracs f`` becomes
t = f*T and ``evolve`` divides it back, so ``np.mod(n*n*tau, 1.0)`` carries an
error of about n^2 * ulp(tau). At tau = 1/3 that is 1.4e-13 to 1.4e-10 in the
phase for N = 300 to 3e5 (ROADMAP item 3). What is exact: tau = 0, 1/2 and 1,
dyadic fractions whose n^2 * tau stays below 2**53, come through without
rounding, so the revival at T is exact.

Densities sampled on a grid show the post-insertion interference of the many
populated modes (the non-nodal insertion pumps energy into arbitrarily high
levels); snapshots at fractions of T are emitted for inspection without any
quantitative roughness claim.

Sampling has two paths. On the chamber's own uniform grid
``np.linspace(lo, hi, G)`` (the one the CLI uses), the mode sum is a
discrete sine transform: ``sample_density`` folds the N coefficients modulo
2(G-1) and takes one FFT, O(N + G log G) time and O(N + G) memory. Any other
grid goes through ``sample_amplitude``, which builds the dense N x G sine
basis, O(N*G) in both; it is also the reference the FFT path is tested
against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expansion import ChamberExpansion, ChamberGeometry
from .ring import HBAR, MASS


def revival_period(width: float) -> float:
    """Exact recurrence time 4*M*width^2/(pi*hbar) of a Dirichlet well."""
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width!r}")
    period = 4.0 * MASS * width * width / (math.pi * HBAR)
    if not (math.isfinite(period) and period > 0.0):
        raise ValueError(f"revival period of a width-{width!r} well under- or "
                         f"overflows to {period!r}; it must be a positive finite number")
    return period


@dataclass(frozen=True)
class EvolvedChamberState:
    """One chamber's state at a fixed time, held as the revival fraction
    tau = t/T of the chamber's revival period T.

    The t=0 coefficients are stored as given (real); phases are applied when
    the complex coefficients are materialized, so the squared norm is constant
    in time by construction.
    """

    geometry: ChamberGeometry
    chamber: int
    base_coefficients: np.ndarray = field(repr=False)
    tau: float

    @property
    def norm_sq(self) -> float:
        """Sum of squared coefficient magnitudes; time-independent exactly."""
        return float(self.base_coefficients @ self.base_coefficients)

    def phases(self) -> np.ndarray:
        """exp(-i*E_n*t/hbar) per mode, via the fractional part of n^2*tau."""
        n = np.arange(1, self.base_coefficients.size + 1, dtype=float)
        return np.exp(-2j * math.pi * np.mod(n * n * self.tau, 1.0))

    @property
    def coefficients(self) -> np.ndarray:
        """Complex mode coefficients at this state's time."""
        return self.base_coefficients * self.phases()


def evolve(expansion: ChamberExpansion, chamber: int, t: float) -> EvolvedChamberState:
    """Propagate one chamber of an expansion to time t (phases only).

    Rejects |t| >= 2**52 * T / n_trunc^2: the top mode's phase n^2 * t/T would
    have no fractional bits left, and the result would read as t = 0.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    geometry = expansion.geometry
    # width() rejects a chamber other than 1 or 2
    tau = float(t) / revival_period(geometry.width(chamber))
    coeffs = expansion.norm_coeffs_1 if chamber == 1 else expansion.norm_coeffs_2
    if coeffs.size ** 2 * abs(tau) >= 2.0 ** 52:
        raise ValueError(
            f"time {t!r} is too large to resolve the phases of {coeffs.size} modes: "
            "n_trunc^2 * |t| / T must stay below 2**52")
    return EvolvedChamberState(
        geometry=geometry, chamber=chamber, base_coefficients=coeffs, tau=tau)


def _check_grid(state: EvolvedChamberState, grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    lo, hi = state.geometry.bounds(state.chamber)
    # relative to the width, so that a tiny chamber admits no far-off point
    slack = 1e-12 * state.geometry.width(state.chamber)
    if grid.size and (grid.min() < lo - slack or grid.max() > hi + slack):
        raise ValueError(
            f"grid extends outside chamber {state.chamber} bounds [{lo}, {hi}]")
    return grid


def sample_amplitude(state: EvolvedChamberState, grid) -> np.ndarray:
    """Complex wave-function values on a grid inside the chamber."""
    grid = _check_grid(state, grid)
    lo, _ = state.geometry.bounds(state.chamber)
    width = state.geometry.width(state.chamber)
    n = np.arange(1, state.base_coefficients.size + 1, dtype=float)
    basis = math.sqrt(2.0 / width) * np.sin(np.outer(grid - lo, n) * math.pi / width)
    return basis @ state.coefficients


def _uniform_density(state: EvolvedChamberState, intervals: int) -> np.ndarray:
    """|psi|^2 at theta_j = lo + j*width/M, j = 0..M, by one DST-I.

    psi_j = sqrt(2/width) * sum_n c_n sin(pi*n*j/M). The sine only depends on
    n mod 2M, so the coefficients are folded onto 2M bins (which handles
    N > M), and with F the length-2M FFT of the bins, the sum over n is
    (F[-j] - F[j]) / 2i.
    """
    coeffs = state.coefficients
    period = 2 * intervals
    bins = np.arange(1, coeffs.size + 1) % period
    folded = (np.bincount(bins, coeffs.real, minlength=period)
              + 1j * np.bincount(bins, coeffs.imag, minlength=period))
    spectrum = np.fft.fft(folded)
    j = np.arange(intervals + 1)
    sines = (spectrum[-j % period] - spectrum[j]) / 2j
    return (2.0 / state.geometry.width(state.chamber)) * np.abs(sines) ** 2


def sample_density(state: EvolvedChamberState, grid) -> np.ndarray:
    """Probability density |psi|^2 on a grid inside the chamber.

    When the grid is exactly ``np.linspace(lo, hi, G)`` over the chamber
    (G >= 2), the density comes from one FFT of length 2(G-1) in
    O(N + G log G); any other grid takes the dense O(N*G) route through
    ``sample_amplitude``. Both agree to rounding.

    Dirichlet boundaries force ~0 at the chamber ends; the trapezoid integral
    over the full chamber reproduces the squared norm of the retained modes.
    """
    grid = _check_grid(state, grid)
    lo, hi = state.geometry.bounds(state.chamber)
    if grid.size >= 2 and np.array_equal(grid, np.linspace(lo, hi, grid.size)):
        return _uniform_density(state, grid.size - 1)
    return np.abs(sample_amplitude(state, grid)) ** 2

