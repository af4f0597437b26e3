"""Free evolution inside each chamber after the insertion.

The barriers are impenetrable, so the chambers evolve independently: each
orthonormal-mode coefficient just picks up the phase exp(-i*E_n*t/hbar) with
E_n the Dirichlet-well level. Because the spectrum is quadratic, every
chamber state revives exactly at T = 4*M*width^2/(pi*hbar); the phase at time
t is computed from the fractional part of n^2 * t/T, which is the same number
as E_n*t/hbar modulo 2*pi but stays exact at rational multiples of T.

Densities sampled on a grid show the post-insertion interference of the many
populated modes (the non-nodal insertion pumps energy into arbitrarily high
levels); snapshots at fractions of T are emitted for inspection without any
quantitative roughness claim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expansion import ChamberExpansion, ChamberGeometry
from .ring import DEFAULT_CONSTANTS, PhysicalConstants


def revival_period(width: float, k: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Exact recurrence time 4*M*width^2/(pi*hbar) of a Dirichlet well."""
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width!r}")
    return 4.0 * k.mass * width * width / (math.pi * k.hbar)


@dataclass(frozen=True)
class EvolvedChamberState:
    """One chamber's state at a fixed time.

    The t=0 coefficients are stored as given (real); phases are applied when
    the complex coefficients are materialized, so the squared norm is constant
    in time by construction.
    """

    geometry: ChamberGeometry
    chamber: int
    base_coefficients: np.ndarray = field(repr=False)
    time: float
    constants: PhysicalConstants = DEFAULT_CONSTANTS

    @property
    def width(self) -> float:
        return self.geometry.width(self.chamber)

    @property
    def norm_sq(self) -> float:
        """Sum of squared coefficient magnitudes; time-independent exactly."""
        return float(self.base_coefficients @ self.base_coefficients)

    def phases(self) -> np.ndarray:
        """exp(-i*E_n*time/hbar) per mode, via the fractional part of n^2*t/T."""
        n = np.arange(1, self.base_coefficients.size + 1, dtype=float)
        tau = self.time / revival_period(self.width, self.constants)
        return np.exp(-2j * math.pi * np.mod(n * n * tau, 1.0))

    @property
    def coefficients(self) -> np.ndarray:
        """Complex mode coefficients at this state's time."""
        return self.base_coefficients * self.phases()


def evolve(expansion: ChamberExpansion, chamber: int, t: float,
           k: PhysicalConstants = DEFAULT_CONSTANTS) -> EvolvedChamberState:
    """Propagate one chamber of an expansion to time t (phases only).

    Rejects |t| >= 2**52 * T / n_trunc^2: the top mode's phase n^2 * t/T would
    have no fractional bits left, and the result would read as t = 0.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    coeffs = np.asarray(expansion.norm_coeffs(chamber), dtype=float)
    period = revival_period(expansion.geometry.width(chamber), k)
    if coeffs.size ** 2 * abs(t) / period >= 2.0 ** 52:
        raise ValueError(
            f"time {t!r} is too large to resolve the phases of {coeffs.size} modes: "
            "n_trunc^2 * |t| / T must stay below 2**52")
    return EvolvedChamberState(
        geometry=expansion.geometry,
        chamber=chamber,
        base_coefficients=coeffs,
        time=float(t),
        constants=k,
    )


def _check_grid(state: EvolvedChamberState, grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    lo, hi = state.geometry.bounds(state.chamber)
    if grid.size and (grid.min() < lo - 1e-12 or grid.max() > hi + 1e-12):
        raise ValueError(
            f"grid extends outside chamber {state.chamber} bounds [{lo}, {hi}]")
    return grid


def sample_amplitude(state: EvolvedChamberState, grid) -> np.ndarray:
    """Complex wave-function values on a grid inside the chamber."""
    grid = _check_grid(state, grid)
    lo, _ = state.geometry.bounds(state.chamber)
    width = state.width
    n = np.arange(1, state.base_coefficients.size + 1, dtype=float)
    basis = math.sqrt(2.0 / width) * np.sin(np.outer(grid - lo, n) * math.pi / width)
    return basis @ state.coefficients


def sample_density(state: EvolvedChamberState, grid) -> np.ndarray:
    """Probability density |psi|^2 on a grid inside the chamber.

    Dirichlet boundaries force ~0 at the chamber ends; the trapezoid integral
    over the full chamber reproduces the squared norm of the retained modes.
    """
    return np.abs(sample_amplitude(state, grid)) ** 2


def autocorrelation(expansion: ChamberExpansion, chamber: int, t: float,
                    k: PhysicalConstants = DEFAULT_CONSTANTS) -> complex:
    """Normalized overlap of the chamber state at time t with its t=0 self.

    sum(|A_n|^2 exp(-i*E_n*t/hbar)) / sum(|A_n|^2); magnitude <= 1, equal to 1
    at t=0 and at every multiple of the revival period.
    """
    state = evolve(expansion, chamber, t, k)
    weights = (state.base_coefficients ** 2).astype(complex)
    total = complex(weights.sum())
    if total.real <= 0.0:
        raise ValueError("chamber carries no weight")
    # same summation path for numerator and denominator: exactly 1 at t=0
    return complex((weights * state.phases()).sum()) / total
