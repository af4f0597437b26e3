"""Ring geometry, physical constants, and the two candidate wave functions.

The configuration space is a ring of radius 1, coordinate theta in [0, 2*pi],
with Hamiltonian -hbar^2/(2M) d^2/dtheta^2. The two states to be discriminated
are sine waves of unit angular frequency, differing only by a rigid rotation:
the *reference* candidate sin(theta)/sqrt(pi) and the *shifted* candidate
sin(theta - alpha)/sqrt(pi). Everything here is a pure function of immutable
values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: L2 normalization of a unit-frequency sine over the full ring.
UNIT_RING_NORM = 1.0 / math.sqrt(math.pi)


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and particle mass M, in natural units by default (ring radius fixed at 1)."""

    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        if not (math.isfinite(self.mass) and self.mass > 0.0):
            raise ValueError(f"mass must be positive and finite, got {self.mass!r}")


DEFAULT_CONSTANTS = PhysicalConstants()


def ring_energy(n: int, k: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Ring eigenvalue hbar^2 n^2 / (2 M) for level n >= 1."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    return k.hbar * k.hbar * n * n / (2.0 * k.mass)


@dataclass(frozen=True)
class RingState:
    """A rotated unit-frequency sine on the ring: normalization * sin(theta - offset).

    With the default normalization 1/sqrt(pi) the state has unit L2 norm on
    [0, 2*pi] for any offset.
    """

    offset: float
    normalization: float = UNIT_RING_NORM

    def amplitude(self, theta):
        """Wave-function value at theta (scalar or array)."""
        return self.normalization * np.sin(np.asarray(theta, dtype=float) - self.offset)


def ring_state(offset: float) -> RingState:
    """Candidate state with the given angular offset, reduced mod 2*pi."""
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset!r}")
    return RingState(offset=math.fmod(offset, TWO_PI) % TWO_PI)


def reference_state() -> RingState:
    """The offset-0 candidate sin(theta)/sqrt(pi); its node sits at the 0 barrier."""
    return ring_state(0.0)


def shifted_state(alpha: float) -> RingState:
    """The rotated candidate sin(theta - alpha)/sqrt(pi); its node sits at the alpha barrier."""
    return ring_state(alpha)


def ring_overlap(a: RingState, b: RingState) -> float:
    """Exact inner product <a|b> over the ring.

    For two rotated sines the integral is pi * cos(delta) times the two
    normalizations, delta being the offset difference; for the default
    candidates this is cos(alpha), so the squared overlap is cos^2(alpha).
    """
    delta = b.offset - a.offset
    return math.pi * a.normalization * b.normalization * math.cos(delta)
