"""Ring geometry and the two candidate wave functions.

The configuration space is a ring of radius 1, coordinate theta in [0, 2*pi],
with Hamiltonian -hbar^2/(2M) d^2/dtheta^2 in natural units hbar = M = 1. The
two states to be discriminated are unit-norm sine waves of unit angular
frequency, differing only by a rigid rotation: the *reference* candidate
sin(theta)/sqrt(pi) and the *shifted* candidate sin(theta - alpha)/sqrt(pi).
Everything here is a pure function of immutable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: L2 normalization of a unit-frequency sine over the full ring.
UNIT_RING_NORM = 1.0 / math.sqrt(math.pi)

#: Natural units (ring radius 1). The formulas keep both symbols so that each
#: one reads as its physics and keeps its floating-point operation order.
HBAR = 1.0
MASS = 1.0


@dataclass(frozen=True)
class RingState:
    """A rotated unit-frequency sine on the ring: sin(theta - offset)/sqrt(pi).

    The state has unit L2 norm on [0, 2*pi] for any offset.
    """

    offset: float

    def amplitude(self, theta):
        """Wave-function value at theta (scalar or array)."""
        return UNIT_RING_NORM * np.sin(np.asarray(theta, dtype=float) - self.offset)


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
    normalizations 1/sqrt(pi), delta being the offset difference: cos(alpha)
    for the candidates, so the squared overlap is cos^2(alpha).
    """
    return math.cos(b.offset - a.offset)
