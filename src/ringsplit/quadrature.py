"""Panel Gauss-Legendre quadrature and sine-mode projections.

This is the independent numerical route used to validate every closed-form
coefficient in :mod:`ringsplit.expansion`. The integrands are products of two
sines, so fixed-order Gauss-Legendre on panels matched to the oscillation
count converges spectrally; the error estimate comes from comparing two
refinement levels.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    The achieved error estimate is carried in :attr:`achieved`.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


#: Gauss-Legendre points per panel.
ORDER = 64
#: Panel doublings tried before integrate gives up.
MAX_DOUBLINGS = 5


@lru_cache(maxsize=1)
def _gauss_rule():
    # built on first use, not at import: leggauss(64) takes over a millisecond
    return leggauss(ORDER)


def _panel_sum(f, lo: float, hi: float, panels: int) -> float:
    x, w = _gauss_rule()
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (mid + half * x[None, :]).ravel()
    weights = (half * np.broadcast_to(w, (panels, ORDER))).ravel()
    return float(np.dot(weights, f(nodes)))


def integrate(f, lo: float, hi: float, *, tol: float = 1e-12, panels: int = 1) -> float:
    """Integrate a vectorized callable over [lo, hi] to absolute tolerance tol.

    Panels are doubled until two successive levels agree within tol; raises
    ConvergenceError (carrying the achieved estimate) if they never do within
    MAX_DOUBLINGS doublings.
    """
    if hi <= lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    panels = max(1, int(panels))
    value = _panel_sum(f, lo, hi, panels)
    err = math.inf
    for _ in range(MAX_DOUBLINGS):
        panels *= 2
        refined = _panel_sum(f, lo, hi, panels)
        err = abs(refined - value)
        value = refined
        if err <= tol:
            return value
    raise ConvergenceError(
        f"quadrature did not reach tol={tol:g} (achieved {err:g})", achieved=err,
    )


def project_mode(f, lo: float, hi: float, n: int) -> float:
    """Integral of f(theta) * sin(n*pi*(theta - lo)/(hi - lo)) over the interval.

    The Dirichlet mode vanishes at both interval ends. One panel per half
    period of the fast sine keeps the integrand smooth inside each panel.
    """
    if n < 1:
        raise ValueError(f"mode index must be >= 1, got {n}")
    width = hi - lo
    scale = n * math.pi / width

    def integrand(theta):
        return f(theta) * np.sin(scale * (theta - lo))

    return integrate(integrand, lo, hi, panels=max(4, int(n)))
