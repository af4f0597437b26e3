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


class ConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance.

    The achieved error estimate is carried in :attr:`achieved`.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


#: Gauss-Legendre points per panel.
ORDER = 64
#: Panel doublings tried before a quadrature gives up.
MAX_DOUBLINGS = 5
#: Default absolute tolerance between two refinement levels.
TOL = 1e-12
#: Matrix elements in one row block of project_modes' sine matrix: 128 KiB of
#: float64, small enough to stay in cache and to leave peak memory unchanged.
BLOCK_ELEMENTS = 1 << 14


@lru_cache(maxsize=1)
def _gauss_rule():
    # built on first use, not at import: leggauss(64) takes over a millisecond,
    # and importing numpy.polynomial loads all of its modules (2-4 ms)
    from numpy.polynomial.legendre import leggauss
    return leggauss(ORDER)


def _panel_rule(lo: float, hi: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule: ORDER Gauss points per panel."""
    x, w = _gauss_rule()
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    nodes = (mid + half * x[None, :]).ravel()
    weights = (half * np.broadcast_to(w, (panels, ORDER))).ravel()
    return nodes, weights


def _refine(level, panels: int, tol: float):
    """Double the panels until two successive levels agree within tol.

    ``level(panels)`` returns a float or an array; the error estimate is the
    largest absolute difference between the two levels. Raises
    ConvergenceError, carrying that estimate, if they never agree within
    MAX_DOUBLINGS doublings.
    """
    value = level(panels)
    err = math.inf
    for _ in range(MAX_DOUBLINGS):
        panels *= 2
        refined = level(panels)
        err = float(np.max(np.abs(refined - value)))
        value = refined
        if err <= tol:
            return value
    raise ConvergenceError(
        f"quadrature did not reach tol={tol:g} (achieved {err:g})", achieved=err,
    )


def integrate(f, lo: float, hi: float, *, tol: float = TOL, panels: int = 1) -> float:
    """Integrate a vectorized callable over [lo, hi] to absolute tolerance tol.

    Panels are doubled until two successive levels agree within tol; raises
    ConvergenceError (carrying the achieved estimate) if they never do within
    MAX_DOUBLINGS doublings.
    """
    if hi <= lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")

    def level(count):
        nodes, weights = _panel_rule(lo, hi, count)
        return float(np.dot(weights, f(nodes)))

    return _refine(level, max(1, int(panels)), tol)


def project_modes(fs, lo: float, hi: float, modes) -> np.ndarray:
    """Integrals of f(theta) * sin(n*pi*(theta - lo)/(hi - lo)) over the interval,
    for every f in ``fs`` (rows) and every mode n in ``modes`` (columns).

    The Dirichlet modes vanish at both interval ends. One composite rule serves
    all of them: max(4, ceil(max(modes)/4)) panels of ORDER points, at least 16
    nodes per half period of the fastest sine, doubled until the levels agree
    within TOL for every value. Each waveform is evaluated once per level, and
    the sines are built in row blocks of about BLOCK_ELEMENTS matrix elements.
    """
    modes = np.asarray(modes)
    if np.any(modes < 1):
        raise ValueError(f"mode index must be >= 1, got {modes.min()}")
    if hi <= lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    scales = modes * math.pi / (hi - lo)

    def level(count):
        nodes, weights = _panel_rule(lo, hi, count)
        weighted = np.stack([weights * f(nodes) for f in fs])[:, None, :]
        offsets = nodes - lo
        rows = max(1, BLOCK_ELEMENTS // nodes.size)
        out = np.empty((len(fs), scales.size))
        for start in range(0, scales.size, rows):
            block = slice(start, start + rows)
            # a pairwise sum along each row, unlike a BLAS product, rounds the
            # same whatever the block shape: one mode alone gives the same bits
            out[:, block] = (weighted * np.sin(np.outer(scales[block], offsets))).sum(axis=-1)
        return out

    return _refine(level, max(4, -(-int(modes.max()) // 4)), TOL)


def project_mode(f, lo: float, hi: float, n: int) -> float:
    """Integral of f(theta) * sin(n*pi*(theta - lo)/(hi - lo)) over the interval:
    the one-mode case of ``project_modes``."""
    return float(project_modes([f], lo, hi, [n])[0, 0])
