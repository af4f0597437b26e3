"""Panel Gauss-Legendre quadrature and sine-mode projections.

This is the independent numerical route used to validate every closed-form
coefficient in :mod:`ringsplit.expansion`. The integrands are products of two
sines, so fixed-order Gauss-Legendre on panels matched to the oscillation
count converges spectrally; the error estimate comes from comparing two
refinement levels.

The Gauss-Legendre rule is built by Newton's method on the three-term
Legendre recurrence (Hale & Townsend, SIAM J. Sci. Comput. 35, A652 (2013)),
so no eigenvalue solver runs. The panels of a level are equal, so a node is
``lo + (p + (1 + t_k)/2) * h`` for panel p and Gauss point t_k: the sum over
panels of a sine mode is a discrete Fourier transform (Press et al.,
Numerical Recipes, 3rd ed., section 13.9), and ``project_modes`` evaluates it
by FFT without building a sine per mode and node.
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
#: Nodes transformed at a time by project_modes: a group of Gauss points
#: takes GROUP_NODES // panels of them (at least one), so its transforms and
#: phases hold O(N + panels) values whatever N is.
GROUP_NODES = 1 << 13
#: Largest modes x ORDER table of phases for which project_modes keeps a
#: level's nodes and phases for the next call at the same panel count.
LEVEL_CACHE_VALUES = 1 << 16


@lru_cache(maxsize=1)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """ORDER Gauss-Legendre nodes, ascending on [-1, 1], and their weights.

    Newton's method on P_ORDER, evaluated by its three-term recurrence from
    Tricomi's estimates of the positive roots; the rule is then mirrored, so
    that it is symmetric bit for bit, as numpy's leggauss makes it.
    """
    k = np.arange(ORDER // 2, 0, -1)
    x = np.cos(math.pi * (k - 0.25) / (ORDER + 0.5))

    def legendre(x):
        # P_ORDER(x) and its derivative
        before, value = np.ones_like(x), x
        for j in range(2, ORDER + 1):
            before, value = value, ((2 * j - 1) * x * value - (j - 1) * before) / j
        return value, ORDER * (x * value - before) / (x * x - 1.0)

    for _ in range(10):
        value, slope = legendre(x)
        step = value / slope
        x = x - step
        if np.max(np.abs(step)) <= np.finfo(float).eps:
            break
    slope = legendre(x)[1]
    weights = 2.0 / ((1.0 - x * x) * slope * slope)
    return np.concatenate([-x[::-1], x]), np.concatenate([weights[::-1], weights])


def _unit_nodes(panels: int, points=slice(None)) -> np.ndarray:
    """Normalised nodes p + (1 + t_k)/2 of a level at some Gauss points k, one
    row per point: the node is lo + h times this, with h the panel width."""
    x, _ = _gauss_rule()
    return (0.5 + 0.5 * x[points])[:, None] + np.arange(panels)


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
    _, weights = _gauss_rule()

    def level(count):
        nodes = _unit_nodes(count)
        h = (hi - lo) / count
        values = f(lo + nodes.ravel() * h).reshape(nodes.shape)
        return 0.5 * h * float(np.dot(weights, values.sum(axis=1)))

    return _refine(level, max(1, int(panels)), tol)


def _phases(panels: int, modes: np.ndarray, points=slice(None)) -> tuple[np.ndarray, ...]:
    """Where each mode reads a panel transform, and its phases at some Gauss points.

    The panel sum of mode n at Gauss point k is Im(e^{i phi} conj(R_k[n mod 2P]))
    with phi = pi n (1 + t_k)/(2P) and R_k the length-2P real FFT of the
    weighted samples at that point; past the Nyquist bin P, the conjugate
    symmetry R[2P - r] = conj(R[r]) flips the imaginary part. So the sum is
    sin(phi) Re R_k[bin] + sign cos(phi) Im R_k[bin]. Returns the bins and the
    (mode x point) tables sin(phi) and sign cos(phi); each entry depends only
    on n, k and the panel count.
    """
    x, _ = _gauss_rule()
    rest = modes % (2 * panels)
    folded = rest > panels
    angles = modes[:, None] * ((0.5 + 0.5 * x[points]) * (math.pi / panels))
    return (np.where(folded, 2 * panels - rest, rest), np.sin(angles),
            np.where(folded, 1.0, -1.0)[:, None] * np.cos(angles))


@lru_cache(maxsize=4)
def _level_table(panels: int, top: int) -> tuple[np.ndarray, ...]:
    """``_unit_nodes`` and the ``_phases`` of modes 1..top at every Gauss point,
    kept for the next call at this panel count."""
    return (_unit_nodes(panels), *_phases(panels, np.arange(1, top + 1)))


def project_modes(fs, lo: float, hi: float, modes) -> np.ndarray:
    """Integrals of f(theta) * sin(n*pi*(theta - lo)/(hi - lo)) over the interval,
    for every f in ``fs`` (rows) and every mode n in ``modes`` (columns).

    The Dirichlet modes vanish at both interval ends. One composite rule serves
    all of them: max(4, ceil(max(modes)/4)) equal panels of ORDER points, at
    least 16 nodes per half period of the fastest sine, doubled until the
    levels agree within TOL for every value. Each waveform is evaluated once
    per level. At each Gauss point, the sum over panels is one real FFT of
    twice the panel count, read at every mode and turned by its phase (see
    ``_phases``); no sine is evaluated per mode and node. The Gauss points are
    taken in groups of GROUP_NODES // panels, so the arrays of a group hold
    O(N + panels) values, and summed along one contiguous axis: a mode's value
    depends only on n, the panel count and the waveform, not on which other
    modes are asked for.
    """
    modes = np.asarray(modes)
    if np.any(modes < 1):
        raise ValueError(f"mode index must be >= 1, got {modes.min()}")
    if hi <= lo:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    _, weights = _gauss_rule()
    top = int(modes.max())
    # the modes 1..top of a batch share a kept table; other mode lists (one
    # mode at a time) compute the same entries per group
    cached = top * ORDER <= LEVEL_CACHE_VALUES and np.array_equal(modes, np.arange(1, top + 1))

    def level(panels):
        h = (hi - lo) / panels
        table = _level_table(panels, top) if cached else None
        size = max(1, GROUP_NODES // panels)
        total = 0.0
        for start in range(0, ORDER, size):
            group = slice(start, start + size)
            nodes, bins, sines, cosines = (
                (table[0][group], table[1], table[2][:, group], table[3][:, group]) if cached
                else (_unit_nodes(panels, group), *_phases(panels, modes, group)))
            x = lo + nodes * h
            samples = np.empty((len(fs), *x.shape))
            for row, f in zip(samples, fs):
                row[...] = f(x)
            samples *= weights[group, None]
            # (waveform, mode, Gauss point): the Gauss points are the last axis
            spectra = np.take(np.fft.rfft(samples, 2 * panels).transpose(0, 2, 1), bins, axis=1)
            total = total + (spectra.real * sines + spectra.imag * cosines).sum(axis=-1)
        return 0.5 * h * total

    return _refine(level, max(4, -(-top // 4)), TOL)


def project_mode(f, lo: float, hi: float, n: int) -> float:
    """Integral of f(theta) * sin(n*pi*(theta - lo)/(hi - lo)) over the interval:
    the one-mode case of ``project_modes``."""
    return float(project_modes([f], lo, hi, [n])[0, 0])
