"""Expansion of the ring candidates into the eigenbases of the two chambers.

Inserting impenetrable barriers at angles 0 and alpha (at t=0, instantaneously)
turns the ring into two independent infinite square wells: chamber 1 on
(0, alpha) and chamber 2 on (alpha, 2*pi). Each candidate is re-expanded in
the Dirichlet sine modes of the chambers; the mode of chamber c with index n
is sin(n*pi*(theta - lo_c)/width_c).

Two coefficient conventions run in parallel:

* ``coefficient(kind, n, alpha)`` gives the 1/pi-weighted integrals of the
  bare waveform sin(theta - offset) against the bare chamber sines (kinds
  a/b: reference candidate in chambers 1/2; kinds c/d: shifted candidate in
  chambers 1/2). One closed form per chamber covers all four kinds:
  c = chamber-1 form, b = chamber-2 form, a = (-1)^n c and d = (-1)^n b.
  These are not projections onto unit vectors, so their squares are not
  probabilities.
* the *normalized* coefficients are projections onto the orthonormal modes
  sqrt(2/width)*sin(...): A_n = sqrt(2*pi/alpha) * a_n for chamber 1 and
  B_m = sqrt(2*pi/(2*pi - alpha)) * b_m for chamber 2. Their squares sum to 1
  as the truncation grows (Parseval), and 1 minus that sum is the *deficit*.

The adopted closed forms are sign-resolved against the quadrature oracle in
:mod:`ringsplit.quadrature`; ``sign_discrepancies`` documents every place the
resolution flipped a sign relative to the uncorrected variants (kind d flips
for all n).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import project_mode
from .ring import HBAR, MASS, TWO_PI, RingState

HALF_PI = 0.5 * math.pi

#: Chambers are labeled 1 (interval (0, alpha)) and 2 (interval (alpha, 2*pi)).
CHAMBERS = (1, 2)

COEFF_KINDS = ("a", "b", "c", "d")

_DENOM_FLOOR = 1e-300


@dataclass(frozen=True)
class ChamberGeometry:
    """The two intervals created by barriers at 0 and alpha.

    alpha may reach pi/2 (the orthogonal-candidate endpoint); widths always
    sum to 2*pi.
    """

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha <= HALF_PI):
            raise ValueError(
                f"barrier angle must lie in (0, pi/2], got {self.alpha!r}")

    def width(self, chamber: int) -> float:
        self._check_chamber(chamber)
        return self.alpha if chamber == 1 else TWO_PI - self.alpha

    def bounds(self, chamber: int) -> tuple[float, float]:
        self._check_chamber(chamber)
        return (0.0, self.alpha) if chamber == 1 else (self.alpha, TWO_PI)

    @staticmethod
    def _check_chamber(chamber: int):
        if chamber not in CHAMBERS:
            raise ValueError(f"chamber must be 1 or 2, got {chamber!r}")


def _check_alpha(alpha: float) -> float:
    ChamberGeometry(alpha)
    return float(alpha)


def _levels(n) -> np.ndarray:
    n = np.asarray(n)
    if not np.issubdtype(n.dtype, np.integer) and not np.all(n == np.floor(n)):
        raise ValueError("mode index must be integral")
    if np.any(n < 1):
        raise ValueError("mode index must be >= 1")
    return n.astype(float)


#: kind -> (chamber, candidate offset is alpha, carries (-1)^n, sign of the
#: uncorrected form). Kinds a/b are the reference candidate, c/d the shifted
#: one; multiplying by +-1 is exact, so a = (-1)^n c and d = (-1)^n b hold
#: bitwise.
_KINDS = {
    "a": (1, False, True, 1.0),
    "b": (2, False, False, 1.0),
    "c": (1, True, False, 1.0),
    "d": (2, True, True, -1.0),
}


def _kind(kind: str) -> tuple[int, bool, bool, float]:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {COEFF_KINDS}, got {kind!r}") from None


def _closed_form(chamber: int, n: np.ndarray, alpha: float) -> np.ndarray:
    """c_n = alpha*n/(alpha^2 - pi^2 n^2) * sin(alpha) in chamber 1, and
    b_n = -(2*pi - alpha)*n/((alpha - (n+2)pi)(alpha + (n-2)pi)) * sin(alpha)
    in chamber 2."""
    if chamber == 1:
        num = alpha
        den = alpha * alpha - math.pi**2 * n * n
    else:
        num = -(TWO_PI - alpha)
        den = (alpha - (n + 2.0) * math.pi) * (alpha + (n - 2.0) * math.pi)
    if np.any(np.abs(den) < _DENOM_FLOOR):
        raise ValueError(f"degenerate chamber-{chamber} denominator")
    return num * n / den * math.sin(alpha)


def _waveform(offset: float):
    """Unit-amplitude candidate waveform theta -> sin(theta - offset)."""
    return lambda theta: np.sin(theta - offset)


def coefficient(kind: str, n, alpha: float):
    """Adopted (oracle-resolved) closed form for one coefficient kind.

    The sign of kind d was fixed by the quadrature oracle: (-1)^(n+1) relative
    to the chamber-2 magnitude, not (-1)^n as in the uncorrected variant (see
    ``sign_discrepancies``).
    """
    chamber, _, alternating, _ = _kind(kind)
    alpha = _check_alpha(alpha)
    n = _levels(n)
    out = _closed_form(chamber, n, alpha)
    if alternating:
        out = (-1.0) ** n * out
    return out if out.ndim else float(out)


def uncorrected_coefficient(kind: str, n, alpha: float):
    """Closed forms before oracle sign resolution.

    Kinds a, b, c coincide with the adopted forms; kind d carries the opposite
    sign for every n. Retained so the discrepancy report can document each
    correction instead of silently absorbing it.
    """
    _, _, _, sign = _kind(kind)
    return sign * coefficient(kind, n, alpha)


def oracle_coefficient(kind: str, n: int, alpha: float, *, tol: float = 1e-12) -> float:
    """Coefficient of the given kind by quadrature (the defining integral / pi)."""
    chamber, shifted, _, _ = _kind(kind)
    lo, hi = ChamberGeometry(alpha).bounds(chamber)
    shape = _waveform(alpha if shifted else 0.0)
    return project_mode(shape, lo, hi, n, tol=tol) / math.pi



@dataclass(frozen=True)
class ChamberExpansion:
    """Truncated two-chamber expansion of one candidate.

    ``coeffs_1``/``coeffs_2`` hold the 1/pi-weighted series coefficients for
    modes 1..n_trunc; ``norm_coeffs_1``/``norm_coeffs_2`` the projections onto
    the orthonormal chamber modes.
    """

    geometry: ChamberGeometry
    n_trunc: int
    state_offset: float
    coeffs_1: np.ndarray = field(repr=False)
    coeffs_2: np.ndarray = field(repr=False)
    norm_coeffs_1: np.ndarray = field(repr=False)
    norm_coeffs_2: np.ndarray = field(repr=False)

    def norm_coeffs(self, chamber: int) -> np.ndarray:
        self.geometry._check_chamber(chamber)
        return self.norm_coeffs_1 if chamber == 1 else self.norm_coeffs_2

    @property
    def completeness(self) -> float:
        """Sum of squared normalized coefficients; tends to 1 as n_trunc grows."""
        a = self.norm_coeffs_1
        b = self.norm_coeffs_2
        return float(a @ a + b @ b)

    @property
    def deficit(self) -> float:
        """Parseval deficit 1 - completeness (nonnegative, ~1/n_trunc)."""
        return 1.0 - self.completeness


def node_barrier(offset: float, alpha: float) -> int:
    """Which barrier sits on the candidate's node: 0 (angle 0) or 1 (angle alpha).

    Only the two discrimination candidates have a node on a barrier; any
    other offset is rejected.
    """
    # relative to alpha, so that the two barriers stay apart however small alpha is
    tol = 1e-12 * alpha
    reduced = math.fmod(offset, TWO_PI)
    if abs(reduced) <= tol or abs(reduced - TWO_PI) <= tol:
        return 0
    if abs(reduced - alpha) <= tol:
        return 1
    raise ValueError("state offset must sit on one of the barriers (0 or alpha); "
                     f"got offset={offset!r} with alpha={alpha!r}")


def expand(state: RingState, alpha: float, n_trunc: int) -> ChamberExpansion:
    """Expand a candidate into both chamber eigenbases using the closed forms.

    Only the two discrimination candidates are supported: the state offset
    must coincide with one of the barrier angles (its node), mod 2*pi.
    """
    geometry = ChamberGeometry(alpha)
    if n_trunc < 1:
        raise ValueError(f"truncation must be >= 1, got {n_trunc}")
    n = np.arange(1, n_trunc + 1)
    kinds = ("a", "b") if node_barrier(state.offset, alpha) == 0 else ("c", "d")
    c1, c2 = (coefficient(kind, n, alpha) for kind in kinds)
    return ChamberExpansion(
        geometry=geometry,
        n_trunc=int(n_trunc),
        state_offset=float(state.offset),
        coeffs_1=c1,
        coeffs_2=c2,
        norm_coeffs_1=math.sqrt(TWO_PI / geometry.width(1)) * c1,
        norm_coeffs_2=math.sqrt(TWO_PI / geometry.width(2)) * c2,
    )


def single_barrier_coefficients(state: RingState, n_max: int) -> np.ndarray:
    """Normalized projections onto the width-2*pi well left by a single barrier at 0.

    The well modes are sin(n*theta/2)/sqrt(pi); the n=2 mode is the reference
    candidate itself, so a nodal insertion (offset 0) gives exactly one
    nonzero coefficient and leaves wave function and energy unchanged. A
    non-nodal offset populates the odd modes as well.
    """
    if n_max < 1:
        raise ValueError(f"truncation must be >= 1, got {n_max}")
    delta = state.offset
    n = np.arange(1, n_max + 1)
    out = np.zeros(n_max)
    out[n == 2] = math.cos(delta)
    odd = n % 2 == 1
    nf = n[odd].astype(float)
    out[odd] = -math.sin(delta) * (4.0 * nf / (nf * nf - 4.0)) / math.pi
    return out


def single_well_projection(state, n: int, *, tol: float = 1e-12) -> float:
    """Oracle route for the single-barrier case: bare integral over (0, 2*pi).

    Divide by pi to compare against ``single_barrier_coefficients``.
    """
    f = _waveform(state.offset) if isinstance(state, RingState) else state
    return project_mode(f, 0.0, TWO_PI, n, tol=tol)


def well_energy(n: int, width: float) -> float:
    """Dirichlet-well level n^2 pi^2 hbar^2 / (2 M width^2)."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width!r}")
    return (n * math.pi * HBAR / width) ** 2 / (2.0 * MASS)


DELTA_E_VARIANTS = ("nominal", "conserving")


def delta_energy(n, m, alpha: float, variant: str = "nominal"):
    """Energy transferred by the non-nodal barrier when the candidate lands on
    chamber modes (n, m).

    Both variants share the chamber part E1_n + E2_m and differ only in the
    subtracted constant: ``nominal`` keeps the closed-form offset hbar^2/(8M);
    ``conserving`` subtracts the actual pre-insertion ring energy hbar^2/(2M).
    Their difference is the constant 3*hbar^2/(8M). Positive for every (n, m)
    at alpha = pi/4 in either variant.
    """
    alpha = _check_alpha(alpha)
    n = _levels(n)
    m = _levels(m)
    pref = math.pi**2 * HBAR**2 / (2.0 * MASS)
    if variant not in DELTA_E_VARIANTS:
        raise ValueError(f"variant must be one of {DELTA_E_VARIANTS}, got {variant!r}")
    with np.errstate(over="ignore", divide="ignore"):
        chambers = pref * (n * n / alpha**2 + m * m / (TWO_PI - alpha) ** 2)
        if variant == "nominal":
            out = chambers - pref / (4.0 * math.pi**2)
        else:
            out = chambers - HBAR**2 / (2.0 * MASS)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"energy transfer overflows at alpha={alpha!r}: the "
                         "chamber levels are not finite numbers")
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CoeffDiscrepancy:
    """One sign correction made by the quadrature oracle."""

    kind: str
    n: int
    alpha: float
    uncorrected: float
    oracle: float
    adopted: float


def sign_discrepancies(alpha: float, n_max: int, *, kinds=COEFF_KINDS,
                       tol: float = 1e-10, oracle=None) -> list[CoeffDiscrepancy]:
    """Compare uncorrected closed forms against the oracle for every kind and n.

    Returns one record per (kind, n) where the uncorrected form disagrees with
    the oracle beyond tol; with the adopted forms the only offender is kind d,
    whose sign flips for every n. ``oracle`` maps each kind to its oracle
    values for n = 1..n_max when the caller has already computed them;
    without it they are integrated here.
    """
    records = []
    for kind in kinds:
        exact = oracle[kind] if oracle is not None else \
            [oracle_coefficient(kind, n, alpha) for n in range(1, n_max + 1)]
        for n in range(1, n_max + 1):
            raw = uncorrected_coefficient(kind, n, alpha)
            if abs(raw - exact[n - 1]) > tol:
                records.append(CoeffDiscrepancy(
                    kind=kind, n=n, alpha=float(alpha),
                    uncorrected=raw, oracle=exact[n - 1],
                    adopted=coefficient(kind, n, alpha),
                ))
    return records
