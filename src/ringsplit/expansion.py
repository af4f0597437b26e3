"""Expansion of the ring candidates into the eigenbases of the two chambers.

Inserting impenetrable barriers at angles 0 and alpha (at t=0, instantaneously)
turns the ring into two independent infinite square wells: chamber 1 on
(0, alpha) and chamber 2 on (alpha, 2*pi). Each candidate is re-expanded in
the Dirichlet sine modes of the chambers; the mode of chamber c with index n
is sin(n*pi*(theta - lo_c)/width_c).

Each coefficient convention has one source:

* ``coefficient(kind, n, alpha)`` gives the 1/pi-weighted integrals of the
  bare waveform sin(theta - offset) against the bare chamber sines (kinds
  a/b: reference candidate in chambers 1/2; kinds c/d: shifted candidate in
  chambers 1/2). One closed form per chamber covers all four kinds:
  c = chamber-1 form, b = chamber-2 form, a = (-1)^n c and d = (-1)^n b.
  These are not projections onto unit vectors, so their squares are not
  probabilities.
* ``expand(state, alpha, n_trunc)`` gives the *normalized* coefficients, the
  projections onto the orthonormal modes sqrt(2/width)*sin(...):
  A_n = sqrt(2*pi/alpha) * a_n for chamber 1 and
  B_m = sqrt(2*pi/(2*pi - alpha)) * b_m for chamber 2. Their squares sum to 1
  as the truncation grows (Parseval); the squares beyond the truncation sum
  to the *deficit*.

Every sum over the modes n <= N that the reports print is a sum of
f(n, b) = n^2/(n^2 - b^2)^2, some with a factor (-1)^n: A_n^2 = K1*f(n, b1)
with b1 = alpha/pi and B_n^2 = K2*f(n, b2) with b2 = 2 - alpha/pi.
``truncation_sums`` evaluates them in O(1) for any N: the first modes term by
term, the rest from the Hurwitz zeta values of the series
f(n, b) = sum_k (k+1) b^(2k) n^(-2k-2) (Abramowitz & Stegun 6.4, 23.2).

The adopted closed forms are sign-resolved against the quadrature oracle in
:mod:`ringsplit.quadrature`; ``sign_discrepancies`` documents every place the
resolution flipped a sign relative to the uncorrected variants (kind d flips
for all n).
"""
from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .quadrature import project_mode, project_modes
from .ring import HBAR, MASS, TWO_PI, RingState

HALF_PI = 0.5 * math.pi

#: Chambers are labeled 1 (interval (0, alpha)) and 2 (interval (alpha, 2*pi)).
CHAMBERS = (1, 2)

COEFF_KINDS = ("a", "b", "c", "d")


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


def _weight_scales(alpha: float) -> tuple[float, float]:
    """K1 = 2*alpha*sin(alpha)^2/pi^3 and K2 = 2*(2*pi - alpha)*sin(alpha)^2/pi^3.

    The squared normalized coefficients are A_n^2 = K1*f(n, alpha/pi) and
    B_n^2 = K2*f(n, 2 - alpha/pi), f(n, b) = n^2/(n^2 - b^2)^2. Below about
    alpha = 7e-103, K1 leaves the normal float64 range, and the chamber-1
    coefficients and weights lose their digits: such an alpha is rejected.
    """
    sin_sq = math.sin(alpha) ** 2
    k1 = 2.0 * alpha * sin_sq / math.pi**3
    if k1 < sys.float_info.min:
        raise ValueError(f"alpha={alpha!r} is too small for float64: the chamber-1 "
                         f"weight underflowed to {k1!r}")
    return k1, 2.0 * (TWO_PI - alpha) * sin_sq / math.pi**3


def _check_truncation(n_trunc) -> int:
    """A truncation is an integer N >= 1: the modes 1..N are kept."""
    n_trunc = operator.index(n_trunc)
    if n_trunc < 1:
        raise ValueError(f"truncation must be >= 1, got {n_trunc}")
    return n_trunc


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
    _weight_scales(alpha)  # rejects an alpha too small for float64
    n = _levels(n)
    out = _closed_form(chamber, n, alpha)
    if alternating:
        out = (-1.0) ** n * out
    return out if out.ndim else float(out)


def oracle_coefficient(kind: str, n: int, alpha: float) -> float:
    """Coefficient of the given kind by quadrature (the defining integral / pi)."""
    chamber, shifted, _, _ = _kind(kind)
    lo, hi = ChamberGeometry(alpha).bounds(chamber)
    shape = _waveform(alpha if shifted else 0.0)
    return project_mode(shape, lo, hi, n) / math.pi


def oracle_coefficients(alpha: float, n_max: int) -> dict[str, np.ndarray]:
    """Every kind's coefficients for n = 1..n_max by quadrature, as
    ``oracle_coefficient`` gives them one at a time.

    One batched projection per chamber: the two candidates of a chamber (kinds
    a/c in chamber 1, b/d in chamber 2) share its rule and its sine matrix.
    """
    geometry = ChamberGeometry(alpha)
    modes = np.arange(1, _check_truncation(n_max) + 1)
    shapes = [_waveform(0.0), _waveform(alpha)]
    out = {}
    for chamber, (reference, shifted) in zip(CHAMBERS, ("ac", "bd")):
        lo, hi = geometry.bounds(chamber)
        out[reference], out[shifted] = project_modes(shapes, lo, hi, modes) / math.pi
    return {kind: out[kind] for kind in COEFF_KINDS}


@dataclass(frozen=True)
class ChamberExpansion:
    """Truncated two-chamber expansion of one candidate.

    ``norm_coeffs_1``/``norm_coeffs_2`` hold the projections onto the
    orthonormal modes 1..n_trunc of chambers 1/2; ``coefficient`` gives the
    1/pi-weighted forms.
    """

    geometry: ChamberGeometry
    n_trunc: int
    state_offset: float
    norm_coeffs_1: np.ndarray = field(repr=False)
    norm_coeffs_2: np.ndarray = field(repr=False)

    @property
    def deficit(self) -> float:
        """Parseval deficit: the squared normalized coefficients beyond n_trunc
        (positive, ~1/n_trunc)."""
        return truncation_sums(self.geometry.alpha, self.n_trunc).deficit


#: Modes summed term by term; the series below covers the rest.
_DIRECT = 20
#: Terms of f(n, b) = sum_k (k+1) b^(2k) n^(-2k-2). Beyond _DIRECT, b^2/n^2 <
#: 1/110 (b < 2), so the first omitted term is below 1e-23 of the first.
_SERIES_TERMS = 12
#: Bernoulli numbers B_2, B_4, ..., B_14 of the Euler-Maclaurin formula.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)
#: _EULER_MACLAURIN[k][j] = B_(2j+2)/(2j+2)! * s(s+1)...(s+2j) with s = 2k+2.
_EULER_MACLAURIN = tuple(
    tuple(bern * math.prod(range(2 * k + 2, 2 * k + 2 * j + 3)) / math.factorial(2 * j + 2)
          for j, bern in enumerate(_BERNOULLI))
    for k in range(_SERIES_TERMS))


@lru_cache(maxsize=64)
def _scaled_zetas(x: int) -> tuple[float, ...]:
    """x^(2k+1) * zeta(2k+2, x) for k < _SERIES_TERMS and an integer x > _DIRECT.

    Euler-Maclaurin with 7 Bernoulli terms; at x = 21 the first omitted one
    is below 1e-20 of the k = 0 value. Integer divisions keep any x from
    overflowing a float.
    """
    inv_sq = 1 / (x * x)
    half_inv = 1 / (2 * x)
    out = []
    for k, row in enumerate(_EULER_MACLAURIN):
        acc = 0.0
        for coeff in reversed(row):
            acc = (acc + coeff) * inv_sq
        out.append(1.0 / (2 * k + 1) + half_inv + acc)
    return tuple(out)


def _series_tail(x: int, b_sq: float) -> float:
    """Sum over n >= x of f(n, b), for an integer x > _DIRECT: all terms positive."""
    ratio = b_sq * (1 / (x * x))
    zetas = _scaled_zetas(x)
    acc = 0.0
    for k in reversed(range(_SERIES_TERMS)):
        acc = acc * ratio + (k + 1) * zetas[k]
    return acc * (1 / x)


def _chamber_sums(n_trunc: int, c: int, delta: float) -> tuple[float, float]:
    """(sum over 1 <= n <= n_trunc, sum over n > n_trunc) of f(n, b), b = c - delta.

    f has double poles at n = +-b. Each pole distance is formed as
    (n - c) + delta and (n + c) - delta with an integer c, so a distance near 0
    keeps its digits; rounding b itself first would lose them.
    """
    head = [n * n / (((n - c) + delta) * ((n + c) - delta)) ** 2
            for n in range(1, _DIRECT + 1)]
    b_sq = (c - delta) ** 2
    beyond = _series_tail(_DIRECT + 1, b_sq)
    if n_trunc <= _DIRECT:
        return math.fsum(head[:n_trunc]), math.fsum(head[n_trunc:]) + beyond
    tail = _series_tail(n_trunc + 1, b_sq)
    return math.fsum(head) + (beyond - tail), tail


@dataclass(frozen=True)
class TruncationSums:
    """Sums of the two candidates' normalized coefficients at one truncation N.

    A/B are the reference candidate's coefficients in chambers 1/2 and C/D the
    shifted candidate's. |C_n| = |A_n| and |D_n| = |B_n|, so one weight and
    one tail per chamber serve both candidates, and A_n*C_n = (-1)^n*A_n^2,
    B_n*D_n = (-1)^n*B_n^2.
    """

    weight_1: float  # sum over n <= N of A_n^2
    weight_2: float  # sum over n <= N of B_n^2
    cross_1: float  # sum over n <= N of A_n*C_n
    cross_2: float  # sum over n <= N of B_n*D_n
    tail_1: float  # sum over n > N of A_n^2
    tail_2: float  # sum over n > N of B_n^2

    @property
    def completeness(self) -> float:
        """Squared norm kept by the truncation; tends to 1."""
        return self.weight_1 + self.weight_2

    @property
    def deficit(self) -> float:
        """Squared norm beyond the truncation, summed as tails (no 1 - x cancellation)."""
        return self.tail_1 + self.tail_2

    @property
    def sum_rule(self) -> float:
        """Direct-sum overlap sum(A*C) + sum(B*D); tends to cos(alpha)."""
        return self.cross_1 + self.cross_2

    @property
    def tensor_overlap(self) -> float:
        """Product of the per-chamber overlaps of the renormalized candidates."""
        return (self.cross_1 / self.weight_1) * (self.cross_2 / self.weight_2)


def truncation_sums(alpha: float, n_trunc: int) -> TruncationSums:
    """The sums of ``TruncationSums`` for modes 1..n_trunc, in O(1) time and memory."""
    alpha = _check_alpha(alpha)
    n_trunc = _check_truncation(n_trunc)
    k1, k2 = _weight_scales(alpha)
    d = alpha / math.pi
    # chamber 1: b = alpha/pi = 0 - (-d); chamber 2: b = 2 - alpha/pi = 2 - d
    s1, t1 = _chamber_sums(n_trunc, 0, -d)
    s2, t2 = _chamber_sums(n_trunc, 2, d)
    # sum (-1)^n f(n, b) = 2*(even modes) - all, and f(2m, b) = f(m, b/2)/4
    even1, _ = _chamber_sums(n_trunc // 2, 0, -0.5 * d)
    even2, _ = _chamber_sums(n_trunc // 2, 1, 0.5 * d)
    return TruncationSums(
        weight_1=k1 * s1, weight_2=k2 * s2,
        cross_1=k1 * (0.5 * even1 - s1), cross_2=k2 * (0.5 * even2 - s2),
        tail_1=k1 * t1, tail_2=k2 * t2,
    )


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
    n_trunc = _check_truncation(n_trunc)
    n = np.arange(1, n_trunc + 1)
    kinds = ("a", "b") if node_barrier(state.offset, alpha) == 0 else ("c", "d")
    c1, c2 = (coefficient(kind, n, alpha) for kind in kinds)
    return ChamberExpansion(
        geometry=geometry,
        n_trunc=n_trunc,
        state_offset=float(state.offset),
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
    n_max = _check_truncation(n_max)
    delta = state.offset
    n = np.arange(1, n_max + 1)
    out = np.zeros(n_max)
    out[n == 2] = math.cos(delta)
    odd = n % 2 == 1
    nf = n[odd].astype(float)
    out[odd] = -math.sin(delta) * (4.0 * nf / (nf * nf - 4.0)) / math.pi
    return out


def single_well_projection(state: RingState, n: int) -> float:
    """Oracle route for the single-barrier case: bare integral over (0, 2*pi).

    Divide by pi to compare against ``single_barrier_coefficients``.
    """
    return project_mode(_waveform(state.offset), 0.0, TWO_PI, n)


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


def sign_discrepancies(alpha: float, n_max: int, *, oracle=None) -> list[CoeffDiscrepancy]:
    """Compare the uncorrected closed forms against the oracle for every kind and n.

    The uncorrected form of a kind is its adopted form times the kind's sign
    (-1 for kind d, +1 otherwise). One record is returned per (kind, n) where
    the oracle refutes the uncorrected form and confirms the adopted one:
    |uncorrected - oracle| > |adopted| >= |adopted - oracle|. The rule is
    relative to the coefficient. Kinds a, b and c, whose two forms are equal,
    can never match it; kind d matches for every n wherever the oracle
    resolves the coefficient (down to about alpha = 1e-13). ``oracle`` maps
    each kind to its oracle values for n = 1..n_max when the caller has
    already computed them; without it they come from ``oracle_coefficients``.
    """
    n_max = _check_truncation(n_max)
    if oracle is None:
        oracle = oracle_coefficients(alpha, n_max)
    records = []
    for kind in COEFF_KINDS:
        adopted = coefficient(kind, np.arange(1, n_max + 1), alpha)
        uncorrected = _KINDS[kind][3] * adopted
        exact = np.asarray(oracle[kind])
        flipped = ((np.abs(uncorrected - exact) > np.abs(adopted))
                   & (np.abs(adopted) >= np.abs(adopted - exact)))
        records.extend(
            CoeffDiscrepancy(kind=kind, n=i + 1, alpha=float(alpha),
                             uncorrected=float(uncorrected[i]), oracle=float(exact[i]),
                             adopted=float(adopted[i]))
            for i in np.flatnonzero(flipped).tolist())
    return records
