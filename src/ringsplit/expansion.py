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
* ``expand(candidate, alpha, n_trunc)``, for a candidate named in
  ``CANDIDATES`` ("reference" or "shifted"), gives the *normalized*
  coefficients, the projections onto the orthonormal modes
  sqrt(2/width)*sin(...):
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

#: The two discrimination candidates. A name's index is the barrier on that
#: candidate's node: 0 (angle 0) for the reference, 1 (angle alpha) for the
#: shifted one.
CANDIDATES = ("reference", "shifted")


@dataclass(frozen=True)
class ChamberGeometry:
    """The two intervals created by barriers at 0 and alpha.

    alpha may reach pi/2 (the orthogonal-candidate endpoint); widths always
    sum to 2*pi.
    """

    alpha: float

    def __post_init__(self):
        _check_alpha(self.alpha)

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


def _check_alpha(alpha) -> np.ndarray:
    """The alpha, or array of alphas, as float64, each checked to lie in (0, pi/2]."""
    alpha = np.asarray(alpha, dtype=float)
    outside = ~((0.0 < alpha) & (alpha <= HALF_PI))  # NaN compares False
    if outside.any():
        raise ValueError(f"barrier angle must lie in (0, pi/2], got {alpha[outside][0]}")
    return alpha


def per_alpha(f, alpha: np.ndarray) -> np.ndarray:
    """``f`` of each alpha of an array, in its shape, on Python floats: libm and
    C pow, not numpy's loops, whose last bit may differ by build and SIMD level."""
    return np.fromiter(map(f, alpha.ravel().tolist()), float, alpha.size).reshape(alpha.shape)


def _weight_scales(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin(alpha), K1 = 2*alpha*sin(alpha)^2/pi^3 and K2 = 2*(2*pi - alpha)*sin(alpha)^2/pi^3.

    The squared normalized coefficients are A_n^2 = K1*f(n, alpha/pi) and
    B_n^2 = K2*f(n, 2 - alpha/pi), f(n, b) = n^2/(n^2 - b^2)^2. Below about
    alpha = 7e-103, K1 leaves the normal float64 range, and the chamber-1
    coefficients and weights lose their digits: such an alpha is rejected.
    """
    sin = per_alpha(math.sin, alpha)
    sin_sq = sin * sin
    k1 = 2.0 * alpha * sin_sq / math.pi**3
    under = k1 < sys.float_info.min
    if under.any():
        raise ValueError(f"alpha={alpha[under][0]} is too small for float64: the chamber-1 "
                         f"weight underflowed to {k1[under][0]}")
    return sin, k1, 2.0 * (TWO_PI - alpha) * sin_sq / math.pi**3


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


#: kind -> (chamber, candidate offset is alpha, carries (-1)^n). Kinds a/b
#: are the reference candidate, c/d the shifted one; multiplying by +-1 is
#: exact, so a = (-1)^n c and d = (-1)^n b hold bitwise.
_KINDS = {
    "a": (1, False, True),
    "b": (2, False, False),
    "c": (1, True, False),
    "d": (2, True, True),
}


def _kind(kind: str) -> tuple[int, bool, bool]:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(f"kind must be one of {COEFF_KINDS}, got {kind!r}") from None


def _closed_form(chamber: int, n: np.ndarray, alpha: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """c_n = alpha*n/(alpha^2 - pi^2 n^2) * sin(alpha) in chamber 1, and
    b_n = -(2*pi - alpha)*n/((alpha - (n+2)pi)(alpha + (n-2)pi)) * sin(alpha)
    in chamber 2; ``sin`` is sin(alpha), and n and alpha broadcast together."""
    if chamber == 1:
        num = alpha
        den = alpha * alpha - math.pi**2 * n * n
    else:
        num = -(TWO_PI - alpha)
        den = (alpha - (n + 2.0) * math.pi) * (alpha + (n - 2.0) * math.pi)
    return num * n / den * sin


def _waveform(offset: float):
    """Unit-amplitude candidate waveform theta -> sin(theta - offset)."""
    return lambda theta: np.sin(theta - offset)


def coefficient(kind: str, n, alpha):
    """Adopted (oracle-resolved) closed form for one coefficient kind.

    The sign of kind d was fixed by the quadrature oracle: (-1)^(n+1) relative
    to the chamber-2 magnitude, not (-1)^n as in the uncorrected variant (see
    ``sign_discrepancies``).

    ``n`` and ``alpha`` broadcast together, so an array of alphas of shape
    (k, 1) against modes of shape (N,) gives one row of N coefficients per
    alpha, each bit for bit the value of a float alpha.
    """
    chamber, _, alternating = _kind(kind)
    alpha = _check_alpha(alpha)
    sin, _, _ = _weight_scales(alpha)  # also rejects an alpha too small for float64
    n = _levels(n)
    out = _closed_form(chamber, n, alpha, sin)
    if alternating:
        out = (-1.0) ** n * out
    return out if out.ndim else float(out)


def _oracle(alpha: float, chamber: int, modes) -> np.ndarray:
    """Rows (reference, shifted): the one place the oracle builds its integrands,
    both candidates' waveforms projected onto one chamber's modes, over pi."""
    lo, hi = ChamberGeometry(alpha).bounds(chamber)
    shapes = [_waveform(0.0), _waveform(alpha)]
    return project_modes(shapes, lo, hi, modes) / math.pi


def oracle_coefficient(kind: str, n: int, alpha: float) -> float:
    """Coefficient of the given kind by quadrature (the defining integral / pi)."""
    chamber, shifted, _ = _kind(kind)
    return float(_oracle(alpha, chamber, [n])[int(shifted), 0])


def oracle_coefficients(alpha: float, n_max: int) -> dict[str, np.ndarray]:
    """Every kind's coefficients for n = 1..n_max by quadrature, as
    ``oracle_coefficient`` gives them one at a time.

    One batched projection per chamber: the two candidates of a chamber share
    its rule and its phases, and ``_KINDS`` says which row is which kind.
    """
    modes = np.arange(1, _check_truncation(n_max) + 1)
    rows = {chamber: _oracle(alpha, chamber, modes) for chamber in CHAMBERS}
    return {kind: rows[chamber][int(shifted)]
            for kind, (chamber, shifted, _) in _KINDS.items()}


@dataclass(frozen=True)
class ChamberExpansion:
    """Truncated two-chamber expansion of one candidate.

    ``norm_coeffs_1``/``norm_coeffs_2`` hold the projections onto the
    orthonormal modes 1..n_trunc of chambers 1/2; ``coefficient`` gives the
    1/pi-weighted forms. ``node`` is the candidate's index in ``CANDIDATES``,
    which is the barrier on its node: 0 (reference candidate) or 1 (shifted).
    """

    geometry: ChamberGeometry
    n_trunc: int
    node: int
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


def _series_tail(x: int, b_sq):
    """Sum over n >= x of f(n, b), for an integer x > _DIRECT: all terms positive."""
    ratio = b_sq * (1 / (x * x))
    zetas = _scaled_zetas(x)
    acc = 0.0
    for k in reversed(range(_SERIES_TERMS)):
        acc = acc * ratio + (k + 1) * zetas[k]
    return acc * (1 / x)


def _chamber_sums(n_trunc: int, c: int, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum over 1 <= n <= n_trunc, sum over n > n_trunc) of f(n, b), b = c - delta.

    f has double poles at n = +-b. Each pole distance is formed as
    (n - c) + delta and (n + c) - delta with an integer c, so a distance near 0
    keeps its digits; rounding b itself first would lose them. The head terms
    are summed with their rounding errors (TwoSum; Ogita, Rump & Oishi, SIAM J.
    Sci. Comput. 26, 1955 (2005)), for n <= n_trunc and for n > n_trunc apart.
    """
    head = [(0.0, 0.0), (0.0, 0.0)]  # (sum, error) of n <= n_trunc, of n > n_trunc
    for n in range(1, _DIRECT + 1):
        distances = ((n - c) + delta) * ((n + c) - delta)
        term = n * n / (distances * distances)
        total, error = head[n > n_trunc]
        rounded = total + term
        part = rounded - total
        head[n > n_trunc] = rounded, error + ((total - (rounded - part)) + (term - part))
    kept, rest = (total + error for total, error in head)
    b_sq = (c - delta) * (c - delta)
    beyond = _series_tail(_DIRECT + 1, b_sq)
    if n_trunc <= _DIRECT:
        return kept, rest + beyond
    tail = _series_tail(n_trunc + 1, b_sq)
    return kept + (beyond - tail), tail


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


def truncation_sums(alpha, n_trunc: int) -> TruncationSums:
    """The sums of ``TruncationSums`` for modes 1..n_trunc, in O(1) time and
    memory per alpha; an array of alphas gives an array per field."""
    alpha = _check_alpha(alpha)
    n_trunc = _check_truncation(n_trunc)
    _, k1, k2 = _weight_scales(alpha)
    d = alpha / math.pi
    # chamber 1: b = alpha/pi = 0 - (-d); chamber 2: b = 2 - alpha/pi = 2 - d
    s1, t1 = _chamber_sums(n_trunc, 0, -d)
    s2, t2 = _chamber_sums(n_trunc, 2, d)
    # sum (-1)^n f(n, b) = 2*(even modes) - all, and f(2m, b) = f(m, b/2)/4
    even1, _ = _chamber_sums(n_trunc // 2, 0, -0.5 * d)
    even2, _ = _chamber_sums(n_trunc // 2, 1, 0.5 * d)
    sums = TruncationSums(
        weight_1=k1 * s1, weight_2=k2 * s2,
        cross_1=k1 * (0.5 * even1 - s1), cross_2=k2 * (0.5 * even2 - s2),
        tail_1=k1 * t1, tail_2=k2 * t2,
    )
    return sums if alpha.ndim else TruncationSums(*map(float, vars(sums).values()))


def expand(candidate: str, alpha: float, n_trunc: int) -> ChamberExpansion:
    """Expand a candidate, named as in ``CANDIDATES``, into both chamber
    eigenbases using the closed forms."""
    geometry = ChamberGeometry(alpha)
    n_trunc = _check_truncation(n_trunc)
    n = np.arange(1, n_trunc + 1)
    if candidate not in CANDIDATES:
        raise ValueError(f"candidate must be one of {CANDIDATES}, got {candidate!r}")
    node = CANDIDATES.index(candidate)
    kinds = ("a", "b") if node == 0 else ("c", "d")
    c1, c2 = (coefficient(kind, n, alpha) for kind in kinds)
    return ChamberExpansion(
        geometry=geometry,
        n_trunc=n_trunc,
        node=node,
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


def delta_energy(n, m, alpha, variant: str = "nominal"):
    """Energy transferred by the non-nodal barrier when the candidate lands on
    chamber modes (n, m).

    Both variants share the chamber part E1_n + E2_m and differ only in the
    subtracted constant: ``nominal`` keeps the closed-form offset hbar^2/(8M);
    ``conserving`` subtracts the actual pre-insertion ring energy hbar^2/(2M).
    Their difference is the constant 3*hbar^2/(8M). Positive for every (n, m)
    at alpha = pi/4 in either variant.

    ``n``, ``m`` and ``alpha`` broadcast together, so an array of alphas of
    shape (k, 1, 1) against n of shape (N, 1) and m of shape (M,) gives one
    (N, M) grid per alpha. An alpha whose levels overflow is named in the
    error, the first one in row order.
    """
    alpha = _check_alpha(alpha)
    n = _levels(n)
    m = _levels(m)
    pref = math.pi**2 * HBAR**2 / (2.0 * MASS)
    if variant not in DELTA_E_VARIANTS:
        raise ValueError(f"variant must be one of {DELTA_E_VARIANTS}, got {variant!r}")
    # numpy's x*x differs from C pow in the last bit at 2*pi - 1.0354838709677419
    width_sq_1 = per_alpha(lambda a: a**2, alpha)
    width_sq_2 = per_alpha(lambda a: (TWO_PI - a) ** 2, alpha)
    with np.errstate(over="ignore", divide="ignore"):
        chambers = pref * (n * n / width_sq_1 + m * m / width_sq_2)
        if variant == "nominal":
            out = chambers - pref / (4.0 * math.pi**2)
        else:
            out = chambers - HBAR**2 / (2.0 * MASS)
    overflow = ~np.isfinite(out)
    if overflow.any():
        first = float(np.broadcast_to(alpha, out.shape)[overflow][0])
        raise ValueError(f"energy transfer overflows at alpha={first!r}: the "
                         "chamber levels are not finite numbers")
    return out if out.ndim else float(out)


def sign_discrepancies(alpha, oracle: dict) -> dict:
    """Compare the uncorrected closed form of kind d against the oracle for every n.

    ``oracle`` maps "d" to kind-d oracle values, as the mapping that
    ``oracle_coefficients(alpha, n_max)`` returns does, for n = 1 up to the
    length of their last axis. ``alpha`` broadcasts against them: a float
    alpha against one alpha's values, or alphas of shape (k, 1) against the k
    alphas' values stacked in shape (k, N), which gives the k logs joined,
    alpha outer and n inner, as one log.

    Only kind d has an uncorrected form that differs from the adopted one (it
    is the adopted form times -1), so only d is compared. The log has one row
    per alpha and n where the oracle refutes the uncorrected form and
    confirms the adopted one: |uncorrected - oracle| > |adopted| >=
    |adopted - oracle|. The rule is relative to the coefficient; it matches
    every n wherever the oracle resolves the coefficient (down to about
    alpha = 1e-13).

    Returns the log as a mapping of column name to 1-D numpy array, in the
    order ``kind, n, alpha, uncorrected, oracle, adopted``; ``kind`` is an
    object array whose cells share one string, and ``n`` an int array.
    """
    exact = np.asarray(oracle["d"])
    adopted = coefficient("d", np.arange(1, exact.shape[-1] + 1), alpha)
    uncorrected = -adopted
    flipped = np.nonzero((np.abs(uncorrected - exact) > np.abs(adopted))
                         & (np.abs(adopted) >= np.abs(adopted - exact)))
    count = flipped[-1].size
    return {"kind": np.full(count, "d", dtype=object), "n": flipped[-1] + 1,
            "alpha": np.broadcast_to(np.asarray(alpha, dtype=float), exact.shape)[flipped],
            "uncorrected": uncorrected[flipped], "oracle": exact[flipped],
            "adopted": adopted[flipped]}
