"""Bayes cost of the binary decision, before and after barrier insertion.

Before insertion the optimal measurement achieves the Helstrom cost
1/2 - 1/2*sqrt(1 - s) for squared overlap s and equal priors. After the
instantaneous insertion each candidate is entangled with the barrier that hit
its non-nodal point: the joint state is a product of a chamber-1 factor, a
chamber-2 factor, and one tag per barrier recording how much energy that
barrier handed to the particle. With perfectly distinguishable barrier states
(epsilon = 0) the two joint states are exactly orthogonal and the cost drops
to zero, below the pre-insertion Helstrom value; epsilon interpolates toward
indistinguishable barriers.

The joint state keeps the literal tensor-product structure over both chambers
(one factor per chamber even though a single particle occupies one chamber at
a time), renormalized after truncation; its norm before renormalization is
recorded rather than reinterpreted. The report's ``sum_rule_overlap`` column
carries the direct-sum overlap sum(A*C) + sum(B*D), which tends to cos(alpha)
and shows how the tensor model differs from the single-particle overlap.

``post_insertion_cost`` reads every truncated sum from
``expansion.truncation_sums`` in O(1); ``build_extended`` and
``extended_overlap`` are the same model built mode by mode. An array of alphas
gives one report whose fields are columns, and an array of overlaps an array of costs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# expand and the ring names are not called here; the perfbench tracer patches them
from .expansion import (ChamberExpansion, ChamberGeometry, expand,  # noqa: F401
                        per_alpha, truncation_sums)
from .ring import reference_state, ring_overlap, shifted_state  # noqa: F401

NOTE_TENSOR_MODEL = (
    "overlap_after uses the literal two-chamber tensor model; with epsilon > 0 "
    "it need not reproduce the single-particle overlap (see sum_rule_overlap)"
)


@dataclass(frozen=True)
class BarrierModel:
    """Distinguishability of the barrier states.

    ``epsilon`` is the inner product between the no-transfer tag and any
    energy-transfer tag, taken independent of (n, m); distinct transfer tags
    are always orthogonal. epsilon = 0 is the ideal of perfectly
    distinguishable barriers, epsilon = 1 erases the barrier record.
    """

    epsilon: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and 0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon!r}")


@dataclass(frozen=True)
class ExtendedState:
    """Joint particle-and-barriers state after the insertion.

    Amplitudes factorize over the chambers: amplitude(n, m) =
    chamber1_amps[n-1] * chamber2_amps[m-1], with both factor arrays unit
    vectors so the state is normalized for any truncation. ``indexed_barrier``
    says which barrier carries the (n, m) transfer tags (0 for the barrier at
    angle 0, 1 for the one at alpha); the other barrier keeps the no-transfer
    tag.
    """

    geometry: ChamberGeometry
    n_trunc: int
    chamber1_amps: np.ndarray = field(repr=False)
    chamber2_amps: np.ndarray = field(repr=False)
    indexed_barrier: int
    norm_sq_before: float


def build_extended(expansion: ChamberExpansion) -> ExtendedState:
    """Entangle one candidate's expansion with the two barrier records.

    The barrier sitting on the candidate's node transferred nothing and keeps
    the no-transfer tag; the other one carries the (n, m) tag. Which is which
    is the expansion's ``node`` (node at barrier 0: transfer tags at alpha;
    node at alpha: the reverse).
    """
    a = expansion.norm_coeffs_1
    b = expansion.norm_coeffs_2
    na = float(a @ a)
    nb = float(b @ b)
    if na <= 0.0 or nb <= 0.0:
        # every closed-form coefficient is nonzero, so only underflow empties a chamber
        raise ValueError(
            f"empty expansion: the chamber-{1 if na <= 0.0 else 2} weight underflowed "
            f"to 0 at alpha={expansion.geometry.alpha!r}")
    return ExtendedState(
        geometry=expansion.geometry,
        n_trunc=expansion.n_trunc,
        chamber1_amps=a / math.sqrt(na),
        chamber2_amps=b / math.sqrt(nb),
        # the barrier off the candidate's node carries the transfer tags
        indexed_barrier=1 - expansion.node,
        norm_sq_before=na * nb,
    )


def extended_overlap(s1: ExtendedState, s2: ExtendedState, bm: BarrierModel) -> float:
    """Inner product <s1|s2> of two joint states.

    Chamber-mode orthogonality restricts the double sum to matching (n, m);
    the barrier factor is then 1 per barrier when both states index the same
    barrier, and epsilon per barrier (epsilon^2 total) when they index
    opposite barriers, since a no-transfer tag meets a transfer tag on each.
    With epsilon = 0 the candidate pair is exactly orthogonal for any
    truncation.
    """
    if s1.geometry != s2.geometry or s1.n_trunc != s2.n_trunc:
        raise ValueError("extended states must share geometry and truncation")
    base = float(np.vdot(s1.chamber1_amps, s2.chamber1_amps)) * \
        float(np.vdot(s1.chamber2_amps, s2.chamber2_amps))
    if s1.indexed_barrier == s2.indexed_barrier:
        return base
    return bm.epsilon * bm.epsilon * base


def helstrom_cost(overlap_sq):
    """Minimum expected cost for equal priors and squared overlap overlap_sq.

    Cost 1 per wrong call, 0 per right one: 1/2 - 1/2*sqrt(1 - overlap_sq),
    a float, or an array for an array of squared overlaps.
    """
    overlap_sq = np.asarray(overlap_sq, dtype=float)
    if not np.all((0.0 <= overlap_sq) & (overlap_sq <= 1.0)):  # NaN compares False
        raise ValueError(f"squared overlap must lie in [0, 1], got {overlap_sq}")
    cost = 0.5 - 0.5 * np.sqrt(1.0 - overlap_sq)
    return cost if cost.ndim else float(cost)


def helstrom_oracle(alpha: float) -> float:
    """Spectral route to the same cost: 1/2 * (1 - trace norm of the prior-weighted
    difference of the two pure-state density matrices), built from the 2x2 Gram
    embedding of the candidates."""
    if not (math.isfinite(alpha) and 0.0 <= alpha <= 0.5 * math.pi):
        raise ValueError(f"alpha must lie in [0, pi/2], got {alpha!r}")
    v1 = np.array([1.0, 0.0])
    v2 = np.array([math.cos(alpha), math.sin(alpha)])
    m = 0.5 * np.outer(v1, v1) - 0.5 * np.outer(v2, v2)
    eigenvalues = np.linalg.eigvalsh(m)
    return 0.5 * (1.0 - float(np.abs(eigenvalues).sum()))


@dataclass(frozen=True)
class DiscriminationReport:
    """Costs and diagnostics for one (alpha, epsilon, truncation) point, or
    columns of them, one value per alpha.

    Overlaps are squared magnitudes; costs obey 1/2 - 1/2*sqrt(1 - overlap).
    ``sum_rule_overlap`` is the direct-sum completeness check sum(A*C) +
    sum(B*D) -> cos(alpha); the deficits measure truncation quality for the
    two candidates.
    """

    alpha: float
    epsilon: float
    n_trunc: int
    prior: float
    overlap_before: float
    cost_before: float
    overlap_after: float
    cost_after: float
    deficit_reference: float
    deficit_shifted: float
    sum_rule_overlap: float
    note: str = ""


def post_insertion_cost(alpha, n_trunc: int = 1000,
                        bm: BarrierModel = BarrierModel(0.0)) -> DiscriminationReport:
    """Full before/after report for the candidate pair at one barrier angle.

    O(1) in n_trunc. The candidates index opposite barriers, so their joint
    overlap is epsilon^2 times the tensor overlap of the chamber factors, as
    ``extended_overlap`` computes it from ``build_extended`` states. An array
    of alphas gives a report whose fields are numpy arrays, one value per alpha.
    """
    sums = truncation_sums(alpha, n_trunc)
    alphas = np.asarray(alpha, dtype=float)
    # sin >= 0 on (0, pi/2]
    cos, sin = per_alpha(math.cos, alphas), per_alpha(math.sin, alphas)
    tensor = bm.epsilon * bm.epsilon * sums.tensor_overlap
    overlap_after = np.minimum(1.0, tensor * tensor)
    note = np.array("" if bm.epsilon == 0.0 else NOTE_TENSOR_MODEL, dtype=object)
    report = DiscriminationReport(
        # constants fill columns: an n_trunc beyond int64 makes an object array, and
        # note's object fill puts its one string in every cell (a str would be copied)
        alpha=alphas, epsilon=np.full(alphas.shape, bm.epsilon), note=np.full(alphas.shape, note),
        n_trunc=np.full(alphas.shape, int(n_trunc)), prior=np.full(alphas.shape, 0.5),
        overlap_before=np.minimum(1.0, cos * cos),
        # helstrom_cost(overlap_before) would take 1 - cos^2, which cancels at small alpha
        cost_before=0.5 - 0.5 * sin,
        overlap_after=overlap_after, cost_after=helstrom_cost(overlap_after),
        deficit_reference=sums.deficit, deficit_shifted=sums.deficit,
        sum_rule_overlap=sums.sum_rule,
    )
    return report if alphas.ndim else DiscriminationReport(
        **{name: np.asarray(value).item() for name, value in vars(report).items()})
