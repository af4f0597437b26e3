"""Binary state discrimination on a ring under instantaneous barrier insertion.

Core pieces: ring candidates and their exact overlap (:mod:`ringsplit.ring`),
two-chamber eigenbasis expansions with a quadrature oracle
(:mod:`ringsplit.expansion`, :mod:`ringsplit.quadrature`), barrier-entangled
joint states and Bayes costs (:mod:`ringsplit.discrimination`), and in-chamber
free evolution (:mod:`ringsplit.evolution`). The ``ringsplit`` console script
drives sweeps and emits deterministic CSV/JSON tables.
"""

from .discrimination import (BarrierModel, DiscriminationReport, ExtendedState,
                             build_extended, extended_overlap, helstrom_cost,
                             helstrom_oracle, post_insertion_cost)
from .evolution import (EvolvedChamberState, evolve, revival_period,
                        sample_amplitude, sample_density)
from .expansion import (ChamberExpansion, ChamberGeometry, CoeffDiscrepancy,
                        TruncationSums, coefficient, delta_energy, expand,
                        oracle_coefficient, oracle_coefficients, sign_discrepancies,
                        single_barrier_coefficients, single_well_projection,
                        truncation_sums)
from .quadrature import ConvergenceError, integrate, project_mode, project_modes
from .ring import RingState, reference_state, ring_overlap, ring_state, shifted_state

__version__ = "0.1.0"

__all__ = [
    "BarrierModel", "ChamberExpansion", "ChamberGeometry", "CoeffDiscrepancy",
    "ConvergenceError", "DiscriminationReport", "EvolvedChamberState",
    "ExtendedState", "RingState", "TruncationSums",
    "build_extended", "coefficient", "delta_energy", "evolve",
    "expand", "extended_overlap", "helstrom_cost", "helstrom_oracle", "integrate",
    "oracle_coefficient", "oracle_coefficients", "post_insertion_cost", "project_mode",
    "project_modes", "reference_state",
    "revival_period", "ring_overlap", "ring_state",
    "sample_amplitude", "sample_density", "shifted_state", "sign_discrepancies",
    "single_barrier_coefficients", "single_well_projection", "truncation_sums",
]
