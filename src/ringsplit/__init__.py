"""Binary state discrimination on a ring under instantaneous barrier insertion.

Core pieces: ring candidates and their exact overlap (:mod:`ringsplit.ring`),
two-chamber eigenbasis expansions with a quadrature oracle
(:mod:`ringsplit.expansion`, :mod:`ringsplit.quadrature`), barrier-entangled
joint states and Bayes costs (:mod:`ringsplit.discrimination`), and in-chamber
free evolution (:mod:`ringsplit.evolution`). The ``ringsplit`` console script
drives sweeps and emits deterministic CSV/JSON tables.

The public names below load on first use (PEP 562), each from its defining
module, so ``import ringsplit`` imports no numpy. That lets
``python -m ringsplit.cli`` and the ``ringsplit`` script, which import this
package first, set the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in {
    "discrimination": "BarrierModel DiscriminationReport ExtendedState build_extended "
                      "extended_overlap helstrom_cost helstrom_oracle post_insertion_cost",
    "evolution": "EvolvedChamberState evolve revival_period sample_amplitude sample_density",
    "expansion": "ChamberExpansion ChamberGeometry TruncationSums "
                 "coefficient delta_energy expand oracle_coefficient oracle_coefficients "
                 "sign_discrepancies single_barrier_coefficients single_well_projection "
                 "truncation_sums",
    "quadrature": "ConvergenceError integrate project_mode project_modes",
    "ring": "RingState reference_state ring_overlap ring_state shifted_state",
}.items() for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN.values():
        # a submodule not imported yet; importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def _program() -> None:
    """Entry of the ``ringsplit`` console script: run :mod:`ringsplit.cli` as
    the program, exactly as ``python -m ringsplit.cli`` does."""
    import runpy
    runpy.run_module("ringsplit.cli", run_name="__main__", alter_sys=True)
