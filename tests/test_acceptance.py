"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one `[acceptance] criterion NN ...: PASS/FAIL` line (visible
with `pytest -s tests/test_acceptance.py` or on failure).
"""
import math
import time

import numpy as np

from ringsplit import (BarrierModel, build_extended, coefficient, delta_energy,
                       evolve, expand, extended_overlap, helstrom_cost,
                       helstrom_oracle, integrate, oracle_coefficient,
                       oracle_coefficients, post_insertion_cost, reference_state,
                       revival_period, ring_overlap, sample_amplitude, shifted_state,
                       sign_discrepancies, single_barrier_coefficients,
                       single_well_projection)
from ringsplit.cli import main

PI = math.pi


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} ({description}): {status}"
          + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num:02d} failed: {description} {detail}"


def test_criterion_01_helstrom_closed_form_vs_spectral_oracle():
    start = time.perf_counter()
    deviations = [abs(helstrom_cost(math.cos(a) ** 2) - helstrom_oracle(a))
                  for a in np.linspace(0.0, PI / 2.0, 100)]
    elapsed = time.perf_counter() - start
    worst = max(deviations)
    _report(1, "helstrom closed form vs spectral oracle over 100 angles",
            worst < 1e-12 and elapsed < 1.0,
            f"max dev {worst:.3e}, {elapsed:.3f}s")


def test_criterion_02_overlap_reproduction():
    worst = 0.0
    for alpha in (0.0, PI / 6, PI / 4, PI / 3, PI / 2):
        ref, sh = reference_state(), shifted_state(alpha)
        closed_sq = ring_overlap(ref, sh) ** 2
        quad = integrate(lambda th: ref.amplitude(th) * sh.amplitude(th),
                         0.0, 2.0 * PI, panels=8, tol=1e-13)
        worst = max(worst,
                    abs(closed_sq - math.cos(alpha) ** 2),
                    abs(quad ** 2 - math.cos(alpha) ** 2))
    _report(2, "squared candidate overlap equals cos^2(alpha) vs quadrature",
            worst < 1e-10, f"max dev {worst:.3e}")


def test_criterion_03_coefficient_oracle_suite():
    start = time.perf_counter()
    worst = 0.0
    logs = []
    for alpha in (PI / 6, PI / 4, PI / 3):
        for kind in ("a", "b", "c", "d"):
            for n in range(1, 51):
                closed = coefficient(kind, n, alpha)
                oracle = oracle_coefficient(kind, n, alpha)
                worst = max(worst, abs(closed - oracle))
        logs.append(sign_discrepancies(alpha, oracle_coefficients(alpha, 50)))
    elapsed = time.perf_counter() - start
    kinds, adopted, oracle_d = (np.concatenate([log[name] for log in logs])
                                for name in ("kind", "adopted", "oracle"))
    log_complete = (set(kinds.tolist()) == {"d"}
                    and len(kinds) == 3 * 50
                    and bool(np.all(np.abs(adopted - oracle_d) < 1e-10)))
    _report(3, "closed forms a,b,c,d match quadrature/pi; sign log complete",
            worst < 1e-10 and log_complete and elapsed < 10.0,
            f"max dev {worst:.3e}, {len(kinds)} corrections, {elapsed:.2f}s")


def test_criterion_04_parseval_convergence():
    truncations = (100, 1000, 10000)
    deficits_ref = []
    deficits_sh = []
    for n in truncations:
        deficits_ref.append(expand("reference", PI / 4, n).deficit)
        deficits_sh.append(expand("shifted", PI / 4, n).deficit)
    slope = float(np.polyfit(np.log(truncations), np.log(deficits_ref), 1)[0])
    ok = (deficits_ref[-1] < 1e-3 and deficits_sh[-1] < 1e-3
          and abs(slope + 1.0) <= 0.15)
    _report(4, "parseval deficit < 1e-3 at N=10^4 and log-log slope -1 +/- 0.15",
            ok, f"deficits {deficits_ref[-1]:.3e}/{deficits_sh[-1]:.3e}, "
                f"slope {slope:.3f}")


def test_criterion_05_sum_rule():
    e_ref = expand("reference", PI / 4, 10000)
    e_sh = expand("shifted", PI / 4, 10000)
    total = float(e_ref.norm_coeffs_1 @ e_sh.norm_coeffs_1
                  + e_ref.norm_coeffs_2 @ e_sh.norm_coeffs_2)
    error = abs(total - math.cos(PI / 4))
    bound = 10.0 * max(e_ref.deficit, e_sh.deficit)
    _report(5, "completeness sum rule reproduces cos(alpha) within 10x deficit",
            error < bound, f"error {error:.3e} vs bound {bound:.3e}")


def test_criterion_06_energy_transfer_positive():
    n, m = np.meshgrid(np.arange(1, 101), np.arange(1, 101))
    low_nominal = float(delta_energy(n, m, PI / 4, variant="nominal").min())
    low_conserving = float(delta_energy(n, m, PI / 4, variant="conserving").min())
    _report(6, "energy transfer positive for all n,m <= 100 in both variants",
            low_nominal > 0.0 and low_conserving > 0.0,
            f"minima {low_nominal:.4f}/{low_conserving:.4f}")


def test_criterion_07_zero_overlap_and_cost_with_ideal_barriers():
    ideal = BarrierModel(0.0)
    ok = True
    for alpha in (PI / 6, PI / 4, PI / 3):
        for n_trunc in (10, 100, 1000):
            ref = build_extended(expand("reference", alpha, n_trunc))
            sh = build_extended(expand("shifted", alpha, n_trunc))
            overlap = extended_overlap(ref, sh, ideal)
            report = post_insertion_cost(alpha, n_trunc, ideal)
            ok = ok and overlap == 0.0 and report.cost_after == 0.0
    _report(7, "epsilon=0 gives exactly zero overlap and zero cost after insertion",
            ok)


def test_criterion_08_nodal_insertion_identity():
    closed = single_barrier_coefficients(reference_state(), 40)
    ok = closed[1] == 1.0 and bool(np.all(np.abs(np.delete(closed, 1)) < 1e-12))
    worst_oracle = 0.0
    for n in range(1, 13):
        value = single_well_projection(reference_state(), n) / PI
        expected = 1.0 if n == 2 else 0.0
        worst_oracle = max(worst_oracle, abs(value - expected))
    _report(8, "single nodal barrier leaves exactly one expansion coefficient",
            ok and worst_oracle < 1e-12, f"oracle dev {worst_oracle:.3e}")


def test_criterion_09_evolution_properties():
    e = expand("reference", PI / 4, 1000)
    ok = True
    details = []
    for chamber in (1, 2):
        width = e.geometry.width(chamber)
        period = revival_period(width)
        t0 = evolve(e, chamber, 0.0)
        ok = ok and evolve(e, chamber, 0.37 * period).norm_sq == t0.norm_sq
        revived = evolve(e, chamber, period)
        revival_dev = float(np.max(np.abs(revived.coefficients - t0.coefficients)))
        ok = ok and revival_dev < 1e-12
        lo, hi = e.geometry.bounds(chamber)
        grid = np.linspace(lo + 0.05 * width, hi - 0.05 * width, 801)
        recon_dev = float(np.max(np.abs(sample_amplitude(t0, grid)
                                        - reference_state().amplitude(grid))))
        ok = ok and recon_dev < 10.0 * e.deficit
        details.append(f"ch{chamber}: revival {revival_dev:.1e}, "
                       f"recon {recon_dev:.2e} (bound {10 * e.deficit:.2e})")
    _report(9, "norm conserved, revival exact at T, t=0 reconstruction in bound",
            ok, "; ".join(details))


def test_criterion_10_deterministic_cost_output(tmp_path):
    args = ["cost", "--alpha-sweep", "0.2:1.4:5", "--n-trunc", "300",
            "--epsilon", "0.25"]
    first = tmp_path / "run1.csv"
    second = tmp_path / "run2.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _report(10, "identical cost configs produce byte-identical CSV", identical)
