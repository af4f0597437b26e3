import math

import numpy as np
import pytest

from ringsplit import (BarrierModel, ChamberExpansion, ChamberGeometry, build_extended,
                       coefficient, expand, extended_overlap, helstrom_cost,
                       helstrom_oracle, post_insertion_cost, reference_state,
                       shifted_state)
from ringsplit.quadrature import project_modes

PI4 = math.pi / 4

#: Tag of a barrier that transferred no energy (inserted at a node).
GROUND = "ground"


def _extended_pair(alpha, n_trunc):
    ref = build_extended(expand(reference_state(), alpha, n_trunc))
    sh = build_extended(expand(shifted_state(alpha), alpha, n_trunc))
    return ref, sh


def tag_overlap(tag1, tag2, bm):
    """Barrier-state inner product: 1 for equal tags, epsilon between the
    no-transfer tag and a transfer tag, 0 between distinct transfer tags."""
    if tag1 == tag2:
        return 1.0
    if (tag1 == GROUND) != (tag2 == GROUND):
        return bm.epsilon
    return 0.0


def items(state):
    """The joint state as a sparse map: ((n, m, tag0, tag_alpha), amplitude).

    The barrier named by ``indexed_barrier`` carries the (n, m) transfer tag;
    the other one stays GROUND.
    """
    for n in range(1, state.n_trunc + 1):
        for m in range(1, state.n_trunc + 1):
            tags = ((n, m), GROUND) if state.indexed_barrier == 0 else (GROUND, (n, m))
            amp = float(state.chamber1_amps[n - 1] * state.chamber2_amps[m - 1])
            yield (n, m, *tags), amp


def brute_force_overlap(s1, s2, bm):
    """Direct double-sum oracle over the materialized amplitude maps."""
    lookup = {}
    for (n, m, tag0, tag_alpha), amp in items(s2):
        lookup[(n, m)] = (amp, tag0, tag_alpha)
    total = 0.0
    for (n, m, tag0, tag_alpha), amp in items(s1):
        other_amp, other0, other_alpha = lookup[(n, m)]
        total += amp * other_amp * tag_overlap(tag0, other0, bm) \
            * tag_overlap(tag_alpha, other_alpha, bm)
    return total


# ---------------------------------------------------------------- helstrom

def test_helstrom_cost_extremes():
    assert helstrom_cost(0.0) == 0.0
    assert helstrom_cost(1.0) == 0.5


def test_helstrom_cost_frozen_quarter_pi():
    # independent 2x2 density-matrix eigenvalue oracle agrees
    assert abs(helstrom_cost(0.5) - (0.5 - math.sqrt(2.0) / 4.0)) < 1e-15
    assert abs(helstrom_cost(0.5) - 0.14644660940672627) < 1e-15


def test_helstrom_cost_rejects_out_of_range():
    with pytest.raises(ValueError):
        helstrom_cost(-0.1)
    with pytest.raises(ValueError):
        helstrom_cost(1.2)
    with pytest.raises(ValueError):
        helstrom_cost(math.nan)


def test_helstrom_cost_monotone_in_overlap():
    grid = np.linspace(0.0, 1.0, 200)
    values = [helstrom_cost(s) for s in grid]
    assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def test_helstrom_oracle_matches_closed_form_on_grid():
    for alpha in np.linspace(0.0, math.pi / 2.0, 100):
        closed = helstrom_cost(math.cos(alpha) ** 2)
        assert abs(closed - helstrom_oracle(alpha)) < 1e-12


def test_helstrom_oracle_extremes():
    assert abs(helstrom_oracle(math.pi / 2.0)) < 1e-15
    assert abs(helstrom_oracle(0.0) - 0.5) < 1e-15


# ---------------------------------------------------------------- barrier model

def test_barrier_model_validation():
    with pytest.raises(ValueError):
        BarrierModel(-0.1)
    with pytest.raises(ValueError):
        BarrierModel(1.5)


def test_tag_overlap_table():
    # pins the epsilon rule of the reference model used by brute_force_overlap
    bm = BarrierModel(0.25)
    assert tag_overlap(GROUND, GROUND, bm) == 1.0
    assert tag_overlap((2, 3), (2, 3), bm) == 1.0
    assert tag_overlap(GROUND, (1, 1), bm) == 0.25
    assert tag_overlap((1, 2), GROUND, bm) == 0.25
    assert tag_overlap((1, 2), (2, 1), bm) == 0.0


# ---------------------------------------------------------------- extended states

def test_build_extended_tag_orientation():
    ref, sh = _extended_pair(PI4, 3)
    # reference candidate: node at barrier 0, transfer tags at alpha
    assert ref.indexed_barrier == 1
    assert sh.indexed_barrier == 0


def test_norm_sq_before_is_product_of_chamber_sums():
    e = expand(reference_state(), PI4, 10)
    ext = build_extended(e)
    a = e.norm_coeffs_1
    b = e.norm_coeffs_2
    expected = float((a @ a) * (b @ b))
    assert math.isclose(ext.norm_sq_before, expected, rel_tol=1e-14)
    assert ext.norm_sq_before < 1.0
    assert abs(ext.norm_sq_before - 0.04031785379184994) < 1e-15
    # direct sparse sum of squared amplitudes is 1 after normalization
    total = sum(amp ** 2 for _, amp in items(ext))
    assert math.isclose(total, 1.0, abs_tol=1e-12)


@pytest.mark.parametrize("n_trunc", [1, 7, 40])
def test_self_overlap_is_one(n_trunc):
    ref, sh = _extended_pair(PI4, n_trunc)
    for state in (ref, sh):
        for eps in (0.0, 0.3, 1.0):
            assert abs(extended_overlap(state, state, BarrierModel(eps)) - 1.0) < 1e-12


def test_truncation_one_gives_single_unit_entry():
    ref = build_extended(expand(reference_state(), PI4, 1))
    entries = list(items(ref))
    assert len(entries) == 1
    (_, amp), = entries
    assert abs(abs(amp) - 1.0) < 1e-15


def test_extended_overlap_zero_for_ideal_barriers():
    for alpha in (math.pi / 6, PI4, math.pi / 3):
        for n_trunc in (5, 60):
            ref, sh = _extended_pair(alpha, n_trunc)
            assert extended_overlap(ref, sh, BarrierModel(0.0)) == 0.0


def test_extended_overlap_matches_brute_force():
    for eps in (0.0, 0.5, 1.0):
        ref, sh = _extended_pair(PI4, 10)
        bm = BarrierModel(eps)
        fast = extended_overlap(ref, sh, bm)
        brute = brute_force_overlap(ref, sh, bm)
        assert abs(fast - brute) < 1e-13


def test_extended_overlap_frozen_epsilon_one():
    ref, sh = _extended_pair(PI4, 10)
    assert abs(extended_overlap(ref, sh, BarrierModel(1.0))
               - (-0.4364694035038338)) < 1e-13


def test_extended_overlap_conjugate_symmetric():
    ref, sh = _extended_pair(PI4, 12)
    bm = BarrierModel(0.7)
    assert extended_overlap(ref, sh, bm) == extended_overlap(sh, ref, bm)


def test_extended_overlap_monotone_in_epsilon():
    ref, sh = _extended_pair(PI4, 30)
    magnitudes = [abs(extended_overlap(ref, sh, BarrierModel(e)))
                  for e in np.linspace(0.0, 1.0, 11)]
    assert all(m1 <= m2 for m1, m2 in zip(magnitudes, magnitudes[1:]))


def test_extended_overlap_rejects_mismatched_states():
    ref, _ = _extended_pair(PI4, 5)
    other, _ = _extended_pair(math.pi / 6, 5)
    with pytest.raises(ValueError):
        extended_overlap(ref, other, BarrierModel(0.0))
    bigger, _ = _extended_pair(PI4, 6)
    with pytest.raises(ValueError):
        extended_overlap(ref, bigger, BarrierModel(0.0))


# ---------------------------------------------------------------- reports

def test_post_insertion_report_ideal_barriers():
    report = post_insertion_cost(PI4, 200, BarrierModel(0.0))
    assert report.prior == 0.5
    assert report.cost_after == 0.0
    assert report.overlap_after == 0.0
    assert abs(report.cost_before - 0.14644660940672627) < 1e-12
    assert abs(report.cost_before - (0.5 - 0.5 * math.sin(PI4))) < 1e-12
    assert abs(report.overlap_before - 0.5) < 1e-12
    assert report.note == ""
    assert math.isclose(report.deficit_reference, report.deficit_shifted,
                        rel_tol=1e-12)
    assert abs(report.sum_rule_overlap - math.cos(PI4)) < 10 * report.deficit_reference


@pytest.mark.parametrize("alpha", [1e-10, 1e-8, 1e-6, 1e-3, PI4, 1.4])
def test_cost_before_matches_mpmath(alpha):
    # 1/2 - 1/2*sqrt(1 - cos^2) lost all digits of 1/2 - cost_before at small alpha
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        exact = mpmath.mpf(1) / 2 - mpmath.sin(mpmath.mpf(alpha)) / 2
        error = abs(post_insertion_cost(alpha, 10).cost_before - exact)
    assert error <= 1.2e-16


def test_post_insertion_cost_orthogonal_candidates():
    report = post_insertion_cost(math.pi / 2.0, 50, BarrierModel(0.9))
    assert abs(report.cost_before) < 1e-12


def test_cost_after_strictly_between_for_partial_epsilon():
    costs = [post_insertion_cost(PI4, 150, BarrierModel(e)).cost_after
             for e in (0.0, 0.5, 1.0)]
    assert costs[0] < costs[1] < costs[2]


def test_report_costs_within_range():
    for eps in (0.0, 0.4, 1.0):
        r = post_insertion_cost(1.0, 80, BarrierModel(eps))
        assert 0.0 <= r.cost_before <= 0.5
        assert 0.0 <= r.cost_after <= 0.5
        assert r.note != "" if eps > 0 else r.note == ""


def test_tensor_model_flagged_against_single_particle_overlap():
    # with barriers erased the tensor overlap does not reproduce cos(alpha)
    r = post_insertion_cost(PI4, 400, BarrierModel(1.0))
    assert r.note != ""
    assert abs(r.overlap_after - math.cos(PI4) ** 2) > 0.3
    assert abs(r.sum_rule_overlap - math.cos(PI4)) < 10 * r.deficit_reference


@pytest.mark.parametrize("call,message", [
    (lambda: build_extended(ChamberExpansion(ChamberGeometry(0.7), 3, 0, np.zeros(3),
                                             np.ones(3))),
     "empty expansion: the chamber-1 weight underflowed to 0 at alpha=0.7"),
    (lambda: helstrom_oracle(-0.1), "alpha must lie in [0, pi/2]"),
    (lambda: helstrom_oracle(math.nan), "alpha must lie in [0, pi/2]"),
    (lambda: coefficient("a", 1.5, 0.7), "mode index must be integral"),
    (lambda: project_modes([np.sin], 1.0, 1.0, [1]), "empty integration interval"),
], ids=["underflowed-chamber", "negative-alpha", "nan-alpha", "fractional-mode",
        "empty-interval"])
def test_library_rejects_invalid_input_naming_the_cause(call, message):
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value).startswith(message)
