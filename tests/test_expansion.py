import math

import numpy as np
import pytest

from ringsplit import (ChamberGeometry, coefficient, delta_energy,
                       expand, oracle_coefficient, reference_state, ring_state,
                       shifted_state, sign_discrepancies,
                       single_barrier_coefficients, single_well_projection,
                       truncation_sums)
from ringsplit.expansion import node_barrier

PI4 = math.pi / 4
ORACLE_ALPHAS = [math.pi / 6, math.pi / 4, math.pi / 3]


# ---------------------------------------------------------------- geometry

def test_geometry_widths_sum():
    g = ChamberGeometry(PI4)
    assert math.isclose(g.width(1) + g.width(2), 2.0 * math.pi, rel_tol=1e-15)
    assert g.bounds(1) == (0.0, PI4)
    assert g.bounds(2) == (PI4, 2.0 * math.pi)


@pytest.mark.parametrize("alpha", [0.0, -0.1, math.pi / 2 + 1e-9, math.nan])
def test_geometry_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        ChamberGeometry(alpha)


def test_geometry_rejects_bad_chamber():
    with pytest.raises(ValueError):
        ChamberGeometry(PI4).bounds(3)


# ---------------------------------------------------------------- closed forms

def test_coeff_a_frozen_value():
    # quadrature oracle gives 0.06002108774380708 == 2*sqrt(2)/(15*pi)
    assert math.isclose(coefficient("a", 1, PI4),
                        2.0 * math.sqrt(2.0) / (15.0 * math.pi), rel_tol=1e-15)
    assert abs(coefficient("a", 1, PI4) - 0.06002108774380708) < 1e-15


def test_coeff_a_vanishing_chamber_limit():
    assert abs(coefficient("a", 1, 1e-9)) < 1e-18


@pytest.mark.parametrize("kind,n,frozen", [
    ("a", 1, 0.06002108774380708),
    ("b", 1, -0.1909761882757498),
    ("c", 1, -0.06002108774380707),
    ("d", 2, 0.8402952284132994),
    ("a", 5, 0.011282159350339674),
    ("b", 2, 0.8402952284132993),
])
def test_coefficients_match_frozen_oracle_values(kind, n, frozen):
    assert abs(coefficient(kind, n, PI4) - frozen) < 1e-12
    assert abs(oracle_coefficient(kind, n, PI4) - frozen) < 1e-13


def test_coeff_a5_at_pi_third():
    assert abs(coefficient("a", 5, math.pi / 3) - 0.01845967283778322) < 1e-12


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
@pytest.mark.parametrize("kind", ["a", "b", "c", "d"])
def test_closed_forms_match_oracle(kind, alpha):
    for n in range(1, 13):
        closed = coefficient(kind, n, alpha)
        oracle = oracle_coefficient(kind, n, alpha)
        assert abs(closed - oracle) < 1e-12, (kind, n, alpha)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS)
def test_magnitude_symmetry(alpha):
    # c = (-1)^n a and d = (-1)^n b hold bit for bit, not just to rounding
    n = np.arange(1, 2001)
    sign = (-1.0) ** n
    assert np.array_equal(coefficient("c", n, alpha), sign * coefficient("a", n, alpha))
    assert np.array_equal(coefficient("d", n, alpha), sign * coefficient("b", n, alpha))
    for k in (1, 2, 3, 1999, 2000):
        assert coefficient("c", k, alpha) == (-1) ** k * coefficient("a", k, alpha)
        assert coefficient("d", k, alpha) == (-1) ** k * coefficient("b", k, alpha)


#: (chamber, candidate offset is alpha) of each kind
KIND_SHAPES = {"a": (1, False), "b": (2, False), "c": (1, True), "d": (2, True)}
MPMATH_ALPHAS = [1e-12, 1e-9, 1e-6, 1e-3, 0.3, PI4, 1.3, math.pi / 2]


def _defining_integral(mp, kind, n, alpha):
    """(1/pi) * integral over the chamber (lo, lo + w) of sin(t - phi) sin(k(t - lo)),
    k = n*pi/w, from the antiderivative
    [sin((1 - k)t + k*lo - phi)/(1 - k) - sin((1 + k)t - k*lo - phi)/(1 + k)]/2.

    k = 1 cannot occur: k >= 2 in chamber 1, and in chamber 2 k < 2/3 for
    n = 1 and k > 1 for n >= 2.
    """
    chamber, shifted = KIND_SHAPES[kind]
    a = mp.mpf(alpha)
    lo, hi = (mp.mpf(0), a) if chamber == 1 else (a, 2 * mp.pi)
    phi = a if shifted else mp.mpf(0)
    k = n * mp.pi / (hi - lo)

    def antiderivative(t):
        return (mp.sin((1 - k) * t + k * lo - phi) / (1 - k)
                - mp.sin((1 + k) * t - k * lo - phi) / (1 + k)) / 2
    return (antiderivative(hi) - antiderivative(lo)) / mp.pi


@pytest.mark.parametrize("alpha", MPMATH_ALPHAS)
@pytest.mark.parametrize("kind", list(KIND_SHAPES))
def test_closed_forms_match_mpmath(kind, alpha):
    # independent of the quadrature oracle, whose ~1e-15 absolute floor cannot
    # resolve the coefficients of a small alpha
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for n in (1, 2, 3, 7, 50, 999, 1000):
            exact = _defining_integral(mpmath, kind, n, alpha)
            assert abs(coefficient(kind, n, alpha) / exact - 1) <= 1e-15, (kind, n, alpha)


def test_coefficient_rejects_bad_inputs():
    with pytest.raises(ValueError):
        coefficient("a", 0, PI4)
    with pytest.raises(ValueError):
        coefficient("b", 1, -0.5)
    with pytest.raises(ValueError):
        coefficient("z", 1, PI4)


# ---------------------------------------------------------------- oracle sign log

def test_sign_discrepancies_enumerate_kind_d_only():
    records = sign_discrepancies(PI4, 8)
    assert {r.kind for r in records} == {"d"}
    assert [r.n for r in records] == list(range(1, 9))
    for r in records:
        assert abs(r.adopted - r.oracle) < 1e-10
        assert r.uncorrected == -r.adopted
        assert r.adopted == coefficient("d", r.n, PI4)
    # oracle values computed elsewhere give the same records
    oracle = {kind: [oracle_coefficient(kind, n, PI4) for n in range(1, 9)]
              for kind in "abcd"}
    assert sign_discrepancies(PI4, 8, oracle=oracle) == records


@pytest.mark.parametrize("alpha", [1e-13, 1e-12, 1e-9, 1e-6, 0.3, PI4, 1.5, math.pi / 2])
def test_sign_log_records_every_kind_d_flip(alpha):
    # relative to the coefficient: an absolute tolerance misses the tiny d_n
    # of a small alpha
    records = sign_discrepancies(alpha, 20)
    assert [(r.kind, r.n) for r in records] == [("d", n) for n in range(1, 21)]


# ---------------------------------------------------------------- expand

def test_expand_normalized_relation():
    e = expand(reference_state(), PI4, 32)
    n = np.arange(1, 33)
    np.testing.assert_allclose(
        e.norm_coeffs_1, math.sqrt(2.0 * math.pi / PI4) * coefficient("a", n, PI4),
        rtol=1e-15)
    np.testing.assert_allclose(
        e.norm_coeffs_2,
        math.sqrt(2.0 * math.pi / (2.0 * math.pi - PI4)) * coefficient("b", n, PI4),
        rtol=1e-15)


def test_expand_selects_candidate_by_offset():
    e_ref = expand(reference_state(), PI4, 6)
    e_sh = expand(shifted_state(PI4), PI4, 6)
    n = np.arange(1, 7)
    scale_1 = math.sqrt(2.0 * math.pi / PI4)
    scale_2 = math.sqrt(2.0 * math.pi / (2.0 * math.pi - PI4))
    np.testing.assert_allclose(e_ref.norm_coeffs_1, scale_1 * coefficient("a", n, PI4),
                               rtol=1e-15)
    np.testing.assert_allclose(e_sh.norm_coeffs_1, scale_1 * coefficient("c", n, PI4),
                               rtol=1e-15)
    np.testing.assert_allclose(e_sh.norm_coeffs_2, scale_2 * coefficient("d", n, PI4),
                               rtol=1e-15)


def test_expand_rejects_off_barrier_offset():
    with pytest.raises(ValueError):
        expand(ring_state(0.123), PI4, 4)


def test_node_barrier_tolerance_scales_with_alpha():
    # the barriers at 0 and alpha stay apart however close alpha is to 0
    assert node_barrier(0.0, 1e-13) == 0
    assert node_barrier(1e-13, 1e-13) == 1
    assert node_barrier(5e-324, 5e-324) == 1


def test_expand_rejects_bad_truncation():
    with pytest.raises(ValueError):
        expand(reference_state(), PI4, 0)


@pytest.mark.parametrize("build", [
    lambda n: expand(reference_state(), PI4, n),
    lambda n: truncation_sums(PI4, n),
    lambda n: single_barrier_coefficients(shifted_state(PI4), n),
], ids=["expand", "truncation_sums", "single_barrier_coefficients"])
def test_truncation_must_be_an_integer(build):
    with pytest.raises(TypeError):
        build(2.5)
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        build(0)
    build(np.int64(3))


def test_deficit_monotone_decreasing():
    deficits = [expand(reference_state(), PI4, N).deficit
                for N in (10, 30, 100, 300, 1000)]
    assert all(d1 > d2 for d1, d2 in zip(deficits, deficits[1:]))
    assert all(0.0 < d < 1.0 for d in deficits)


def test_deficit_frozen_values():
    assert abs(expand(reference_state(), PI4, 100).deficit
               - 0.002016683082744608) < 1e-15
    assert abs(expand(reference_state(), PI4, 1000).deficit
               - 0.00020254144239861827) < 1e-15


def test_deficit_equal_for_both_candidates():
    e_ref = expand(reference_state(), PI4, 500)
    e_sh = expand(shifted_state(PI4), PI4, 500)
    assert math.isclose(e_ref.deficit, e_sh.deficit, rel_tol=1e-12)


def test_sum_rule_converges_to_ring_overlap():
    # completeness of the joint chamber bases: sum(A*C) + sum(B*D) -> cos(alpha)
    e_ref = expand(reference_state(), PI4, 1000)
    e_sh = expand(shifted_state(PI4), PI4, 1000)
    total = float(e_ref.norm_coeffs_1 @ e_sh.norm_coeffs_1
                  + e_ref.norm_coeffs_2 @ e_sh.norm_coeffs_2)
    assert abs(total - math.cos(PI4)) < 10.0 * e_ref.deficit
    assert abs(total - math.cos(PI4)) < 2e-7


# ---------------------------------------------------------------- single barrier

def test_single_barrier_nodal_identity():
    coeffs = single_barrier_coefficients(reference_state(), 10)
    assert coeffs[1] == 1.0
    others = np.delete(coeffs, 1)
    assert np.all(np.abs(others) == 0.0)


def test_single_barrier_nodal_identity_oracle():
    for n in range(1, 9):
        value = single_well_projection(reference_state(), n) / math.pi
        expected = 1.0 if n == 2 else 0.0
        assert abs(value - expected) < 1e-12


def test_single_barrier_non_nodal_populates_odd_modes():
    closed = single_barrier_coefficients(shifted_state(PI4), 6)
    frozen = [0.3001054387190354, math.cos(PI4), -0.5401897896942638, 0.0,
              -0.2143610276564538, 0.0]
    np.testing.assert_allclose(closed, frozen, rtol=1e-12, atol=1e-15)
    for n in (1, 2, 3, 5):
        oracle = single_well_projection(shifted_state(PI4), n) / math.pi
        assert abs(closed[n - 1] - oracle) < 1e-12
    # Parseval also holds for the single-well expansion
    big = single_barrier_coefficients(shifted_state(PI4), 4001)
    assert 0.0 < 1.0 - float(big @ big) < 1e-3


# ---------------------------------------------------------------- energy transfer

def test_delta_energy_frozen_values():
    assert abs(delta_energy(1, 1, PI4, variant="nominal") - 8.03826530612245) < 1e-12
    assert abs(delta_energy(1, 1, PI4, variant="conserving")
               - 7.663265306122449) < 1e-12


def test_delta_energy_variant_difference_constant():
    n = np.arange(1, 30)
    diff = delta_energy(n, 5, PI4, variant="nominal") \
        - delta_energy(n, 5, PI4, variant="conserving")
    np.testing.assert_allclose(diff, 0.375, rtol=1e-14)


def test_delta_energy_positive_at_quarter_pi():
    n, m = np.meshgrid(np.arange(1, 101), np.arange(1, 101))
    assert delta_energy(n, m, PI4, variant="nominal").min() > 0.0
    assert delta_energy(n, m, PI4, variant="conserving").min() > 0.0


def test_delta_energy_strictly_monotone():
    n = np.arange(1, 50)
    fixed_m = delta_energy(n, 7, PI4)
    assert np.all(np.diff(fixed_m) > 0)
    fixed_n = delta_energy(7, n, PI4)
    assert np.all(np.diff(fixed_n) > 0)


def test_delta_energy_rejects_unknown_variant():
    with pytest.raises(ValueError):
        delta_energy(1, 1, PI4, variant="exotic")
