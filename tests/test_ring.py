import math

import pytest

from ringsplit import integrate, reference_state, ring_overlap, ring_state, shifted_state

ALPHAS = [0.0, math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2]


def test_amplitude_examples():
    ref = ring_state(0.0)
    assert math.isclose(float(ref.amplitude(math.pi / 2)), 1.0 / math.sqrt(math.pi),
                        rel_tol=1e-15)
    assert float(ref.amplitude(0.0)) == 0.0  # node at the insertion point
    sh = ring_state(math.pi / 4)
    assert abs(float(sh.amplitude(math.pi / 4))) < 1e-16


def test_offset_reduced_mod_two_pi():
    s = ring_state(2.0 * math.pi + 0.3)
    assert math.isclose(s.offset, 0.3, abs_tol=1e-12)
    t = ring_state(-0.25)
    assert math.isclose(t.offset, 2.0 * math.pi - 0.25, abs_tol=1e-12)


def test_non_finite_offset_rejected():
    with pytest.raises(ValueError):
        ring_state(math.nan)
    with pytest.raises(ValueError):
        ring_state(math.inf)


@pytest.mark.parametrize("offset", [0.0, 0.3, math.pi / 4, 1.9, 5.5])
def test_normalization_by_quadrature(offset):
    s = ring_state(offset)
    norm = integrate(lambda th: s.amplitude(th) ** 2, 0.0, 2.0 * math.pi,
                     panels=8, tol=1e-13)
    assert abs(norm - 1.0) < 1e-10


@pytest.mark.parametrize("alpha", ALPHAS)
def test_overlap_closed_form_vs_quadrature(alpha):
    ref = reference_state()
    sh = shifted_state(alpha)
    closed = ring_overlap(ref, sh)
    numeric = integrate(lambda th: ref.amplitude(th) * sh.amplitude(th),
                        0.0, 2.0 * math.pi, panels=8, tol=1e-13)
    assert abs(closed - numeric) < 1e-10
    assert abs(closed ** 2 - math.cos(alpha) ** 2) < 1e-12


def test_overlap_symmetry():
    a = ring_state(0.4)
    b = ring_state(1.1)
    assert ring_overlap(a, b) == ring_overlap(b, a)


def test_overlap_extremes():
    assert math.isclose(ring_overlap(reference_state(), shifted_state(0.0)) ** 2, 1.0,
                        rel_tol=1e-15)
    assert abs(ring_overlap(reference_state(), shifted_state(math.pi / 2))) < 1e-16
    assert math.isclose(
        ring_overlap(reference_state(), shifted_state(math.pi / 4)) ** 2, 0.5,
        rel_tol=1e-14)


