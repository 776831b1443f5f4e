import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshmap.api import solve
from walshmap.equilibrium import contour_mass, density, exponents
from walshmap.errors import OutsideSupport, PadTooLarge

import reference_values as ref


def test_arcsine_density(single_interval):
    assert abs(density(0.0, single_interval.green) - 1.0 / math.pi) < 1e-15
    assert abs(density(0.5, single_interval.green)
               - 1.0 / (math.pi * math.sqrt(0.75))) < 1e-14


def test_density_nonnegative(three_interval):
    rng = np.random.default_rng(2)
    for lo, hi in three_interval.domain.components:
        for x in rng.uniform(lo + 1e-9, hi - 1e-9, 50):
            assert density(float(x), three_interval.green) >= 0.0


def test_density_outside_support(two_interval):
    for x in (0.0, -3.0, 1.0):  # gap, far gap, endpoint
        with pytest.raises(OutsideSupport):
            density(x, two_interval.green)


def test_density_integrates_to_one(two_interval):
    from walshmap.quadrature import integrate_chebyshev
    total = 0.0
    for lo, hi in two_interval.domain.components:
        total += integrate_chebyshev(
            lambda x: np.array([density(float(v), two_interval.green) for v in np.atleast_1d(x)]),
            lo, hi)
    assert abs(total - 1.0) < 1e-6  # plain f(x) caps endpoint resolution


def test_exponents_symmetric_pair(symmetric_pair):
    assert np.max(np.abs(np.array(symmetric_pair.exponents.m) - 0.5)) < 1e-13
    assert symmetric_pair.exponents.defect < 1e-12


def test_exponents_two_interval(two_interval):
    got = np.array(two_interval.exponents.m)
    assert np.max(np.abs(got - np.array(ref.TWO_INTERVAL["m"]))) < 1e-13
    assert abs(math.fsum(two_interval.exponents.m) - 1.0) < 1e-15


def test_exponents_three_interval_printed_digits(three_interval):
    for got, printed in zip(three_interval.exponents.m, (0.3601, 0.1772, 0.4627)):
        assert round(got, 4) == printed


def test_single_interval_exponents(single_interval):
    assert single_interval.exponents.m == (1.0,)


def clustered_midpoint_mass(wm, j, n=99991):
    """Independent oracle: midpoint rule in the cosine-clustered variable."""
    lo, hi = wm.domain.components[j - 1]
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t = (np.arange(n) + 0.5) * np.pi / n
    x = mid + hw * np.cos(t)
    absH = np.ones_like(x)
    for b in wm.domain.endpoints:
        absH *= np.abs(x - b)
    f = np.ones_like(x)
    for z in wm.green.roots:
        f *= x - z
    vals = np.abs(f) / (math.pi * np.sqrt(absH))
    return float(np.sum(vals * hw * np.sin(t)) * np.pi / n)


def test_component_masses_against_midpoint_oracle(three_interval):
    for j in range(1, 4):
        got = three_interval.exponents.m[j - 1]
        assert abs(clustered_midpoint_mass(three_interval, j) - got) < 1e-9


@pytest.mark.parametrize("ell", [2, 5, 12])
def test_masses_match_the_product_written_out(ell):
    # the masses integrate the same product integrand as the gap conditions;
    # here the numerator is multiplied out factor by factor instead
    from walshmap.green import _endpoint_weight_fd
    from walshmap.quadrature import integrate_chebyshev
    from walshmap.verify import random_interval_set

    wm = solve(random_interval_set(np.random.default_rng(ell), ell))
    E, roots = wm.domain, wm.green.roots
    raw = []
    for j in range(1, ell + 1):
        lo, hi, weight = _endpoint_weight_fd(E, 2 * j - 2, 2 * j - 1)

        def product(x, d_lo, d_hi, j=j, weight=weight):
            out = (-1.0) ** (ell - j) / math.pi * weight(x, d_lo, d_hi)
            for z in roots:
                out = out * (x - z)
            return out

        raw.append(integrate_chebyshev(None, lo, hi, fd=product))
    expected = np.array(raw) / math.fsum(raw)
    np.testing.assert_allclose(exponents(E, wm.green).m, expected, rtol=1e-14, atol=0)


@settings(max_examples=8, deadline=None)
@given(st.floats(0.05, 0.9), st.floats(1.05, 3.0))
def test_symmetric_sets_have_palindromic_masses(inner, outer):
    wm = solve([[-outer, -inner], [inner, outer]])
    m = wm.exponents.m
    assert abs(m[0] - m[1]) < 1e-11


def test_palindromic_masses_three_components():
    wm = solve([[-2.0, -1.2], [-0.4, 0.4], [1.2, 2.0]])
    m = wm.exponents.m
    assert abs(m[0] - m[2]) < 1e-11


# --- contour oracle ------------------------------------------------------------

def test_contour_mass_matches_density_integral(two_interval):
    got = contour_mass(two_interval.domain, two_interval.green, 1, 0.15)
    assert abs(got - two_interval.exponents.m[0]) < 1e-8


def test_contour_mass_imag_part_closed_loop(two_interval):
    from walshmap.green import _plain_deriv
    from walshmap.quadrature import integrate_segment_complex
    f = _plain_deriv(two_interval.domain, two_interval.green.roots)
    corners = [-0.1 - 0.4j, 1.4 - 0.4j, 1.4 + 0.4j, -0.1 + 0.4j, -0.1 - 0.4j]
    total = 0j
    for z0, z1 in zip(corners[:-1], corners[1:]):
        total += integrate_segment_complex(f, z0, z1)
    # winding around the right component only: its mass comes out real
    got = total / (2j * math.pi)
    assert abs(got.imag) < 1e-10
    assert abs(got.real - two_interval.exponents.m[1]) < 1e-10


def test_contour_masses_sum_to_one(three_interval):
    total = sum(contour_mass(three_interval.domain, three_interval.green, j, 0.12)
                for j in range(1, 4))
    assert abs(total - 1.0) < 1e-8


def test_contour_pad_too_large(two_interval):
    with pytest.raises(PadTooLarge):
        contour_mass(two_interval.domain, two_interval.green, 1, 0.5)
    with pytest.raises(ValueError):
        contour_mass(two_interval.domain, two_interval.green, 5, 0.1)
