import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshmap.api import solve
from walshmap.errors import BracketFailure, PoleAtCenter
from walshmap.lemniscatic import (LemniscaticDomain, _bisect, boundary_abscissae,
                                  centers_general, centers_three, centers_two,
                                  crit_points, green, green_deriv)

import reference_values as ref
import scalar_oracles as oracle


def disk_domain():
    from walshmap.equilibrium import ExponentVector
    return LemniscaticDomain(centers=(0.0,), exponents=ExponentVector((1.0,), 0.0),
                             capacity=0.5, crit_w=(), boundary_c=(-0.5, 0.5),
                             outer_iterations=0, inner_residual=0.0)


def test_green_disk():
    dom = disk_domain()
    assert abs(green(1.0, dom) - math.log(2.0)) < 1e-15
    assert abs(green(0.5, dom)) < 1e-15
    with pytest.raises(PoleAtCenter):
        green(0.0, dom)


def test_green_vanishes_at_boundary_abscissae(two_interval, three_interval, cantor2):
    for wm in (two_interval, three_interval, cantor2):
        for c in wm.lemniscatic.boundary_c:
            assert abs(green(c, wm.lemniscatic)) < 1e-10


def test_green_matches_at_critical_points(two_interval):
    dom = two_interval.lemniscatic
    assert abs(green(dom.crit_w[0], dom) - ref.TWO_INTERVAL["green_at_z1"]) < 1e-12


def test_deriv_symmetric_midpoint():
    from walshmap.equilibrium import ExponentVector
    dom = LemniscaticDomain(centers=(-1.5, 1.5),
                            exponents=ExponentVector((0.5, 0.5), 0.0),
                            capacity=0.8, crit_w=(0.0,),
                            boundary_c=(-2.0, -1.0, 1.0, 2.0),
                            outer_iterations=0, inner_residual=0.0)
    assert abs(green_deriv(0.0, dom)) < 1e-15
    with pytest.raises(PoleAtCenter):
        green_deriv(1.5, dom)


def test_deriv_far_field_decay(two_interval):
    dom = two_interval.lemniscatic
    for w in (1e3, 1e3j, -2e3 + 5e2j):
        assert abs(w * green_deriv(w, dom) - 1.0) < 5e-3


def test_deriv_changes_sign_across_critical_points(three_interval):
    dom = three_interval.lemniscatic
    for wk in dom.crit_w:
        left = green_deriv(wk - 1e-6, dom).real
        right = green_deriv(wk + 1e-6, dom).real
        assert left > 0 > right


@settings(max_examples=40, deadline=None)
@given(st.floats(-2, 2), st.floats(0.05, 3), st.floats(0.05, 0.95))
def test_two_center_critical_point_formula(a1, gap, m1):
    a2 = a1 + gap
    m = (m1, 1.0 - m1)
    w = crit_points((a1, a2), m)
    assert abs(w[0] - (m[1] * a1 + m[0] * a2)) < 1e-10 * max(1.0, abs(a1), abs(a2))


def test_two_interval_critical_point(two_interval):
    assert abs(two_interval.lemniscatic.crit_w[0] - ref.TWO_INTERVAL["w1"]) < 1e-13


def test_crit_points_against_companion_oracle():
    a = (-1.3, -0.2, 0.9, 2.4)
    m = (0.1, 0.35, 0.2, 0.35)
    got = crit_points(a, m)
    # expand sum m_j prod_{i != j} (w - a_i) and take companion-matrix roots
    poly = np.zeros(4)
    for j in range(4):
        pj = np.polynomial.polynomial.polyfromroots([a[i] for i in range(4) if i != j])
        poly += m[j] * pj
    oracle = np.sort(np.roots(poly[::-1]).real)
    assert np.max(np.abs(np.sort(got) - oracle)) < 1e-10


@st.composite
def lemniscatic_data(draw):
    """Centers with spacings in [0.05, 1], masses in [0.05, 1] (one of them
    negative in some draws, which leaves a critical-point bracket without a
    sign change), and a capacity set by the margin by which g stays positive
    at the lowest critical point (negative margins leave no boundary
    bracket)."""
    ell = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=ell - 1, max_size=ell - 1))
    a = draw(st.floats(-3.0, 3.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    m = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=ell, max_size=ell)))
    m /= m.sum()
    if draw(st.integers(0, 9)) == 0:
        m[draw(st.integers(0, ell - 1))] *= -1.0
    margin = draw(st.one_of(st.floats(-1.0, -0.05), st.floats(0.05, 2.0)))
    return a, m, margin


def _agree(new, old):
    scale = max(float(np.max(np.abs(old))), 1e-300)
    return float(np.max(np.abs(new - old))) <= 1e-14 * scale


@settings(max_examples=60, deadline=None)
@given(lemniscatic_data())
def test_array_root_finders_match_scalar_oracles(data):
    a, m, margin = data
    try:
        w_ref = oracle.crit_points(a, m)
    except BracketFailure:
        with pytest.raises(BracketFailure):
            crit_points(a, m)
        return
    w = crit_points(a, m)
    if w.size:
        assert _agree(w, w_ref)
    g0 = min((oracle.green_scalar(wk, a, m, 1.0) for wk in w_ref), default=0.0)
    cap = math.exp(g0 - margin)
    try:
        c_ref = oracle.boundary_abscissae(a, m, cap, crit=w_ref)
    except BracketFailure:
        with pytest.raises(BracketFailure):
            boundary_abscissae(a, m, cap, crit=w_ref)
        return
    assert _agree(boundary_abscissae(a, m, cap, crit=w_ref), c_ref)


def test_bisect_brackets_of_either_orientation():
    # f(pos) > 0 >= f(neg), whichever end is larger; zeros at -0.3 and 0.7
    pos = np.array([1.0, -1.0])
    neg = np.array([0.0, 0.0])
    got = _bisect(lambda x: (x - 0.7) * (x + 0.3), pos, neg)
    assert got[0] == pytest.approx(0.7, abs=1e-15)
    assert got[1] == pytest.approx(-0.3, abs=1e-15)
    # a bracket already down to adjacent floats stays put
    x = np.array([0.5])
    assert _bisect(lambda v: v - 0.5, np.nextafter(x, 1.0), x)[0] in (
        x[0], np.nextafter(x[0], 1.0))


def test_boundary_abscissae_disk():
    c = boundary_abscissae((0.7,), (1.0,), 0.25)
    assert np.max(np.abs(c - np.array([0.45, 0.95]))) < 1e-12


def test_boundary_ordering(three_interval):
    dom = three_interval.lemniscatic
    c, a, w = dom.boundary_c, dom.centers, dom.crit_w
    seq = [c[0], a[0], c[1], c[2], a[1], c[3], c[4], a[2], c[5]]
    assert all(x < y for x, y in zip(seq, seq[1:]))
    assert all(a[k] < w[k] < a[k + 1] for k in range(2))


def test_boundary_symmetric_under_negation(symmetric_pair):
    c = np.array(symmetric_pair.lemniscatic.boundary_c)
    assert np.max(np.abs(c + c[::-1])) < 1e-10


def test_centers_two_values(two_interval):
    wm = two_interval
    a = centers_two(wm.domain, wm.exponents.m, wm.green.capacity, wm.green)
    assert np.max(np.abs(np.array(a) - np.array(ref.TWO_INTERVAL["a"]))) < 1e-13


def test_centers_symmetric_pair_exact(symmetric_pair):
    a = symmetric_pair.lemniscatic.centers
    assert np.max(np.abs(np.array(a) - np.array(ref.SYMMETRIC_PAIR["a"]))) < 1e-12


def test_translation_equivariance():
    base = solve(ref.TWO_INTERVAL["pairs"])
    t = 0.37
    shifted = solve([[lo + t, hi + t] for lo, hi in ref.TWO_INTERVAL["pairs"]])
    da = np.array(shifted.lemniscatic.centers) - np.array(base.lemniscatic.centers)
    assert np.max(np.abs(da - t)) < 1e-9
    assert abs(shifted.green.capacity - base.green.capacity) < 1e-9


def test_scale_shift_equivariance_three_intervals():
    base = solve(ref.THREE_INTERVAL["pairs"])
    s, t = 0.65, -1.2
    mapped = solve([[s * lo + t, s * hi + t] for lo, hi in ref.THREE_INTERVAL["pairs"]])
    a_expect = s * np.array(base.lemniscatic.centers) + t
    assert np.max(np.abs(np.array(mapped.lemniscatic.centers) - a_expect)) < 1e-9
    assert abs(mapped.green.capacity - s * base.green.capacity) < 1e-9
    assert np.max(np.abs(np.array(mapped.exponents.m)
                         - np.array(base.exponents.m))) < 1e-10


def test_centers_three_routes_agree(three_interval):
    wm = three_interval
    a_sys = centers_three(wm.domain, wm.exponents.m, wm.green.capacity, wm.green)
    assert np.max(np.abs(a_sys - np.array(wm.lemniscatic.centers))) < 1e-7
    assert np.max(np.abs(a_sys - np.array(ref.THREE_INTERVAL["a"]))) < 1e-12


def test_centers_three_symmetric_triple():
    wm = solve([[-1, -0.6], [-0.4, 0.4], [0.6, 1]])
    a = centers_three(wm.domain, wm.exponents.m, wm.green.capacity, wm.green)
    assert abs(a[1]) < 1e-10


def test_general_matches_explicit_two_centers(two_interval):
    wm = two_interval
    a, w, iters, resid = centers_general(wm.domain, wm.exponents.m,
                                         wm.green.capacity, wm.green)
    explicit = centers_two(wm.domain, wm.exponents.m, wm.green.capacity, wm.green)
    assert np.max(np.abs(a - np.array(explicit))) < 1e-10


def test_cantor_level2_centers_and_steps(cantor2):
    dom = cantor2.lemniscatic
    assert np.max(np.abs(np.array(dom.centers) - np.array(ref.CANTOR2["a"]))) < 1e-10
    assert dom.outer_iterations <= ref.CANTOR2["steps"]


def test_mass_weighted_center_sum(three_interval, cantor2):
    for wm in (three_interval, cantor2):
        lhs = float(np.array(wm.exponents.m) @ np.array(wm.lemniscatic.centers))
        assert abs(lhs - wm.green.alpha) < 1e-10


def test_solved_domains_expose_iteration_diagnostics(three_interval):
    dom = three_interval.lemniscatic
    assert dom.outer_iterations == 4
    assert dom.inner_residual < 1e-13


def test_hard_separation_still_converges():
    # separations down to 1e-3: more outer steps are allowed, but convergence
    # and the invariant battery must hold
    rng = np.random.default_rng(42)
    for _ in range(3):
        while True:
            b = np.sort(rng.uniform(-1.0, 1.0, size=10))
            if 1e-3 <= np.min(np.diff(b)) < 1e-2:
                break
        wm = solve([[b[2 * j], b[2 * j + 1]] for j in range(5)])
        dom = wm.lemniscatic
        assert max(abs(green(c, dom)) for c in dom.boundary_c) < 1e-10
        assert max(abs(green(w, dom) - g) for w, g in
                   zip(dom.crit_w, wm.green.green_at_roots)) < 1e-10
