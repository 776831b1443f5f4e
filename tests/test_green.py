import cmath
import math

import numpy as np
import pytest

from walshmap.api import solve
from walshmap.errors import (CapacityMismatch, NoConvergence, NotOnCut,
                             OnCutError, PathOnCut, RootNotBracketed)
from walshmap.green import (_green_integral, _path, _plain_deriv, alpha_coefficient,
                            capacity, green_complex, green_poly, green_real,
                            sqrt_branch, sqrt_branch_rim)
from walshmap.intervals import parse_domain
from walshmap.quadrature import QuadConfig, integrate_segment_complex
from walshmap.verify import random_interval_set, worst_invariant

import reference_values as ref
from scalar_oracles import critical_points, rational_mass_fit


# --- square-root branch --------------------------------------------------------

def test_branch_positive_right_of_set(single_interval):
    assert abs(sqrt_branch(single_interval.domain, 2.0) - math.sqrt(3.0)) < 1e-15


def test_rim_limits(single_interval):
    E = single_interval.domain
    assert abs(sqrt_branch_rim(E, 0.0, +1) - 1j) < 1e-15
    assert abs(sqrt_branch_rim(E, 0.0, -1) + 1j) < 1e-15
    with pytest.raises(NotOnCut):
        sqrt_branch_rim(E, 3.0, +1)
    with pytest.raises(ValueError):
        sqrt_branch_rim(E, 0.0, 2)


def test_branch_sign_in_symmetric_gap(symmetric_pair):
    E = symmetric_pair.domain
    v = sqrt_branch(E, 0.0)
    assert abs(v - (-2.0)) < 1e-12
    # continuity cross-check: walk from x = 3 into the middle gap without
    # meeting a branch jump; the limit reproduces the sign law
    path = np.concatenate([
        3.0 + 1j * np.linspace(1e-9, 0.4, 60),
        np.linspace(3.0, 0.0, 400)[1:] + 0.4j,
        1j * np.linspace(0.4, 1e-9, 60)[1:],
    ])
    vals = sqrt_branch(E, path)
    assert np.max(np.abs(np.diff(vals))) < 0.2
    assert abs(vals[-1] - (-2.0)) < 1e-4


def test_branch_rejects_points_on_cut(single_interval):
    with pytest.raises(OnCutError):
        sqrt_branch(single_interval.domain, 0.5)
    with pytest.raises(OnCutError):
        sqrt_branch(single_interval.domain, 1.0 + 1e-310j)


def test_rim_values_conjugate(two_interval):
    E = two_interval.domain
    rng = np.random.default_rng(7)
    for lo, hi in E.components:
        for x in rng.uniform(lo, hi, 25):
            up = sqrt_branch_rim(E, x, +1)
            dn = sqrt_branch_rim(E, x, -1)
            assert up == dn.conjugate()


def test_sign_law_random_sampling(three_interval):
    E = three_interval.domain
    ell = E.ell
    rng = np.random.default_rng(11)
    b = E.endpoints
    for k in range(ell + 1):
        lo = b[2 * k - 1] if k > 0 else b[0] - 3.0
        hi = b[2 * k] if k < ell else b[-1] + 3.0
        xs = rng.uniform(lo + 1e-9, hi - 1e-9, 1000)
        vals = sqrt_branch(E, xs + 0j)
        assert np.all(np.abs(vals.imag) < 1e-9 * np.abs(vals))
        assert np.all(np.sign(vals.real) == (-1.0) ** (ell - k))
    for j in range(1, ell + 1):
        lo, hi = b[2 * j - 2], b[2 * j - 1]
        for x in rng.uniform(lo + 1e-9, hi - 1e-9, 1000):
            v = sqrt_branch_rim(E, float(x), +1)
            assert v.real == 0 and np.sign(v.imag) == (-1.0) ** (ell - j)


# --- numerator polynomial and critical points -----------------------------------

def test_poly_single_interval(single_interval):
    assert list(green_poly(single_interval.domain)) == [1.0]


def test_poly_symmetric_pair(symmetric_pair):
    coeffs = green_poly(symmetric_pair.domain)
    assert abs(coeffs[0]) < 1e-14 and coeffs[1] == 1.0
    assert abs(critical_points(symmetric_pair.domain, coeffs)[0]) < 1e-14


def test_poly_two_interval(two_interval):
    coeffs = two_interval.green.coeffs
    assert abs(coeffs[0] - (-ref.TWO_INTERVAL["z1"])) < 1e-14
    assert abs(two_interval.green.roots[0] - ref.TWO_INTERVAL["z1"]) < 1e-14


def test_three_interval_coeffs_and_roots(three_interval):
    got = np.array(three_interval.green.coeffs)
    assert np.max(np.abs(got - np.array(ref.THREE_INTERVAL["coeffs"]))) < 1e-13
    assert np.max(np.abs(np.array(three_interval.green.roots)
                         - np.array(ref.THREE_INTERVAL["z"]))) < 1e-14


def test_random_five_interval_roots_against_companion_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        while True:
            b = np.sort(rng.uniform(-1, 1, 10))
            if np.min(np.diff(b)) > 2e-2:
                break
        E = parse_domain([[b[2 * j], b[2 * j + 1]] for j in range(5)])
        coeffs = green_poly(E)
        roots = critical_points(E, coeffs)
        # interlacing: one root strictly inside every bounded gap
        for k in range(1, 5):
            assert b[2 * k - 1] < roots[k - 1] < b[2 * k]
        oracle = np.sort(np.roots(coeffs[::-1]).real)
        assert np.max(np.abs(np.sort(roots) - oracle)) < 1e-9


def test_gap_conditions_by_independent_quadrature(three_interval):
    E = three_interval.domain
    roots = np.array(three_interval.green.roots)
    b = E.endpoints
    n = 30011  # clustered midpoint rule, off the engine's doubling sequence
    t = (np.arange(n) + 0.5) * np.pi / n
    for k in range(1, E.ell):
        lo, hi = b[2 * k - 1], b[2 * k]
        mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + hw * np.cos(t)
        absH = np.ones_like(x)
        for bj in b:
            absH *= np.abs(x - bj)
        f = np.ones_like(x)
        for z in roots:
            f *= x - z
        val = np.sum(f / np.sqrt(absH) * hw * np.sin(t)) * np.pi / n
        assert abs(val) < 1e-10


def test_cantor_levels_4_to_6_solve_with_falling_capacity():
    caps = []
    for level in (4, 5, 6):
        wm = solve(ref.cantor_pairs(level))
        assert worst_invariant(wm) < 1e-10
        caps.append(wm.green.capacity)
    assert caps[0] > caps[1] > caps[2]
    np.testing.assert_allclose(caps, [0.22288729075, 0.22193812912, 0.22145420501],
                               rtol=0, atol=1e-11)
    assert abs(caps[1] - 0.2219381291) < 1e-10  # independent level-5 value


def dirichlet_intervals(rng, ell, floor=0.25):
    """`ell` intervals filling [-1, 1]: the 2 ell - 1 component and gap
    lengths are a Dirichlet split of the hull, none below `floor` times the
    mean length."""
    n = 2 * ell - 1
    lengths = floor * 2.0 / n + (1.0 - floor) * 2.0 * rng.dirichlet(np.ones(n))
    b = -1.0 + np.concatenate(([0.0], np.cumsum(lengths)))
    b[-1] = 1.0
    return [[float(b[2 * j]), float(b[2 * j + 1])] for j in range(ell)]


@pytest.mark.parametrize("seed", [2, 5])
def test_forty_interval_sets_solve(seed):
    wm = solve(dirichlet_intervals(np.random.default_rng(seed), 40))
    assert worst_invariant(wm) < 1e-10


def test_solved_roots_are_a_newton_fixed_point():
    from walshmap.green import _gap_system

    wm = solve(random_interval_set(np.random.default_rng(3), 10))
    b = np.asarray(wm.domain.endpoints)
    F, J = _gap_system(wm.domain, wm.green.roots, QuadConfig(1e-15, 1e-15, max_level=16))
    step = np.linalg.solve(J, -F)
    assert np.all(np.abs(step) <= 1e-14 * (b[2:-1:2] - b[1:-1:2]))


def test_missing_bracket_raises(two_interval):
    with pytest.raises(RootNotBracketed):
        critical_points(two_interval.domain, [5.0, 1.0])  # root far outside the gap


# --- Green's function values -----------------------------------------------------

def test_green_vanishes_on_the_set(two_interval):
    wm = two_interval
    for b in wm.domain.endpoints:
        assert green_real(b, wm.domain, wm.green) == 0.0
    assert green_real(0.5, wm.domain, wm.green) == 0.0  # interior point


def test_green_at_critical_point(two_interval):
    assert abs(two_interval.green.green_at_roots[0]
               - ref.TWO_INTERVAL["green_at_z1"]) < 1e-13


def test_half_gap_identity(two_interval):
    # the value at the critical point equals half the full-gap mass integral,
    # computed here as two smooth halves split at the root
    from walshmap.quadrature import integrate_chebyshev
    wm = two_interval
    z1 = wm.green.roots[0]
    b = wm.domain.endpoints

    def fd_left(x, d_lo, d_hi):
        absH = d_lo * (x - b[0]) * (b[2] - x) * (b[3] - x)
        return (z1 - x) / np.sqrt(absH)

    def fd_right(x, d_lo, d_hi):
        absH = (x - b[0]) * (x - b[1]) * d_hi * (b[3] - x)
        return (x - z1) / np.sqrt(absH)

    half = 0.5 * (integrate_chebyshev(None, b[1], z1, fd=fd_left)
                  + integrate_chebyshev(None, z1, b[2], fd=fd_right))
    assert abs(half - wm.green.green_at_roots[0]) < 1e-13


def test_green_positive_off_the_set(three_interval):
    wm = three_interval
    rng = np.random.default_rng(5)
    b = wm.domain.endpoints
    pts = list(rng.uniform(b[0] - 2, b[0] - 1e-6, 10))
    pts += list(rng.uniform(b[-1] + 1e-6, b[-1] + 2, 10))
    for k in range(1, wm.domain.ell):
        pts += list(rng.uniform(b[2 * k - 1] + 1e-9, b[2 * k] - 1e-9, 10))
    for x in pts:
        assert green_real(float(x), wm.domain, wm.green) > 0.0


def test_green_complex_single_interval_closed_form(single_interval):
    wm = single_interval
    for z in (2.0, 5.0, 1.5 + 0.5j, -0.3 + 2.0j, 0.1 - 1.2j):
        got = green_complex(z, wm.domain, wm.green)
        want = cmath.log(z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0))
        assert abs(got - want) < 1e-12


def test_green_complex_conjugation(two_interval):
    wm = two_interval
    for z in (0.3 + 0.7j, -2.0 + 0.2j, 1.4 + 3.0j):
        u = green_complex(z, wm.domain, wm.green)
        v = green_complex(z.conjugate(), wm.domain, wm.green)
        assert abs(u - v.conjugate()) < 1e-12


def test_green_asymptotics_both_directions(two_interval):
    wm = two_interval
    logcap = math.log(wm.green.capacity)
    for x in (1e6, -1e6):
        g = green_real(x, wm.domain, wm.green)
        assert abs(g - math.log(abs(x)) + logcap) < 1e-5
    near = abs(green_real(1e5, wm.domain, wm.green) - math.log(1e5) + logcap)
    far = abs(green_real(1e7, wm.domain, wm.green) - math.log(1e7) + logcap)
    assert far < near


def test_green_complex_rejects_cut(two_interval):
    with pytest.raises(PathOnCut):
        green_complex(-3.0, two_interval.domain, two_interval.green)


# a set with a narrow gap: a Green path that starts at an edge of the gap
# passes the other edge within a small fraction of its length, which the 128
# nodes of a segment rule capped at max_level=3 do not resolve
NARROW_GAP = [[-1.0, -1e-4], [1e-4, 1.0]]
FEW_NODES = QuadConfig(max_level=3)


def test_green_complex_batch_matches_points():
    # near and far points with knotted paths, and one whose path starts at
    # the narrow gap's edge -1e-4: under FEW_NODES it alone fails, as NaN in
    # best
    wm = solve(NARROW_GAP)
    fails = -0.5 + 1j
    zs = np.array([[0.7 + 0.7j, -0.75 + 1e-3j, 2e3 - 5e2j],
                   [fails, 0.95 - 0.02j, 0.9 + 1e4j]])
    with pytest.raises(NoConvergence) as err:
        green_complex(zs, wm.domain, wm.green, FEW_NODES)
    best = err.value.best
    assert best.shape == zs.shape and "1 of 6 points" in str(err.value)
    for z, got in zip(zs.flat, best.flat):
        if z == fails:
            assert np.isnan(got)
            with pytest.raises(NoConvergence) as one:
                green_complex(z, wm.domain, wm.green, FEW_NODES)
            assert isinstance(one.value.best, complex)
            assert isinstance(one.value.estimate, float)
        else:
            assert got == green_complex(z, wm.domain, wm.green, FEW_NODES)
    ok = np.delete(zs.ravel(), 3)
    assert np.array_equal(green_complex(ok, wm.domain, wm.green, FEW_NODES),
                          np.delete(best.ravel(), 3))
    with pytest.raises(PathOnCut):
        green_complex([1j, -3.0], wm.domain, wm.green)


def test_green_complex_scalar_failure_is_first_failing_panel():
    # the integral from b_2l of -5e4+100j passes the set at a height of about
    # 2e-3 and fails in a later panel: the scalar integral raises that
    # panel's own error, with scalar best and estimate (green_complex's
    # paths from the nearest endpoint have knots only far from the set)
    wm = solve(random_interval_set(np.random.default_rng(7), 6))
    E, z = wm.domain, -5e4 + 100j
    with pytest.raises(NoConvergence) as err:
        _green_integral(E, wm.green.roots, E.endpoints[-1], z, wm.config)
    verts = _path(E, E.endpoints[-1], z)
    f = _plain_deriv(E, wm.green.roots)
    for z0, z1 in zip(verts[:-1], verts[1:]):
        try:
            integrate_segment_complex(f, z0, z1)
        except NoConvergence as exc:
            one = exc
            break
    else:
        pytest.fail("no later panel fails")
    assert str(err.value) == str(one)
    assert isinstance(err.value.best, complex) and isinstance(err.value.estimate, float)
    assert err.value.best == one.best and err.value.estimate == one.estimate


def test_green_complex_jump_matches_the_other_edge_of_the_gap(three_interval):
    # green_complex bases each point at the endpoint nearest Re z and adds
    # i pi (m_{k+1} + ... + m_ell) sign(Im z); the integral from the other
    # edge of the same gap, plus the same jump, is another path to it
    wm = three_interval
    E, m = wm.domain, wm.exponents.m
    b = E.endpoints
    for k in range(1, E.ell):
        lo, hi = b[2 * k - 1], b[2 * k]
        for x in (lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)):
            for y in (0.3, -0.05, 1e-6):
                z = complex(x, y)
                other = hi if x - lo < hi - x else lo
                jump = 1j * math.pi * math.fsum(m[k:]) * math.copysign(1.0, y)
                want = _green_integral(E, wm.green.roots, other, z, wm.config) + jump
                assert abs(green_complex(z, E, wm.green) - want) <= 1e-12 * abs(want)


# --- capacity and alpha ----------------------------------------------------------

def test_capacity_single_interval(single_interval):
    assert abs(single_interval.green.capacity - 0.5) < 1e-13


def test_capacity_two_interval(two_interval):
    assert abs(two_interval.green.capacity - ref.TWO_INTERVAL["capacity"]) < 1e-13
    assert two_interval.green.capacity_mismatch < 1e-12


def test_capacity_cantor_level2(cantor2):
    assert abs(cantor2.green.capacity - ref.CANTOR2["capacity"]) < 5e-12


def test_capacity_invariant_under_shift_choice(two_interval):
    wm = two_interval
    base = wm.green.capacity
    for br, bl in ((0.5, 0.0), (-2.0, 3.0), (0.999, -0.999)):
        v = capacity(wm.domain, wm.green, beta_right=br, beta_left=bl)
        assert abs(v - base) < 1e-10


def test_capacity_mismatch_guard(two_interval):
    # roots violating the gap conditions make the two formulas disagree
    with pytest.raises(CapacityMismatch):
        capacity(two_interval.domain, [0.05])


def test_alpha_values(two_interval, single_interval, symmetric_pair):
    assert abs(two_interval.green.alpha - ref.TWO_INTERVAL["alpha"]) < 1e-14
    assert alpha_coefficient(single_interval.domain, []) == 0.0
    assert abs(symmetric_pair.green.alpha) < 1e-14


def test_alpha_matches_laurent_extraction(two_interval, three_interval):
    # the raw extraction at radius r carries a next-order term of size ~1/r;
    # one Richardson step in 1/r removes it
    def extract(wm, z):
        num = np.prod(z - np.array(wm.green.roots))
        return complex(z * z * (num / sqrt_branch(wm.domain, z) - 1.0 / z))

    for wm in (two_interval, three_interval):
        for ang in (0.3, 1.1, 2.0):
            u = cmath.exp(1j * ang)
            got = (2.0 * extract(wm, 2e4 * u) - extract(wm, 1e4 * u)).real
            assert abs(got - wm.green.alpha) < 1e-8 + 1e-6 * abs(wm.green.alpha)


# --- rational mass diagnostic ----------------------------------------------------

def test_rational_fit_halves():
    assert rational_mass_fit([0.5, 0.5]) == (2, (1, 1))


def test_rational_fit_two_interval_masses():
    assert rational_mass_fit(ref.TWO_INTERVAL["m"]) is None


def test_rational_fit_thirds_with_noise():
    m = [1 / 3 + 1e-9, 1 / 3 - 2e-9, 1 / 3 + 1e-9]
    assert rational_mass_fit(m) == (3, (1, 1, 1))


def test_rational_fit_on_computed_preimage_masses():
    # the symmetric triple family is a cubic pre-image: its computed masses
    # must admit the denominator-3 fit
    from walshmap.api import solve
    wm = solve([[-1, -0.6], [-0.4, 0.4], [0.6, 1]])
    assert rational_mass_fit(wm.exponents.m) == (3, (1, 1, 1))


def test_rational_fit_single():
    assert rational_mass_fit([1.0]) == (1, (1,))


def test_gap_system_vector_rows_match_scalar_calls(three_interval, monkeypatch):
    import walshmap.green as green
    from walshmap.green import _endpoint_weight_fd, _gap_system
    from walshmap.quadrature import integrate_chebyshev

    E = three_interval.domain
    b = E.endpoints
    roots = np.array([0.4 * b[2 * k - 1] + 0.6 * b[2 * k] for k in range(1, E.ell)])
    blocks = []

    def recording(f, lo, hi, cfg=None, **kwargs):
        blocks.append((lo, hi, kwargs["fd"]))
        return integrate_chebyshev(f, lo, hi, cfg, **kwargs)

    monkeypatch.setattr(green, "integrate_chebyshev", recording)
    F, J = _gap_system(E, roots, green.DEFAULT_CONFIG)
    monkeypatch.undo()
    assert len(blocks) == E.ell - 1  # one vector-valued call per gap
    n = E.ell - 1
    for i, (lo, hi, fd) in enumerate(blocks):
        # the same (K, m) integrand, integrated one row at a time
        rows = [integrate_chebyshev(None, lo, hi, fd=lambda x, dl, dh, r=r: fd(x, dl, dh)[r])
                for r in range(n + 1)]
        np.testing.assert_array_max_ulp(F[i], rows[0], maxulp=2)
        np.testing.assert_array_max_ulp(J[i], -np.array(rows[1:]), maxulp=2)
        # and the products written out factor by factor
        _, _, weight = _endpoint_weight_fd(E, 2 * i + 1, 2 * i + 2)

        def product(x, d_lo, d_hi, skip=None):
            out = weight(x, d_lo, d_hi)
            for j, z in enumerate(roots):
                if j != skip:
                    out = out * (x - z)
            return out

        assert F[i] == pytest.approx(integrate_chebyshev(None, lo, hi, fd=product),
                                     rel=1e-13)
        for j in range(n):
            direct = -integrate_chebyshev(
                None, lo, hi, fd=lambda x, dl, dh, j=j: product(x, dl, dh, skip=j))
            assert J[i, j] == pytest.approx(direct, rel=1e-13)


# --- the paired N/S evaluator ------------------------------------------------------

@pytest.mark.parametrize("ell", range(1, 13))
def test_ns_evaluator_matches_product_over_branch(ell):
    from walshmap.green import _plain_deriv

    rng = np.random.default_rng(ell)
    wm = solve(random_interval_set(rng, ell))
    E, data = wm.domain, wm.green
    b = E.endpoints
    z = (rng.uniform(-3.0, 3.0, 200)
         + 1j * rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-3.0, 1.0, 200))
    # N as the product over its roots: polyval of the rounded coefficients
    # is itself off by up to 5e-12 relative at ell = 11
    expected = np.prod(z[:, None] - np.asarray(data.roots), axis=1) / sqrt_branch(E, z)
    for base in (b[0], b[-1]):
        got = _plain_deriv(E, data.roots)(z - base, base)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(_plain_deriv(E, data.roots)(z), expected,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("side", [1, -1])
def test_ns_evaluator_tails_are_abs_ratio(three_interval, side):
    # the capacity tails evaluate |N/S| in real arithmetic from offsets that
    # are all nonnegative: side * (base - roots) and side * (base - b)
    from walshmap.green import _ns_ratio

    E, data = three_interval.domain, three_interval.green
    b = np.asarray(E.endpoints)
    base = b[-1] if side > 0 else b[0]
    x = base + side * np.logspace(-3.0, 8.0, 60)
    delta = side * (x - base)
    ratio = _ns_ratio(side * (base - np.asarray(data.roots)), side * (base - b))
    got = ratio(delta)
    assert got.dtype == np.float64
    expected = np.abs(np.prod(x[:, None] - np.asarray(data.roots), axis=1)
                      / sqrt_branch(E, x + 0j))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
