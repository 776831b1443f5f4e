import cmath
import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from walshmap.api import solve
from walshmap import green
from walshmap.errors import (CapacityMismatch, NoConvergence, NotFinite, NotOnCut,
                             OnCutError, PathOnCut, RootNotBracketed)
from walshmap.green import (_gap_system, _green_integral, _green_real, _path,
                            _plain_deriv, _scaled_residual, _solve_numerator,
                            alpha_coefficient,
                            capacity, green_complex, green_data, green_poly,
                            green_real, sqrt_branch, sqrt_branch_rim)
from walshmap.intervals import IntervalUnion, parse_domain
from walshmap.quadrature import QuadConfig, integrate_chebyshev, integrate_segment_complex
from walshmap.verify import random_interval_set, worst_invariant

import reference_values as ref
from scalar_oracles import (capacity_tail, critical_points, endpoint_weight_fd,
                            paired_leave_one_out, path, rational_mass_fit)


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


@pytest.mark.parametrize("z", [math.nan, complex(math.nan, 1.0), complex(2.0, math.inf)])
def test_branch_rejects_non_finite_points(single_interval, z):
    # the first non-finite point is named, for a scalar and in an array
    with pytest.raises(NotFinite, match=f"z = {re.escape(str(complex(z)))} "):
        sqrt_branch(single_interval.domain, z)
    with pytest.raises(NotFinite, match=f"z = {re.escape(str(complex(z)))} "):
        sqrt_branch(single_interval.domain, [2.0, z, math.nan])


def test_rim_values_conjugate(two_interval):
    E = two_interval.domain
    rng = np.random.default_rng(7)
    for lo, hi in E.components:
        for x in rng.uniform(lo, hi, 25):
            up = sqrt_branch_rim(E, x, +1)
            dn = sqrt_branch_rim(E, x, -1)
            assert up == dn.conjugate()


def test_rim_modulus_on_cantor_level_9_is_not_underflowed():
    # |H| at the midpoint of Cantor 9's first component is 1e-574, below the
    # float range, but its root 7.9e-288 is a normal float
    E = parse_domain(ref.cantor_pairs(9))
    b = E.endpoints
    x = 0.5 * (b[0] + b[1])
    oracle = math.exp(0.5 * math.fsum(math.log(abs(x - bj)) for bj in b))
    for side in (1, -1):
        v = sqrt_branch_rim(E, x, side)
        assert v.real == 0.0 and v.imag == side * (-1.0) ** (E.ell - 1) * abs(v)
        assert abs(abs(v) - oracle) <= 1e-12 * oracle


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


def test_worst_invariant_of_one_interval(single_interval):
    # no critical points: the last invariant is an empty maximum
    assert worst_invariant(single_interval) < 1e-12


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.cantor_pairs(3)],
                         ids=["two", "cantor3"])
@pytest.mark.parametrize("scale", [1e10, 1e40, 1e100])
def test_worst_invariant_is_free_of_scale(pairs, scale):
    # the m.a = alpha row was absolute: on the two-interval set it read
    # 3.4e-7, 7.9e23 and 1.8e83 at these scales, the rounding of a and alpha
    wm = solve([[scale * lo, scale * hi] for lo, hi in pairs])
    assert worst_invariant(wm) <= 1e-12


SHIFT_SETS = [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"], ref.cantor_pairs(3)]


@pytest.mark.parametrize("pairs", SHIFT_SETS, ids=["two", "three", "cantor3"])
@pytest.mark.parametrize("shift", [1e4, 1e5])
def test_worst_invariant_is_free_of_shift(pairs, shift):
    # with no rounding on the critical-point rows these read 3.8e-12,
    # 5.9e-12 and 1.9e-11 at the 1e5 shift, and 5.9e-12 on Cantor 3 at
    # 1e4: storing centers near 1e5 rounds those rows by about 2.4e-11
    wm = solve([[lo + shift, hi + shift] for lo, hi in pairs])
    assert worst_invariant(wm) <= 1e-12


@pytest.mark.parametrize("pairs", SHIFT_SETS, ids=["two", "three", "cantor3"])
@pytest.mark.parametrize("shift", [0.0, 1e5])
def test_worst_invariant_sees_a_moved_center(pairs, shift):
    # each row's rounding hides no wrong solve: a center moved by 1e-12 of
    # the half-width, or 100 of its ulps if more, reads above 1e-12
    wm = solve([[lo + shift, hi + shift] for lo, hi in pairs])
    s = wm.domain.frame[1]
    for j, aj in enumerate(wm.lemniscatic.centers):
        a = list(wm.lemniscatic.centers)
        a[j] = aj + max(1e-12 * s, 100.0 * math.ulp(aj))
        moved = dataclasses.replace(wm, lemniscatic=dataclasses.replace(
            wm.lemniscatic, centers=tuple(a)))
        assert worst_invariant(moved) > 1e-12, j


@pytest.mark.parametrize("pairs", SHIFT_SETS, ids=["two", "three", "cantor3"])
@pytest.mark.parametrize("shift", [0.0, 1e5])
def test_worst_invariant_sees_a_moved_center_sum(pairs, shift):
    # the center sum is measured in the frame (t, s), so the rounding of its
    # terms does not grow with |t|: alpha moved by 1e-12 of the half-width,
    # or 100 of its ulps if more, moves that row alone and reads at 0.9 of
    # the move or more (in the sum m . a - alpha, 8 ell eps of its terms
    # would hide the 1e5 moves)
    wm = solve([[lo + shift, hi + shift] for lo, hi in pairs])
    s, alpha = wm.domain.frame[1], wm.green.alpha
    move = max(1e-12 * s, 100.0 * math.ulp(alpha))
    moved = dataclasses.replace(wm, green=dataclasses.replace(wm.green, alpha=alpha + move))
    assert worst_invariant(moved) >= 0.9 * move / s


def test_worst_invariant_measures_boundary_rows_against_their_rounding():
    # draw 278 of scripts/multiscale_sweep.py (default_rng(42), ell 3, D 12):
    # a correct solve whose |g_L(c_j)| read 7.4e-10 on its 3.4e-10 wide
    # lobe, where storing c_j rounds g_L by |g_L'(c_j)| ulp(c_j) = 2.6e-9
    wm = solve([[-1.0, 0.7572134756022908], [0.9947305464300513, 0.9995892014851291],
                [0.9999999996638749, 1.0]])
    assert worst_invariant(wm) <= 1e-12


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


def test_cantor_level_8_solves_below_level_7():
    # the product of all 510 endpoint distances underflowed in 130 of its 255
    # gaps, and the numerator Newton raised NoConvergence on [1/81, 2/81]
    wm = solve(ref.cantor_pairs(8))
    assert wm.green.capacity < 0.2212071787343  # level 7's capacity
    assert worst_invariant(wm) <= 1e-12


def test_numerator_batch_raises_first_failing_gaps_own_error():
    # gaps 1 and 2 border a component of width 1e-5 and fail at max_level 5;
    # gap 0 converges.  All gaps double in one call, which raises the error
    # that gap 1 raises alone in the midpoint pass.  Each gap alone: its
    # block of the recorded integrand, in a scalar call
    from walshmap.quadrature import integrate_chebyshev

    E = parse_domain([[-1, -0.5], [-0.3, 0.3], [0.4, 0.40001], [0.6, 1]])
    cfg = QuadConfig(max_level=5)
    calls = []

    def recording(f, lo, hi, cfg=None, **kwargs):
        calls.append((lo, hi, kwargs["fd"]))
        return integrate_chebyshev(f, lo, hi, cfg, **kwargs)

    with pytest.raises(NoConvergence) as err, pytest.MonkeyPatch.context() as mp:
        mp.setattr(green, "integrate_chebyshev", recording)
        _solve_numerator(E, cfg)
    (lo, hi, fd), = calls  # the midpoint pass
    own = []
    for g in range(E.ell - 1):
        try:
            integrate_chebyshev(
                None, float(lo[g]), float(hi[g]), cfg,
                fd=lambda x, dl, dh, g=g: fd(x[None], dl[None], dh[None], np.array([g]))[:, 0])
        except NoConvergence as exc:
            own.append((g, exc))
    assert [g for g, _ in own] == [1, 2]
    first = own[0][1]
    assert str(err.value) == str(first)
    assert err.value.best.shape == (E.ell,)  # the gap's F row and Jacobian row
    np.testing.assert_array_equal(err.value.best, first.best)
    np.testing.assert_array_equal(err.value.estimate, first.estimate)


def test_tiny_gaps_beside_a_small_component_solve():
    # from the gap midpoints the root-space Newton stalled ("no damped Newton
    # step lowers the residual 9.376e-22"): its step test, 1e-14 of a 1e-8
    # gap, lay under the rounding of the gap conditions
    wm = solve([[-1.0, 0.0], [1e-8, 1e-4], [1e-4 + 1e-8, 1.0]])
    assert worst_invariant(wm) <= 1e-12


_PASS_SETS = ([ref.dirichlet_intervals(np.random.default_rng(ell), ell) for ell in (5, 10, 20, 40)]
              + [ref.cantor_pairs(level) for level in (2, 3, 4, 5)])


def _counted_gap_passes(monkeypatch, shifts=()):
    """Record every gap pass of _product_integrals as (roots, leave_one_out):
    the leave-one-out pass over the gaps, and the residual pass over every
    interval of the hull, to whose k-th call's gap rows (odd intervals)
    shifts[k] is added."""
    plain = green._product_integrals
    calls = []

    def counted(E, first, roots, cfg, leave_one_out=False):
        out = plain(E, first, roots, cfg, leave_one_out)
        if np.any(np.asarray(first) % 2):  # gaps among the intervals
            if not leave_one_out:
                k = sum(not loo for _, loo in calls)
                if k < len(shifts):
                    out = out + shifts[k] * (np.asarray(first) % 2)
            calls.append((np.array(roots), leave_one_out))
        return out

    monkeypatch.setattr(green, "_product_integrals", counted)
    return calls


_PASS_IDS = ["ell5", "ell10", "ell20", "ell40", "cantor2", "cantor3", "cantor4", "cantor5"]


@pytest.mark.parametrize("pairs", _PASS_SETS + [ref.cantor_pairs(level) for level in (6, 7, 8)],
                         ids=_PASS_IDS + ["cantor6", "cantor7", "cantor8"])
def test_leave_one_out_rows_match_the_prefix_suffix_oracle(pairs):
    # the gap pass's rows at 32 nodes per gap, for the roots at the gap
    # midpoints, one node placed exactly on a root: row 0 is the same
    # product, and each row 1 + j, the product over x - z_j, lies within
    # the rounding of the two ways of forming it from ell factors
    E = parse_domain(pairs)
    b = np.asarray(E.endpoints)
    roots = 0.5 * (b[1:-1:2] + b[2:-1:2])
    t = (np.arange(32) + 0.5) / 32
    x = b[1:-1:2, None] + (b[2:-1:2] - b[1:-1:2])[:, None] * t
    k = len(roots) // 2
    x[k, 7] = roots[k]
    num = x - roots[:, None, None]
    sq = np.sqrt(np.abs(x - b[:, None, None]))
    want = paired_leave_one_out(num, sq)
    got = green._paired_ratio(num.copy(), sq.copy(), leave_one_out=True)
    assert np.array_equal(got[0], want[0]) and got[0, k, 7] == 0.0
    assert np.all(np.abs(got - want) <= 2 * E.ell * np.spacing(np.abs(want)))
    assert got[1 + k, k, 7] != 0.0 and np.isfinite(got).all()


def test_coefficient_tree_is_polyfromroots_bit_for_bit():
    for count in range(161):  # unsorted roots: both trees sort them
        roots = np.random.default_rng(count).uniform(-1.0, 1.0, count)
        want = np.polynomial.polynomial.polyfromroots(roots)
        got = green._poly_from_roots(roots)
        assert got.dtype == want.dtype and np.array_equal(got, want), count


@pytest.mark.parametrize("pairs", _PASS_SETS[::2] + [ref.TWO_INTERVAL["pairs"]],
                         ids=_PASS_IDS[::2] + ["two"])
def test_capacity_tails_are_one_tail_call_equal_to_scalar_calls(pairs, monkeypatch):
    E = parse_domain(pairs)
    roots = green_data(E).roots
    calls = []
    plain = green.integrate_tail

    def counted(f, lo, *args, **kwargs):
        calls.append(np.shape(lo))
        return plain(f, lo, *args, **kwargs)

    monkeypatch.setattr(green, "integrate_tail", counted)
    cap, mismatch = green._capacity_both(E, roots, green.DEFAULT_CONFIG)
    assert calls == [(2,)]
    right, left = (capacity_tail(E, roots, side, green.DEFAULT_CONFIG) for side in (1, -1))
    assert cap == 0.5 * (right + left) and mismatch == abs(right - left)


@pytest.mark.parametrize("pairs", _PASS_SETS, ids=_PASS_IDS)
def test_numerator_takes_two_gap_passes(pairs, monkeypatch):
    # one leave-one-out pass at the gap midpoints solves the linear gap
    # conditions; one residual pass over the hull at the roots of that N
    # confirms them, with the midpoint pass's Jacobian
    E = parse_domain(pairs)
    calls = _counted_gap_passes(monkeypatch)
    data = green_data(E)
    b = np.asarray(E.endpoints)
    assert [loo for _, loo in calls] == [True, False]
    np.testing.assert_array_equal(calls[0][0], 0.5 * (b[1:-1:2] + b[2:-1:2]))
    np.testing.assert_array_equal(calls[1][0], data.roots)


@pytest.mark.parametrize("pairs, exact", zip(_PASS_SETS[::3], (True, False, True)),
                         ids=_PASS_IDS[::3])
def test_residual_poisoned_once_takes_a_second_linear_pass(pairs, exact, monkeypatch):
    # gap residuals shifted by 1e-9 on the first residual pass only put its
    # step far above the stopping bound: a second linear pass then runs from
    # that pass's roots, and its own residual pass accepts them.  The second
    # pass rounds its own solve: on ell5 and cantor4 it returns the
    # unpoisoned roots and masses bit for bit, on ell40 roots up to 17 ulp
    # (2.5e-17 of their gap) away, well within the stopping bound
    E = parse_domain(pairs)
    expected = green_data(E)
    calls = _counted_gap_passes(monkeypatch, shifts=[1e-9])
    data = green_data(E)
    assert [loo for _, loo in calls] == [True, False, True, False]
    np.testing.assert_array_equal(calls[1][0], expected.roots)
    np.testing.assert_array_equal(calls[2][0], calls[1][0])
    np.testing.assert_array_equal(calls[3][0], data.roots)
    if exact:
        assert (data.roots, data.masses) == (expected.roots, expected.masses)
    b = np.asarray(E.endpoints)
    assert np.all(np.abs(np.subtract(data.roots, expected.roots))
                  <= 1e-14 * (b[2:-1:2] - b[1:-1:2]) / green._STEP_MARGIN)


def test_gap_conditions_unsolved_after_the_last_linear_pass(monkeypatch):
    # a residual that never meets the stopping bound: every linear pass runs,
    # then a typed error names the pass count and the worst step
    E = parse_domain(ref.THREE_INTERVAL["pairs"])
    calls = _counted_gap_passes(monkeypatch, shifts=[1e-9] * green._PASSES)
    with pytest.raises(RootNotBracketed, match=(
            rf"^gap conditions unsolved: after {green._PASSES} linear passes the "
            r"step on gap [12] is \S+ times its bound$")):
        _solve_numerator(E, green.DEFAULT_CONFIG)
    assert [loo for _, loo in calls] == [True, False] * green._PASSES


# draws 197, 255 and 268 of scripts/multiscale_sweep.py
# (numpy.random.default_rng(42)), endpoint lists b_1..b_2l, whose midpoint
# pass misses the stopping bound, and their worst invariants as solved by
# the root-space Newton that the second linear pass replaced
REFINED_DRAWS = [
    ([-1.0, -0.999993038855063, -0.9999481012296451, -0.9999479905116214,
      -0.9056615745209331, -0.9055226094150907, -0.9053695616832076,
      -0.9053651786964284, -0.9053629174999894, -0.9029558100460571,
      -0.9029523479097468, -0.9029521921013518, -0.8370379338798967,
      -0.8369888797568152, -0.8369363016780867, -0.8368015710627423,
      -0.6785752871352777, -0.6785576829792668, -0.6231959429975882,
      0.9445611250451174, 0.9538052457700952, 0.9539408798078275,
      0.9997801639059025, 1.0], 5.6e-12),
    ([-1.0, -0.9993204664213589, -0.6290092069338177, -0.6146993667798731,
      -0.6144405529658745, -0.6142482159907352, -0.6013062768349525,
      -0.6005553240202326, -0.491260013132223, -0.24042301435893054,
      -0.23907005553455662, -0.20045065526001904, -0.1997653622221398,
      -0.19705873558162246, 0.39624860620942415, 0.42105080086652036,
      0.998684505724736, 1.0], 3.1e-14),
    ([-1.0, -0.9927113514972656, -0.9076231418718936, -0.8962451747680653,
      -0.050841522892096536, -0.040273955871286016, 0.02377617494183837,
      0.0682410758413785, 0.07502080834905733, 0.10034298267315966,
      0.39313031583790514, 0.39319208127074523, 0.39443769289447994,
      0.3945661044874724, 0.457282683151333, 0.45731022310999125,
      0.4925392486265956, 0.5167452504386183, 0.999999044012849, 1.0], 1.5e-11),
]


@pytest.mark.parametrize("b, worst", REFINED_DRAWS, ids=["draw197", "draw255", "draw268"])
def test_sweep_draws_solve_in_two_linear_passes(b, worst, monkeypatch):
    calls = _counted_gap_passes(monkeypatch)
    wm = solve([b[i:i + 2] for i in range(0, len(b), 2)])
    assert [loo for _, loo in calls] == [True, False, True, False]
    assert worst_invariant(wm) <= 2.0 * worst


def test_midpoint_pass_with_no_root_in_a_gap_raises(monkeypatch):
    # a residual that moves the solved coefficient delta_2 by the width of
    # gap 2 moves N's root on that gap past its right edge
    E = parse_domain(ref.THREE_INTERVAL["pairs"])
    width = E.endpoints[4] - E.endpoints[3]
    plain = green._gap_system

    def shifted(E, roots, cfg):
        F, J = plain(E, roots, cfg)
        return F - J[:, 1] * width, J

    monkeypatch.setattr(green, "_gap_system", shifted)
    with pytest.raises(RootNotBracketed, match=r"no root in gap 2 \(0\.2, 0\.5\)"):
        _solve_numerator(E, green.DEFAULT_CONFIG)


@pytest.mark.parametrize("seed", [2, 5])
def test_forty_interval_sets_solve(seed):
    wm = solve(ref.dirichlet_intervals(np.random.default_rng(seed), 40))
    assert worst_invariant(wm) < 1e-10


@pytest.mark.parametrize("ell", [2, 10, 40])
def test_critical_values_match_green_real_bit_for_bit(ell):
    # green_data integrates every critical value in one batch; each is the
    # value green_real gives at its root alone
    E = parse_domain(ref.dirichlet_intervals(np.random.default_rng(ell), ell))
    data = green_data(E)
    assert data.green_at_roots == tuple(green_real(z, E, data) for z in data.roots)


def test_critical_value_failure_is_the_first_failing_roots_own(monkeypatch):
    # an integrand scaled by the node count on every path based at an edge of
    # gaps 2 and 3 fails their two roots alone; green_data raises the error
    # of the first, the one _green_real raises there
    E = parse_domain(ref.dirichlet_intervals(np.random.default_rng(5), 6))
    bad = E.endpoints[3:7]
    plain = green._plain_deriv

    def poisoned(E, roots):
        ratio = plain(E, roots)

        def fd(t, base=None):
            out = ratio(t, base)
            if base is None:
                return out
            return np.where(np.isin(base, bad), out * t.shape[-1], out)
        return fd

    data = green_data(E)  # its roots do not integrate N/S
    monkeypatch.setattr(green, "_plain_deriv", poisoned)
    failed = []
    for z in data.roots:
        try:
            _green_real(E, data, z, green.DEFAULT_CONFIG)
        except NoConvergence as exc:
            failed.append(exc)
    assert len(failed) == 2
    with pytest.raises(NoConvergence) as err:
        green_data(E)
    assert (str(err.value), err.value.best, err.value.estimate) == (
        str(failed[0]), failed[0].best, failed[0].estimate)


# sets whose gaps the real gap path runs along: the ladder's Dirichlet sets,
# Cantor levels 2-6 and polynomial pre-images
GAP_PATH_SETS = (
    [(f"ell{ell}", ref.dirichlet_intervals(np.random.default_rng(ell), ell))
     for ell in (5, 10, 20, 40)]
    + [(f"cantor{k}", ref.cantor_pairs(k)) for k in range(2, 7)]
    + [(f"preimage_{n}_{kappa}", ref.preimage_pairs(n, 0.2, kappa))
       for n in (4, 10, 40) for kappa in (0.5, 1e-4)])


@pytest.mark.parametrize("pairs", [p for _, p in GAP_PATH_SETS],
                         ids=[name for name, _ in GAP_PATH_SETS])
def test_gap_paths_match_the_complex_integral(pairs):
    # the real integrand along a gap against the complex N/S on the same
    # panel, at the roots and from 1e-9 to 0.9 half-gaps off either end.
    # Each rounds a product of 2 ell factors: at the worst of these points
    # on Cantor 6, ell = 40 and the n = 40 pre-image each is off by up to
    # 1.0e-15 against 30-digit values, so beyond ell = 20 they may differ
    # by twice that
    wm = solve(pairs)
    E, roots = wm.domain, np.asarray(wm.green.roots)
    b = np.asarray(E.endpoints)
    lo, hi = b[1:-1:2, None], b[2:-1:2, None]
    u = 0.5 * (hi - lo) * np.array([1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9])
    x = np.concatenate((roots, (lo + u).ravel(), (hi - u).ravel()))
    bases = b[[green._nearest_endpoint(b, v) for v in x]]
    real = green._gap_integral(E, roots, bases, x, wm.config)
    full = np.array([_green_integral(E, roots, base, complex(v), wm.config).real
                     for base, v in zip(bases.tolist(), x.tolist())])
    bound = 1e-15 if E.ell <= 20 else 2e-15
    assert np.max(np.abs(real - full) / full) <= bound


def test_solved_roots_are_a_newton_fixed_point():
    from walshmap.green import _gap_system

    wm = solve(random_interval_set(np.random.default_rng(3), 10))
    b = np.asarray(wm.domain.endpoints)
    F, J = _gap_system(wm.domain, wm.green.roots, QuadConfig(1e-15, max_level=16))
    step = np.linalg.solve(J, -F)
    assert np.all(np.abs(step) <= 1e-14 * (b[2:-1:2] - b[1:-1:2]))


def test_gap_residual_flags_a_miss_at_every_scale():
    # roots moved by 1e-6 of the half-width miss their gap conditions by a
    # scaled residual of about 1e-6 at every scale, far above the final
    # check's 10 tolerances; with the unit floor max(|z|, 1) the residual
    # read 2.1e-15 at scale 1e-9, which that check let pass
    cfg = green.DEFAULT_CONFIG
    got = []
    for scale in (1e-9, 1.0, 1e9):
        E = parse_domain([[scale * lo, scale * hi] for lo, hi in ref.THREE_INTERVAL["pairs"]])
        _, roots, _ = _solve_numerator(E, cfg)
        moved = roots + 1e-6 * E.frame[1]
        F, J = _gap_system(E, moved, cfg)
        F = _scaled_residual(E, F, J, moved)
        got.append(float(np.max(np.abs(F))))
    assert got[1] > 1e4 * 10.0 * cfg.tolerance(1.0)
    np.testing.assert_allclose(got, got[1], rtol=1e-6)


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
    # all but the first two lie outside the ellipse |v| = 1.5, where the
    # Chebyshev series gives G
    wm = single_interval
    for z in (0.3 + 0.2j, -0.9 - 0.05j, 1.5 + 0.5j, 0.1 - 1.2j, 2.0, 5.0, -0.3 + 2.0j, 3j, -2.0 + 1e-9j,
              10.0 * cmath.exp(2j), 1e3 + 1j, 1e6 * cmath.exp(-1j)):
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
    # inner points, outer ones that take the series, and one whose path
    # starts at the narrow gap's edge -1e-4, a quarter half-width above it:
    # under FEW_NODES it alone fails, as NaN in best
    wm = solve(NARROW_GAP)
    fails = -1e-4 + 0.25j
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
            own = err.value.failures[3]
            assert (str(own), own.best, own.estimate) == (
                str(one.value), one.value.best, one.value.estimate)
        else:
            assert got == green_complex(z, wm.domain, wm.green, FEW_NODES)
    ok = np.delete(zs.ravel(), 3)
    assert np.array_equal(green_complex(ok, wm.domain, wm.green, FEW_NODES),
                          np.delete(best.ravel(), 3))
    # outer points read the same alone and in batches of 1, 7 and 300: each
    # point's series is summed by itself, where a BLAS product would round
    # by the batch's size.  On Cantor 3 between the ellipse and |v| = 3 the
    # series' sum is large enough for that rounding to reach G
    wm = solve(ref.cantor_pairs(3))
    rng = np.random.default_rng(31)
    v = rng.uniform(1.5, 3.0, 300) * np.exp(2j * np.pi * rng.random(300))
    far = np.array([_ellipse_point(wm.domain, p) for p in v.tolist()])
    reach = wm.green._targets.reach
    assert all(green._outside_ellipse(z, wm.domain.endpoints, reach) for z in far.tolist())
    alone = np.array([green_complex(z, wm.domain, wm.green) for z in far.tolist()])
    for size in (1, 7, 300):
        assert np.array_equal(green_complex(far[:size], wm.domain, wm.green), alone[:size])
    with pytest.raises(PathOnCut):
        green_complex([1j, -3.0], wm.domain, wm.green)


def test_green_complex_scalar_failure_is_first_failing_panel():
    # the integral from b_2l of -5e4+30j passes b_{2l-1} at a height of
    # 7.8e-6 and fails in the panel that starts there: the scalar integral
    # raises that panel's own error, with scalar best and estimate
    # (green_complex's paths from the nearest endpoint have knots only far
    # from the set)
    wm = solve(random_interval_set(np.random.default_rng(7), 6))
    E, z = wm.domain, -5e4 + 30j
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


@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(1.0, math.inf),
                               complex(math.inf, 0.0)])
def test_green_complex_rejects_non_finite_points(two_interval, z):
    with pytest.raises(NotFinite):
        green_complex(z, two_interval.domain, two_interval.green)
    with pytest.raises(NotFinite):
        green_complex([0.5 + 0.5j, z], two_interval.domain, two_interval.green)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_green_real_rejects_non_finite_points(two_interval, x):
    with pytest.raises(NotFinite):
        green_real(x, two_interval.domain, two_interval.green)


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


def _path_triples(rng):
    """An interval set (narrow gaps and scaled or shifted frames in some
    draws), every endpoint as base, and one point z: near the axis, far, or
    ordinary."""
    ell = int(rng.integers(1, 12))
    b = np.sort(rng.uniform(-1.0, 1.0, 2 * ell))
    b = b[0] + np.concatenate(([0.0], np.cumsum(np.maximum(np.diff(b), 1e-3))))
    for k in range(1, ell):
        if rng.random() < 0.3:  # a narrow gap
            b[2 * k:] += b[2 * k - 1] + 10.0 ** -rng.uniform(3, 9) - b[2 * k]
    scale = 10.0 ** rng.uniform(-6, 6)
    b = scale * (b + rng.choice([0.0, 1e3, -1e5]))
    E = IntervalUnion(tuple(float(v) for v in b))
    b0, hull = E.endpoints[0], E.endpoints[-1] - E.endpoints[0]
    kind = rng.integers(3)
    if kind == 0:  # near the axis, around an endpoint
        x = rng.choice(E.endpoints) + hull * rng.uniform(-0.1, 0.1) * 10.0 ** -rng.uniform(0, 6)
        z = complex(x, rng.choice([-1.0, 1.0]) * hull * 10.0 ** -rng.uniform(0, 12))
    elif kind == 1:  # far
        z = b0 + hull * 10.0 ** rng.uniform(0.5, 6) * cmath.exp(2j * np.pi * rng.random())
    else:
        z = complex(b0 + hull * rng.uniform(-0.5, 1.5), hull * rng.uniform(-1.0, 1.0))
    return E, z


def test_path_scans_only_the_endpoints_that_can_split():
    rng = np.random.default_rng(2024)
    triples = split = 0
    while triples < 5000:
        E, z = _path_triples(rng)
        if z.imag == 0.0:
            continue
        for base in E.endpoints:
            want = path(E, base, z)
            assert _path(E, base, z) == want
            triples += 1
            hull = E.endpoints[-1] - E.endpoints[0]
            split += len(want) > 1 and abs(want[0] - base) < 4.0 * hull
    assert split > 500  # endpoint splits happen, not only far-field knots


# --- the far field: the Chebyshev series of G outside the ellipse |v| = 1.5 ----

def _ellipse_point(E, v):
    """z = t + s (v + 1/v) / 2: the point of Joukowski variable v in the frame
    (t, s) of E."""
    t, s = E.frame
    return t + s * 0.5 * (v + 1.0 / v)


def _joukowski(E, z):
    """v = zeta + sqrt(zeta - 1) sqrt(zeta + 1), zeta = (z - t)/s, |v| > 1."""
    t, s = E.frame
    zeta = (z - t) / s
    return zeta + cmath.sqrt(zeta - 1.0) * cmath.sqrt(zeta + 1.0)


def test_moments_of_the_unit_interval_are_exact(single_interval):
    # the arcsine measure: e_k = 2 int T_k dmu = 0 for k >= 1, bit for bit,
    # and G = log(z + sqrt(z - 1) sqrt(z + 1)) on and outside the ellipse
    wm = single_interval
    e = wm.green.chebyshev_moments
    assert len(e) == green._CHEBYSHEV_TERMS + 1
    assert e == (1.0,) + (0.0,) * green._CHEBYSHEV_TERMS
    assert all(math.copysign(1.0, v) == 1.0 for v in e)
    for theta in np.linspace(0.0, 2.0 * math.pi, 13):
        for rho in (1.5, 1.5 * (1.0 + 1e-15), 2.3, 40.0):
            z = _ellipse_point(wm.domain, rho * cmath.exp(1j * theta))
            got = green._series_green(wm.green, np.array([z]))[0]
            want = cmath.log(z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0))
            assert abs(got - want) <= 4.0 * np.spacing(max(abs(want), 1.0))


def test_far_series_tail_bound(two_interval, three_interval):
    # |e_k| <= 2, so past n terms the series leaves at most
    # 2 |r|^(n+1) / ((n + 1)(1 - |r|)) at r = 1/v: 6.3e-18 with all K terms
    # on the ellipse; the terms past n of the K stay under that bound
    K, V = green._CHEBYSHEV_TERMS, green._ELLIPSE
    assert (K, V) == (90, 1.5)

    def tail_bound(n, r):
        return 2.0 * r ** (n + 1) / ((n + 1) * (1.0 - r))

    assert tail_bound(K, 1.0 / V) <= 6.3e-18
    rng = np.random.default_rng(18)
    for wm in (two_interval, three_interval, solve(ref.cantor_pairs(3))):
        coeffs = wm.green._targets.coeffs
        e = np.array(wm.green.chebyshev_moments)
        assert np.all(np.abs(e) <= 2.0)
        assert np.array_equal(coeffs, e[1:] / np.arange(1, K + 1))
        for rho in 10.0 ** rng.uniform(math.log10(V), 3.0, 40):
            r = cmath.exp(2j * math.pi * rng.random()) / rho
            for n in (1, 10, 30, 60):
                left_out = sum(coeffs[k - 1] * r ** k for k in range(n + 1, K + 1))
                assert abs(left_out) <= tail_bound(n, abs(r))


def test_first_moment_gives_alpha(two_interval, three_interval):
    # alpha, the 1/z^2 coefficient of N/S, is the mean of mu_E: s e_1 / 2 + t
    shifted = solve([[lo + 1e3, hi + 1e3] for lo, hi in ref.TWO_INTERVAL["pairs"]])
    for wm in (two_interval, three_interval, shifted):
        t, s = wm.domain.frame
        alpha = wm.green.alpha
        got = s * wm.green.chebyshev_moments[1] / 2.0 + t
        assert abs(got - alpha) <= 4.0 * np.spacing(max(abs(alpha), s))


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   random_interval_set(np.random.default_rng(11), 10),
                                   ref.cantor_pairs(3)])
def test_moments_are_affine_covariant(pairs):
    # Chebyshev moments in the set's own frame: unchanged under x -> scale x
    # + shift, e_k -> (-1)^k e_k under a reflection.  The roots are stored
    # in the user's frame, and their rounding reaches e_k through T_k' <= k^2:
    # measured 1.3e-14 on the 10-interval set
    base = np.array(solve(pairs).green.chebyshev_moments)
    sign = (-1.0) ** np.arange(base.size)
    for scale, shift in ((1e-6, 0.0), (1e6, 3e6), (-1.0, 0.0), (-1e3, 2e3), (1e-9, -2e-9)):
        got = solve([sorted([scale * lo + shift, scale * hi + shift]) for lo, hi in pairs])
        want = base * sign if scale < 0 else base
        np.testing.assert_allclose(got.green.chebyshev_moments, want, rtol=0, atol=2e-14)


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   ref.cantor_pairs(3)])
def test_chebyshev_moments_match_quadrature_of_the_density(pairs):
    # e_k = 2 int T_k((x - t)/s) |N(x)| / (pi sqrt|H(x)|) dx over the
    # components, by the Chebyshev rule: the roots alone give the integrals.
    # The rule's own rounding on the oscillating T_k reaches 1.2e-14
    wm = solve(pairs)
    E, K = wm.domain, green._CHEBYSHEV_TERMS
    t, s = E.frame
    roots = np.array(wm.green.roots)[:, None]
    total = np.zeros(K + 1)
    for j in range(E.ell):
        lo, hi, weight = endpoint_weight_fd(E, 2 * j, 2 * j + 1)

        def fd(x, d_lo, d_hi):
            density = np.abs(np.prod(x - roots, axis=0)) * weight(x, d_lo, d_hi) / math.pi
            return np.polynomial.chebyshev.chebvander((x - t) / s, K).T * density

        total += integrate_chebyshev(None, lo, hi, QuadConfig(1e-15), fd=fd)
    want = np.concatenate(([1.0], 2.0 * total[1:]))
    assert abs(total[0] - 1.0) <= 1e-14
    np.testing.assert_allclose(wm.green.chebyshev_moments, want, rtol=0, atol=2e-14)


def _far_points(rng, E, count):
    """count points on or outside the ellipse |v| = 1.5, out to |z - t| =
    1e6 s, in the frame (t, s) of E."""
    rho = 10.0 ** rng.uniform(math.log10(1.5), math.log10(2e6), count)
    return [_ellipse_point(E, v) for v in rho * np.exp(2j * np.pi * rng.random(count))]


@pytest.mark.parametrize("n", [4, 10, 40])
@pytest.mark.parametrize("kappa", [0.5, 0.7])
def test_polynomial_preimage_oracle(n, kappa):
    # E = {x : |T_n(x) - sigma| <= kappa}: masses 1/n, capacity
    # kappa^(1/n) / 2 and g_E in closed form (reference_values), through
    # map_point and map_grid, at points out to 1e6 s and between the ellipse
    # and |z - t| = 2 s
    from walshmap import mapping
    from walshmap.lemniscatic import green as green_level

    sigma = 0.2
    wm = solve(ref.preimage_pairs(n, sigma, kappa))
    E = wm.domain
    assert abs(wm.green.capacity / (kappa ** (1.0 / n) / 2.0) - 1.0) <= 1e-13
    np.testing.assert_allclose(wm.exponents.m, 1.0 / n, rtol=0, atol=1e-13)
    # g_E = g_[sigma - kappa, sigma + kappa](T_n) / n: the critical points of
    # g_E are those of T_n
    np.testing.assert_allclose(wm.green.roots, np.cos(np.arange(n - 1, 0, -1) * np.pi / n),
                               rtol=0, atol=8 * np.finfo(float).eps)
    rng = np.random.default_rng(n)
    zs = _far_points(rng, E, 100)
    zs += [_ellipse_point(E, v) for v in rng.uniform(1.5, 4.0, 50) * np.exp(2j * np.pi * rng.random(50))]
    series = 0
    for z, p in zip(zs, wm.map_grid(zs)):
        want = ref.preimage_green(z, n, sigma, kappa)
        g_e = green_complex(z, E, wm.green).real
        assert abs(g_e - want) <= 1e-12
        outer = mapping._outer_series(z, E, wm.lemniscatic, wm.green) is not None
        series += outer
        for w in (wm.map_point(z).w, p.result.w):
            g_l = green_level(w, wm.lemniscatic)
            assert abs(g_l - want) <= 1e-12
            # at a series point to the rounding of g_E itself; the closed form
            # differs from it by the capacity's own error, up to 2e-14
            assert not outer or abs(g_l - g_e) <= 1e-14
    assert series >= 140


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   random_interval_set(np.random.default_rng(4), 10),
                                   ref.cantor_pairs(3), [[999.0, 999.7], [1000.1, 1001.0]],
                                   [[1e-6 * lo, 1e-6 * hi] for lo, hi in ref.TWO_INTERVAL["pairs"]]])
def test_direct_far_integral_converges_and_matches_the_series(pairs):
    # the oracles that integrate N/S along a path the map no longer takes
    # (the benchmark's green_E, verify's, branch_offset and these tests'
    # paths from b_1) rely on _path's far-field knots out to 1e6 s
    wm = solve(pairs)
    E, roots = wm.domain, wm.green.roots
    b = E.endpoints
    for z in _far_points(np.random.default_rng(1), E, 25):
        want = green_complex(z, E, wm.green)
        if green._outside_ellipse(z, b, wm.green._targets.reach):
            assert want == green._series_green(wm.green, np.array([complex(z)]))[0]
        for base in (b[0], b[-1], b[green._nearest_endpoint(b, z.real)]):
            got = _green_integral(E, roots, base, z, wm.config)
            assert abs(got.real - want.real) <= 1e-12
        assert abs(_green_integral(E, roots, b[-1], z, wm.config) - want) <= 1e-12


def _ellipse_crossing(E, reach, direction):
    """The points z = t + lam direction on either side of the ellipse's
    focal-sum test, one float step of lam apart: (inside, outside)."""
    t, _ = E.frame
    b = E.endpoints
    lo, hi = 0.0, 4.0 * reach
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return t + lo * direction, t + hi * direction
        if green._outside_ellipse(t + mid * direction, b, reach):
            hi = mid
        else:
            lo = mid


def test_green_targets_switch_to_the_series_on_the_ellipse(three_interval, monkeypatch):
    # along rays from t, on the axis and off it, the last point inside the
    # ellipse |v| = 1.5 is integrated and the first one outside, 1 ulp
    # further, is not; both lie within a few ulp of |v| = 1.5.  Real points
    # are integrated in real arithmetic (_gap_integral), others in one
    # complex panel of the segment rule, singular at its base
    E, data = three_interval.domain, three_interval.green
    reach = data._targets.reach
    calls = []

    def recording(f, z0, z1, singular_at_start=False, *args, **kwargs):
        calls.append((np.iscomplexobj(z1), singular_at_start, np.ravel(z1).tolist()))
        return integrate_segment_complex(f, z0, z1, singular_at_start, *args, **kwargs)

    monkeypatch.setattr(green, "integrate_segment_complex", recording)
    for direction in (1.0, -1.0):
        inner, outer = _ellipse_crossing(E, reach, direction)
        for z in (inner, outer):
            assert abs(abs(_joukowski(E, z)) - 1.5) <= 8.0 * np.spacing(1.5)
        calls.clear()
        green_real(outer.real, E, data)
        assert calls == []
        green_real(inner.real, E, data)
        assert calls == [(False, True, [inner])]
        if direction > 0.0:  # green_complex excludes the left half-line
            calls.clear()
            green_complex(outer, E, data)
            green_complex(inner, E, data)
            assert calls == [(True, True, [inner])]
    for direction in (1j, -1j, cmath.exp(0.7j), cmath.exp(-2.9j)):
        inner, outer = _ellipse_crossing(E, reach, direction)
        assert abs(abs(_joukowski(E, outer)) - 1.5) <= 8.0 * np.spacing(1.5)
        calls.clear()
        green_complex(outer, E, data)
        green_complex(inner, E, data)
        assert calls == [(True, True, [inner])]


def test_green_complex_paths_are_one_panel(three_interval, monkeypatch):
    # inside the ellipse |v| = 1.5 the path from the endpoint nearest Re z
    # is shorter than 3 s, under the far-field knots' 16 s, and no other
    # endpoint splits it; a batch makes one segment call
    rng = np.random.default_rng(2026)
    count = 0
    while count < 5000:
        E, z = _path_triples(rng)
        reach = (green._ELLIPSE + 1.0 / green._ELLIPSE) * E.frame[1]
        if z.imag == 0.0 or green._outside_ellipse(z, E.endpoints, reach):
            continue
        b = E.endpoints
        assert _path(E, b[green._nearest_endpoint(b, z.real)], z) == [z]
        count += 1
    E, data = three_interval.domain, three_interval.green
    calls = []

    def recording(f, z0, z1, singular_at_start=False, *args, **kwargs):
        calls.append(singular_at_start)
        return integrate_segment_complex(f, z0, z1, singular_at_start, *args, **kwargs)

    monkeypatch.setattr(green, "integrate_segment_complex", recording)
    green_complex([0.3 + 1e-9j, -2.5 + 0.1j, 4.0 - 3.0j, 1e5j, 0.35 + 0.01j], E, data)
    assert calls == [True]


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


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   ref.cantor_pairs(2)])
def test_capacity_is_scale_covariant_from_1e_minus_40_to_1e40(pairs):
    # the tail rule's nodes span 5e-38..2e37 from the endpoint: in absolute
    # units the default beta = b_{2l} - 1 equalled b_{2l} at 1e16 (ValueError),
    # drifted by 3.5e-9 at 1e-20 and stopped converging at 1e-24; in units of
    # the power of two nearest the half-width every scale solves
    base = solve(pairs)
    s = base.domain.frame[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(-40, 41):
            scale = 10.0 ** k
            wm = solve([[scale * lo, scale * hi] for lo, hi in pairs])
            assert abs(wm.green.capacity / scale - base.green.capacity) <= 1e-13 * base.green.capacity
            centers = np.array(wm.lemniscatic.centers) / scale
            assert np.max(np.abs(centers - base.lemniscatic.centers)) <= 1e-13 * s


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
    from walshmap.green import _gap_system
    from walshmap.quadrature import integrate_chebyshev

    E = three_interval.domain
    b = E.endpoints
    roots = np.array([0.4 * b[2 * k - 1] + 0.6 * b[2 * k] for k in range(1, E.ell)])
    calls = []

    def recording(f, lo, hi, cfg=None, **kwargs):
        calls.append((lo, hi, kwargs["fd"]))
        return integrate_chebyshev(f, lo, hi, cfg, **kwargs)

    monkeypatch.setattr(green, "integrate_chebyshev", recording)
    F, J = _gap_system(E, roots, green.DEFAULT_CONFIG)
    monkeypatch.undo()
    assert len(calls) == 1  # one vector-valued call for all gaps
    (lo, hi, fd), = calls
    n = E.ell - 1
    assert np.shape(lo) == np.shape(hi) == (n,)
    for i in range(n):
        # gap i's block of the same integrand, integrated one row at a time
        def row(r, i=i):
            return lambda x, dl, dh: fd(x[None], dl[None], dh[None], np.array([i]))[r, 0]

        rows = [integrate_chebyshev(None, lo[i], hi[i], fd=row(r)) for r in range(n + 1)]
        np.testing.assert_array_max_ulp(F[i], rows[0], maxulp=2)
        np.testing.assert_array_max_ulp(J[i], -np.array(rows[1:]), maxulp=2)
        # and the products written out factor by factor
        _, _, weight = endpoint_weight_fd(E, 2 * i + 1, 2 * i + 2)

        def product(x, d_lo, d_hi, skip=None):
            out = weight(x, d_lo, d_hi)
            for j, z in enumerate(roots):
                if j != skip:
                    out = out * (x - z)
            return out

        assert F[i] == pytest.approx(integrate_chebyshev(None, lo[i], hi[i], fd=product),
                                     rel=1e-13)
        for j in range(n):
            direct = -integrate_chebyshev(
                None, lo[i], hi[i], fd=lambda x, dl, dh, j=j: product(x, dl, dh, skip=j))
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
    # the capacity tails evaluate |N/S| = side N/S in real arithmetic, along
    # the unbounded gaps beyond the hull from their endpoint
    E, data = three_interval.domain, three_interval.green
    b = np.asarray(E.endpoints)
    base = b[-1] if side > 0 else b[0]
    x = base + side * np.logspace(-3.0, 8.0, 60)
    got = side * _plain_deriv(E, data.roots)(x - base, base)
    assert got.dtype == np.float64
    expected = np.abs(np.prod(x[:, None] - np.asarray(data.roots), axis=1)
                      / sqrt_branch(E, x + 0j))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
