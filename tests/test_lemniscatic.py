import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from walshmap import green as green_module, lemniscatic
from walshmap.api import solve
from walshmap.errors import BracketFailure, NoConvergence, PoleAtCenter
from walshmap.lemniscatic import (LemniscaticDomain, boundary_abscissae,
                                  centers_general, centers_two,
                                  crit_points, green, green_deriv, trace_boundary)
from walshmap.newton import _bisect, damped_newton
from walshmap.verify import random_interval_set, worst_invariant

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
    got = _bisect(lambda x: ((x - 0.7) * (x + 0.3), 2.0 * x - 0.4), pos, neg)
    assert got[0] == pytest.approx(0.7, abs=1e-15)
    assert got[1] == pytest.approx(-0.3, abs=1e-15)
    # a bracket already down to adjacent floats stays put
    x = np.array([0.5])
    assert _bisect(lambda v: (v - 0.5, np.ones_like(v)), np.nextafter(x, 1.0), x)[0] in (
        x[0], np.nextafter(x[0], 1.0))


def _random_lemniscatic(ell, seed):
    E = random_interval_set(np.random.default_rng(seed), ell, 1e-2 if ell < 40 else 1e-3)
    dom = solve(E).lemniscatic
    return np.array(dom.centers), np.array(dom.exponents.m), dom.capacity


def _count_bisect(monkeypatch):
    """Count the evaluations of f in each lemniscatic._bisect call, one
    entry per call."""
    evals = []

    def counted(f, pos, neg, start=None):
        def f_counted(x):
            evals[-1] += 1
            return f(x)
        evals.append(0)
        return _bisect(f_counted, pos, neg, start)

    monkeypatch.setattr(lemniscatic, "_bisect", counted)
    return evals


@pytest.mark.parametrize("ell, seed", [(3, s) for s in range(6)]
                         + [(10, s) for s in range(6)] + [(40, s) for s in range(3)])
def test_newton_bisect_matches_halving_and_is_cheap(ell, seed, monkeypatch):
    # at most 15 evaluations of f per call; against plain halving of the same
    # brackets, agreement to 2 ulps or within f's rounding window, the
    # rounding of its ell-term sum (ell eps sum_j |term_j|) over |f'|: any
    # point inside it is a zero of the computed f, and near 0 it spans many
    # ulps of the root itself
    a, m, cap = _random_lemniscatic(ell, seed)
    evals = _count_bisect(monkeypatch)
    w = crit_points(a, m)
    c = boundary_abscissae(a, m, cap, crit=w)
    assert len(evals) == 2 and max(evals) <= 15
    monkeypatch.setattr(lemniscatic, "_bisect",
                        lambda f, pos, neg, start=None:
                        oracle.halving_bisect(lambda x: f(x)[0], pos, neg))
    w_old = crit_points(a, m)
    c_old = boundary_abscissae(a, m, cap, crit=w)
    eps = np.finfo(float).eps
    d = w_old[:, None] - a
    window = ell * eps * np.abs(m / d).sum(1) / np.abs((m / d ** 2).sum(1))
    assert np.all(np.abs(w - w_old) <= 2.0 * np.spacing(np.abs(w_old)) + 4.0 * window)
    d = c_old[:, None] - a
    window = ell * eps * ((np.abs(m * np.log(np.abs(d)))).sum(1) + abs(math.log(cap))) \
        / np.abs((m / d).sum(1))
    assert np.all(np.abs(c - c_old) <= 2.0 * np.spacing(np.abs(c_old)) + 4.0 * window)


# centers, masses and capacity of an L whose eighth lobe has radius
# 5.05e-14, about 455 ulps of its center
LOBE_455_ULPS = (
    np.array([-2.920838142086841, -2.446883650280436, -2.2207288654142885,
              -1.8845759348973745, -1.2728502801062558, -1.0556360818942712,
              -0.23160857020518133, 0.7407425766524534, 1.6356384729494602]),
    np.array([0.051474229549726774, 0.12688850157572498, 0.04262080151324406,
              0.19223176385312885, 0.13218196262734838, 0.235206779000112,
              0.09938459736349337, 0.053708450540033315, 0.06630291397718817]),
    0.37587571162494054)


def test_boundary_abscissae_of_a_lobe_455_ulps_wide(monkeypatch):
    # the eighth lobe has radius 5.05e-14, about 455 ulps of its center: g is
    # formed from the center offsets, never from a rounded point a_j + r, so
    # its rays match the scalar oracle within 2 ulps in one _bisect call of
    # at most 15 evaluations
    a, m, cap = LOBE_455_ULPS
    w = oracle.crit_points(a, m)
    evals = _count_bisect(monkeypatch)
    c = boundary_abscissae(a, m, cap, crit=w)
    c_ref = oracle.boundary_abscissae(a, m, cap, crit=w)
    assert len(evals) == 1 and evals[0] <= 15
    assert 1e-13 < c[15] - c[14] < 1.1e-13
    assert np.all(np.abs(c - c_ref) <= 2.0 * np.spacing(np.abs(c_ref)))


LADDER_SETS = [ref.dirichlet_intervals(np.random.default_rng(ell), ell) for ell in (5, 10, 20, 40)] \
    + [ref.cantor_pairs(k) for k in (2, 3, 4, 5)]
LADDER_IDS = ["ell5", "ell10", "ell20", "ell40", "cantor2", "cantor3", "cantor4", "cantor5"]


def test_bisect_is_its_reference_in_every_caller(monkeypatch):
    # newton._bisect updates its brackets in place; through the numerator's
    # exact roots, crit_points and the rays of boundary_abscissae and
    # trace_boundary (the 455-ulp lobe too) its roots are those of the kernel
    # that rebuilt every array on each pass, bit for bit
    calls = collections.Counter()

    def checked(caller):
        def run(f, pos, neg, start=None):
            got = _bisect(f, pos, neg, start)
            want = oracle.bisect_reference(f, pos, neg, start)
            assert got.tobytes() == want.tobytes(), caller
            calls[caller] += 1
            return got
        return run

    monkeypatch.setattr(green_module, "_bisect", checked("exact roots"))
    monkeypatch.setattr(lemniscatic, "_bisect", checked("lemniscatic"))
    for pairs in LADDER_SETS:
        trace_boundary(solve(pairs).lemniscatic, 64)
    a, m, cap = LOBE_455_ULPS
    boundary_abscissae(a, m, cap, crit=crit_points(a, m))
    # one exact-roots call per solve; the centers' critical points, the
    # abscissae's rays and the trace's rays per solve, then the lobe's two
    assert calls == {"exact roots": 8, "lemniscatic": 3 * 8 + 2}


@pytest.mark.parametrize("hi", [1.0, 1.0 + 1e-9])
def test_trace_crossing_at_the_unit_takes_few_passes(hi, monkeypatch):
    # L of one interval is the disk of radius cap about its center; for
    # [-1, 1] that radius is the rays' power-of-two unit, 0.5, where log r
    # is 0: the rays are solved in log(r / r_out) - 1, which stays away from
    # 0, so _bisect's stop within two spacings of it is met in a few passes
    dom = solve([[-1.0, hi]]).lemniscatic
    passes = []

    def counting(*args, real=lemniscatic._level_slope):
        passes.append(1)
        return real(*args)

    monkeypatch.setattr(lemniscatic, "_level_slope", counting)
    [trace] = trace_boundary(dom, 256)
    assert trace.sampled and len(passes) <= 4
    radii = np.abs(trace.points - dom.centers[0])
    assert np.max(np.abs(radii / dom.capacity - 1.0)) <= 1e-15


@pytest.mark.parametrize("pairs", [ref.dirichlet_intervals(np.random.default_rng(ell), ell)
                                   for ell in (5, 10, 20, 40)]
                         + [ref.cantor_pairs(k) for k in (2, 3, 4, 5)],
                         ids=["ell5", "ell10", "ell20", "ell40",
                              "cantor2", "cantor3", "cantor4", "cantor5"])
def test_trace_rays_on_the_axis_are_the_boundary_abscissae(pairs):
    # one ray solver serves both: the trace's rays at angles pi and 0 land on
    # boundary_c
    dom = solve(pairs).lemniscatic
    traces = trace_boundary(dom, 64)
    got = np.array([[tr.points[32].real, tr.points[0].real] for tr in traces]).reshape(-1)
    c = np.array(dom.boundary_c)
    assert np.all(np.abs(got - c) <= 2.0 * np.spacing(np.abs(c)))


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


def _paper_iteration(wm):
    return centers_general(wm.domain, wm.exponents.m, wm.green.capacity, wm.green)


def test_centers_three_routes_agree(three_interval):
    wm = three_interval
    a_newton = np.array(wm.lemniscatic.centers)
    assert np.max(np.abs(a_newton - _paper_iteration(wm)[0])) < 1e-7
    assert np.max(np.abs(a_newton - np.array(ref.THREE_INTERVAL["a"]))) < 1e-12


def test_centers_three_symmetric_triple():
    a = solve([[-1, -0.6], [-0.4, 0.4], [0.6, 1]]).lemniscatic.centers
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
    assert _paper_iteration(cantor2)[2] <= ref.CANTOR2["steps"]
    assert dom.outer_iterations <= 3


@pytest.mark.parametrize("ell, seed", [(3, 0), (10, 1), (40, 0)])
def test_crit_points_from_any_start_meet_the_halving_window(ell, seed, monkeypatch):
    # a start inside its bracket, outside it, on a center or on a bracket
    # end (outside the bracket's open interior: the midpoint instead) meets
    # the window of test_newton_bisect_matches_halving_and_is_cheap
    a, m, _ = _random_lemniscatic(ell, seed)
    left, right = a[:-1], a[1:]
    width = right - left
    ends = (np.maximum(left + 1e-14 * width, np.nextafter(left, right)),
            np.minimum(right - 1e-14 * width, np.nextafter(right, left)))
    starts = [left + f * width for f in (0.01, 0.3, 0.99)] + [
        crit_points(a, m) * (1.0 + 1e-12), left - width, right + width, left, right,
        *ends, np.full(left.shape, np.nan)]
    got = [crit_points(a, m, start) for start in starts]
    monkeypatch.setattr(lemniscatic, "_bisect",
                        lambda f, pos, neg, start=None:
                        oracle.halving_bisect(lambda x: f(x)[0], pos, neg))
    w_old = crit_points(a, m)
    d = w_old[:, None] - a
    window = ell * np.finfo(float).eps * np.abs(m / d).sum(1) / np.abs((m / d ** 2).sum(1))
    for w in got:
        assert np.all(np.abs(w - w_old) <= 2.0 * np.spacing(np.abs(w_old)) + 4.0 * window)


@pytest.mark.parametrize("pairs", [ref.THREE_INTERVAL["pairs"], ref.cantor_pairs(3),
                                   ref.dirichlet_intervals(np.random.default_rng(10), 10)])
def test_solve_domain_keeps_the_center_solves_critical_points(pairs, monkeypatch):
    # every crit_points call is one of the centers' Newton evaluations, and
    # the domain's critical points are those of the last one
    calls, evaluated = [], []
    plain_crit, plain_newton = lemniscatic.crit_points, lemniscatic._center_newton

    def crit(*args, **kwargs):
        calls.append(args)
        return plain_crit(*args, **kwargs)

    def newton(a, w, *rest):
        evaluated.append(w)
        return plain_newton(a, w, *rest)

    monkeypatch.setattr(lemniscatic, "crit_points", crit)
    monkeypatch.setattr(lemniscatic, "_center_newton", newton)
    dom = solve(pairs).lemniscatic
    assert 0 < len(calls) <= len(evaluated)
    assert dom.crit_w == tuple(evaluated[-1].tolist())


def _nested(wm):
    """The centers, critical points and boundary abscissae of wm's set from
    the centers' Newton with crit_points at every trial
    (scalar_oracles.nested_center_solve), and its residual."""
    E, data, m = wm.domain, wm.green, np.asarray(wm.exponents.m)
    b = np.asarray(E.endpoints)
    a, w, _, resid = oracle.nested_center_solve(E, m, data.capacity, data,
                                                0.5 * (b[::2] + b[1::2]))
    return a, w, boundary_abscissae(a, m, data.capacity, crit=w), resid


def _assert_ridden_within_the_nested_stop(wm):
    # Both Newtons stop at their residual (1e-14 at most) or stall with
    # their largest row within its rounding (row_rounding), so their centers
    # differ by at most |J^-1| (both residuals + twice the largest
    # rounding), J the Jacobian of the center equations.  The critical
    # points follow the centers with weights q_ij / sum_j q_ij that sum to
    # 1, so they move as much; a boundary abscissa c moves
    # sum_j |m_j / (c - a_j)| / |g_L'(c)| times as much.  Each bound has 4
    # ulp of rounding on top.
    dom = wm.lemniscatic
    a, w, c, resid = _nested(wm)
    m = np.asarray(wm.exponents.m)
    E, data = wm.domain, wm.green
    J = np.vstack((-m / (w[:, None] - a), m / E.frame[1]))
    # the largest rounding of the Newton's rows: all but the mass sum
    floor = np.max(lemniscatic.row_rounding(E, data, a, w, m)[1][:-1])
    move = np.max(np.abs(np.linalg.inv(J)).sum(1)) * (dom.inner_residual + resid + 2.0 * floor)
    d = c[:, None] - a
    gain = np.max(np.abs(m / d).sum(1) / np.abs((m / d).sum(1)))
    for got, want, bound in ((dom.centers, a, move), (dom.crit_w, w, move),
                             (dom.boundary_c, c, gain * move)):
        assert np.max(np.abs(np.asarray(got) - want)) <= bound + 4.0 * np.spacing(
            np.max(np.abs(want)))


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   ref.cantor_pairs(3),
                                   [[1e5 + lo, 1e5 + hi] for lo, hi in ref.cantor_pairs(2)]],
                         ids=["two", "three", "cantor3", "cantor2_shifted_1e5"])
def test_row_rounding_rows_are_the_newtons(pairs):
    # without c the Green rows are _center_newton's, bit for bit, then the
    # center sum, measured in the frame (t, s): the Newton's own sum where
    # t = 0, else within the rounding of the Newton's terms; then the mass
    # sum.  With c the 2 ell rows at c come between them, and the rows at
    # w, in a larger matrix product, may round otherwise
    wm = solve(pairs)
    E, data, dom = wm.domain, wm.green, wm.lemniscatic
    a, w, m = np.array(dom.centers), np.array(dom.crit_w), np.array(wm.exponents.m)
    t, s = E.frame
    targets = np.append(np.asarray(data.green_at_roots) + math.log(data.capacity / E.unit),
                        data.alpha)
    F, _ = lemniscatic._center_newton(a, w, m, targets, s, E.unit)
    rows, rounding = lemniscatic.row_rounding(E, data, a, w, m)
    np.testing.assert_array_equal(rows[:-2], F[:-1])
    if t == 0.0:
        assert rows[-2] == F[-1]
    terms = 8.0 * a.size * np.finfo(float).eps * (m @ np.abs(a) + abs(data.alpha)) / s
    assert abs(rows[-2] - F[-1]) <= terms
    full, full_rounding = lemniscatic.row_rounding(E, data, a, w, m, dom.boundary_c)
    ell = a.size
    assert full.shape == full_rounding.shape == (3 * ell + 1,)
    assert np.all(np.abs(full[:ell - 1] - rows[:ell - 1]) <= rounding[:ell - 1])
    np.testing.assert_array_equal(full[-2:], rows[-2:])
    np.testing.assert_array_equal(full_rounding[-2:], rounding[-2:])
    # each row of a solved set lies within its rounding
    assert np.all(np.abs(full) <= full_rounding)


@pytest.mark.parametrize("pairs", [
    *(ref.dirichlet_intervals(np.random.default_rng(ell), ell) for ell in (5, 10, 20, 40, 80, 160)),
    *(ref.cantor_pairs(k) for k in range(2, 8))])
def test_ridden_centers_match_the_nested_scheme(pairs):
    _assert_ridden_within_the_nested_stop(solve(pairs))


def test_crit_points_runs_once_per_ladder_solve(monkeypatch):
    # one pass of the benchmark's solve ladder: the critical points ride the
    # centers' Newton, and crit_points runs once, at its returned centers
    calls = []
    plain = lemniscatic.crit_points

    def crit(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    monkeypatch.setattr(lemniscatic, "crit_points", crit)
    rng = np.random.default_rng(7)
    ladder = [ref.dirichlet_intervals(rng, ell) for ell, count in
              ((5, 12), (10, 5), (20, 2), (40, 1)) for _ in range(count)]
    for pairs in ladder + [ref.cantor_pairs(k) for k in (2, 3, 4, 5)]:
        calls.clear()
        solve(pairs)
        assert len(calls) == 1


# draws 828 (ell 9, D 4) and 1123 (ell 5, D 12) of
# scripts/multiscale_sweep.py --count 1500: a ridden centers' Newton that
# corrected each critical point by one step per trial stalled on them, at
# residuals 2.4e-2 and 2.5e-14; endpoint lists b_1..b_2l
RIDE_STALL_SETS = [
    [-1.0, -0.9884353510190981, -0.35015782751071034, -0.05599979410319733,
     -0.05517014745052429, 0.030478714938257045, 0.030731343317573767, 0.03085524838806286,
     0.030980798248779973, 0.031445425922197456, 0.08977821534367791, 0.09252827876760072,
     0.09264045191147074, 0.9600209664741659, 0.9731923910425941, 0.9768369081786588,
     0.988358665306879, 1.0],
    [-1.0, -0.9999999986559983, -0.999999983010904, -0.9998167283404545,
     -0.7276556578272162, 0.9995437402474479, 0.9995439521625693, 0.9995502048432363,
     0.9995502050786991, 1.0],
]

# draws 301 (ell 5, D 8), 879 (ell 6, D 8), 1081 (ell 11, D 8) and 1246
# (ell 7, D 4) of the same sweep: the first three stalled at residuals
# 8.2e-14 to 2.4e-13, within the rounding of the stored centers but above
# that of the rows' terms alone, and 1246 stalled at 6.9e-4 with one
# correction per trial; endpoint lists b_1..b_2l
SWEEP_STALL_SETS = [
    [-1.0, -0.9724557468189734, -0.9724545170724322, -0.972446026814772,
     -0.9724439782140815, -0.5533115077409866, 0.9998491019739095, 0.9998589986661683,
     0.9998771129733308, 1.0],
    [-1.0, -0.4116549879636451, -0.41163413746634314, -0.4115834949033572,
     -0.41157113326509054, -0.27499444978526666, 0.9903865916244305, 0.9954906614278805,
     0.9999386801844137, 0.9999988189511164, 0.9999988763621752, 1.0],
    [-1.0, -0.9118936421568455, -0.9118930086326835, -0.9118808627703652,
     0.26230059194899846, 0.543871898379565, 0.543871924609534, 0.5441172298270742,
     0.5441172766388653, 0.8894919077114989, 0.8895397057798806, 0.8895709339888003,
     0.8895730750017765, 0.8900715035255256, 0.8900717063128611, 0.92464104320789,
     0.9247603688564494, 0.9252376279095649, 0.9999666030085568, 0.9999670278640478,
     0.999967381466796, 1.0],
    [-1.0, 0.050912806043412306, 0.05145893139198843, 0.05445208459974826,
     0.15535242111870207, 0.367800703285065, 0.8957957046708218, 0.9102224617004786,
     0.9182570542611384, 0.9229582678584598, 0.9846720546888801, 0.9928481505046298,
     0.999614905846262, 1.0],
]


@pytest.mark.parametrize("b", RIDE_STALL_SETS + SWEEP_STALL_SETS,
                         ids=["draw828", "draw1123", "draw301", "draw879", "draw1081",
                              "draw1246"])
def test_sweep_stall_sets_solve_in_one_ridden_run(b, monkeypatch):
    runs = []

    def counting(*args, **kwargs):
        runs.append(1)
        return damped_newton(*args, **kwargs)

    monkeypatch.setattr(lemniscatic, "damped_newton", counting)
    wm = solve([b[i:i + 2] for i in range(0, len(b), 2)])
    monkeypatch.undo()
    # one run, which converged or stalled within its rounding
    assert len(runs) == 1
    assert worst_invariant(wm) <= 1e-12
    _assert_ridden_within_the_nested_stop(wm)


@pytest.mark.parametrize("n, sigma, kappa, bound", [
    (4, 0.2, 0.5, 5e-14), (10, 0.2, 0.7, 5e-14), (40, 0.2, 0.5, 5e-14), (10, 0.0, 0.7, 5e-14),
    # endpoints of intervals 1e-4 wide round to 1e-12 of their width
    (4, 0.2, 1e-4, 3e-12)])
def test_preimage_centers_meet_the_exact_levels(n, sigma, kappa, bound):
    # E = {x : |T_n(x) - sigma| <= kappa} has masses 1/n and capacity
    # kappa^(1/n) / 2, so with Q(w) = prod (w - a_j) over the solver's
    # centers g_L = (1/n) log|Q| - log(capacity): every boundary abscissa
    # has (1/n) log|Q(c)| = log(kappa^(1/n) / 2), and the critical point w_k
    # matches g_E at z_k = cos(j pi / n), where T_n(z_k) = (-1)^j, so
    # (1/n) log|Q(w_k)| = (1/n) log(2^-n (|P_k| + sqrt(P_k^2 - kappa^2))),
    # P_k = T_n(z_k) - sigma.  Schiefermayr & Sete, "Walsh's conformal map
    # onto lemniscatic domains for polynomial pre-images I" (2022).
    dom = solve(ref.preimage_pairs(n, sigma, kappa)).lemniscatic
    a = np.asarray(dom.centers)

    def log_q(w):
        return np.log(np.abs(np.asarray(w)[:, None] - a)).sum(1) / n

    P = (-1.0) ** np.arange(n - 1, 0, -1) - sigma
    crit = np.log(2.0 ** -n * (np.abs(P) + np.sqrt(P * P - kappa ** 2))) / n
    assert np.max(np.abs(log_q(dom.boundary_c) - math.log(kappa ** (1.0 / n) / 2.0))) <= bound
    assert np.max(np.abs(log_q(dom.crit_w) - crit)) <= bound


def test_mass_weighted_center_sum(three_interval, cantor2):
    for wm in (three_interval, cantor2):
        lhs = float(np.array(wm.exponents.m) @ np.array(wm.lemniscatic.centers))
        assert abs(lhs - wm.green.alpha) < 1e-10


def test_solved_domains_expose_iteration_diagnostics(three_interval):
    _, _, steps, resid = _paper_iteration(three_interval)
    assert steps == 4
    assert resid < 1e-13
    dom = three_interval.lemniscatic
    assert dom.outer_iterations == 3
    assert dom.inner_residual < 1e-13


# sets on which the paper's iteration fails: its center solve at fixed
# critical points stalls at residual 0.03-0.65; endpoint lists b_1..b_2l
CENTER_STALL_SETS = [
    # a center far from its own component (the second at 0.539)
    [-1.0, 0.9955155483153479, 0.9962619416684313, 0.9966839037245725,
     0.9994714589022802, 1.0],
    [-1.0, 0.0, 1e-3, 1e-3 + 1e-6, 0.1, 1.0],
    # component and gap lengths spread over 4, 8 and 12 decades
    [-1.0, -0.9992470584437506, -0.8805968981648555, -0.8796113851426258,
     -0.8581796453469499, 0.9995586136300467, 0.9997665435758825, 1.0],
    [-1.0, -0.9998540806869235, -0.9996229705200153, -0.4760676185157733,
     -0.47606683521965343, 1.0],
    [-1.0, -0.9999940151026413, -0.9999934688834086, -0.9999644203021472,
     -0.9999596289904075, -0.8884926899856673, -0.8884887039909091,
     -0.8837406446380947, -0.732392824092704, -0.7135645912698911,
     -0.7135478386822163, 0.43162989624959724, 0.6550559028046603, 1.0],
    [-1.0, -0.9871242327348063, -0.9871201658863233, 0.9999078965093022,
     0.9999087054695086, 0.999999992062613, 0.9999999923419476, 1.0],
    [-1.0, -0.9998235314931564, -0.9998167088453982, -0.9983407155691648,
     -0.9983397499127692, -0.9982752133927945, -0.9668409802749954, 1.0],
    # the stalled iterate was taken as converged, and g_L came out
    # nonpositive at a critical point
    [-1.0, -0.9999857101617444, -0.999984203182825, -0.8819610350125068,
     -0.8819607328391099, -0.8819606873403562, -0.8819555002683185,
     -0.8766999287273312, -0.8492235420925236, 0.08285762202242553,
     0.08285986282310343, 0.0828773629976427, 0.08287748159554176,
     0.0832563446079615, 0.9955760790782897, 0.9994357906512217,
     0.9999868641096523, 1.0],
]


# draws of scripts/multiscale_sweep.py (numpy.random.default_rng(42)), all at
# 8 decades; endpoint lists b_1..b_2l
SWEEP_SETS = [
    # 66, 159 and 172: the numerator's leave-one-out confirming pass failed
    # in the Chebyshev rule; the residual-only pass converges
    [-1.0, -0.9999957732904947, -0.9999860067394843, -0.999985846525285,
     -0.999985022594254, 0.9909250083322889, 0.9909594059452513, 0.9977093172946281,
     0.9981927960880637, 0.9983399847426917, 0.9999971014824747, 1.0],
    [-1.0, -0.9926573779245806, -0.9926566357501619, -0.9926565393021717,
     -0.7739510491954966, -0.7515992536638884, -0.7515985713423751,
     -0.7515948205591347, 0.2768737783034838, 0.2848373063404497, 0.2861549732905626,
     0.2861599467376603, 0.2861641991049879, 0.28616423473521313, 0.29773826342470766,
     0.2977383015340471, 0.29773832034835834, 0.30953039777841607, 0.9803715196070306,
     0.9997649216625208, 0.9998669571266576, 1.0],
    [-1.0, -0.9999998584949975, -0.9999990790363177, -0.9999971204829797,
     -0.99994282018247, 0.9993806471846753, 0.9999957688814574, 1.0],
    # 152 and 171: the centers' Newton stalls at residuals 1.8e-14 and
    # 1.5e-14, within the rounding of its Green rows
    [-1.0, -0.9999908535313204, -0.9998950402090201, -0.999721113268072,
     -0.25010369292868373, -0.250093640440602, 0.7259985372308131, 0.7261752685507961,
     0.7262042424915813, 0.7269280818556099, 0.7270799588848271, 0.7270878752224317,
     0.7278139484126684, 0.7278150807078707, 0.727860264777765, 0.7301822933407942,
     0.7303225139203433, 1.0],
    [-1.0, -0.9983301039081682, -0.9924117684327151, -0.9924112287045497,
     -0.9923984089274578, -0.9910122073354906, -0.18465797233607018,
     -0.1620094121475658, -0.1620089696684518, -0.1574293675081806,
     -0.1574243954975434, -0.09508528138566041, 0.25337635205215614,
     0.25805670202606246, 0.2625599828051255, 0.2626027745202506, 0.26291367995754067,
     0.9476052463505047, 0.9987959142253353, 1.0],
]


@pytest.mark.parametrize("b", SWEEP_SETS, ids=["draw66", "draw159", "draw172",
                                               "draw152", "draw171"])
def test_sweep_draws_solve(b):
    wm = solve([b[i:i + 2] for i in range(0, len(b), 2)])
    assert worst_invariant(wm) <= 1e-10


@pytest.mark.parametrize("b", CENTER_STALL_SETS)
def test_centers_solve_where_the_paper_iteration_stalls(b):
    wm = solve([b[i:i + 2] for i in range(0, len(b), 2)])
    dom = wm.lemniscatic
    assert abs(float(np.array(wm.exponents.m) @ np.array(dom.centers))
               - wm.green.alpha) <= 1e-12
    assert max(abs(green(w, dom) - g)
               for w, g in zip(dom.crit_w, wm.green.green_at_roots)) <= 1e-12


def test_paper_iteration_names_its_stall():
    b = CENTER_STALL_SETS[0]
    wm = solve([b[i:i + 2] for i in range(0, len(b), 2)])
    with pytest.raises(NoConvergence, match=r"center Newton stalled: .* residual \d"):
        _paper_iteration(wm)


@pytest.mark.parametrize("pairs", [
    *(ref.dirichlet_intervals(np.random.default_rng(ell), ell) for ell in (5, 10, 20, 40)),
    *(ref.cantor_pairs(k) for k in range(2, 7))])
def test_newton_centers_match_the_paper_iteration(pairs):
    wm = solve(pairs)
    a = np.array(wm.lemniscatic.centers)
    assert np.max(np.abs(a - _paper_iteration(wm)[0])) <= 1e-14 * np.max(np.abs(a))


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


def _covariance_defect(unit, other, scale):
    """Largest deviation of the solve of scale * E (scale -1: the reflection
    -E) from the unit solve of E: capacity, centers, critical points and
    boundary abscissae mapped back and measured in half-widths of E, and
    the masses, reversed under reflection."""
    s = unit.domain.frame[1]
    back = (lambda v: np.asarray(v) / scale) if scale > 0 else (
        lambda v: -np.asarray(v)[::-1])
    flip = (lambda v: np.asarray(v)) if scale > 0 else (lambda v: np.asarray(v)[::-1])
    u, o = unit.lemniscatic, other.lemniscatic
    lengths = [abs(other.green.capacity / abs(scale) - unit.green.capacity)]
    lengths += [np.max(np.abs(back(getattr(o, f)) - getattr(u, f)), initial=0.0)
                for f in ("centers", "crit_w", "boundary_c")]
    masses = np.max(np.abs(flip(other.exponents.m) - unit.exponents.m))
    return max(max(lengths) / s, masses)


def test_solve_is_scale_and_reflection_covariant():
    # every stop test is measured in the set's own frame, so the same set at
    # any scale, or reflected, takes the same steps to the same numbers; with
    # unit floors a set at scale 1e-9 stopped early, its centers off by up
    # to 4.5e-8 of the half-width
    rng = np.random.default_rng(11)
    sets = [random_interval_set(rng, k) for k in (3, 4, 5, 6, 8, 10)]
    sets.append(ref.cantor_pairs(3))
    for pairs in sets:
        unit = solve(pairs)
        for scale in (1e-9, 1e-5, 1e5, 1e9, -1.0):
            other = solve([sorted((scale * lo, scale * hi)) for lo, hi in pairs])
            assert other.lemniscatic.outer_iterations == unit.lemniscatic.outer_iterations
            assert _covariance_defect(unit, other, scale) <= 1e-13


def test_outer_steps_do_not_depend_on_the_scale():
    # the six 6-interval Dirichlet draws: with unit floors their step counts
    # read, for example, 2, 3, 4, 4, 5, 4 over these scales
    rng = np.random.default_rng(5)
    for _ in range(6):
        pairs = ref.dirichlet_intervals(rng, 6)
        steps = {solve([[scale * lo, scale * hi] for lo, hi in pairs])
                 .lemniscatic.outer_iterations
                 for scale in (1e-9, 1e-5, 1.0, 1e5, 1e6, 1e9)}
        assert len(steps) == 1


def test_center_solve_of_a_shifted_set_stops_at_its_rounding(monkeypatch):
    # on a set shifted by more than its half-width (|t| > s) a center step
    # cannot fall below 1e-15 s, under the rounding of a; the 2-ulp floor
    # stops it there instead of a stall
    stalls = []

    def counting(*args, **kwargs):
        try:
            return damped_newton(*args, **kwargs)
        except NoConvergence as exc:
            stalls.append(exc)
            raise

    monkeypatch.setattr(lemniscatic, "damped_newton", counting)
    for shift in (1e2, 1e3, 1e5):
        solve([[lo + shift, hi + shift] for lo, hi in ref.THREE_INTERVAL["pairs"]])
    assert stalls == []
