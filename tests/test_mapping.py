import cmath
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from walshmap import cli, lemniscatic, mapping
from walshmap.api import solve
from walshmap.equilibrium import ExponentVector
from walshmap.errors import (BracketFailure, InputError, InsideE, NoConvergence, NotComplex,
                             NotFinite, PoleAtCenter, WalshMapError)
from walshmap.green import _green_integral, green_complex, green_real
from walshmap.intervals import locate, parse_domain
from walshmap.lemniscatic import (LemniscaticDomain, green as green_level, green_deriv,
                                  trace_boundary)
from walshmap.mapping import GridPoint, MapResult, branch_offset, map_grid, map_point
from walshmap.quadrature import QuadConfig
from walshmap.verify import random_interval_set

import reference_values as ref
import scalar_oracles as oracle
from scalar_oracles import distance_to_E, trace_full_circle, trace_lobe


def joukowski_half(z):
    z = complex(z)
    return 0.5 * (z + cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0))


def test_single_interval_against_closed_form(single_interval):
    wm = single_interval
    for z in (2.0, 1.0001, -3.7, 0.5 + 0.5j, -1.2 - 2.0j, 4.0 + 0.1j):
        res = wm.map_point(z)
        assert abs(res.w - joukowski_half(z)) < 1e-10
        assert res.residual < 1e-12


def test_critical_point_maps_to_critical_point(two_interval):
    wm = two_interval
    z1 = wm.green.roots[0]
    res = wm.map_point(z1)
    assert res.w == wm.lemniscatic.crit_w[0]
    assert res.iterations == 0
    assert res.branch == "real_gap" and res.index == 1


def test_endpoints_map_to_boundary_abscissae(three_interval):
    wm = three_interval
    for j, b in enumerate(wm.domain.endpoints):
        res = wm.map_point(b)
        assert res.branch == "boundary" and res.index == j + 1
        assert res.w == wm.lemniscatic.boundary_c[j]
        assert res.residual < 1e-10


def test_interior_point_rejected(two_interval):
    with pytest.raises(InsideE):
        map_point(0.5, two_interval.domain, two_interval.lemniscatic,
                  two_interval.green)


def test_conjugation_symmetry(two_interval):
    wm = two_interval
    for z in (0.3 + 0.8j, -1.5 + 0.4j, 2.0 + 1.0j):
        up = wm.map_point(z).w
        dn = wm.map_point(z.conjugate()).w
        assert abs(up - dn.conjugate()) < 1e-12


def test_real_gap_results_stay_in_uniqueness_brackets(three_interval):
    wm = three_interval
    b = wm.domain.endpoints
    dom = wm.lemniscatic
    for k in range(1, wm.domain.ell):
        zk = wm.green.roots[k - 1]
        wk = dom.crit_w[k - 1]
        c_lo, c_hi = dom.boundary_c[2 * k - 1], dom.boundary_c[2 * k]
        for frac in (0.15, 0.5, 0.85):
            z = b[2 * k - 1] + frac * (zk - b[2 * k - 1])
            res = wm.map_point(z)
            assert res.branch == "real_gap" and res.index == k
            assert c_lo < res.w.real < wk
            z = zk + frac * (b[2 * k] - zk)
            res = wm.map_point(z)
            assert wk < res.w.real < c_hi


def test_monotone_on_gaps(two_interval):
    wm = two_interval
    b = wm.domain.endpoints
    for lo, hi in [(b[0] - 2.0, b[0] - 1e-6),
                   (b[1] + 1e-7, b[2] - 1e-7),
                   (b[3] + 1e-6, b[3] + 2.0)]:
        ws = [wm.map_point(float(x)).w.real for x in np.linspace(lo, hi, 25)]
        assert all(x < y for x, y in zip(ws, ws[1:]))


def test_far_field_normalization(two_interval):
    wm = two_interval
    deviations = []
    for radius in (1e2, 1e3, 1e4):
        z = radius * cmath.exp(0.9j)
        res = wm.map_point(z)
        deviations.append(abs(res.w - z))
        assert deviations[-1] < 10.0 / radius
    assert deviations[0] > deviations[1] > deviations[2]


def test_near_boundary_flag(two_interval):
    res = two_interval.map_point(0.5 + 5e-10j)
    assert res.near_boundary
    assert res.residual < 1e-12
    far = two_interval.map_point(0.5 + 0.5j)
    assert not far.near_boundary


def test_grid_statuses_and_green_identity(two_interval):
    wm = two_interval
    zs = [complex(x, y) for y in (-0.6, 0.0, 0.6) for x in (-0.65, 0.0, 0.65)]
    points = wm.map_grid(zs)
    assert [p.z for p in points] == zs
    status = {(p.z.real, p.z.imag): p.status for p in points}
    assert status[(-0.65, 0.0)] == "skipped"  # inside the left component
    assert status[(0.65, 0.0)] == "skipped"
    assert status[(0.0, 0.0)] == "converged"  # the gap point
    for p in points:
        if p.status != "converged" or p.z.imag == 0.0:
            continue
        # the raw integral from b_4, not the map's own path
        g_e = _green_integral(wm.domain, wm.green.roots, wm.domain.endpoints[-1],
                              p.z, wm.config).real
        assert abs(g_e - green_level(p.result.w, wm.lemniscatic)) < 1e-9


# QuadConfig(max_level=3) caps the segment rule at 128 nodes.  A Green path
# that starts at an edge of a narrow gap passes the gap's other edge within
# a small fraction of its length, which 128 nodes do not resolve.
FEW_NODES = QuadConfig(max_level=3)
NARROW_GAP = [[-1.0, -1e-4], [1e-4, 1.0]]
NARROW_THREE = [[-1.0, -0.3], [-0.2998, 0.4], [0.4001, 1.0]]


def test_grid_failed_point_carries_its_error():
    # under FEW_NODES the path of -1e-4+0.25j, a quarter half-width above
    # the narrow gap's left edge, does not converge; the path of -0.9+0.2j,
    # from -1, does (both lie inside the ellipse |v| = 1.5)
    wm = solve(NARROW_GAP)
    failed, ok = map_grid([complex(-1e-4, 0.25), complex(-0.9, 0.2)], wm.domain,
                          wm.lemniscatic, wm.green, cfg=FEW_NODES)
    assert failed.status == "failed" and failed.result is None
    assert failed.error.startswith("NoConvergence: segment rule did not reach tolerance")
    assert ok.status == "converged" and ok.error is None


def test_narrow_gap_point_maps_at_tight_quadrature():
    # the Green path of -0.2+0.3j starts at -1e-8, 2e-8 from the endpoint
    # 1e-8 across the narrow gap; with Gauss-Legendre end weights 6e-8 off
    # the segment rule stalled short of a 1e-15 tolerance at 2048 nodes
    pairs = [[-1.0, -1e-8], [1e-8, 1.0]]
    z = -0.2 + 0.3j
    wm = solve(pairs, QuadConfig(1e-15))
    res = wm.map_point(z)
    [p] = wm.map_grid([z])
    assert p.status == "converged" and abs(p.result.w - res.w) <= 1e-15
    g_l = green_level(res.w, wm.lemniscatic)
    ref_wm = solve(pairs)
    for base in (ref_wm.domain.endpoints[0], ref_wm.domain.endpoints[-1]):
        g_e = _green_integral(ref_wm.domain, ref_wm.green.roots, base, z, ref_wm.config).real
        assert abs(g_l - g_e) <= 1e-15


def test_grid_empty():
    from walshmap.api import solve
    wm = solve([[-1, 1]])
    assert wm.map_grid([]) == []


def test_injectivity_sample(two_interval):
    wm = two_interval
    xs = np.linspace(-2.0, 2.0, 50)
    ys = np.linspace(-2.0, 2.0, 50)
    ws = np.array([wm.map_point(complex(x, y)).w for y in ys for x in xs])
    for i in range(len(ws) - 1):
        assert np.min(np.abs(ws[i + 1:] - ws[i])) > 1e-8


def test_branch_offsets_two_interval(two_interval):
    wm = two_interval
    m2 = wm.exponents.m[1]
    got = branch_offset(wm.domain, wm.green, 1, 1j, "left")
    assert abs(got - (-1j * math.pi * m2)) < 1e-9
    got = branch_offset(wm.domain, wm.green, 1, -1j, "left")
    assert abs(got - (1j * math.pi * m2)) < 1e-9
    got = branch_offset(wm.domain, wm.green, 1, 0.2 + 1.4j, "right")
    assert abs(got - (-1j * math.pi * m2)) < 1e-9
    # basing at the rightmost endpoint reproduces the reference integral
    assert abs(branch_offset(wm.domain, wm.green, 2, 1j, "left")) < 1e-9
    with pytest.raises(ValueError):
        branch_offset(wm.domain, wm.green, 2, 1j, "right")
    with pytest.raises(ValueError):
        branch_offset(wm.domain, wm.green, 7, 1j)


@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(0.5, math.inf)])
def test_branch_offset_rejects_non_finite_points(two_interval, z):
    # rejected before any quadrature, which would warn on NaN
    with pytest.raises(NotFinite):
        branch_offset(two_interval.domain, two_interval.green, 1, z)


def test_trace_boundary_disk(single_interval):
    traces = trace_boundary(single_interval.lemniscatic, 32)
    assert len(traces) == 1 and traces[0].sampled
    pts = traces[0].points
    assert pts[0] == pts[-1]  # closed polyline
    radii = np.abs(pts - single_interval.lemniscatic.centers[0])
    assert np.max(np.abs(radii - single_interval.green.capacity)) < 1e-10


def test_trace_boundary_needs_a_point_per_component(two_interval):
    with pytest.raises(ValueError):
        trace_boundary(two_interval.lemniscatic, 0)


def test_trace_boundary_two_interval(two_interval):
    dom = two_interval.lemniscatic
    traces = trace_boundary(dom, 64)
    assert [t.sampled for t in traces] == [True, True]
    for j, tr in enumerate(traces):
        vals = np.abs(green_level(tr.points, dom))
        assert np.max(vals) < 1e-10
        # rays at angles 0 and pi hit the boundary abscissae
        right = tr.points[0]
        left = tr.points[32]
        assert abs(right - dom.boundary_c[2 * j + 1]) < 1e-9
        assert abs(left - dom.boundary_c[2 * j]) < 1e-9


def test_trace_boundary_lobe_below_float_spacing_is_unsampled():
    from walshmap.equilibrium import ExponentVector
    from walshmap.lemniscatic import LemniscaticDomain

    # a disk of radius 1e-16 about 1.0, whose abscissae are the floats next
    # to 1.0: no disk inside it is as wide as the float spacing at its
    # center, so no ray can be bracketed
    dom = LemniscaticDomain(centers=(1.0,), exponents=ExponentVector((1.0,), 0.0),
                            capacity=1e-16, crit_w=(),
                            boundary_c=(np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)),
                            outer_iterations=0, inner_residual=0.0)
    [trace] = trace_boundary(dom, 16)
    assert not trace.sampled and trace.points is None
    assert trace.reason == "no disk inside L around center 1.0"


def test_trace_boundary_points_lie_on_the_level_set(two_interval, three_interval, cantor2):
    # the Newton-safeguarded bisection stops within f's rounding noise: every
    # traced point of 256 per lobe keeps g_L at rounding level
    ten = solve(random_interval_set(np.random.default_rng(5), 10))
    for wm in (two_interval, three_interval, cantor2, ten):
        traces = trace_boundary(wm.lemniscatic, 256)
        assert all(t.sampled for t in traces)
        for tr in traces:
            assert np.max(np.abs(green_level(tr.points, wm.lemniscatic))) <= 1e-13


@pytest.mark.parametrize("pairs", [
    [[-1.0, -1e-4], [1e-4, 1.0]],
    [[-1.0, 0.4999], [0.5001, 1.0]],
    [[-1.0, -0.3], [-0.2998, 0.4], [0.4001, 1.0]],
])
def test_trace_boundary_narrow_gaps(pairs):
    # lobes that nearly touch: a ray must stop at its own lobe's boundary,
    # not cross the neck into the neighbor and stop on the far side of it
    dom = solve(pairs).lemniscatic
    hull = pairs[-1][1] - pairs[0][0]
    traces = trace_boundary(dom, 64)
    assert all(t.sampled for t in traces)
    s = np.linspace(0.0, 1.0, 2002)[1:-1]
    for j, tr in enumerate(traces):
        assert abs(tr.points[0] - dom.boundary_c[2 * j + 1]) < 1e-12 * hull
        assert abs(tr.points[32] - dom.boundary_c[2 * j]) < 1e-12 * hull
        # every traced point is the first crossing of its ray
        for p in tr.points[:-1]:
            inner = dom.centers[j] + s * (p - dom.centers[j])
            assert np.max(green_level(inner, dom)) < 0.0


@pytest.mark.parametrize("pairs", [ref.THREE_INTERVAL["pairs"],
                                   ref.dirichlet_intervals(np.random.default_rng(3), 5)])
def test_trace_boundary_failures_stay_per_lobe(pairs):
    # the critical line left of the last lobe moved inside it, halfway from
    # c_{2l-1} to a_l: the rays of both lobes beside it that end on that line
    # reach it inside L, and the batch drops those two lobes alone
    dom = solve(pairs).lemniscatic
    k = dom.ell - 1
    bad = dataclasses.replace(dom, crit_w=dom.crit_w[:-1] + (
        0.5 * (dom.boundary_c[2 * k] + dom.centers[k]),))
    got, good = trace_boundary(bad, 64), trace_boundary(dom, 64)
    assert [t.sampled for t in got] == [True] * (k - 1) + [False, False]
    for j in (k - 1, k):
        assert got[j].points is None
        assert got[j].reason == f"rays from center {dom.centers[j]} reach their outer end inside L"
    assert trace_lobe(bad, k, 64) is None
    for j in range(k - 1):
        scale = np.max(np.abs(good[j].points))
        assert np.max(np.abs(got[j].points - good[j].points)) <= 2e-15 * scale
        assert np.max(np.abs(got[j].points - trace_lobe(bad, j, 64))) <= 2e-15 * scale


def test_trace_boundary_passes_do_not_grow_with_ell(monkeypatch):
    # every level and slope pass runs over the rays of all lobes at once
    for pairs in (ref.TWO_INTERVAL["pairs"],
                  ref.dirichlet_intervals(np.random.default_rng(0), 40)):
        dom = solve(pairs).lemniscatic
        calls = {"_level": 0, "_level_slope": 0}
        for name in calls:
            def counting(*args, name=name, real=getattr(lemniscatic, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(lemniscatic, name, counting)
        traces = trace_boundary(dom, 64)
        monkeypatch.undo()
        assert all(t.sampled for t in traces)
        assert calls["_level"] <= 20 and calls["_level_slope"] <= 12


def test_trace_boundary_blocks_give_the_same_points(monkeypatch, three_interval):
    # a level pass works in blocks of _TRACE_BLOCK center distances; blocks
    # of a few rays each must trace the same points
    whole = trace_boundary(three_interval.lemniscatic, 64)
    monkeypatch.setattr(lemniscatic, "_TRACE_BLOCK", 20)
    for tr, ref_tr in zip(trace_boundary(three_interval.lemniscatic, 64), whole):
        assert np.max(np.abs(tr.points - ref_tr.points)) <= 1e-15 * np.max(np.abs(ref_tr.points))


@pytest.mark.parametrize("scale", [1e-150, 1e-40, 1e40, 1e150])
def test_trace_boundary_at_extreme_scales(scale):
    # the squared distances are taken in a power-of-two unit near the
    # capacity, so they neither overflow nor underflow
    pairs = ref.THREE_INTERVAL["pairs"]
    at_one = trace_boundary(solve(pairs).lemniscatic, 64)
    traces = trace_boundary(solve([[scale * lo, scale * hi] for lo, hi in pairs]).lemniscatic, 64)
    assert all(t.sampled for t in traces)
    for tr, ref_tr in zip(traces, at_one):
        expected = scale * ref_tr.points
        assert np.max(np.abs(tr.points - expected)) <= 1e-12 * np.max(np.abs(expected))


MIRROR_RAYS = (1, 2, 3, 7, 8, 64, 256)
MIRROR_SETS = {
    "two": ref.TWO_INTERVAL["pairs"],
    "three": ref.THREE_INTERVAL["pairs"],
    "cantor2": ref.cantor_pairs(2),
    **{f"random10_{k}": ref.dirichlet_intervals(np.random.default_rng(k), 10) for k in range(4)},
    "cantor4": ref.cantor_pairs(4),
    "dirichlet40": ref.dirichlet_intervals(np.random.default_rng(40), 40),
}


def _assert_mirrors_full_circle(dom, n):
    # the lobes' checks read as on the full circle; each point is the
    # full circle's within 2e-15 of its lobe's scale, and the point of ray
    # n - k is the conjugate of ray k's, bit for bit
    got, want = trace_boundary(dom, n), trace_full_circle(dom, n)
    assert [(t.center, t.sampled, t.reason) for t in got] == [
        (t.center, t.sampled, t.reason) for t in want]
    for tr, ref_tr in zip(got, want):
        if not tr.sampled:
            assert tr.points is None
            continue
        pts = tr.points
        assert pts.shape == (n + 1,) and pts[-1:].tobytes() == pts[:1].tobytes()
        assert pts[n - 1:n // 2:-1].tobytes() == pts[1:n - n // 2].conj().tobytes()
        assert np.max(np.abs(pts - ref_tr.points)) <= 2e-15 * np.max(np.abs(ref_tr.points))


@pytest.mark.parametrize("name", list(MIRROR_SETS))
def test_trace_boundary_mirrors_the_upper_rays(name):
    # the centers are real, so L is its own mirror image: the trace solves
    # the rays from 0 to pi alone and conjugates them
    dom = solve(MIRROR_SETS[name]).lemniscatic
    for n in MIRROR_RAYS:
        _assert_mirrors_full_circle(dom, n)


def test_trace_boundary_mirror_keeps_per_lobe_failures():
    # the failure fixtures above: a lobe below the float spacing, and two
    # lobes whose rays reach their outer ends inside L
    lone = LemniscaticDomain(
        centers=(1.0,), exponents=ExponentVector((1.0,), 0.0), capacity=1e-16,
        crit_w=(), boundary_c=(np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)),
        outer_iterations=0, inner_residual=0.0)
    doms = [lone]
    for pairs in (ref.THREE_INTERVAL["pairs"], ref.dirichlet_intervals(np.random.default_rng(3), 5)):
        dom = solve(pairs).lemniscatic
        k = dom.ell - 1
        doms.append(dataclasses.replace(dom, crit_w=dom.crit_w[:-1] + (
            0.5 * (dom.boundary_c[2 * k] + dom.centers[k]),)))
    for dom in doms:
        assert not all(t.sampled for t in trace_boundary(dom, 64))
        for n in MIRROR_RAYS:
            _assert_mirrors_full_circle(dom, n)


@pytest.mark.parametrize("n", [2.5, "8", True, None, np.float64(8.0)])
def test_trace_boundary_takes_an_integer_count(two_interval, n):
    with pytest.raises(TypeError, match="points_per_component"):
        trace_boundary(two_interval.lemniscatic, n)


def test_trace_boundary_takes_integer_like_counts(two_interval):
    dom = two_interval.lemniscatic
    want = trace_boundary(dom, 8)
    for n in (np.int64(8), np.uint8(8)):
        got = trace_boundary(dom, n)
        assert all(g.points.tobytes() == w.points.tobytes() for g, w in zip(got, want))


@pytest.mark.parametrize("pairs", [ref.dirichlet_intervals(np.random.default_rng(ell), ell)
                                   for ell in (5, 10, 20, 40)] + [ref.cantor_pairs(4)],
                         ids=["ell5", "ell10", "ell20", "ell40", "cantor4"])
def test_distance_to_E_matches_the_component_loop(pairs):
    # 2000 points a set: beyond the hull, over gaps, over components and on
    # every endpoint, at heights 1 to 1e-300 of the half-width
    E = parse_domain(pairs)
    rng = np.random.default_rng(E.ell)
    b = np.asarray(E.endpoints)
    t, s = E.frame
    i = rng.integers(0, 2 * E.ell - 1, 1500)  # [b_i, b_i+1]: a component or a gap
    x = np.concatenate((b[i] + (b[i + 1] - b[i]) * rng.random(1500),
                        t + s * rng.choice([-1.0, 1.0], 300) * (1.0 + rng.uniform(0.0, 2.0, 300)),
                        rng.choice(b, 200)))
    y = rng.choice([-1.0, 1.0], x.size) * s * 10.0 ** rng.uniform(-300.0, 0.0, x.size)
    for z in x + 1j * y:
        assert mapping._distance_to_E(E, z) == distance_to_E(E, z)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_near_boundary_flag_is_scale_covariant(scale):
    pairs = [[scale * lo, scale * hi] for lo, hi in ref.TWO_INTERVAL["pairs"]]
    wm = solve(pairs)
    hull = pairs[-1][1] - pairs[0][0]
    assert wm.map_point(complex(0.5 * scale, 5e-10 * hull)).near_boundary
    assert not wm.map_point(complex(0.5 * scale, 1e-7 * hull)).near_boundary


def test_concurrent_map_matches_sequential(two_interval):
    # immutable inputs and pure evaluation: threads must agree with the
    # sequential answers bit for bit
    from concurrent.futures import ThreadPoolExecutor
    wm = two_interval
    zs = [complex(x, y) for x in np.linspace(-1.8, 1.8, 8)
          for y in (-0.7, 0.4, 1.3)]
    sequential = [wm.map_point(z).w for z in zs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda z: wm.map_point(z).w, zs))
    assert threaded == sequential


def test_concurrent_first_use_builds_one_series():
    # threads that map a fresh domain's outer points race to build its
    # series, its inner points, each in a component's annulus (two over the
    # gaps, on the axis), to build the series of its components, and its
    # endpoints to build their records; each build is the same, so every
    # record matches the sequential one bit for bit
    import sys
    import threading
    zs = [3.0 * cmath.exp(1j * theta) for theta in np.linspace(0.1, 6.0, 12)]
    zs += [-1.45 + 0.2j, -0.25 - 0.15j, 1.35 + 0.3j, -0.8 + 0j, 0.35 + 0j]
    ends = [b for pair in ref.THREE_INTERVAL["pairs"] for b in pair]
    sequential = [solve(ref.THREE_INTERVAL["pairs"]).map_point(z).w for z in zs]
    sequential_ends = [_fields(solve(ref.THREE_INTERVAL["pairs"]).map_point(b)) for b in ends]
    wm = solve(ref.THREE_INTERVAL["pairs"])
    results, start = {}, threading.Barrier(8)

    def work(k):
        start.wait(timeout=10)
        results[k] = ([wm.map_point(z).w for z in zs],
                      [_fields(wm.map_point(b)) for b in ends])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(results[k] == (sequential, sequential_ends) for k in range(8))
    assert all(wm.map_point(z).iterations == 0 for z in zs)  # every one by the series


def _fields(res):
    """A MapResult's type and each field's type and repr: records that
    agree here agree in every field, bit for bit, and in every type."""
    return type(res), [(type(v), repr(v)) for v in res]


def _endpoint_record(wm, j):
    """map_point's record of the endpoint b_(j+1), as the map defines it."""
    dom = wm.lemniscatic
    c = dom.boundary_c[j]
    return MapResult(complex(c), abs(oracle.green_scalar(c, dom.centers, dom.exponents.m,
                                                         dom.capacity)),
                     0, "boundary", j + 1)


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   ref.cantor_pairs(2), [[-1.0, 1.0]],
                                   [[-1.0, 0.0], [0.4, 1.0]]],
                         ids=["two", "three", "cantor2", "unit", "zero_endpoint"])
def test_endpoints_give_their_kept_records(pairs):
    # an endpoint's record, built on its first call and kept on the domain,
    # is the boundary abscissa with its |g_L| residual, whatever the form of
    # the point (-0.0 for 0.0, an int, a complex with Im -0.0), on every
    # call and in map_grid
    wm = solve(pairs)
    ends = wm.domain.endpoints
    for j, b in enumerate(ends):
        want = _fields(_endpoint_record(wm, j))
        forms = [b, complex(b, -0.0)] + ([int(b)] if b == int(b) else [])
        forms += [-0.0, -0.0j] if b == 0.0 else []
        for z in forms:
            assert _fields(wm.map_point(z)) == want, z
        assert wm.map_point(b) is wm.map_point(b)
        assert mapping._point_cache(wm.lemniscatic, wm.green)[2][j] is wm.map_point(b)
    grid = wm.map_grid(ends)
    for j, (b, p) in enumerate(zip(ends, grid)):
        assert (type(p), p.z, p.status, p.error) == (GridPoint, b, "converged", None)
        assert _fields(p.result) == _fields(_endpoint_record(wm, j))


def test_endpoint_residual_that_raises_raises_alone(monkeypatch):
    # an endpoint whose residual raises keeps no record: it raises on every
    # call, and the other endpoints map
    wm = solve(ref.TWO_INTERVAL["pairs"])
    bad = wm.lemniscatic.boundary_c[1]
    plain = mapping.green_level

    def failing(w, dom):
        if w == bad:
            raise PoleAtCenter("residual")
        return plain(w, dom)

    monkeypatch.setattr(mapping, "green_level", failing)
    for _ in range(2):
        for j, b in enumerate(wm.domain.endpoints):
            if j == 1:
                with pytest.raises(PoleAtCenter, match="residual"):
                    wm.map_point(b)
            else:
                assert _fields(wm.map_point(b)) == _fields(_endpoint_record(wm, j))
    assert mapping._point_cache(wm.lemniscatic, wm.green)[2][1] is None


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   ref.cantor_pairs(2)], ids=["two", "three", "cantor2"])
def test_critical_points_read_their_stored_green_values(pairs, monkeypatch):
    # z_k maps to w_k with residual |g_L(w_k) - g_E(z_k)|, g_E(z_k) from
    # green_data's critical values: the record a Green target at z_k gave,
    # field by field, and no Green target is taken
    wm = solve(pairs)
    dom, data = wm.lemniscatic, wm.green
    want = [_fields(MapResult(
        complex(wk), abs(oracle.green_scalar(wk, dom.centers, dom.exponents.m,
                                             dom.capacity) - green_real(zk, wm.domain, data)),
        0, "real_gap", k, False)) for k, (zk, wk) in enumerate(zip(data.roots, dom.crit_w), 1)]
    calls = []
    plain = mapping._green_real

    def counting(*args):
        calls.append(args)
        return plain(*args)

    monkeypatch.setattr(mapping, "_green_real", counting)
    assert [_fields(wm.map_point(zk)) for zk in data.roots] == want
    assert calls == []


def _edge_domains(rng):
    """(name, intervals) of the benchmark's edge-point domains, drawn as
    its edge_domains draws them."""
    two = ref.TWO_INTERVAL["pairs"]
    out = [("unit", [[-1.0, 1.0]]), ("two", two), ("three", ref.THREE_INTERVAL["pairs"]),
           ("touching", [[-1.0, 1.0], [1.2, 1.4]])]
    out += [(name, [[scale * lo + shift, scale * hi + shift] for lo, hi in two])
            for name, scale, shift in (("two_scaled_1e-6", 1e-6, 0.0),
                                       ("two_scaled_1e6", 1e6, 0.0),
                                       ("two_shifted_1e3", 1.0, 1e3),
                                       ("two_shifted_1e6", 1.0, 1e6))]
    out += [(f"random{ell}_{i}", ref.dirichlet_intervals(rng, ell))
            for ell in range(3, 11) for i in range(3)]
    return out


# the real-gap Newton points of test_real_gap_newton_matches_the_scalar_oracle
# whose image is not the scalar Newton's bit for bit, where np.log and
# math.log round a term apart: (seed, domain, x).  With numpy's AVX-512 log
# they move by 16, 12, 1 and 5 ulp, at most 2.1e-4 of the stop's bound,
# with the same step counts
REAL_GAP_MOVED = {(7, "random6_0", 0.304383855316923), (7, "random9_0", 0.07971762616651853),
                  (7, "random9_2", 0.7247619880383023), (7, "random10_2", 0.36125155060167236)}


@pytest.mark.parametrize("seed", [1, 7])
def test_real_gap_newton_matches_the_scalar_oracle(seed):
    # every real gap point of the edge domains that takes the Newton, ten
    # per gap drawn as the benchmark draws its gap points, maps as the
    # scalar damped_newton on the Python-loop equation maps it: the same
    # image and step count bit for bit, or, where the logs round apart
    # (REAL_GAP_MOVED), an image within the stop _TOL / |g_L'(w)|; each
    # residual within the stop, the record's fields of their types
    rng = np.random.default_rng([seed, 3])
    newton, moved = 0, set()
    for name, pairs in _edge_domains(np.random.default_rng([seed, 0])):
        if name == "two_shifted_1e6":  # its Green data fail, SingularSystem
            continue
        wm = solve(pairs)
        b = wm.domain.endpoints
        half = 0.5 * (b[-1] - b[0])
        for _ in range(10):
            xs = [rng.uniform(b[2 * k - 1], b[2 * k]) for k in range(1, wm.domain.ell)]
            xs += [b[0] - half * 10.0 ** rng.uniform(-2.0, 0.5),
                   b[-1] + half * 10.0 ** rng.uniform(-2.0, 0.5)]
            for x in map(float, xs):
                res = wm.map_point(x)
                if res.branch != "real_gap" or res.iterations == 0:
                    continue
                newton += 1
                w, residual, steps = oracle.real_gap_image(x, res.index, wm.domain,
                                                           wm.lemniscatic, wm.green)
                assert [type(v) for v in res] == [complex, float, int, str, int, bool]
                assert res.residual <= mapping._TOL and residual <= mapping._TOL
                if (res.w.real.hex(), res.w.imag, res.iterations) != (w.hex(), 0.0, steps):
                    moved.add((seed, name, x))
                    slope = abs(green_deriv(w, wm.lemniscatic).real)
                    assert abs(res.w.real - w) <= mapping._TOL / slope, (name, x)
    assert newton >= 100
    assert moved <= REAL_GAP_MOVED


@pytest.mark.parametrize("pairs", [ref.dirichlet_intervals(np.random.default_rng(10), 10),
                                   ref.cantor_pairs(3)], ids=["dirichlet10", "cantor3"])
def test_real_axis_dispatch_agrees_with_locate(pairs):
    # map_point locates a real point by one bisection: its endpoint, the
    # component it lies in, or its gap, as intervals.locate names them
    wm = solve(pairs)
    E = wm.domain
    b = E.endpoints
    t, s = E.frame
    xs = list(b) + [0.5 * (lo + hi) for lo, hi in E.components]
    for k in range(1, E.ell):
        lo, hi = b[2 * k - 1], b[2 * k]
        xs += [lo + 0.1 * (hi - lo), 0.5 * (lo + hi), hi - 0.1 * (hi - lo), wm.green.roots[k - 1]]
    # beyond the hull, inside the ellipse |v| = 1.5 and outside it, where
    # the outer series takes them
    near, far = [b[0] - 0.05 * s, b[-1] + 0.05 * s], [b[0] - 0.5 * s, b[-1] + 3.0 * s]
    assert not any(mapping._outer_series(x, E, wm.lemniscatic, wm.green) for x in near)
    assert all(mapping._outer_series(x, E, wm.lemniscatic, wm.green) for x in far)
    xs += near + far + [0.0, -0.0, 1.7e308, -1.7e308]
    for x in xs:
        loc = locate(E, x)
        if x in b:
            assert loc.inside
            res = wm.map_point(x)
            assert (res.branch, res.index) == ("boundary", b.index(x) + 1)
        elif loc.inside:
            with pytest.raises(InsideE) as info:
                wm.map_point(x)
            assert str(info.value) == f"z = {complex(x)} lies inside component {loc.index}"
        else:
            res = wm.map_point(x)
            assert (res.branch, res.index) == ("real_gap", loc.index), x


def test_every_return_of_map_point_is_a_constructor_record(three_interval, two_interval):
    # map_point builds its records without the constructor: each path's
    # record is still a MapResult of the constructor's types
    wm = three_interval
    E, dom, data = wm.domain, wm.lemniscatic, wm.green
    paths = {
        "endpoint": (wm, E.endpoints[2], "boundary"),
        "axis outer series": (wm, 3.0, "real_gap"),
        "axis component series": (wm, -0.8, "real_gap"),
        "critical point": (wm, data.roots[1], "real_gap"),
        "real-gap Newton": (wm, 0.33, "real_gap"),
        "off-axis outer series": (wm, 3.0 + 2.0j, "complex"),
        "off-axis component series": (wm, -1.45 + 0.2j, "complex"),
        "complex Newton": (wm, 0.3 + 0.4j, "complex"),
        "near_boundary": (two_interval, 0.5 + 1e-12j, "complex"),
    }
    assert mapping._outer_series(3.0, E, dom, data)
    assert mapping._outer_series(3.0 + 2.0j, E, dom, data)
    assert mapping._component_series(-0.8, E, dom, data)
    assert mapping._component_series(-1.45 + 0.2j, E, dom, data)
    for name, (w, z, branch) in paths.items():
        res = w.map_point(z)
        assert type(res) is MapResult and res == MapResult(*res), name
        assert res.branch == branch, name
        assert (type(res.w), type(res.residual), type(res.iterations), type(res.branch)) == (
            complex, float, int, str), name
        assert type(res.index) is (type(None) if branch == "complex" else int), name
        assert type(res.near_boundary) is bool, name
        assert res.near_boundary == (name == "near_boundary"), name
        newton = name in ("real-gap Newton", "complex Newton")
        assert (res.iterations > 0) == newton, name
    assert wm.map_point(data.roots[1]).w == dom.crit_w[1]


def _green_from_left(wm, z):
    """g_E(z) integrated from the leftmost endpoint, a path other than the
    map's."""
    return _green_integral(wm.domain, wm.green.roots, wm.domain.endpoints[0],
                           complex(z), wm.config).real


def test_far_points_beside_the_base_map(two_interval, three_interval):
    # an endpoint behind the base must not put a knot next to the base
    # singularity, where the next panel raised NoConvergence
    ten = solve(random_interval_set(np.random.default_rng(4), 10))
    for wm in (two_interval, three_interval, ten):
        for z in (1e4j, -1e4j):
            w = wm.map_point(z).w
            assert abs(green_level(w, wm.lemniscatic) - _green_from_left(wm, z)) < 1e-9
            assert abs(w - z) < 1e-2


def test_far_real_points_map_beyond_doubling_reach(two_interval):
    # the outer brackets come from g_L >= log(dist / cap); 200 doublings from
    # the capacity ran out near 1e61
    for x in (1e61, -1e61, 1e100, 1e200):
        w = two_interval.map_point(x).w
        assert w.imag == 0.0
        assert abs(w.real / x - 1.0) <= 1e-12


def test_outer_bracket_overflow_is_a_typed_error(monkeypatch):
    # +-1e308 lie outside the ellipse, where Phi's series maps them: Phi(x) =
    # x + O(s^2 / x) is x itself in floats.  The Newton's outer bracket
    # overflowed there and raised BracketFailure
    pairs = [[1e-6 * lo, 1e-6 * hi] for lo, hi in ref.TWO_INTERVAL["pairs"]]
    wm = solve(pairs)
    for x in (1e307, 1e308, -1e308):
        res = wm.map_point(x)
        assert res.w == complex(x) and res.iterations == 0
        assert (res.branch, res.index) == ("real_gap", 0 if x < 0.0 else 2)
    # a domain whose series is not certified keeps the Newton, and its typed
    # error
    monkeypatch.setattr(mapping, "_certificate", lambda *args: 2.0 * mapping._TOL)
    wm = solve(pairs)
    assert wm.map_point(1e307).iterations == 0  # g_L(1e307) already meets _TOL
    for x in (1e308, -1e308):
        with pytest.raises(BracketFailure):
            wm.map_point(x)


def test_sixty_intervals_map_a_far_point():
    # N and S each grow like |z|^60: multiplied out they overflow at 1e6
    rng = np.random.default_rng(60)
    pieces = 0.25 / 119 + 0.75 * rng.dirichlet(np.ones(119))
    b = -1.0 + 2.0 * np.concatenate(([0.0], np.cumsum(pieces)))
    wm = solve([[b[2 * j], b[2 * j + 1]] for j in range(60)])
    z = 1e6 * cmath.exp(0.7j)
    w = wm.map_point(z).w
    assert abs(green_level(w, wm.lemniscatic) - _green_from_left(wm, z)) <= 1e-9


def test_near_axis_points_over_a_gap_map(three_interval):
    # near a critical point the map equation has a root in each half-plane;
    # Newton from z itself stalled here (residual 3.1e-3) on every point
    wm = three_interval
    for x in 0.3939 + np.linspace(-2e-3, 2e-3, 81):
        z = complex(x, -1.2e-3)
        w = wm.map_point(z).w
        assert w.imag < 0.0
        assert abs(green_level(w, wm.lemniscatic) - _green_from_left(wm, z)) <= 1e-9


def test_near_axis_points_over_a_component_map_into_their_half_plane():
    # Newton from z, or from z's gap image, takes no step that lowers the
    # residual here; the start on the arc around a_1 does
    wm = solve(ref.TOUCHING["pairs"])
    for z in (0.9433 - 1.2e-4j, 0.9010 + 1.2e-3j):
        w = wm.map_point(z).w
        assert (w.imag > 0.0) == (z.imag > 0.0) and w.imag != 0.0
        assert abs(green_level(w, wm.lemniscatic) - _green_from_left(wm, z)) <= 1e-9


def test_points_well_off_the_axis_start_from_z(three_interval):
    from walshmap.mapping import _complex_start
    for wm in (three_interval, solve(ref.TOUCHING["pairs"])):
        for lo, hi in wm.domain.components:
            for z in (complex(0.5 * (lo + hi), 1.0), complex(0.5 * (lo + hi), -1.0)):
                assert _complex_start(z, wm.domain, wm.lemniscatic, wm.green) == z
                w = wm.map_point(z).w
                assert (w.imag > 0.0) == (z.imag > 0.0)
                assert abs(green_level(w, wm.lemniscatic) - _green_from_left(wm, z)) <= 1e-9


def _mixed_points(E):
    """Off-axis points near and far, real-gap points, every endpoint,
    interior points of E, and, in the middle of the list, a point a quarter
    half-width s above the left edge of the narrowest gap: inside the
    ellipse |v| = 1.5 within which Green targets are integrated, its path
    from that edge passes the gap's other edge and does not converge under
    FEW_NODES."""
    b = E.endpoints
    k = int(np.argmin(np.diff(b)[1::2]))  # gap k + 1 is (b[2k + 1], b[2k + 2])
    lo, hi = E.components[0]
    zs = [complex(x, y) for x in np.linspace(b[0] - 0.4, b[-1] + 0.4, 9)
          for y in (-0.7, -1e-3, 0.35)]
    zs += [1e4j, -1e4j]
    zs += [complex(0.5 * (b[2 * k - 1] + b[2 * k])) for k in range(1, E.ell)]
    zs += [complex(b[0] - 0.5), complex(b[-1] + 0.5)]
    zs += [complex(x) for x in b]
    zs += [complex(0.5 * (lo + hi)), complex(0.25 * lo + 0.75 * hi)]
    zs.insert(len(zs) // 2, complex(b[2 * k + 1], 0.25 * E.frame[1]))
    return zs


def _ten_with_a_narrow_gap():
    """random_interval_set(default_rng(3), 10), whose narrowest gap is 0.0115
    wide, with that gap closed to 1e-4 by moving every interval right of it."""
    b = np.ravel(random_interval_set(np.random.default_rng(3), 10))
    k = int(np.argmin(np.diff(b)[1::2]))
    b[2 * k + 2:] -= b[2 * k + 2] - b[2 * k + 1] - 1e-4
    return solve(b.reshape(-1, 2).tolist())


def _assert_grid_gives_map_point(wm, points):
    """Every point of a map_grid batch has map_point's status and error, or
    its branch, index, iterations and near_boundary flag, and its image to
    1e-14."""
    for p in points:
        try:
            one = wm.map_point(p.z)
        except InsideE:
            assert p.status == "skipped"
            continue
        except WalshMapError as exc:
            assert p.status == "failed"
            assert p.error == f"{type(exc).__name__}: {exc}"
            continue
        res = p.result
        assert p.status == "converged"
        assert (res.branch, res.index, res.iterations, res.near_boundary) == (
            one.branch, one.index, one.iterations, one.near_boundary)
        assert abs(res.w - one.w) <= 1e-14 * abs(one.w)


def test_grid_matches_map_point():
    for wm in (solve(NARROW_THREE), _ten_with_a_narrow_gap()):
        wm = dataclasses.replace(wm, config=FEW_NODES)
        zs = _mixed_points(wm.domain)
        points = wm.map_grid(zs)
        assert [p.z for p in points] == zs
        statuses = {p.status for p in points}
        assert statuses == {"converged", "skipped", "failed"}
        _assert_grid_gives_map_point(wm, points)


@pytest.mark.parametrize("pairs, z", [
    ([[-1.0, 0.4999], [0.5001, 1.0]], 0.4999 + 1e-3j),
    (NARROW_THREE, 0.4 + 1e-3j),
    ([[-1.0, -0.5], [-0.4, -0.399999], [0.2, 1.0]], -0.4 + 1e-6j),
    ([[-1.0, -1e-8], [1e-8, 1.0]], 1e-9j),
])
def test_grid_matches_map_point_beside_narrow_neighbours(pairs, z, monkeypatch):
    # points whose height is comparable to a narrow gap or component next to
    # them, where the map's Newton may stall, among ordinary points, in one
    # batch and in batches of four
    wm = solve(pairs)
    zs = [z, z.conjugate(), 0.3 + 0.5j, complex(z.real, 0.5), -1.5 + 0.2j,
          2.0 - 1.0j, complex(z.real, -0.05), complex(z.real)]
    points = wm.map_grid(zs)
    assert [p.z for p in points] == zs
    _assert_grid_gives_map_point(wm, points)
    monkeypatch.setattr(mapping, "_GRID_BATCH", 4)
    assert wm.map_grid(zs) == points


def test_grid_calls_map_point_only_on_the_axis(monkeypatch):
    # an off-axis point whose Green target failed takes its error from the
    # batch, so no off-axis point is integrated again through map_point
    for wm in (solve(NARROW_THREE), _ten_with_a_narrow_gap()):
        wm = dataclasses.replace(wm, config=FEW_NODES)
        zs = _mixed_points(wm.domain)
        calls = []

        def recording(z, *args, **kwargs):
            calls.append(z)
            return map_point(z, *args, **kwargs)

        monkeypatch.setattr(mapping, "map_point", recording)
        points = wm.map_grid(zs)
        monkeypatch.undo()
        assert "failed" in {p.status for p in points if p.z.imag != 0.0}
        assert calls == [z for z in zs if z.imag == 0.0]


@pytest.mark.parametrize("z", [complex(math.nan), complex(math.inf), complex(-math.inf),
                               complex(1.0, math.inf), complex(math.nan, 1.0)])
def test_non_finite_points_fail_with_not_finite(two_interval, z):
    # rejected before any quadrature, alone and in a batch beside a finite point
    wm = two_interval
    with pytest.raises(NotFinite):
        wm.map_point(z)
    bad, good = wm.map_grid([z, 0.5 + 0.5j])
    assert bad.status == "failed" and bad.error.startswith("NotFinite: ")
    assert good == wm.map_grid([0.5 + 0.5j])[0] and good.status == "converged"


def test_grid_batches_are_independent_over_every_class(monkeypatch):
    # one batch holds every class of point: outer series, component series,
    # inner Newton (several that solve, one with a Green target that fails
    # under FEW_NODES), real gaps, endpoints, interior points of E, points
    # that are not finite and one whose distances to the hull overflow.
    # Each point is what it is alone, in order, in batches of any size, and
    # the array pass that classifies them raises no RuntimeWarning (an error
    # under the tests' warning filter)
    wm = dataclasses.replace(_ten_with_a_narrow_gap(), config=FEW_NODES)
    E, dom, data = wm.domain, wm.lemniscatic, wm.green
    b = E.endpoints
    # above and below the middle of every bounded gap, at 0.02 of its width
    zs = _mixed_points(E) + [complex(0.5 * (b[2 * k - 1] + b[2 * k]), y * (b[2 * k] - b[2 * k - 1]))
                             for k in range(1, E.ell) for y in (0.02, -0.02)]
    zs += [complex(math.nan, 1.0), complex(math.inf), complex(1.5e308, 1e308)]
    points = wm.map_grid(zs)
    assert [p.z for p in points] == zs
    off = [p.z for p in points if p.z.imag != 0.0 and cmath.isfinite(p.z)]
    assert any(mapping._outer_series(z, E, dom, data) for z in off)
    assert any(mapping._component_series(z, E, dom, data) for z in off)
    assert sum(p.result.iterations > 0 for p in points
               if p.status == "converged" and p.result.branch == "complex") >= 2
    assert {p.error.partition(":")[0] for p in points if p.status == "failed"} == {
        "NoConvergence", "NotFinite"}
    assert {p.result.branch for p in points if p.status == "converged"} == {
        "complex", "real_gap", "boundary"}
    assert "skipped" in {p.status for p in points}
    for z, p in zip(zs, points):
        assert wm.map_grid([z]) == [p]
    for batch in (1, 3):
        monkeypatch.setattr(mapping, "_GRID_BATCH", batch)
        assert wm.map_grid(zs) == points


@pytest.mark.parametrize("ell", [8, 9, 10, 40])
def test_newton_points_are_the_same_alone_in_a_batch_and_in_map_point(ell):
    # one masked Newton, whose sums over the centers round alike in a batch
    # of any size: on sets of 8 or more intervals a lone point's sums were
    # pairwise, a batch's row by row, and map_point's scalar Newton rounded
    # otherwise again.  The first 20 off-axis points of a grid that take the
    # Newton have one record in map_point, alone in map_grid and in the
    # batch of all 20, field by field
    wm = solve(ref.dirichlet_intervals(np.random.default_rng(ell), ell))
    grid = [complex(x, y) for x in np.linspace(-0.9, 0.9, 19) for y in (0.2, -0.1, 0.05)]
    zs = [p.z for p in wm.map_grid(grid)
          if p.status == "converged" and p.result.iterations > 0][:20]
    assert len(zs) == 20
    batch = wm.map_grid(zs)
    for z, p in zip(zs, batch):
        assert p.result.branch == "complex"
        assert _fields(wm.map_point(z)) == _fields(wm.map_grid([z])[0].result) == _fields(p.result)


def test_result_types_are_immutable_records(two_interval):
    # MapResult and GridPoint compare field by field, take keywords and
    # defaults, and refuse assignment; map_grid's results equal map_point's,
    # an outer series image to rounding (a Horner on the fewest terms in
    # map_point, every term at once in map_grid)
    wm = two_interval
    res = wm.map_point(0.5 + 0.5j)
    with pytest.raises(AttributeError):
        res.w = 0j
    point = GridPoint(2j, "failed", error="NotFinite: z")
    assert (point.result, point.error) == (None, "NotFinite: z")
    with pytest.raises(AttributeError):
        point.status = "converged"
    assert MapResult(1j, 0.0, 0, "complex") == MapResult(
        w=1j, residual=0.0, iterations=0, branch="complex", index=None, near_boundary=False)
    outer, local, gap = 3.0 + 2.0j, 0.5 + 0.1j, 0.05
    assert mapping._outer_series(outer, wm.domain, wm.lemniscatic, wm.green)
    assert mapping._component_series(local, wm.domain, wm.lemniscatic, wm.green)
    grid = wm.map_grid([outer, local, gap])
    one = wm.map_point(outer)
    assert grid[0].result._replace(w=one.w) == one
    assert abs(grid[0].result.w - one.w) <= 1e-15 * abs(one.w)
    assert grid[1] == GridPoint(local, "converged", wm.map_point(local))
    assert grid[2] == GridPoint(gap, "converged", wm.map_point(gap))


def test_grid_outer_points_are_constructor_records(three_interval):
    # map_grid builds an outer series point's records without their
    # constructors: they keep the constructors' types, fields and defaults
    wm = three_interval
    E, dom, data = wm.domain, wm.lemniscatic, wm.green
    zs = [complex(x, 2.5) for x in np.linspace(-4.0, 4.0, 60)]
    series = mapping._certified(dom, data)
    assert series and all(mapping._outer_series(z, E, dom, data) for z in zs)
    for z, p in zip(zs, wm.map_grid(zs)):
        assert type(p) is GridPoint and type(p.result) is MapResult
        assert type(p.z) is complex and type(p.result.w) is complex
        assert p == GridPoint(z, "converged", MapResult(p.result.w, series.bound, 0, "complex"))
        assert (p.error, p.result.index, p.result.near_boundary) == (None, None, False)


def test_grid_batches_give_the_same_points(monkeypatch):
    # batches of green targets split the list anywhere, failing point
    # included, and any iterable of points is taken
    wm = dataclasses.replace(solve(NARROW_THREE), config=FEW_NODES)
    zs = _mixed_points(wm.domain)
    whole = wm.map_grid(zs)
    assert "failed" in {p.status for p in whole}
    monkeypatch.setattr(mapping, "_GRID_BATCH", 4)
    assert wm.map_grid(iter(zs)) == whole


@pytest.mark.parametrize("bad, error, text", [
    (None, NotComplex, "is not a complex number"), ("x", NotComplex, "is not a complex number"),
    ([1, 2], NotComplex, "is not a complex number"),
    (10**400, NotFinite, "is beyond the float range"),
], ids=["None", "word", "list", "huge_int"])
def test_grid_fails_a_non_number_alone(two_interval, bad, error, text, monkeypatch):
    # complex() refuses the point: map_point raises NotComplex naming it, or
    # NotFinite for an int beyond the float range, and map_grid fails that
    # point, kept as given, among outer, inner and axis points that map as
    # they do alone, in batches of any size.  Both raised complex()'s own
    # TypeError, ValueError or OverflowError and lost the batch
    wm = two_interval
    with pytest.raises(error, match=re.escape(f"z = {bad!r} {text}")):
        wm.map_point(bad)
    assert issubclass(error, InputError)
    assert issubclass(NotComplex, (TypeError, ValueError))
    good = [3.0 + 2.0j, 0.5 + 0.1j, 0.2 + 0.05j, 0.05, -0.3, 1.5 - 1.0j]
    zs = good[:3] + [bad] + good[3:]
    alone = [wm.map_grid([z])[0] for z in good]
    for batch in (1, 2, 7, 1024):
        monkeypatch.setattr(mapping, "_GRID_BATCH", batch)
        points = wm.map_grid(zs)
        assert points[3] == GridPoint(bad, "failed", error=(
            f"{error.__name__}: z = {bad!r} {text}"))
        assert points[:3] + points[4:] == alone
    assert {p.status for p in alone} == {"converged"}


def _same_records(got, want):
    """got and want are the same GridPoints bit for bit, of the records'
    own types."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert type(p) is GridPoint and p == q and p.z.imag.hex() == q.z.imag.hex()
        if p.status == "converged":
            assert type(p.result) is MapResult
            assert (p.result.w.real.hex(), p.result.w.imag.hex()) == (
                q.result.w.real.hex(), q.result.w.imag.hex())


@pytest.mark.parametrize("shift", [0.0, 1e4])
def test_all_outer_slices_match_mixed_slices(shift, monkeypatch):
    # points on and outside the ellipse make every slice of batches of 1, 7
    # and 1024 all outer, which skips the class pass (no bincount); among
    # inner and axis points every slice of 2 or more is mixed.  Each outer
    # record is the one it gets alone and in a mixed slice, bit for bit.
    # Shifted by 1e4 the series is not certified, and an all-outer slice
    # takes the class pass and the Newton, which fails on two of the points
    # nearest the set (a residual just above 1e-12)
    wm = solve([[lo + shift, hi + shift] for lo, hi in ref.TWO_INTERVAL["pairs"]])
    E, dom, data = wm.domain, wm.lemniscatic, wm.green
    t, s = E.frame
    v = [radius * cmath.exp(1j * theta) for radius in (1.5001, 1.6, 3.0, 40.0)
         for theta in (0.2, 1.3, 2.9, -0.4, -1.6)] + [1e5j]
    outer = [t + 0.5 * s * (u + 1.0 / u) for u in v]
    assert all(mapping._outside_ellipse(z, E.endpoints, data._targets.reach) and z.imag
               for z in outer)
    others = [complex(t + 0.3 * s, 0.1 * s), complex(t - 0.2 * s, -0.05 * s),
              complex(t + 0.1 * s), complex(E.endpoints[0])]
    mixed = [z for i, zo in enumerate(outer) for z in (zo, others[i % len(others)])]
    alone = [wm.map_grid([z])[0] for z in outer]
    certified = mapping._certified(dom, data)
    assert (certified is not None) == (shift == 0.0)
    if certified:
        assert all(p.result[1:] == (certified.bound, 0, "complex", None, False) for p in alone)
    else:
        assert all(p.status == "failed" or p.result.iterations > 0 for p in alone)
        assert sum(p.status == "converged" for p in alone) > len(alone) // 2
    counted = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *args, **kw: counted.append(1) or bincount(
        *args, **kw))
    for batch in (1, 7, 1024):
        monkeypatch.setattr(mapping, "_GRID_BATCH", batch)
        counted.clear()
        _same_records(wm.map_grid(outer), alone)
        assert bool(counted) == (certified is None)
    for batch in (2, 3, 5, 1024):
        monkeypatch.setattr(mapping, "_GRID_BATCH", batch)
        counted.clear()
        _same_records(wm.map_grid(mixed)[::2], alone)
        assert counted


# --- near-axis and far points that the Green path from b_2l failed on ---------

NEAR_AXIS_SETS = ([[-1.0, -0.2], [0.3, 1.0]], [[-1.0, -0.5], [-0.1, 0.2], [0.6, 1.0]])


@pytest.mark.parametrize("pairs", NEAR_AXIS_SETS)
def test_near_axis_grids_map(pairs):
    # the path from b_2l passed within |Im z| of every branch point: 70-73
    # and 85 of these 121 points failed at every height from 1e-4 down
    wm = solve(pairs)
    E = wm.domain
    xs = np.linspace(-1.5, 1.5, 121)
    # over the gaps, away from E, Phi(x + iy) - Phi(x) = Phi'(x) iy + O(y^2)
    gap = {x: wm.map_point(x).w for x in xs
           if not E.contains(x) and min(abs(x - e) for e in E.endpoints) >= 0.02}
    slope = {}
    for y in (1e-6, 1e-3, 1e-4, 1e-8, 1e-10, 1e-12):
        points = wm.map_grid([complex(x, y) for x in xs])
        assert all(p.status == "converged" and p.result.w.imag > 0.0 for p in points)
        for p in points:
            if p.z.real in gap:
                step = abs(p.result.w - gap[p.z.real])
                assert 1.0 * y <= step <= 3.0 * y
                slope.setdefault(p.z.real, step / y)  # first at 1e-6
                assert abs(step - slope[p.z.real] * y) <= 100.0 * y * y + 1e-13


def test_far_points_left_of_the_set_map(two_interval, three_interval):
    # the path from b_2l ran along the whole set at a height of about 1e-4
    ten = solve(random_interval_set(np.random.default_rng(4), 10))
    z = -1e4 + 1j
    for wm in (two_interval, three_interval, ten):
        res = wm.map_point(z)
        # Phi(z) = z + O(1/z): a wrong branch offset would turn w by its angle
        assert res.w.imag > 0.0 and abs(res.w - z) < 1e-4
        assert abs(wm.map_point(z.conjugate()).w - res.w.conjugate()) <= 1e-14 * abs(z)
        assert abs(green_level(res.w, wm.lemniscatic) - _green_from_left(wm, z)) < 1e-9


def test_cantor2_row_below_the_axis_maps(cantor2):
    # grid_dense (seed 905): the 13 points left of E of a jittered row at
    # Im z = -2.4e-4, whose paths from b_2l = 1 failed
    y = -0.00024054969107106632
    xs = -0.39937037939348297 + (1.8 / 59) * np.arange(13)
    points = cantor2.map_grid([complex(x, y) for x in xs])
    for p in points:
        assert p.status == "converged" and p.result.w.imag < 0.0
        ratio = abs(p.result.w - cantor2.map_point(p.z.real).w) / abs(y)
        assert 1.0 <= ratio <= 3.0


# --- Phi's series outside the ellipse |v| = 1.5 -------------------------------

def _coefficients(pairs):
    # all 89 d_k, the dropped ones too, whose tail decides the count kept
    wm = solve(pairs)
    dom, data = wm.lemniscatic, wm.green
    return (mapping._series_coefficients(dom, data), wm.domain.frame[1],
            mapping._series(dom, data).coeffs.size)


def test_unit_interval_series_vanishes(single_interval):
    # Phi = (z + sqrt(z - 1) sqrt(z + 1)) / 2 = v / 2: every d_k is 0, so the
    # series keeps no term, and its certificate is that of all 89
    wm = single_interval
    dom, data = wm.lemniscatic, wm.green
    series = mapping._series(dom, data)
    full = mapping._series_coefficients(dom, data)
    assert full.tolist() == [0.0] * 89
    assert series.coeffs.size == 0 and len(series.down) == 0
    t, s = wm.domain.frame
    assert series.bound == mapping._certificate(dom, data, t, s, full) <= 1e-15


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_series_coefficients_are_affine_covariant(scale):
    # Phi(scale z + shift) = scale Phi(z) + shift: d_k scales with the set,
    # here shifted by three half-widths as well (3e6 at scale 1e6)
    pairs = ref.THREE_INTERVAL["pairs"]
    d, _, kept = _coefficients(pairs)
    moved, s, moved_kept = _coefficients([[scale * lo + 3.0 * scale, scale * hi + 3.0 * scale]
                                          for lo, hi in pairs])
    assert np.max(np.abs(moved - scale * d)) <= 1e-14 * s
    assert moved_kept == kept


def test_series_coefficients_reflect():
    # Phi_{-E}(z) = -Phi_E(-z) and v(-z) = -v(z): d_k(-E) = (-1)^(k+1) d_k
    pairs = random_interval_set(np.random.default_rng(4), 10)
    d, s, kept = _coefficients(pairs)
    mirrored, _, mirrored_kept = _coefficients([[-hi, -lo] for lo, hi in reversed(pairs)])
    sign = (-1.0) ** np.arange(2, d.size + 2)
    assert np.max(np.abs(mirrored - sign * d)) <= 1e-14 * s
    assert mirrored_kept == kept


_TWO = ref.TWO_INTERVAL["pairs"]


@pytest.mark.parametrize("pairs", [
    _TWO, ref.THREE_INTERVAL["pairs"], ref.cantor_pairs(2),
    *(ref.dirichlet_intervals(np.random.default_rng(seed), 10) for seed in range(4)),
    [[1e-6 * lo, 1e-6 * hi] for lo, hi in _TWO], [[1e6 * lo, 1e6 * hi] for lo, hi in _TWO],
    [[lo + 1e3, hi + 1e3] for lo, hi in _TWO], ref.cantor_pairs(3),
], ids=["two", "three", "cantor2", *(f"random10_{seed}" for seed in range(4)), "two_1e-6",
        "two_1e6", "two_shifted_1e3", "cantor3"])
def test_outer_series_keeps_the_terms_above_rounding(pairs):
    # the series keeps the fewest d_1 .. d_K' whose dropped terms' largest
    # values on the ellipse sum to at most half the rounding unit of s, so
    # each dropped one lies below it; its images lie within 4 units of
    # rounding of the larger of |w| and s of all 89 terms' on and outside
    # the ellipse, and it is certified wherever they were
    wm = solve(pairs)
    dom, data = wm.lemniscatic, wm.green
    t, s = wm.domain.frame
    full = mapping._series_coefficients(dom, data)
    series = mapping._series(dom, data)
    K = series.coeffs.size
    assert full.size == 89 and 0 < K < full.size
    assert np.array_equal(series.coeffs, full[:K])
    assert list(series.down) == full[K - 1::-1].tolist()
    size = np.abs(full) * 1.5 ** -np.arange(1.0, full.size + 1)
    assert math.fsum(size[K:]) <= 0.5 * mapping._EPS * s < math.fsum(size[K - 1:])
    assert np.all(size[K:] <= mapping._EPS * s)
    theta = 2.0 * np.pi * (np.arange(100) + 0.5) / 100
    v = np.concatenate((1.5 * np.exp(1j * theta),
                        np.geomspace(1.5, 20.0, 100) * np.exp(1j * (theta + 0.3))))
    z = t + 0.5 * s * (v + 1.0 / v)
    kept = mapping._series_map(z, t, s, series.coeffs)
    whole = mapping._series_map(z, t, s, full)
    assert np.all(np.abs(kept - whole) <= 4.0 * mapping._EPS * np.maximum(np.abs(whole), s))
    assert series.bound == mapping._certificate(dom, data, t, s, series.coeffs)
    if mapping._certificate(dom, data, t, s, full) <= mapping._TOL:
        assert series.bound <= mapping._TOL


@pytest.mark.parametrize("pairs", [
    ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
    ref.dirichlet_intervals(np.random.default_rng(10), 10),
    ref.dirichlet_intervals(np.random.default_rng(40), 40),
    ref.dirichlet_intervals(np.random.default_rng(80), 80),
], ids=["ell2", "ell3", "ell10", "ell40", "ell80"])
def test_series_certificate(pairs):
    # the map equation's residual on |v| = 1.5, which bounds it outside, and
    # each point's image there agrees with the Newton's within its stop
    wm = solve(pairs)
    series = mapping._series(wm.lemniscatic, wm.green)
    assert series.bound <= 1e-12
    for theta in (0.3, 2.0, -1.1):
        z = wm.domain.frame[0] + 2.0 * wm.domain.frame[1] * cmath.exp(1j * theta)
        res = wm.map_point(z)
        assert (res.iterations, res.residual, res.branch) == (0, series.bound, "complex")
        newton, = mapping._complex_images([z], np.array([green_complex(z, wm.domain, wm.green)]),
                                          wm.domain, wm.lemniscatic, wm.green)
        assert newton.iterations > 0
        assert abs(res.w - newton.w) <= 2e-12 * max(1.0, abs(newton.w))


# the Newton's images of the two-interval set before the series, with their
# iteration counts: map_point's, then map_grid's
NEWTON_IMAGES = {
    2 + 1j: ((1.9664273183411012 + 1.0205289221678597j), (1.966427318341101 + 1.0205289221678595j), 3),
    -1.5 - 2j: ((-1.4820463419301668 - 2.0253834405330493j),
                (-1.4820463419301666 - 2.0253834405330493j), 3),
    3e4j: ((9.803113236249211e-12 + 30000.000002704342j),
           (9.803113236249213e-12 + 30000.000002704342j), 1),
    2.5 + 0j: ((2.4640521525904657 + 0j), (2.4640521525904657 + 0j), 3),
    -3.0 + 0j: ((-2.972567012609975 + 0j), (-2.972567012609975 + 0j), 3),
}


def test_uncertified_series_keeps_the_newton(monkeypatch):
    # a certificate above _TOL sends every point of the domain to the Newton
    monkeypatch.setattr(mapping, "_certificate", lambda *args: 2.0 * mapping._TOL)
    wm = solve(ref.TWO_INTERVAL["pairs"])
    zs = list(NEWTON_IMAGES)
    for z, p in zip(zs, wm.map_grid(zs)):
        point, grid, iterations = NEWTON_IMAGES[z]
        for res, want in ((wm.map_point(z), point), (p.result, grid)):
            assert res.iterations == iterations
            assert abs(res.w - want) <= 1e-15 * abs(want)
            assert res.residual < 1e-12


def test_grid_takes_the_series_as_map_point_does(three_interval, monkeypatch):
    # a row through the ellipse: outer points by the series in both entry
    # points, inner ones by the Newton; any batch split gives the same points.
    # At Im z = 0.6 the row passes above every component's annulus (the
    # highest, of the third component, reaches 0.54), which would map its
    # inner points by a component's series
    wm = three_interval
    zs = [complex(x, 0.6) for x in np.linspace(-4.0, 4.0, 41)] + [complex(x) for x in (-3.0, 3.0)]
    points = wm.map_grid(zs)
    outer = [z for z in zs if mapping._outer_series(z, wm.domain, wm.lemniscatic, wm.green)]
    assert 0 < len(outer) < len(zs)
    for p in points:
        one = wm.map_point(p.z)
        took = p.z in outer
        assert (p.result.iterations == 0) == took and (one.iterations == 0) == took
        if took:
            assert abs(p.result.w - one.w) <= 1e-15 * abs(one.w)
    assert {p.result.branch for p in points if p.z in outer and p.z.imag == 0.0} == {"real_gap"}
    _assert_grid_gives_map_point(wm, points)
    monkeypatch.setattr(mapping, "_GRID_BATCH", 3)
    assert wm.map_grid(zs) == points


@pytest.mark.parametrize("z", [complex(1.5e308, 1e308), complex(-1.7e308, 1.7e308)])
def test_points_beyond_the_float_range_map(z, capsys):
    # |z| overflows a double: the focal-sum test raised OverflowError from
    # complex abs, in map_point, green_complex and a whole map_grid batch
    wm = solve([[-1.0, -0.3], [0.1, 1.0]])

    def near(w):  # |w / z - 1|, in halves so that the quotient cannot overflow
        return abs((0.5 * w) / (0.5 * z) - 1.0)

    res = wm.map_point(z)
    assert near(res.w) <= 1e-12 and (res.branch, res.iterations) == ("complex", 0)
    inner, far = wm.map_grid([0.5j, z])
    assert inner == wm.map_grid([0.5j])[0]
    assert far.status == "converged" and near(far.result.w) <= 1e-12
    # G = log(z - t) - log cap + O(s / z)
    g = green_complex(z, wm.domain, wm.green)
    assert abs(g - (cmath.log(z) - math.log(wm.green.capacity))) <= 1e-12 * abs(g)
    assert list(green_complex([z, 0.5j], wm.domain, wm.green)) == [
        g, green_complex(0.5j, wm.domain, wm.green)]
    assert cli.main(["phi", "--intervals=-1,-0.3;0.1,1", f"--z={z.real!r},{z.imag!r}"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert near(complex(*report["w"])) <= 1e-12 and report["iterations"] == 0


# --- Phi near a component: its Laurent series in the component's variable ----

def _series_points(wm, count, rng):
    """count points z_j(v) per component j, |v| log-uniform on [1, rho_j]
    and arg v uniform, that lie off the axis and take a component's series,
    each with the j it was drawn for."""
    E, dom, data = wm.domain, wm.lemniscatic, wm.green
    _, frames, _ = mapping._local_cache(dom, data)
    out = []
    for j, (lo, hi, s, _, rho) in enumerate(frames):
        points, tries = [], 0
        while len(points) < count:
            tries += 1
            assert tries <= 100 * count, f"component {j}'s series takes too few points"
            v = cmath.rect(math.exp(rng.uniform(0.0, math.log(rho))),
                           rng.uniform(-math.pi, math.pi))
            z = lo + s + 0.5 * s * (v + 1.0 / v)
            if z.imag != 0.0 and mapping._component_series(z, E, dom, data):
                points.append(z)
        out += [(j, z) for z in points]
    return out


def _polished(wm, z, w):
    """w after one more full Newton step on z's complex map equation: the
    Newton stops at a residual of 1e-12, which leaves up to 3e-11 of s in
    its image where the equation's derivative is small."""
    target = green_complex(z, wm.domain, wm.green)
    _, delta = oracle.map_equation(wm.lemniscatic, target, cmath.log)(w)
    return w + delta


# edge_domains(np.random.default_rng([2301, 0]))'s random10_0 of the
# benchmark's inputs: the Newton from _complex_start of the node
# 0.3747+0.0191j on component 4's outer circle, over the gap (0.36961,
# 0.40772), stalls at residual 1.4e-2, and the component was not certified
# until failed nodes restarted from a converged neighbour's image
RESTARTED_TEN = [
    [-1.0, -0.9725342128754965], [-0.9117767013332496, -0.7977752686415696],
    [-0.6185713037134363, -0.46476615217333117], [-0.30516673628853175, -0.2569691272730176],
    [-0.15971802803471868, 0.36960727098841195], [0.40771550550906777, 0.5490338110845012],
    [0.6098182733436059, 0.6791259413141622], [0.7119686915159451, 0.7883925537709491],
    [0.8521624806377062, 0.9130351787514195], [0.9639380346200688, 1.0]]


def test_failed_circle_node_restarts_from_its_neighbour():
    wm = solve(RESTARTED_TEN)
    assert mapping._local_series(wm.lemniscatic, wm.green, 4).bound <= mapping._TOL


@pytest.mark.parametrize("pairs", [
    ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"], ref.cantor_pairs(2),
    ref.dirichlet_intervals(np.random.default_rng(10), 10), RESTARTED_TEN,
], ids=["two", "three", "cantor2", "ten", "restarted_ten"])
def test_local_series_matches_the_newton(pairs, monkeypatch):
    # 200 points per component inside its annulus 1 <= |v_j| <= rho_j: every
    # one takes a certified series, reported as a series point, whose map
    # equation's residual against the Green's integral by quadrature the
    # certificate bounds (up to the quadrature's 1e-14), and lies within
    # 1e-12 s of the Newton's image, which the points take with the
    # component series switched off
    wm = solve(pairs)
    s = wm.domain.frame[1]
    points = _series_points(wm, 200, np.random.default_rng(22))
    images = {z: wm.map_point(z) for _, z in points}
    for j, z in points:
        series, _ = mapping._component_series(z, wm.domain, wm.lemniscatic, wm.green)
        assert series.bound <= 1e-12
        target = green_complex(z, wm.domain, wm.green)
        F, _ = oracle.map_equation(wm.lemniscatic, target, cmath.log)(images[z].w)
        assert abs(F) <= series.bound + 1e-14
    monkeypatch.setattr(mapping, "_annulus_series", lambda *args: None)
    for _, z in points:
        res, newton = images[z], wm.map_point(z)
        assert (res.iterations, res.branch) == (0, "complex") and res.residual <= 1e-12
        assert newton.iterations > 0
        assert abs(res.w - _polished(wm, z, newton.w)) <= 1e-12 * s


@pytest.mark.parametrize("pairs", [
    ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"], ref.cantor_pairs(2),
    ref.dirichlet_intervals(np.random.default_rng(10), 10),
], ids=["two", "three", "cantor2", "ten"])
def test_green_circles_match_the_quadrature(pairs):
    # the Green's values every component series is fitted and certified
    # against come from one FFT of N/Q on its outer circle; the quadrature
    # gives the same: on the rim G(x + i0) = i pi mu_E([x, b_2l]) by the
    # segment rule from the nearer endpoint of the component, on the outer
    # circle green_complex
    wm = solve(pairs)
    E, data = wm.domain, wm.green
    jumps = data._targets.jumps
    _, frames, _ = mapping._local_cache(wm.lemniscatic, data)
    for j, (lo, hi, s, R, rho) in enumerate(frames):
        m, n = mapping._rim_nodes(R), mapping._NODES
        rim, outer = mapping._green_circles(E, data, j, s, rho, m, n)
        k = np.arange(1, m)
        x = mapping._rim_points(lo, hi, s, np.pi * k / m)
        right = x > lo + s
        g = np.array([_green_integral(E, data.roots, base, complex(p), wm.config)
                      for base, p in zip(np.where(right, hi, lo).tolist(), x.tolist())])
        assert np.max(np.abs(rim[k] - 1j * (np.where(right, jumps[j + 1], jumps[j]) + g.imag))) \
            <= 1e-14
        k = np.arange(1, n, 3)
        v = rho * np.exp(1j * np.pi * k / n)
        z = lo + s + 0.5 * s * (v + 1.0 / v)
        assert np.max(np.abs(outer[k] - green_complex(z, E, data))) <= 1e-14


def test_local_series_on_gaps_and_near_endpoints(two_interval):
    # real gap points take the series as real_gap with their gap index, and
    # so do the unbounded gaps inside the ellipse; points within 1e-13 of an
    # endpoint keep their accuracy, as v is formed from z - b
    wm = two_interval
    b = wm.domain.endpoints
    for x, k in ((-0.1, 1), (0.05, 1), (-1.02, 0), (1.05, 2), (b[1] + 1e-13, 1),
                 (b[3] + 1e-12, 2)):
        res = wm.map_point(x)
        assert (res.branch, res.index, res.iterations) == ("real_gap", k, 0)
        assert res.w.imag == 0.0
        g = green_real(x, wm.domain, wm.green)
        assert abs(green_level(res.w, wm.lemniscatic) - g) <= 1e-13
    # the critical point keeps its exact image
    assert wm.map_point(wm.green.roots[0]).w == wm.lemniscatic.crit_w[0]
    for z in (b[1] + 1e-13j, complex(b[2] - 1e-12, 1e-13), complex(b[0], -1e-14)):
        res = wm.map_point(z)
        assert res.iterations == 0 and res.near_boundary
        g = green_complex(z, wm.domain, wm.green).real
        assert abs(green_level(res.w, wm.lemniscatic) - g) <= 1e-13


@pytest.mark.parametrize("pairs", [ref.TWO_INTERVAL["pairs"], ref.THREE_INTERVAL["pairs"],
                                   ref.cantor_pairs(2)], ids=["two", "three", "cantor2"])
def test_local_series_conjugation_is_exact(pairs):
    wm = solve(pairs)
    for _, z in _series_points(wm, 30, np.random.default_rng(5)):
        up, down = wm.map_point(z), wm.map_point(z.conjugate())
        assert down.w == up.w.conjugate() and down.iterations == up.iterations == 0


def _laurent(wm, j):
    """c_-K .. c_K of component j's series, as a dict by power."""
    series = mapping._local_series(wm.lemniscatic, wm.green, j)
    out = {0: series.lead}
    out.update({k: c for k, c in enumerate(series.up[::-1], 1)})
    out.update({-k: c for k, c in enumerate(series.down[::-1], 1)})
    return out


@pytest.mark.parametrize("scale", [2.0 ** -20, 2.0 ** 30])
def test_local_series_coefficients_are_covariant(scale):
    # Phi_{pE}(p z) = p Phi_E(z) for a power of two p, and Phi_{-E}(z) =
    # -Phi_E(-z) with v_j(-z) = -v_j(z) on the mirrored component:
    # c_k(pE) = p c_k and c_k(-E) = -(-1)^k c_k.  Powers past a trimmed end
    # read 0, within the rounding unit of s
    pairs = ref.dirichlet_intervals(np.random.default_rng(10), 10)
    wm = solve(pairs)
    s = wm.domain.frame[1]
    scaled = solve([[scale * lo, scale * hi] for lo, hi in pairs])
    mirrored = solve([[-hi, -lo] for lo, hi in reversed(pairs)])
    ell = wm.domain.ell
    for j in range(ell):
        c, c_scaled = _laurent(wm, j), _laurent(scaled, j)
        c_mirrored = _laurent(mirrored, ell - 1 - j)
        for k in set(c) | set(c_scaled) | set(c_mirrored):
            assert abs(c_scaled.get(k, 0.0) - scale * c.get(k, 0.0)) <= 1e-14 * scale * s
            assert abs(c_mirrored.get(k, 0.0) + (-1) ** (k % 2) * c.get(k, 0.0)) <= 1e-14 * s


def test_local_series_near_the_top_of_the_float_range(monkeypatch):
    # a 10-interval set scaled by 2^511, where a product of two endpoint
    # distances leaves the float range: N/Q takes one root per distance, so
    # every component's series is certified, and its images agree with the
    # Newton's
    pairs = ref.dirichlet_intervals(np.random.default_rng(10), 10)
    wm = solve([[2.0 ** 511 * lo, 2.0 ** 511 * hi] for lo, hi in pairs])
    s = wm.domain.frame[1]
    for j in range(wm.domain.ell):
        assert mapping._local_series(wm.lemniscatic, wm.green, j).bound <= 1e-12
    points = [z for _, z in _series_points(wm, 3, np.random.default_rng(7))]
    images = [wm.map_point(z) for z in points]
    monkeypatch.setattr(mapping, "_annulus_series", lambda *args: None)
    for z, res in zip(points, images):
        assert abs(res.w - _polished(wm, z, wm.map_point(z).w)) <= 1e-12 * s


def test_grid_takes_the_local_series_as_map_point_does(monkeypatch):
    # the same scalar evaluation in both entry points: series images equal
    # bit for bit, in any batch split
    for pairs in (ref.THREE_INTERVAL["pairs"], ref.cantor_pairs(2)):
        wm = solve(pairs)
        b = wm.domain.endpoints
        zs = [z for _, z in _series_points(wm, 12, np.random.default_rng(8))]
        zs += [complex(x) for x in np.linspace(b[0] - 0.05, b[-1] + 0.05, 9)]  # gaps, E
        points = wm.map_grid(zs)
        for p in points:
            if p.status == "converged":
                one = wm.map_point(p.z)
                assert p.result == one
        _assert_grid_gives_map_point(wm, points)
        for batch in (1, 5):
            monkeypatch.setattr(mapping, "_GRID_BATCH", batch)
            assert wm.map_grid(zs) == points
        monkeypatch.undo()


# the Newton's images of two-interval points inside the ellipse before the
# component series, with their iteration counts: map_point's, then map_grid's.
# -0.1 lies 2e-3 from the critical point z_1, where one ulp of the target
# g_E(-0.1) moves the image by 1.5e-14: its image is the one from the
# correctly rounded target 0.20382713105438582 (a 40-digit integral reads
# 0.2038271310543858255), which correctly rounded 16- and 32-point
# Gauss-Legendre tables give too
INNER_NEWTON_IMAGES = {
    0.5 + 0.1j: ((0.4922655330225258 + 0.2801157930275928j),
                 (0.49226553302252585 + 0.28011579302759276j), 4, 4),
    -0.6 - 0.2j: ((-0.5687508104279734 - 0.3097052688518227j),
                  (-0.5687508104279734 - 0.3097052688518227j), 4, 4),
    0.3j: ((0.028453809667494265 + 0.3704320185560112j),
           (0.02845380966749399 + 0.37043201855601104j), 4, 4),
    -0.1 + 0j: ((-0.07393213603036579 + 0j), (-0.07393213603036579 + 0j), 4, 4),
    1.05 + 0j: ((0.8916724261227986 + 0j), (0.8916724261227986 + 0j), 5, 5),
    -1.02 + 0j: ((-0.8611741017062731 + 0j), (-0.8611741017062731 + 0j), 5, 5),
}


def test_uncertified_local_series_keeps_the_newton(monkeypatch):
    # each point takes a component's series; with every certificate forced
    # above _TOL, both entry points give the Newton's images again
    wm = solve(ref.TWO_INTERVAL["pairs"])
    zs = list(INNER_NEWTON_IMAGES)
    assert all(p.result.iterations == 0 for p in wm.map_grid(zs))
    monkeypatch.setattr(mapping, "_local_certificate", lambda *args: 2.0 * mapping._TOL)
    wm = solve(ref.TWO_INTERVAL["pairs"])
    for z, p in zip(zs, wm.map_grid(zs)):
        point, grid, iterations, grid_iterations = INNER_NEWTON_IMAGES[z]
        for res, want, it in ((wm.map_point(z), point, iterations),
                              (p.result, grid, grid_iterations)):
            assert res.iterations == it
            assert abs(res.w - want) <= 1e-15 * abs(want)
            assert res.residual < 1e-12


@pytest.mark.parametrize("pairs, z", [
    ([[-1.0, 0.4999], [0.5001, 1.0]], 0.4999 + 1e-3j),
    (NARROW_THREE, 0.4 + 1e-3j),
    ([[-1.0, -0.5], [-0.4, -0.399999], [0.2, 1.0]], -0.4 + 1e-6j),
    ([[-1.0, -1e-8], [1e-8, 1.0]], 1e-9j),
])
def test_points_beside_narrow_neighbours_keep_the_newton(pairs, z):
    # beside a gap or component 1e-4 of the hull wide or narrower no series
    # covers these points: the annuli of the components beside a narrow gap
    # do not reach past |v_j| = 1 (rho_j <= 1), and the tiny component's rim
    # samples stall at the map equation's rounding, 1.1e-12, so its series
    # is not certified.  Each keeps the Newton's stall
    wm = solve(pairs)
    assert mapping._component_series(z, wm.domain, wm.lemniscatic, wm.green) is None
    with pytest.raises(NoConvergence, match="no damped Newton step lowers the residual"):
        wm.map_point(z)


def test_wide_outer_circle_fits_without_overflow():
    # components 1 and 2 of this pre-image set have outer circles of radius
    # rho = 4.0e4 in their Joukowski variables, and c_k = F_k rho^-k for k up
    # to 127 overflowed in rho^k ("overflow encountered in power")
    n, sigma, kappa = 4, 0.2, 1e-4
    wm = solve(ref.preimage_pairs(n, sigma, kappa))
    z = -0.5525118869667113 + 0.01234798941989344j
    w = wm.map_point(z).w
    assert abs(green_level(w, wm.lemniscatic) - ref.preimage_green(z, n, sigma, kappa)) <= 1e-12
