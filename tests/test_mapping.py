import cmath
import dataclasses
import math

import numpy as np
import pytest

from walshmap import mapping
from walshmap.api import solve
from walshmap.errors import BracketFailure, InsideE, WalshMapError
from walshmap.green import _green_integral
from walshmap.lemniscatic import green as green_level
from walshmap.mapping import branch_offset, map_grid, map_point, trace_boundary
from walshmap.quadrature import QuadConfig
from walshmap.verify import random_interval_set

import reference_values as ref


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
    # under FEW_NODES the path of -0.5+1j, from -1e-4, does not converge;
    # the path of -1.5+0.5j, from -1, does
    wm = solve(NARROW_GAP)
    failed, ok = map_grid([complex(-0.5, 1.0), complex(-1.5, 0.5)], wm.domain,
                          wm.lemniscatic, wm.green, cfg=FEW_NODES)
    assert failed.status == "failed" and failed.result is None
    assert failed.error.startswith("NoConvergence: segment rule did not reach tolerance")
    assert ok.status == "converged" and ok.error is None


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


def test_trace_boundary_disk(single_interval):
    traces = trace_boundary(single_interval.lemniscatic, 32)
    assert len(traces) == 1 and traces[0].sampled
    pts = traces[0].points
    assert pts[0] == pts[-1]  # closed polyline
    radii = np.abs(pts - single_interval.lemniscatic.centers[0])
    assert np.max(np.abs(radii - single_interval.green.capacity)) < 1e-10


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


def test_outer_bracket_overflow_is_a_typed_error():
    wm = solve([[1e-6 * lo, 1e-6 * hi] for lo, hi in ref.TWO_INTERVAL["pairs"]])
    w = wm.map_point(1e307).w
    assert abs(w.real / 1e307 - 1.0) <= 1e-10
    with pytest.raises(BracketFailure):
        wm.map_point(1e308)
    with pytest.raises(BracketFailure):
        wm.map_point(-1e308)


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
    interior points of E, and, in the middle of the list, a point 10 hull
    widths above the left edge of the narrowest gap, whose Green path does
    not converge under FEW_NODES."""
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
    zs.insert(len(zs) // 2, complex(b[2 * k + 1], 10.0 * (b[-1] - b[0])))
    return zs


def test_grid_matches_map_point():
    # the 10-interval set's narrowest gap is 0.0115 wide, NARROW_THREE's 1e-4
    ten = solve(random_interval_set(np.random.default_rng(3), 10))
    for wm in (solve(NARROW_THREE), ten):
        wm = dataclasses.replace(wm, config=FEW_NODES)
        zs = _mixed_points(wm.domain)
        points = wm.map_grid(zs)
        assert [p.z for p in points] == zs
        statuses = {p.status for p in points}
        assert statuses == {"converged", "skipped", "failed"}
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


def test_grid_batches_give_the_same_points(monkeypatch):
    # batches of green targets split the list anywhere, failing point
    # included, and any iterable of points is taken
    wm = dataclasses.replace(solve(NARROW_THREE), config=FEW_NODES)
    zs = _mixed_points(wm.domain)
    whole = wm.map_grid(zs)
    assert "failed" in {p.status for p in whole}
    monkeypatch.setattr(mapping, "_GRID_BATCH", 4)
    assert wm.map_grid(iter(zs)) == whole


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
