"""Evaluation of the normalized conformal map onto the lemniscatic complement.

The image w of a point z solves a Green's-function equation: off the real
axis (and right of the last endpoint) the complex equation

    sum m_j Log(w - a_j) - log(cap) = integral of N/S from b_{2l} to z

with principal logarithms, solved by damped Newton in the half-plane of z
(the map preserves each half-plane); inside a real gap the real equation
g(w) = g_E(z) on the uniqueness interval of the gap, solved by damped Newton
kept inside that interval.  Both start from the real-axis correspondence of
the gap (and, for off-axis points near E, of the component) under Re z; see
_complex_start.  Endpoints map to the boundary abscissae directly.
"""

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsideE, NoConvergence, RayBracketFailure, WalshMapError
from .green import (GreenData, _green_integral, _green_real, green_complex)
from .intervals import IntervalUnion, locate
from .lemniscatic import (LemniscaticDomain, _bisect, _green_scalar, _green_values,
                          _outer_reach)
from .newton import damped_newton
from .quadrature import DEFAULT_CONFIG, QuadConfig

__all__ = [
    "MapResult",
    "GridPoint",
    "BoundaryTrace",
    "map_point",
    "map_grid",
    "branch_offset",
    "trace_boundary",
]

_NEAR_BOUNDARY = 1e-9

# points per green_complex call of map_grid: bounds the paths and panel
# arrays a batch holds at once
_GRID_BATCH = 1024


@dataclass(frozen=True)
class MapResult:
    """One map evaluation: image point, equation residual, Newton iteration
    count, and which equation branch produced it ("complex", "real_gap" with
    the gap index, or "boundary" with the 1-based endpoint index)."""

    w: complex
    residual: float
    iterations: int
    branch: str
    index: int | None = None
    near_boundary: bool = False


def _distance_to_E(E: IntervalUnion, z: complex) -> float:
    best = math.inf
    for lo, hi in E.components:
        dx = max(lo - z.real, z.real - hi, 0.0)
        best = min(best, math.hypot(dx, z.imag))
    return best


def _equation(dom: LemniscaticDomain, target, log):
    """damped_newton's fun for sum m_j log(w - a_j) - log(cap) = target,
    with log = cmath.log for the complex equation and log|.| for the real
    one.  A vanishing derivative gives a NaN step, which no trial accepts."""
    a, m = dom.centers, dom.exponents.m
    shift = math.log(dom.capacity) + target

    def fun(w):
        F, deriv = -shift, 0.0
        for aj, mj in zip(a, m):
            d = w - aj
            F += mj * log(d)
            deriv += mj / d
        return F, (-F / deriv if deriv else math.nan)

    return fun


def _real_log(d):
    return math.log(abs(d))


def _gap_image(x, k, E, dom, data):
    """Piecewise-linear guess of the image of x in gap k: b_{2k-1} -> c_{2k-1},
    z_k -> w_k, b_{2k} -> c_{2k} on a bounded gap, x itself on the unbounded
    ones."""
    if k == 0 or k == E.ell:
        return x
    b = E.endpoints
    zk, wk = data.roots[k - 1], dom.crit_w[k - 1]
    if x < zk:
        c = dom.boundary_c[2 * k - 1]
        return c + (x - b[2 * k - 1]) / (zk - b[2 * k - 1]) * (wk - c)
    c = dom.boundary_c[2 * k]
    return wk + (x - zk) / (b[2 * k] - zk) * (c - wk)


def _complex_start(z, E, dom, data):
    """Newton start for an off-axis z.

    Far from the axis (|Im z| at least half the width of the gap or
    component under Re z, or over an unbounded gap) the start is z.  Nearer,
    the image lies close to the image of Re z, which can be far from z, and
    near a critical point the equation has a second root across the axis;
    Newton from z can stall between the two.  The start follows the
    real-axis correspondence instead, shifted by i Im z: over a bounded gap
    the gap image of Re z (_gap_image), over component j the same fraction
    of the arc from c_{2j-1} to c_{2j} around a_j, on the side of z.
    """
    x, y = z.real, z.imag
    b = E.endpoints
    i = bisect.bisect_right(b, x)
    if i == 0 or i == len(b) or abs(y) >= 0.5 * (b[i] - b[i - 1]):
        return z
    if i % 2 == 0:
        return complex(_gap_image(x, i // 2, E, dom, data), y)
    j = i // 2
    s = (x - b[i - 1]) / (b[i] - b[i - 1])
    a, c_lo, c_hi = dom.centers[j], dom.boundary_c[2 * j], dom.boundary_c[2 * j + 1]
    r = (1.0 - s) * (a - c_lo) + s * (c_hi - a)
    return a + cmath.rect(r, math.copysign(math.pi * (1.0 - s), y)) + 1j * y


def map_point(z: complex, E: IntervalUnion, dom: LemniscaticDomain,
              data: GreenData, tol: float = 1e-12,
              cfg: QuadConfig | None = None) -> MapResult:
    """Image of z under the normalized conformal map.

    Endpoints return their boundary abscissae; interior points of E raise
    InsideE.  Real gap points are solved on the uniqueness bracket of their
    gap from the gap image of z (see _gap_image), everything else through
    the complex equation, kept in the half-plane of z, from the start of
    _complex_start.  Off-axis points closer to E than 1e-9 of its hull
    width b_{2l} - b_1 are evaluated but flagged near_boundary.  Raises
    NoConvergence when Newton stalls or a panel of the Green's integral
    does not converge (see green_complex).
    """
    cfg = cfg or DEFAULT_CONFIG
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        if x in E.endpoints:
            j = E.endpoints.index(x)
            c = dom.boundary_c[j]
            res = abs(_green_scalar(c, dom.centers, dom.exponents.m, dom.capacity))
            return MapResult(complex(c), res, 0, "boundary", j + 1)
        loc = locate(E, z)
        if loc.inside:
            raise InsideE(f"z = {z} lies inside component {loc.index}")
        k = loc.index
        target = _green_real(E, data.roots, x, cfg)
        if k == 0:
            lo = dom.centers[0] - _outer_reach(dom.capacity, max(target, 0.0))
            hi = dom.boundary_c[0]
        elif k == E.ell:
            lo = dom.boundary_c[-1]
            hi = dom.centers[-1] + _outer_reach(dom.capacity, max(target, 0.0))
        else:
            zk, wk = data.roots[k - 1], dom.crit_w[k - 1]
            if x == zk:
                res = abs(_green_scalar(wk, dom.centers, dom.exponents.m,
                                        dom.capacity) - target)
                return MapResult(complex(wk), res, 0, "real_gap", k)
            if x < zk:
                lo, hi = dom.boundary_c[2 * k - 1], wk
            else:
                lo, hi = wk, dom.boundary_c[2 * k]
        w0 = _gap_image(x, k, E, dom, data)
        w, F, it = damped_newton(
            _equation(dom, target, _real_log), w0 if lo < w0 < hi else 0.5 * (lo + hi),
            # bound by default values: cells for lo and hi would cost every
            # call of map_point, the endpoint branch included
            admissible=lambda w, lo=lo, hi=hi: lo < w < hi, tol=tol,
            max_steps=200, max_halvings=40)
        return MapResult(complex(w), abs(F), it, "real_gap", k)

    return _complex_image(z, green_complex(z, E, data, cfg), E, dom, data, tol)


def _complex_image(z, target, E, dom, data, tol):
    """Image of the off-axis z whose Green's integral is `target`, by damped
    Newton on the complex equation in the half-plane of z."""
    # the map keeps each half-plane
    same_side = (lambda w: w.imag > 0.0) if z.imag > 0.0 else (lambda w: w.imag < 0.0)
    w, F, it = damped_newton(
        _equation(dom, target, cmath.log), _complex_start(z, E, dom, data),
        admissible=same_side, tol=tol, max_steps=200, max_halvings=11)
    hull = E.endpoints[-1] - E.endpoints[0]
    return MapResult(w, abs(F), it, "complex",
                     near_boundary=_distance_to_E(E, z) < _NEAR_BOUNDARY * hull)


@dataclass(frozen=True)
class GridPoint:
    """One point of a batch.  A failed point carries its error as
    "<exception type>: <message>"."""

    z: complex
    status: str  # converged | skipped | failed
    result: MapResult | None = None
    error: str | None = None


def map_grid(zs, E: IntervalUnion, dom: LemniscaticDomain, data: GreenData,
             tol: float = 1e-12, cfg: QuadConfig | None = None) -> list[GridPoint]:
    """Map a batch of points, skipping interior points of E and recording
    failures per point; never aborts the batch, order preserved.

    The Green targets of the off-axis points come from one green_complex
    call per batch of _GRID_BATCH points, and each point then runs
    map_point's Newton on its own target.  Real-axis points, and off-axis
    points whose target did not converge, go through map_point, which
    raises the point's own error.  Every point gets what map_point gives it.
    """
    cfg = cfg or DEFAULT_CONFIG
    points = iter(zs)
    out = []
    while batch := [complex(z) for z in itertools.islice(points, _GRID_BATCH)]:
        try:
            targets = green_complex([z for z in batch if z.imag != 0.0], E, data, cfg)
        except NoConvergence as exc:
            targets = exc.best  # NaN where a point's path did not converge
        targets = iter(targets.tolist())
        for z in batch:
            target = next(targets) if z.imag != 0.0 else None
            try:
                if target is None or cmath.isnan(target):
                    res = map_point(z, E, dom, data, tol, cfg)
                else:
                    res = _complex_image(z, target, E, dom, data, tol)
                out.append(GridPoint(z, "converged", res))
            except InsideE:
                out.append(GridPoint(z, "skipped"))
            except WalshMapError as exc:
                out.append(GridPoint(z, "failed", error=f"{type(exc).__name__}: {exc}"))
    return out


def branch_offset(E: IntervalUnion, data: GreenData, k: int, z: complex,
                  edge: str = "left", cfg: QuadConfig | None = None) -> complex:
    """Difference between the Green's integral based at an endpoint of gap k
    and the one based at the rightmost endpoint (test oracle).

    For off-axis z the value is -i pi (m_{k+1} + ... + m_ell) in the upper
    half-plane and its conjugate below; for the rightmost base it vanishes.
    """
    cfg = cfg or DEFAULT_CONFIG
    b = E.endpoints
    if not 0 <= k <= E.ell:
        raise ValueError(f"gap index {k} out of range")
    if edge == "left":
        base = b[0] if k == 0 else b[2 * k - 1]
    elif edge == "right":
        if k == E.ell:
            raise ValueError("the rightmost gap has no finite right edge")
        base = b[2 * k]
    else:
        raise ValueError("edge must be 'left' or 'right'")
    seg = _green_integral(E, data.roots, base, complex(z), cfg)
    return seg - green_complex(z, E, data, cfg)


@dataclass(frozen=True)
class BoundaryTrace:
    center: float
    points: np.ndarray | None  # closed polyline; None if unsampled
    sampled: bool


def _trace_component(dom, j, n_rays):
    """Closed polyline of n_rays points on the boundary of the lobe of L
    around center j, one per ray, at the first level crossing of each ray.

    Both bracket ends come from geometry.  Inner end: the smaller on-axis
    radius min(a_j - c_{2j-1}, c_{2j} - a_j), halved until
    m_j log r + sum_{i != j} m_i log(|a_i - a_j| + r) < log cap, so the whole
    disk lies in L.  Outer end: where the ray meets the vertical line through
    a neighboring critical point w_k (along which g only grows from
    g(w_k) > 0), the line 2 cap beyond an outermost center (see _outer_reach)
    or the band |Im w| = 2 cap (beyond which g >= log 2).  L between these
    bounds is this lobe alone, so every sign change before the outer end is
    the lobe's own.  Each ray marches by a factor of 1.1 from the inner end
    until g > 0, never past its outer end, and the bracket is bisected by
    _bisect.  Raises RayBracketFailure for an inner disk below the float
    spacing at the center, a ray that reaches its outer end inside L, or a
    ray that re-enters L just beyond its crossing (tangency or a wiggle).
    """
    a = np.asarray(dom.centers)
    m = np.asarray(dom.exponents.m)
    cap = dom.capacity
    c = dom.boundary_c
    center = a[j]
    r_in = min(center - c[2 * j], c[2 * j + 1] - center)
    # sum_i m_i log(|a_i - a_j| + r) bounds g + log cap on the disk of radius r
    while np.log(np.abs(a - center) + r_in) @ m >= math.log(cap):
        r_in *= 0.5
        if r_in < np.spacing(abs(center)):
            raise RayBracketFailure(f"no disk inside L around center {center}")
    reach = _outer_reach(cap, 0.0)
    left = dom.crit_w[j - 1] if j > 0 else a[0] - reach
    right = dom.crit_w[j] if j < len(a) - 1 else a[-1] + reach
    ray = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n_rays, endpoint=False))
    with np.errstate(divide="ignore"):
        r_out = np.minimum(
            np.where(ray.real > 0, right - center, center - left) / np.abs(ray.real),
            2.0 * cap / np.abs(ray.imag))

    def level(r, rays=slice(None)):
        return _green_values(center + r * ray[rays], a, m, cap)

    neg = np.full(n_rays, r_in)
    pos = np.minimum(1.1 * neg, r_out)
    marching = np.flatnonzero(level(pos) <= 0)
    while marching.size:
        if np.any(pos[marching] == r_out[marching]):
            raise RayBracketFailure(
                f"rays from center {center} reach their outer end inside L")
        neg[marching] = pos[marching]
        pos[marching] = np.minimum(1.1 * pos[marching], r_out[marching])
        marching = marching[level(pos[marching], marching) <= 0]
    r = _bisect(level, pos, neg)
    # immediately outside the crossing the ray must stay outside L
    for factor in (1.005, 1.02, 1.05):
        if np.any(level(np.minimum(r * factor, r_out)) <= 0):
            raise RayBracketFailure(
                f"rays from center {center} re-enter the level set")
    pts = center + r * ray
    return np.append(pts, pts[:1])


def trace_boundary(dom: LemniscaticDomain, points_per_component: int = 64) -> list[BoundaryTrace]:
    """Trace each boundary component of L by radial bisection of the Green's
    level set along rays from its center, bracketed between a disk inside
    the lobe and the critical lines and band that enclose it (see
    _trace_component).

    A ray may re-enter L beyond its outer end, but that part of L belongs to
    a neighboring lobe.  A component whose rays cannot be bracketed, or
    re-enter L right after their crossing (star-shaped sampling assumption
    violated), is reported unsampled rather than wrong.
    """
    out = []
    for j, center in enumerate(dom.centers):
        try:
            pts = _trace_component(dom, j, points_per_component)
            out.append(BoundaryTrace(center, pts, True))
        except RayBracketFailure:
            out.append(BoundaryTrace(center, None, False))
    return out
