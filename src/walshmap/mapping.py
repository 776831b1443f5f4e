"""Evaluation of the normalized conformal map onto the lemniscatic complement.

The image w of a point z solves a Green's-function equation: off the real
axis (and right of the last endpoint) the complex equation

    sum m_j Log(w - a_j) - log(cap) = integral of N/S from b_{2l} to z

with principal logarithms, solved by damped Newton from w = z; inside a real
gap the real equation g(w) = g_E(z) restricted to the uniqueness interval of
the gap, solved by bracketed (safeguarded) Newton.  Endpoints map to the
boundary abscissae directly.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InsideE, NoConvergence, RayBracketFailure, WalshMapError
from .green import (GreenData, _green_integral, _green_real, green_complex)
from .intervals import IntervalUnion, locate
from .lemniscatic import LemniscaticDomain, _green_scalar, _outer_reach
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

_DAMPING = [2.0 ** (-k) for k in range(11)]
_NEAR_BOUNDARY = 1e-9


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


def _f1(w: complex, a, m, logcap: float) -> complex:
    total = -logcap + 0j
    for aj, mj in zip(a, m):
        total += mj * cmath.log(w - aj)
    return total


def _solve_complex(z, target, dom, tol, max_iter=200):
    a, m = dom.centers, dom.exponents.m
    logcap = math.log(dom.capacity)
    w = complex(z)
    F = _f1(w, a, m, logcap) - target
    res = abs(F)
    for it in range(max_iter):
        if res < tol:
            return w, res, it
        deriv = sum(mj / (w - aj) for aj, mj in zip(a, m))
        step = F / deriv
        trial, Ft = w, F
        for d in _DAMPING:
            cand = w - d * step
            if any(cand == aj for aj in a):
                continue
            Fc = _f1(cand, a, m, logcap) - target
            trial, Ft = cand, Fc
            if abs(Fc) < res:
                break
        w, F, res = trial, Ft, abs(Ft)
    if res < tol:
        return w, res, max_iter
    raise NoConvergence(f"complex map equation stalled at residual {res:.3e}",
                        best=w, estimate=res)


def _solve_real_bracketed(target, lo, hi, increasing, w0, dom, tol, max_iter=200):
    """Safeguarded Newton for g(w) = target on a bracket where g is monotone.

    Newton steps leaving the bracket are replaced by bisection midpoints.
    """
    a, m = dom.centers, dom.exponents.m
    cap = dom.capacity

    def g(w):
        return _green_scalar(w, a, m, cap)

    w = w0 if lo < w0 < hi else 0.5 * (lo + hi)
    res = abs(g(w) - target)
    for it in range(max_iter):
        if res < tol:
            return w, res, it
        diff = g(w) - target
        # maintain the bracket
        if (diff > 0) == increasing:
            hi = min(hi, w)
        else:
            lo = max(lo, w)
        deriv = sum(mj / (w - aj) for aj, mj in zip(a, m))
        trial = w - diff / deriv if deriv != 0.0 else lo
        if not lo < trial < hi:
            trial = 0.5 * (lo + hi)
        w = trial
        res = abs(g(w) - target)
    if res < tol:
        return w, res, max_iter
    raise NoConvergence(f"real map equation stalled at residual {res:.3e}",
                        best=w, estimate=res)


def map_point(z: complex, E: IntervalUnion, dom: LemniscaticDomain,
              data: GreenData, tol: float = 1e-12,
              cfg: QuadConfig | None = None) -> MapResult:
    """Image of z under the normalized conformal map.

    Endpoints return their boundary abscissae; interior points of E raise
    InsideE.  Real gap points are solved on the uniqueness bracket of their
    gap, everything else through the complex equation with initial point z.
    Off-axis points within 1e-9 of E are evaluated but flagged near_boundary.
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
            w, res, it = _solve_real_bracketed(
                target, lo, dom.boundary_c[0], False, x, dom, tol)
        elif k == E.ell:
            hi = dom.centers[-1] + _outer_reach(dom.capacity, max(target, 0.0))
            w, res, it = _solve_real_bracketed(
                target, dom.boundary_c[-1], hi, True, x, dom, tol)
        else:
            zk = data.roots[k - 1]
            wk = dom.crit_w[k - 1]
            b = E.endpoints
            if x == zk:
                res = abs(_green_scalar(wk, dom.centers, dom.exponents.m,
                                        dom.capacity) - target)
                return MapResult(complex(wk), res, 0, "real_gap", k)
            if x < zk:
                c_lo = dom.boundary_c[2 * k - 1]
                w0 = c_lo + (x - b[2 * k - 1]) / (zk - b[2 * k - 1]) * (wk - c_lo)
                w, res, it = _solve_real_bracketed(target, c_lo, wk, True, w0,
                                                   dom, tol)
            else:
                c_hi = dom.boundary_c[2 * k]
                w0 = wk + (x - zk) / (b[2 * k] - zk) * (c_hi - wk)
                w, res, it = _solve_real_bracketed(target, wk, c_hi, False, w0,
                                                   dom, tol)
        return MapResult(complex(w), res, it, "real_gap", k)

    target = green_complex(z, E, data, cfg)
    w, res, it = _solve_complex(z, target, dom, tol)
    return MapResult(w, res, it, "complex",
                     near_boundary=_distance_to_E(E, z) < _NEAR_BOUNDARY)


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
    failures per point; never aborts the batch, order preserved."""
    out = []
    for z in zs:
        z = complex(z)
        try:
            out.append(GridPoint(z, "converged", map_point(z, E, dom, data, tol, cfg)))
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
    a = np.asarray(dom.centers)
    m = np.asarray(dom.exponents.m)
    logcap = math.log(dom.capacity)
    center = a[j]
    span = (a[-1] - a[0]) + 4.0 * dom.capacity + 1.0

    def gvals(r, theta):
        w = center + r * np.exp(1j * theta)
        return np.log(np.abs(w[:, None] - a[None, :])) @ m - logcap

    theta = np.linspace(0.0, 2.0 * np.pi, n_rays, endpoint=False)
    r0 = span * 1e-9
    while np.any(gvals(np.full(n_rays, r0), theta) >= 0):
        r0 *= 1e-2
        if r0 < 1e-290:
            raise RayBracketFailure("no inner radius with negative level found")
    # outward march to the first level crossing on every ray
    n_steps = int(np.ceil(np.log(span / r0) / np.log(1.1))) + 1
    radii = r0 * 1.1 ** np.arange(n_steps)
    signs = np.empty((n_steps, n_rays), dtype=bool)
    for i, r in enumerate(radii):
        signs[i] = gvals(np.full(n_rays, r), theta) > 0
    if not np.all(np.any(signs, axis=0)):
        raise RayBracketFailure(f"some rays from center {center} never escape")
    first = np.argmax(signs, axis=0)  # first radius with g > 0
    hi = radii[first]
    lo = radii[first - 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pos = gvals(mid, theta) > 0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
    r = 0.5 * (lo + hi)
    # star-shapedness probe: immediately outside the crossing the ray must
    # stay outside its own lobe (tangency or a wiggle re-enters at once;
    # deeper re-entries belong to neighboring components and are fine)
    for factor in (1.005, 1.02, 1.05):
        if np.any(gvals(r * factor, theta) <= 0):
            raise RayBracketFailure(
                f"rays from center {center} re-enter the level set")
    pts = center + r * np.exp(1j * theta)
    return np.append(pts, pts[:1])


def trace_boundary(dom: LemniscaticDomain, points_per_component: int = 64) -> list[BoundaryTrace]:
    """Trace each boundary component of L by radial bisection of the Green's
    level set along rays from its center.

    A component whose rays cross the level set more than once (star-shaped
    sampling assumption violated) is reported unsampled rather than wrong.
    """
    out = []
    for j, center in enumerate(dom.centers):
        try:
            pts = _trace_component(dom, j, points_per_component)
            out.append(BoundaryTrace(center, pts, True))
        except RayBracketFailure:
            out.append(BoundaryTrace(center, None, False))
    return out
