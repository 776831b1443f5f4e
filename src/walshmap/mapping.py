"""Evaluation of the normalized conformal map onto the lemniscatic complement.

A point of C \\ E takes one of three regions, the same in map_point and
map_grid.

* Outer series.  Outside the ellipse |v| = 1.5 around the hull, in the
  Joukowski variable v of the frame (t, s) of E, Phi is its series
  (s/2) v + t + sum d_k v^-k, whose coefficients follow in closed form from
  the Chebyshev moments of GreenData, the centers and the masses (_Series).
  They are built once per domain on first use, with a certificate: the map
  equation's largest residual on the ellipse, which bounds it outside.
* Component series.  Inside the ellipse, near component E_j, in its own
  Joukowski variable v_j, Phi is a Laurent series sum c_k v_j^k, fitted on
  first use from the rim |v_j| = 1 and a circle |v_j| = rho_j = 0.8 R_j,
  R_j the |v_j| of the nearest other endpoint (_fit), against Green's
  values from one FFT of N/S on that circle, with no quadrature
  (_green_circles), and certified by its largest residual on both circles,
  which bounds it on the annulus between them.  A point inside the ellipse takes the certified series of the
  component beside Re z whose annulus holds it with the least |v_j| / rho_j.
* Newton.  Every other point, and every point of a domain or component
  whose certificate exceeds the Newton's stop _TOL.

A series point takes no Green target and no Newton; it reports the
certificate as its residual and 0 iterations.

A Newton point solves a Green's-function equation: off the real axis
(and right of the last endpoint) the complex equation

    sum m_j Log(w - a_j) - log(cap) = integral of N/S from b_{2l} to z

with principal logarithms, solved by damped Newton in the half-plane of z
(the map preserves each half-plane).  The right side is green_complex:
outside the ellipse (on a domain whose series is not certified) the
Chebyshev series of G; inside it the integral from the endpoint nearest
Re z plus the exact branch offset to b_{2l}, so no path runs along the set.
Inside a real gap the real equation g(w) = g_E(z) on the uniqueness
interval of the gap, kept inside that interval.  Both run one masked
damped Newton on one equation (_batch_equation), real at real points.
Both start from the real-axis correspondence of the gap (and, for off-axis
points near E, of the component) under Re z; see _complex_start.  Endpoints
map to the boundary abscissae directly.

map_point locates a real point by one bisection of the endpoints, which
names its endpoint, the component it lies in or its gap; an endpoint's
record is built on its first call and kept per domain, as the series are.
It sums a series by a scalar Horner and builds its record by tuple.__new__
with the constructor's fields.  map_grid tests each slice of its points in
one array pass (finite, off the axis, outside the ellipse), sums the outer
series of all its outer points at once with no Python per point but its
two result tuples, built by tuple.__new__ rather than their constructors
(a one-point numpy batch costs several times more); a slice of outer
points alone is done then.  A mixed slice is sorted into these regions
and takes a component's series by map_point's Horner.  Both solve the complex equation
by one masked Newton (_complex_images), on a slice's Newton points at once
or on map_point's one point, so a Newton point's record is the same in
any batch.  Both return immutable named tuples, MapResult and GridPoint.
"""

import bisect
import cmath
import itertools
import math
from array import array
from typing import NamedTuple

import numpy as np

from .errors import InsideE, NoConvergence, NotComplex, NotFinite, WalshMapError
from .green import (_CHEBYSHEV_TERMS, _ELLIPSE, GreenData, _far_series, _green_integral,
                    _green_real, _outside_ellipse, _require_finite, _series_green,
                    green_complex)
from .intervals import IntervalUnion
from .lemniscatic import LemniscaticDomain, _outer_reach, green as green_level
from .newton import damped_newton_masked
from .quadrature import DEFAULT_CONFIG, QuadConfig

__all__ = [
    "MapResult",
    "GridPoint",
    "map_point",
    "map_grid",
    "branch_offset",
]

_NEAR_BOUNDARY = 1e-9

# points per green_complex call of map_grid: bounds the paths and panel
# arrays a batch holds at once
_GRID_BATCH = 1024

# the map's Newton stop: its equations compare Green's values, free of scale
_TOL = 1e-12


class MapResult(NamedTuple):
    """One map evaluation: image point, equation residual, Newton iteration
    count, and which equation branch produced it ("complex", "real_gap" with
    the gap index, or "boundary" with the 1-based endpoint index).

    A point mapped by a series, outside the ellipse or a component's inside
    it, reports that series' certificate as residual (a bound on the map
    equation's residual there), 0 iterations, and "complex", or "real_gap"
    with its gap index."""

    w: complex
    residual: float
    iterations: int
    branch: str
    index: int | None = None
    near_boundary: bool = False


# builds a MapResult or GridPoint from all its fields, as its constructor
# does, without the constructor's argument handling: a row's 60 pairs of
# records cost 18 us this way, by map over zip (_outer_points), 20 us in a
# Python loop and 36 us through the constructors (timeit, shared 2-core
# Xeon, Python 3.11); map_point builds its one record the same way
_new = tuple.__new__


def _distance_to_E(E: IntervalUnion, z: complex) -> float:
    """Distance from z to E: |Im z| over a component, else the nearer of the
    two components beside the gap under Re z, found by bisection."""
    b = E.endpoints
    x, y = z.real, z.imag
    i = bisect.bisect_right(b, x)  # b[i - 1] <= x < b[i]
    if i % 2:
        return math.hypot(0.0, y)
    left = math.hypot(x - b[i - 1], y) if i else math.inf
    right = math.hypot(b[i] - x, y) if i < len(b) else math.inf
    return min(left, right)


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
    of the arc from c_{2j-1} to c_{2j} around a_j, on the side of z.  A
    point x + 0j of E gets the arc's point on the upper side: a start for
    the image of the rim x + i0.
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
              data: GreenData, cfg: QuadConfig | None = None) -> MapResult:
    """Image of z under the normalized conformal map.

    A real z is located by one bisection of E's endpoints.  Endpoints
    return their boundary abscissae, with |g_L(c_j)| as residual, from a
    record built on the endpoint's first call and kept on dom; a critical
    point z_k returns w_k, with |g_L(w_k) - g_E(z_k)| for the stored
    g_E(z_k) as residual; interior points of E raise InsideE.  A point on
    or outside the ellipse |v| = 1.5 around the hull, off the axis or on an
    unbounded gap, takes Phi's outer series when its domain's certificate
    is within _TOL; a point inside it takes a component's series, when one
    holds it in its annulus and is certified (_component_series).  Either
    is a Horner on the fewest of its kept terms whose tail meets 6.2e-16 s,
    reported with the certificate as residual and 0 iterations (see
    MapResult).  The Newton takes every other point, by map_grid's masked
    Newton on z alone: real gap points through the real equation on the
    uniqueness bracket of their gap from the gap image of z (see
    _gap_image), everything else through the complex equation
    (_complex_images), so its record is map_grid's exactly; its right side
    is green_complex's Chebyshev series outside the ellipse, or inside it
    the integral from the endpoint nearest Re z plus the branch offset.
    Off-axis points closer to E than 1e-9 of its hull width b_{2l} - b_1
    are evaluated but flagged near_boundary.  Every record is built by
    tuple.__new__ from the values and types its constructor would take.
    Raises NotComplex for a z that complex() refuses, NotFinite for an
    infinite or NaN coordinate or an int beyond the float range,
    NoConvergence when Newton stalls or a panel of the Green's integral
    does not converge (see green_complex), and BracketFailure when the
    Newton's bracket on an unbounded gap leaves the float range (only on a
    domain whose series is not certified).
    """
    cfg = cfg or DEFAULT_CONFIG
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise NotComplex(f"z = {z!r} is not a complex number") from None
    except OverflowError:  # an int beyond the float range
        raise NotFinite(f"z = {z!r} is beyond the float range") from None
    _require_finite(z)
    if z.imag == 0.0:
        x = z.real
        b = E.endpoints
        i = bisect.bisect_right(b, x)  # b[i - 1] <= x < b[i]: x is in E if i is odd
        if i and x == b[i - 1]:
            return _endpoint(dom, data, i - 1)
        if i % 2:
            raise InsideE(f"z = {z} lies inside component {(i + 1) // 2}")
        k = i // 2
        if 0 < k < E.ell and x == data.roots[k - 1]:
            # a critical point z_k keeps its image w_k
            wk = dom.crit_w[k - 1]
            res = abs(green_level(wk, dom) - data.green_at_roots[k - 1])
            return _new(MapResult, (complex(wk), res, 0, "real_gap", k, False))
        # a point on or outside the ellipse lies beyond the hull: k is 0 or ell
        outside = _outside_ellipse(x, b, data._targets.reach)
        if outside and (series := _certified(dom, data)):
            return _new(MapResult, (complex(_series_point(series, x, math.sqrt)), series.bound,
                                    0, "real_gap", k, False))
        if not outside and (local := _annulus_series(x, E, dom, data, i)):
            series, v = local
            return _new(MapResult, (complex(_local_point(series, v)), series.bound, 0,
                                    "real_gap", k, False))
        target = _green_real(E, data, x, cfg)
        if k == 0:
            lo = dom.centers[0] - _outer_reach(dom.capacity, max(target, 0.0))
            hi = dom.boundary_c[0]
        elif k == E.ell:
            lo = dom.boundary_c[-1]
            hi = dom.centers[-1] + _outer_reach(dom.capacity, max(target, 0.0))
        else:
            zk, wk = data.roots[k - 1], dom.crit_w[k - 1]
            if x < zk:
                lo, hi = dom.boundary_c[2 * k - 1], wk
            else:
                lo, hi = wk, dom.boundary_c[2 * k]
        w0 = _gap_image(x, k, E, dom, data)
        w, F, it, failures = damped_newton_masked(
            _batch_equation(dom, np.array([target])), [w0 if lo < w0 < hi else 0.5 * (lo + hi)],
            # bound by default values: cells for lo and hi would cost every
            # call of map_point, the endpoint branch included
            admissible=lambda w, idx, lo=lo, hi=hi: (lo < w) & (w < hi), tol=_TOL,
            max_steps=200, max_halvings=40)
        if failures:
            raise failures[0]
        return _new(MapResult, (complex(w.item()), abs(F.item()), it.item(), "real_gap", k,
                                False))

    if _outside_ellipse(z, E.endpoints, data._targets.reach):
        if series := _certified(dom, data):
            return _new(MapResult, (_series_point(series, z, cmath.sqrt), series.bound, 0,
                                    "complex", None, False))
    elif local := _local_image(z, E, dom, data):
        return local
    res = _complex_images([z], np.array([green_complex(z, E, data, cfg)]), E, dom, data)[0]
    if isinstance(res, NoConvergence):
        raise res
    return res


def _point_cache(dom: LemniscaticDomain, data: GreenData):
    """(data, near, ends) for dom, kept on dom: near, the distance from E
    below which an off-axis point is flagged near_boundary, _NEAR_BOUNDARY
    of the hull's width; and per endpoint b_j its MapResult once mapped
    (_endpoint), else None."""
    cache = dom.__dict__.get("_points")
    if cache is None or cache[0] is not data:
        E = data.domain
        cache = (data, _NEAR_BOUNDARY * 2.0 * E.frame[1], [None] * len(E.endpoints))
        dom.__dict__["_points"] = cache  # frozen, but not its cache
    return cache


def _endpoint(dom: LemniscaticDomain, data: GreenData, j: int) -> MapResult:
    """The MapResult of the endpoint b_(j+1) (0-based j): its boundary
    abscissa c_j with residual |g_L(c_j)|, built on its first call and kept
    on dom; two threads may both build it, the same.  An endpoint whose
    residual raises keeps no record and raises on every call."""
    ends = _point_cache(dom, data)[2]
    if ends[j] is None:
        c = dom.boundary_c[j]
        res = abs(green_level(c, dom))
        ends[j] = _new(MapResult, (complex(c), res, 0, "boundary", j + 1, False))
    return ends[j]


def _complex_result(z, w, residual, iterations, E, near):
    """The "complex" MapResult of the off-axis z, flagged near_boundary when
    z lies closer to E than near (_point_cache)."""
    # the distance to E is at least |Im z|, so most points skip its loop
    return _new(MapResult, (w, residual, iterations, "complex", None,
                            abs(z.imag) < near and _distance_to_E(E, z) < near))


def _batch_equation(dom, targets):
    """damped_newton_masked's fun for the map equations of the array
    targets, complex with principal logarithms at complex points and real,
    sum m_j log|w - a_j| - log(cap) = target, at real ones: fun(w, idx)
    gives (F, delta) for the elements idx at w, each element's the same in a
    batch of any size."""
    a = np.array(dom.centers)[:, None]
    m = np.array(dom.exponents.m)[:, None]
    shift = math.log(dom.capacity) + targets

    def fun(w, idx):
        # one row per center, summed as running sums from -shift down the
        # rows: a sum over them adds a lone column pairwise, a wider batch
        # row by row.  Log from its real and imaginary parts, six times
        # faster than numpy's complex log
        d = w - a
        logs = np.log(np.abs(d))
        if d.dtype.kind == "c":
            logs = logs + 1j * np.arctan2(d.imag, d.real)
        terms = m * logs
        terms[0] -= shift[idx]
        F = np.add.accumulate(terms)[-1]
        deriv = np.add.accumulate(m / d)[-1]
        if deriv.all():  # off the axis Im(deriv) != 0 unless it underflows
            return F, -F / deriv
        delta = np.full_like(F, np.nan)
        return F, np.divide(-F, deriv, out=delta, where=deriv != 0.0)

    return fun


def _complex_images(zs, targets, E, dom, data):
    """Per point of the list zs, off the axis, with Green's integrals the
    array targets, a MapResult or its NoConvergence, by one masked damped
    Newton from _complex_start, each point kept in its half-plane (which
    the map keeps); a point's iterates are the same in any list."""
    side = np.sign(np.array([z.imag for z in zs]))
    starts = np.array([_complex_start(z, E, dom, data) for z in zs], dtype=complex)
    w, F, steps, failures = damped_newton_masked(
        _batch_equation(dom, targets), starts,
        admissible=lambda w, idx: w.imag * side[idx] > 0.0, tol=_TOL,
        max_steps=200, max_halvings=11)
    near = _point_cache(dom, data)[1]
    out = [_complex_result(z, wi, abs(Fi), it, E, near)
           for z, wi, Fi, it in zip(zs, w.tolist(), F.tolist(), steps.tolist())]
    for i, exc in failures.items():
        out[i] = exc
    return out


# --- Phi outside the ellipse: its series in the Joukowski variable ----------

# points of the circle |v| = _ELLIPSE at which _certificate evaluates the map
# equation
_CIRCLE = 256


# the truncation error, in units of the hull's half-width, that each of
# Phi's series sums meets
_TAIL = 6.2e-16


def _tail_radii(count) -> list[float]:
    """For n = 1 .. count, the largest float r in [0, 1) at which the tail
    bound 2 r^(n+1) / (1 - r) left by n terms of a series of Phi (see
    _Series) meets _TAIL, found by bisection; increasing, so the first entry
    at or above |r| names a point's term count."""
    radii = []
    for n in range(1, count + 1):
        lo, hi = 0.0, 1.0
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if 2.0 * mid ** (n + 1) / (1.0 - mid) <= _TAIL:
                lo = mid
            else:
                hi = mid
        radii.append(lo)
    return radii


_SERIES_RADII = _tail_radii(_CHEBYSHEV_TERMS - 1)


class _Series(NamedTuple):
    """Phi as a Laurent series in a Joukowski variable v of a frame (t, s),
    z - t = (s/2)(v + 1/v), |v| >= 1:

        Phi = lead + sum_k c_k v^k + sum_k c_-k v^-k.

    up holds c_1 .. c_K+ and down c_-1 .. c_-K-, each in Horner's order (the
    highest power first).  Each part is summed by _horner on the fewest
    terms whose tail bound meets _TAIL S, S the hull's half-width
    (_SERIES_RADII): every coefficient obeys |c_+-k| <= 2 S radius^-k, so
    the tail left by n terms at r = |v| / radius (up) or 1 / (radius |v|)
    (down) is at most 2 S r^(n+1) / (1 - r).  bound is the certificate: the
    largest map-equation residual of the series, as _horner sums it, where
    it is used.  data is the Green data it was built from.

    Outside the ellipse |v| = _ELLIPSE around the hull (_series): the frame
    is the hull's (s = S), up is empty, as the positive part is (s/2) v
    alone, formed in u = s/(z - t) (_series_point); lead = t, radius = 1,
    down holds the kept d_1 .. d_K' of _series_coefficients' K - 1 (the
    fewest whose dropped tail lies below rounding, see _series), coeffs the
    same in increasing order as an array for _series_map, and rho is
    infinite.
    Near component j (_local_series): the frame is the component's, and the
    series serves the annulus 1 <= |v| <= rho inside the ellipse through the
    nearest other endpoint (_fit); coeffs is None.
    """

    data: GreenData
    t: float
    s: float
    lead: float
    up: list
    down: list
    radius: float
    rho: float
    bound: float
    coeffs: np.ndarray | None


def _series(dom: LemniscaticDomain, data: GreenData) -> _Series:
    """dom's series outside the ellipse for data, built on first use and
    kept on dom.  Two threads may both build it: they build the same, and
    either one is kept.

    It keeps the fewest leading terms d_1 .. d_K' of _series_coefficients
    whose dropped tail, the sum of the largest values |d_k| _ELLIPSE^-k on
    the ellipse of the terms after them, is at most half the rounding unit
    of the hull's half-width s: on and outside the ellipse the terms dropped
    move Phi by less than its own rounding.  (A chop of each term below the
    rounding unit, as _kept does for the component series' noise, leaves a
    tail of up to 2.5 units here, and moved grid images by up to 6 ulp.)
    The certificate is the kept series' own residual.  K' is fixed per
    domain, so a point's image does not depend on the batch it is summed
    in."""
    series = dom.__dict__.get("_series")
    if series is None or series.data is not data:
        t, s = data.domain.frame
        d = _series_coefficients(dom, data)
        size = np.abs(d) * _ELLIPSE ** -np.arange(1.0, d.size + 1)
        # the dropped tail after each count of kept terms, never increasing
        tail = np.cumsum(size[::-1])[::-1]
        d = d[:np.count_nonzero(tail > 0.5 * _EPS * s)]
        series = _Series(data, t, s, t, [], d[::-1].tolist(), 1.0, math.inf,
                         _certificate(dom, data, t, s, d), d)
        dom.__dict__["_series"] = series  # frozen, but not its cache
    return series


def _series_coefficients(dom: LemniscaticDomain, data: GreenData) -> np.ndarray:
    """d_1 .. d_{K-1} of Phi's series, from the Chebyshev moments e_k of
    GreenData.chebyshev_moments, the centers and the masses alone.

    With r = 1/v and beta_j = 2 (t - a_j)/s, Phi - a_j = (s v / 2) f_j(r) with
    f_j = 1 + beta_j r + sum_k delta_k r^(k+1), delta_k = 2 d_k / s, and the
    map equation reads sum_j m_j log f_j(r) = -sum_k (e_k / k) r^k.  The
    coefficients G_jn = n g_jn of g_j = log f_j follow from the power-series
    log recurrence G_jn = n f_jn - sum_{k<n} G_jk f_j(n-k) (Brent & Kung
    1978), in which f_jn = delta_(n-1) for n >= 2 enters linearly; so order n
    of sum_j m_j G_jn = -e_n gives delta_(n-1), one order at a time.
    """
    t, s = data.domain.frame
    e = data.chebyshev_moments
    count = len(e) - 1
    a = np.asarray(dom.centers)
    m = np.asarray(dom.exponents.m)
    beta = 2.0 * (t - a) / s
    G = np.empty((a.size, count))  # column n - 1: G_jn
    G[:, 0] = beta
    delta = np.zeros(count)  # delta[k] = delta_k, delta[0] unused
    total = math.fsum(dom.exponents.m)
    for n in range(2, count + 1):
        # sum_{k<n} G_jk f_j(n-k): f_j1 = beta_j, f_ji = delta_(i-1) after it
        S = G[:, n - 2] * beta
        if n > 2:
            S += G[:, :n - 2] @ delta[n - 2:0:-1]
        delta[n - 1] = (m @ S - e[n]) / (n * total)
        G[:, n - 1] = n * delta[n - 1] - S
    return 0.5 * s * delta[1:]


def _series_map(z: np.ndarray, t: float, s: float, d: np.ndarray) -> np.ndarray:
    """Phi at every point of the complex array z, outside the ellipse, from
    every term of d (_far_series):
    Phi = t + (0.5 (z - t))(1 + q) + sum d_k r^k."""
    dz, q, tail = _far_series(z, t, s, d)
    return t + (0.5 * dz) * (1.0 + q) + tail


def _certificate(dom: LemniscaticDomain, data: GreenData, t: float, s: float,
                 d: np.ndarray) -> float:
    """Largest residual |sum m_j Log(Phi_s - a_j) - log cap - G(z)| of the
    series Phi_s at _CIRCLE points of |v| = _ELLIPSE off the real axis, with
    G from green_complex's Chebyshev series (_series_green) and the residual
    from _batch_equation.

    Phi_s - Phi is analytic on |v| > 1 and vanishes at infinity, and so is
    the residual: by the maximum principle its largest value on and outside
    the ellipse lies on it.
    """
    v = _ELLIPSE * np.exp(2j * np.pi * (np.arange(_CIRCLE) + 0.5) / _CIRCLE)
    z = t + 0.5 * s * (v + 1.0 / v)
    w = _series_map(z, t, s, d)
    F = _batch_equation(dom, _series_green(data, z))(w, np.arange(w.size))[0]
    return float(np.max(np.abs(F)))


def _certified(dom: LemniscaticDomain, data: GreenData) -> _Series | None:
    """dom's outer series if its certificate is within _TOL, else None."""
    series = _series(dom, data)
    return series if series.bound <= _TOL else None


def _outer_series(z, E: IntervalUnion, dom: LemniscaticDomain,
                  data: GreenData) -> _Series | None:
    """dom's series when z lies on or outside the ellipse and the series is
    certified within _TOL, else None: z takes the Newton."""
    if not _outside_ellipse(z, E.endpoints, data._targets.reach):
        return None
    return _certified(dom, data)


def _horner(terms, x, r):
    """sum d_k x^k, k = 1 .. n, by Horner in Python scalars over the last n
    entries of terms (d_K .. d_1), n the fewest whose tail bound at r meets
    _TAIL (see _Series), or all of them at an r beyond _SERIES_RADII."""
    n = bisect.bisect_left(_SERIES_RADII, r) + 1
    if n > len(_SERIES_RADII):
        n = len(terms)
    acc = 0.0
    for d in terms[max(len(terms) - n, 0):]:
        acc = (acc + d) * x
    return acc


def _series_point(series: _Series, z, sqrt):
    """Phi(z) from the outer series, with sqrt math.sqrt for a real z (a
    float) and cmath.sqrt otherwise."""
    dz = z - series.t
    u = series.s / dz
    q = sqrt(1.0 - u * u)
    r = u / (1.0 + q)
    return series.t + (0.5 * dz) * (1.0 + q) + _horner(series.down, r, abs(r))


# --- Phi near a component: its Laurent series in the component's variable ---

# the outer circle |v_j| = rho_j of component j's series, as a share of its
# reach R_j (a lone component, whose reach is infinite, takes the hull's
# ellipse); and the nodes on that circle, where the series' terms decay like
# (rho_j/R_j)^k = 0.8^k
_REACH = 0.8
_NODES = 256

# the rounding unit of a double
_EPS = 2.0 ** -52


def _joukowski(z, lo, hi, s):
    """v with z - t = (s/2)(v + 1/v) and |v| >= 1 in the frame (t, s) of the
    interval [lo, hi], for a float z off it, a complex z or a complex array.
    It is formed from the exact differences zeta - 1 = (z - hi)/s and
    zeta + 1 = (z - lo)/s, so a point near an endpoint keeps its accuracy."""
    dm, dp = (z - hi) / s, (z - lo) / s
    zeta = 0.5 * (dm + dp)
    if isinstance(z, float):
        return zeta + math.copysign(math.sqrt(dm * dp), zeta)
    sqrt = np.sqrt if isinstance(z, np.ndarray) else cmath.sqrt
    return zeta + sqrt(dm) * sqrt(dp)


def _local_cache(dom: LemniscaticDomain, data: GreenData):
    """(data, frames, built) for dom's components, kept on dom: per component
    j its frame (lo, hi, s, R_j, rho_j), R_j = |v_j| at the nearest other
    endpoint, and its series once built (_local_series), else None."""
    local = dom.__dict__.get("_local")
    if local is None or local[0] is not data:
        b = data.domain.endpoints
        frames = []
        for j, (lo, hi) in enumerate(data.domain.components):
            s = 0.5 * (hi - lo)
            others = b[2 * j - 1:2 * j] + b[2 * j + 2:2 * j + 3]
            R = min((abs(_joukowski(o, lo, hi, s)) for o in others), default=math.inf)
            frames.append((lo, hi, s, R, _REACH * R if others else _ELLIPSE))
        local = (data, frames, [None] * len(frames))
        dom.__dict__["_local"] = local  # frozen, but not its cache
    return local


def _local_series(dom: LemniscaticDomain, data: GreenData, j: int) -> _Series:
    """Component j's series, built on first use and kept on dom; two threads
    may both build it, the same."""
    _, frames, built = _local_cache(dom, data)
    if built[j] is None:
        built[j] = _fit(dom, data, j, *frames[j])
    return built[j]


def _fit(dom, data, j, lo, hi, s, R, rho) -> _Series:
    """Component j's series Phi = sum c_k v^k, k = -K .. K, in its own
    Joukowski variable v (frame (lo + s, s)).

    Phi o z_j is analytic on the annulus 1/R < |v| < R, and its Laurent
    coefficients are real, as Phi(conj z) = conj Phi(z).  The nodes of a
    circle give them by the FFT; the upper half's images and their
    conjugates make the circle.  The negative powers come from the rim
    |v| = 1 (_rim_nodes(R) nodes), the positive ones from |v| = rho (_NODES
    nodes), so that a sample's error enters c_k divided by rho^k.  Every
    node's image solves the map equation in one masked Newton (_sample)
    against G from _green_circles, which takes no quadrature.  Each side
    keeps its terms up to the last whose largest value on the annulus
    exceeds the rounding unit of the hull's half-width S (_kept), and
    radius (see _Series) is the largest at or below R at which every kept
    |c_+-k| radius^k <= 2 S.

    The certificate is the largest map-equation residual between the nodes
    of both circles (_local_certificate).  A component whose rho is at most
    1, whose N/Q is not resolved on its outer circle, or one of whose
    samples fails, gets an infinite certificate.
    """
    E = data.domain
    t = lo + s
    uncertified = _Series(data, t, s, t, array("d"), array("d"), 1.0, rho, math.inf, None)
    if not rho > 1.0:
        return uncertified
    m, n = _rim_nodes(R), _NODES
    targets = _green_circles(E, data, j, s, rho, m, n)
    if targets is None:
        return uncertified
    # the upper halves of both circles at 2m and 2n points: the nodes at
    # odd i, the certificate's points between them at even i
    x = _rim_points(lo, hi, s, np.pi * np.arange(1, m, 2) / m)
    v = rho * np.exp(1j * np.pi * np.arange(1, n, 2) / n)
    z = t + (0.5 * s) * (v + 1.0 / v)
    starts = np.array([_complex_start(complex(p), E, dom, data)
                       for p in [*x.tolist(), *z.tolist()]])
    images = _sample(dom, np.concatenate((targets[0][1::2], targets[1][1::2])), starts,
                     m // 2)
    if images is None:
        return uncertified
    rim, outer = images[:m // 2], images[m // 2:]
    c = _fourier(rim, m)
    k = np.arange(1, m // 2)
    c0, down = c[0].item(), c[m - k]
    hull = E.frame[1]
    # F_k = c_k rho^k, each kept term's largest value on the annulus; rho^k
    # overflows for a wide circle, so c_k = F_k rho^-k is formed with the
    # power of two of rho apart, and its radius bound from F_k
    F = _fourier(outer, n)[1:n // 2]
    F = F[:_kept(np.abs(F), hull)]
    k = np.arange(1, F.size + 1)
    frac, twos = math.frexp(rho)
    up = np.ldexp(F / frac ** k, -twos * k)
    down = down[:_kept(np.abs(down), hull)]
    radius = min([R] + [rho * (2.0 * hull / abs(f)) ** (1.0 / i)
                        for i, f in enumerate(F.tolist(), 1) if f]
                 + [(2.0 * hull / abs(ck)) ** (1.0 / i)
                    for i, ck in enumerate(down.tolist(), 1) if ck])
    series = _Series(data, t, s, c0, array("d", up[::-1]), array("d", down[::-1]), radius, rho,
                     0.0, None)
    return series._replace(bound=_local_certificate(dom, series, targets))


def _rim_nodes(R):
    """Nodes m on the rim of a component of reach R: the fewest, even and at
    least 16, with R^(m/2) >= 2^53, which keeps the aliasing of c_(m/2), of
    size R^(-m/2), onto the rim's coefficients below rounding."""
    return max(16, 2 * math.ceil(53.0 * math.log(2.0) / math.log(R)))


def _green_circles(E, data, j, s, rho, m, n):
    """G on the rim of component j, G(x + i0) at v = exp(pi i k / m), and at
    v = rho exp(pi i k / n) in its Joukowski variable, for k = 0 .. m and
    k = 0 .. n; None if the spectrum below does not decay to rounding.

    As sqrt((z - lo)(z - hi)) = (s/2)(v - 1/v) and dz = (s/2)(1 - v^-2) dv,
    the Green's integral is G = G(hi) + integral of h(u) du / u from 1 to v,
    where h = N / Q, Q = S / sqrt((z - lo)(z - hi)) the root over the other
    endpoints (real positive times (-1)^(ell-j-1) on the axis beside E_j,
    and analytic for |v| < R), and G(hi) = i pi mu_E([hi, b_2l]), the branch
    jump of the gap right of E_j.  So h = sum h_k v^k with h_-k = h_k real.
    One FFT of h at 2n points of |v| = rho gives b_k = h_k rho^k, which decay
    like (rho/R)^k, and then, with h_k = b_k rho^-k (which does not amplify
    the rounding of b_k):

        G(rho) = G(hi) + b_0 log rho + sum_(k>0) b_k (1 - rho^-2k) / k,
        G(rho e^it) = G(rho) + i b_0 t + sum_(k!=0) (b_k / k)(e^(ikt) - 1),
        G(e^it) = G(hi) + i (h_0 t + 2 sum_(k>0) h_k sin(kt) / k).

    Each root z_k of N is paired with the two endpoints p, q of the
    component on its far side from E_j, and each distance has its own
    root, so no factor or partial product can overflow or underflow.  The
    circle lies right of every p, q on the left of E_j and left of every
    one on its right, so sqrt(z - p), or sqrt(p - z) on the right, is
    analytic on it.  That is why h keeps its own product, not
    green._paired_ratio's: each root must be analytic on the circle, and
    the principal sqrt(z - p) of an endpoint right of E_j is cut along the
    axis left of p, through the circle."""
    b = E.endpoints
    theta = np.pi * np.arange(n + 1) / n
    v = rho * np.exp(1j * theta)
    z = (b[2 * j] + s) + (0.5 * s) * (v + 1.0 / v)
    roots = np.array(data.roots)[:, None]
    left = np.arange(1, E.ell)[:, None] <= j
    # root k (1-based) over component k - 1 on the left of E_j, component k
    # on its right
    i = 2 * np.arange(1, E.ell)[:, None] - 2 * left
    p, q = np.array(b)[i], np.array(b)[i + 1]
    side = np.where(left, 1.0, -1.0)
    h = np.prod((z - roots) / (np.sqrt(side * (z - p)) * np.sqrt(side * (z - q))), axis=0)
    h *= (-1.0) ** (E.ell - j - 1)
    coeffs = np.fft.fft(np.concatenate((h, np.conj(h[n - 1:0:-1])))).real / (2 * n)
    # b_k decays like 0.8^k, so the modes around n are the rounding of the
    # ell factors of h, some 1e-16 .. 1e-15 of the largest, unless h is not
    # resolved
    if np.max(np.abs(coeffs[3 * n // 4:5 * n // 4 + 1])) > 1e3 * _EPS * np.max(np.abs(coeffs)):
        return None
    k = np.fft.fftfreq(2 * n, 1.0 / (2 * n))
    k[0] = 1.0
    outer = coeffs / k
    outer[0] = 0.0
    pos = np.arange(1, n)
    jump = 1j * data._targets.jumps[j + 1]
    at_rho = jump + coeffs[0] * math.log(rho) + np.sum(coeffs[pos] * (1.0 - rho ** (-2.0 * pos))
                                                        / pos)
    # sum_k a_k e^(ikt) at t = pi i / n is 2n times the inverse FFT
    outer_G = (at_rho + 1j * coeffs[0] * theta + (2 * n) * np.fft.ifft(outer)[:n + 1]
               - np.sum(outer))
    # h_k for k >= m is below R^-m, which is below rounding
    pos = pos[:m - 1]
    rim = np.zeros(2 * m)
    rim[pos] = coeffs[pos] * rho ** -pos / pos
    rim_G = jump + 1j * (coeffs[0] * np.pi * np.arange(m + 1) / m
                         + 2.0 * ((2 * m) * np.fft.ifft(rim)[:m + 1]).imag)
    return rim_G, outer_G


def _rim_points(lo, hi, s, theta):
    """x = t + s cos(theta) on [lo, hi], from the nearer endpoint."""
    half = 0.5 * theta
    return np.where(theta < 0.5 * np.pi, hi - 2.0 * s * np.sin(half) ** 2,
                    lo + 2.0 * s * np.cos(half) ** 2)


def _sample(dom, targets, starts, rim):
    """Images in the upper half-plane of the map equation's targets, by the
    masked damped Newton from starts and one more full step, which squares
    the residual that the stop at _TOL leaves; None if a point fails.

    The points are the nodes of two circles' upper halves, each in the order
    of its angles, the first rim of them on the first circle.  A node whose
    Newton fails (from _complex_start, which can lie too far from its image)
    restarts from the image of the nearest converged node on its own circle,
    in one more masked Newton over the failed nodes alone; it fails only if
    that fails too."""
    fun = _batch_equation(dom, targets)
    upper = dict(admissible=lambda w, idx: w.imag > 0.0, tol=_TOL, max_steps=200,
                 max_halvings=11)
    w, F, _, failures = damped_newton_masked(fun, starts, **upper)
    if failures:
        failed = np.array(sorted(failures))
        circle = np.arange(w.size) >= rim
        converged = np.ones(w.size, dtype=bool)
        converged[failed] = False
        restarts = []
        for i in failed.tolist():
            near = np.flatnonzero(converged & (circle == circle[i]))
            if not near.size:
                return None
            restarts.append(w[near[np.argmin(np.abs(near - i))]])
        w[failed], F[failed], _, failures = damped_newton_masked(
            _batch_equation(dom, targets[failed]), np.array(restarts), **upper)
        if failures:
            return None
    every = np.arange(w.size)
    polished = w + fun(w, every)[1]
    better = (np.abs(fun(polished, every)[0]) < np.abs(F)) & (polished.imag > 0.0)
    return np.where(better, polished, w)


def _fourier(upper, n):
    """Laurent coefficients c_0 .. c_(n-1) (index n - k for c_-k), real, of
    the values at v = exp(2 pi i (k + 1/2) / n), k < n/2, given as upper,
    and their conjugates on the lower half of the circle."""
    full = np.concatenate((upper, np.conj(upper[::-1])))
    k = np.arange(n)
    k[n // 2:] -= n
    return (np.fft.fft(full) * np.exp(-1j * np.pi * k / n)).real / n


def _kept(size, s):
    """The count of leading terms up to the last whose largest value on the
    annulus, size, exceeds the rounding unit of s: the ones after it are
    the samples' rounding noise."""
    big = np.flatnonzero(size > _EPS * s)
    return int(big[-1]) + 1 if big.size else 0


def _local_certificate(dom, series, targets) -> float:
    """Largest residual |sum m_j Log(Phi_s - a_j) - log cap - G| of the series
    Phi_s, as _local_point sums it, at the points between the nodes of each
    circle's upper half: the even k of _green_circles' targets.

    The residual is analytic on the annulus 1 <= |v| <= rho and symmetric
    under conjugation, so by the maximum principle its largest value there
    lies on the two circles."""
    values, between = [], []
    for G, radius in zip(targets, (1.0, series.rho)):
        n = G.size - 1
        u = radius * np.exp(1j * np.pi * np.arange(2, n - 1, 2) / n)
        values.append(_local_point(series, u, radius))
        between.append(G[2:n - 1:2])
    w, G = np.concatenate(values), np.concatenate(between)
    F = _batch_equation(dom, G)(w, np.arange(w.size))[0]
    return float(np.max(np.abs(F)))


def _component_series(z, E: IntervalUnion, dom: LemniscaticDomain, data: GreenData):
    """_annulus_series for a point z off E inside the ellipse, None for one
    on or outside it."""
    if _outside_ellipse(z, E.endpoints, data._targets.reach):
        return None
    return _annulus_series(z, E, dom, data)


def _annulus_series(z, E: IntervalUnion, dom: LemniscaticDomain, data: GreenData,
                    i: int | None = None):
    """(series, v) for a point z off E inside the ellipse: of the components
    beside Re z (the one under it, or the two beside its gap), whose
    annuli |v_j| <= rho_j hold z, the first by |v_j| / rho_j whose series is
    certified within _TOL, and z's v_j; else None: z takes the Newton.  i is
    bisect_right's index of Re z in E.endpoints, found here unless given."""
    _, frames, _ = _local_cache(dom, data)
    if i is None:
        i = bisect.bisect_right(E.endpoints, z.real)
    inside = []
    for j in (i // 2,) if i % 2 else (i // 2 - 1, i // 2):
        if 0 <= j < E.ell:
            lo, hi, s, _, rho = frames[j]
            v = _joukowski(z, lo, hi, s)
            if abs(v) <= rho:
                inside.append((abs(v) / rho, j, v))
    for _, j, v in sorted(inside):
        series = _local_series(dom, data, j)
        if series.bound <= _TOL:
            return series, v
    return None


def _local_point(series: _Series, v, size=None):
    """Phi from a component's series at its variable v (see _Series), or at
    every point of an array v on the circle |v| = size."""
    size = abs(v) if size is None else size
    return (series.lead + _horner(series.up, v, size / series.radius)
            + _horner(series.down, 1.0 / v, 1.0 / (size * series.radius)))


def _local_image(z, E, dom, data) -> MapResult | None:
    """The MapResult of the off-axis z inside the ellipse by a component's
    series, or None."""
    if local := _annulus_series(z, E, dom, data):
        series, v = local
        return _complex_result(z, _local_point(series, v), series.bound, 0, E,
                               _point_cache(dom, data)[1])
    return None


class GridPoint(NamedTuple):
    """One point of a batch.  A failed point carries its error as
    "<exception type>: <message>"."""

    z: complex
    status: str  # converged | skipped | failed
    result: MapResult | None = None
    error: str | None = None


def _outer_points(zs, w, bound) -> list[GridPoint]:
    """The GridPoints of the outer series points zs with images w, the
    series' certificate bound as residual: every record built from all its
    fields by tuple.__new__ in one C-level pass."""
    results = map(_new, itertools.repeat(MapResult),
                  zip(w, itertools.repeat(bound), itertools.repeat(0),
                      itertools.repeat("complex"), itertools.repeat(None),
                      itertools.repeat(False)))
    return list(map(_new, itertools.repeat(GridPoint),
                    zip(zs, itertools.repeat("converged"), results, itertools.repeat(None))))


def _converted(chunk):
    """(batch, bad) for a slice of map_grid's points: each point as a complex
    number, NaN for one that complex() refuses, and the set of those
    indices, which map_point refuses as given."""
    batch, bad = [], set()
    for i, z in enumerate(chunk):
        try:
            batch.append(complex(z))
        except (TypeError, ValueError, OverflowError):
            batch.append(complex(math.nan))
            bad.add(i)
    return batch, bad


def map_grid(zs, E: IntervalUnion, dom: LemniscaticDomain, data: GreenData,
             cfg: QuadConfig | None = None) -> list[GridPoint]:
    """Map a batch of points, skipping interior points of E and recording
    failures per point; never aborts the batch, order preserved.

    Each slice of _GRID_BATCH points is classified in one array pass: the
    finite off-axis points, and of them those on or outside the ellipse
    |v| = 1.5 by its focal-sum test (an overflowing distance reads as
    outside).  Those take Phi's outer series (_series_map) at once, as
    map_point does, when it is certified, their MapResult and GridPoint
    built from every field by tuple.__new__ (_outer_points): the
    constructors' records, at less cost.  A slice of such points alone, as a
    far row of a grid is, is done then.  A mixed slice forms one class code
    per point, and one bincount of the codes skips the empty classes.
    Points inside the ellipse that a certified component's series holds
    take it point by point, by map_point's own evaluation.  The Green
    targets of the others, the Newton's, come from one green_complex call
    per slice, and their complex equations from one masked damped Newton
    (_complex_images), which map_point runs on its one point; each builds a
    failed point's error as map_point raises it.  Only real-axis points go
    through map_point; a point that is not finite fails map_point's
    finiteness check, and one that complex() refuses fails as map_point
    fails it, its GridPoint holding the point as given.
    Every point gets what map_point gives it, an outer series image within
    rounding, a component's series or Newton point its record exactly.
    """
    cfg = cfg or DEFAULT_CONFIG
    b, reach = E.endpoints, data._targets.reach
    points = iter(zs)
    out = []
    while chunk := list(itertools.islice(points, _GRID_BATCH)):
        batch, bad = _converted(chunk)
        at = np.array(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            off = np.isfinite(at) & (at.imag != 0.0)
            outside = off & (np.abs(at - b[0]) + np.abs(at - b[-1]) >= reach)
        if outside.all() and (series := _certified(dom, data)):
            out += _outer_points(batch, _series_map(at, series.t, series.s, series.coeffs).tolist(),
                                 series.bound)
            continue
        # one class code per point: 0 on the axis or not finite, 1 on or
        # outside the ellipse, 2 inside it; an empty class costs no pass
        code = 2 * off - outside
        axis, outer, inside = [np.flatnonzero(code == c).tolist() if k else []
                               for c, k in enumerate(np.bincount(code, minlength=3).tolist())]
        series = _certified(dom, data) if outer else None
        rows = [None] * len(batch)
        if series:
            w = _series_map(at[outside], series.t, series.s, series.coeffs).tolist()
            for i, p in zip(outer, _outer_points([batch[i] for i in outer], w, series.bound)):
                rows[i] = p
        # the Newton's points: inside the ellipse those that no component's
        # series takes, outside it all of them when the series is not certified
        inner = [] if series else outer
        for i in inside:
            if res := _local_image(batch[i], E, dom, data):
                rows[i] = GridPoint(batch[i], "converged", res)
            else:
                inner.append(i)
        if inner:
            inner.sort()
            newton = [batch[i] for i in inner]
            try:
                targets, failures = green_complex(newton, E, data, cfg), {}
            except NoConvergence as exc:
                # NaN where a point's path did not converge, its error in failures
                targets, failures = exc.best, exc.failures
            solved = ~np.isnan(targets)
            images = iter(_complex_images([z for z, ok in zip(newton, solved) if ok],
                                          targets[solved], E, dom, data))
            for k, (i, ok) in enumerate(zip(inner, solved.tolist())):
                rows[i] = _grid_point(batch[i], next(images) if ok else failures[k])
        # the real axis, the points that are not finite and those that are
        # not numbers, which map_point refuses as given
        for i in axis:
            z = chunk[i] if i in bad else batch[i]
            try:
                if batch[i].imag != 0.0:
                    _require_finite(batch[i])
                res = map_point(z, E, dom, data, cfg)
            except WalshMapError as exc:
                res = exc
            rows[i] = _grid_point(z, res)
        out += rows
    return out


def _grid_point(z, res) -> GridPoint:
    """z's GridPoint from its MapResult or the error mapping it raised."""
    if isinstance(res, InsideE):
        return GridPoint(z, "skipped")
    if isinstance(res, WalshMapError):
        return GridPoint(z, "failed", error=f"{type(res).__name__}: {res}")
    return GridPoint(z, "converged", res)


def branch_offset(E: IntervalUnion, data: GreenData, k: int, z: complex,
                  edge: str = "left", cfg: QuadConfig | None = None) -> complex:
    """Difference between the Green's integral based at an endpoint of gap k
    and the one based at the rightmost endpoint, two integrals of N/S along
    straight paths (test oracle for the base change of green_complex).

    For off-axis z the value is -i pi (m_{k+1} + ... + m_ell) in the upper
    half-plane and its conjugate below; for the rightmost base it vanishes.
    Raises NotFinite for an infinite or NaN z.
    """
    cfg = cfg or DEFAULT_CONFIG
    _require_finite(complex(z))
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
    return (_green_integral(E, data.roots, base, complex(z), cfg)
            - _green_integral(E, data.roots, b[-1], complex(z), cfg))
