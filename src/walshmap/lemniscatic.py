"""Centers, exponents and geometry of the lemniscatic set L.

L = {w : prod |w - a_j|^(m_j) <= capacity} has the same capacity, Green's
function values and critical-point structure as E; the centers a_j are
recovered from that correspondence.  solve_domain takes explicit formulas
for one and two components, and for three or more one damped Newton on the
centers.  Its critical points ride it: each trial moves the last
evaluation's w to first order with the centers and Newton steps on g_L'
carry it to its own stop, and crit_points runs once, at the returned
centers, whose w the domain keeps.  The paper's alternating iteration (a
center solve at fixed critical points, then a critical-point update),
centers_general, runs on the same center solve and reproduces the paper's
step counts.  row_rounding is the one rounding model of the solve's
invariant rows: the centers' stall test and verify.worst_invariant measure
each row against it.

The boundary of L is solved along rays from the centers by one solver,
_solve_rays: boundary_abscissae are the rays at angles pi and 0 of each
lobe, and trace_boundary samples each lobe's boundary curve on n rays.  The
centers are real, so L is its own mirror image in the real axis, and the
trace solves only the n // 2 + 1 rays from angle 0 to pi and takes the
others as their conjugates.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (BracketFailure, MaxIterExceeded, NoConvergence,
                     OrderViolation, PoleAtCenter)
from .equilibrium import ExponentVector
from .green import GreenData
from .intervals import IntervalUnion
from .newton import _bisect, damped_newton

__all__ = [
    "LemniscaticDomain",
    "green",
    "green_deriv",
    "crit_points",
    "boundary_abscissae",
    "BoundaryTrace",
    "trace_boundary",
    "centers_two",
    "centers_general",
    "row_rounding",
    "solve_domain",
]


@dataclass(frozen=True)
class LemniscaticDomain:
    """Converged lemniscatic data: centers, masses, capacity, critical points
    w_1..w_{ell-1} and the real zeros c_1..c_{2l} of the Green's function.

    outer_iterations counts the steps of the centers' one damped Newton run
    (0 for one and two components), and inner_residual is its final residual,
    its largest row: the Green's values at the critical points in units of
    IntervalUnion.unit and the center sum in half-widths (on a stall, as
    row_rounding measures them).
    """

    centers: tuple[float, ...]
    exponents: ExponentVector
    capacity: float
    crit_w: tuple[float, ...]
    boundary_c: tuple[float, ...]
    outer_iterations: int
    inner_residual: float

    @property
    def ell(self) -> int:
        return len(self.centers)


def _green_scalar(w, a, m, cap) -> float:
    total = -math.log(cap)
    for aj, mj in zip(a, m):
        d = abs(w - aj)
        if d == 0.0:
            raise PoleAtCenter(f"Green's function evaluated at center {aj}")
        total += mj * math.log(d)
    return total


def _green_values(w, a, m, cap):
    """g at every point of the real or complex array w, for centers a and
    masses m as arrays."""
    d = np.abs(w[..., None] - a)
    if np.any(d == 0.0):
        raise PoleAtCenter("Green's function evaluated at a center")
    return np.log(d) @ m - math.log(cap)


def _outer_reach(cap, t):
    """Distance beyond a_1 (left) or a_ell (right) at which g exceeds t:
    every |w - a_j| >= dist(w, [a_1, a_ell]), so g(w) >= log(dist / cap).
    Raises BracketFailure when the distance overflows."""
    try:
        return math.exp(t + math.log(2.0 * cap))
    except OverflowError:
        raise BracketFailure(
            f"g exceeds {t:.6g} only beyond the floating-point range") from None


def _deriv_values(w, a, m):
    """sum m_j / (w - a_j) at every point of the array w."""
    return (1.0 / (w[..., None] - a)) @ m


def green(w, dom: LemniscaticDomain):
    """g(w) = sum m_j log|w - a_j| - log(capacity); harmonic off the centers."""
    arr = np.asarray(w, dtype=complex)
    if arr.ndim == 0:
        return _green_scalar(complex(w), dom.centers, dom.exponents.m, dom.capacity)
    return _green_values(arr, np.asarray(dom.centers), np.asarray(dom.exponents.m),
                         dom.capacity)


def green_deriv(w, dom: LemniscaticDomain):
    """Twice the Wirtinger derivative: sum m_j / (w - a_j)."""
    arr = np.asarray(w, dtype=complex)
    if np.any(arr[..., None] == np.asarray(dom.centers)):
        raise PoleAtCenter("derivative evaluated at a center")
    out = _deriv_values(arr, np.asarray(dom.centers), np.asarray(dom.exponents.m))
    return complex(out) if out.ndim == 0 else out


def crit_points(a, m, start=None) -> np.ndarray:
    """Critical points of the Green's function of the lemniscatic domain, one
    per interval (a_k, a_{k+1}): zeros of f(w) = sum m_j / (w - a_j).

    f falls from +inf to -inf across each interval, so the brackets set just
    inside the centers are solved by _bisect, with the slope
    -sum m_j / (w - a_j)^2, from start (default: the bracket midpoints); an
    entry of start outside its bracket's open interior starts at the
    midpoint instead.  Raises BracketFailure when f does not change sign on
    a bracket.  The centers' Newton calls it at its returned centers, from
    its ridden w (_ride), and at a trial whose ridden w leaves a bracket.
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    left, right = a[:-1], a[1:]
    width = right - left
    lo = np.maximum(left + 1e-14 * width, np.nextafter(left, right))
    hi = np.minimum(right - 1e-14 * width, np.nextafter(right, left))
    bracketed = (_deriv_values(lo, a, m) > 0) & (_deriv_values(hi, a, m) < 0)
    if not np.all(bracketed):
        k = int(np.argmin(bracketed))
        raise BracketFailure(
            f"derivative does not change sign in ({left[k]}, {right[k]})")
    if start is not None:
        start = np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))

    def f(w):
        inv = 1.0 / (w[:, None] - a)
        return inv @ m, -(inv * inv) @ m

    return _bisect(f, lo, hi, start)


def boundary_abscissae(a, m, cap, crit=None) -> np.ndarray:
    """Real zeros c_1 < ... < c_{2l} of the Green's function of C \\ L.

    They are the rays at angles pi and 0 of each lobe (_solve_rays), which
    end at the neighboring critical points, where g must be positive, or 2
    cap beyond an outermost center, where g >= log 2 (see _outer_reach).
    Raises BracketFailure when g is nonpositive at such an end, or when g is
    not negative at the float floor of a center.
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    if crit is None:
        crit = crit_points(a, m)
    crit = np.asarray(crit, dtype=float)
    r, _, inner, outer, _ = _solve_rays(a, m, cap, crit, np.array([-1.0, 1.0]))
    if outer.any():
        j, k = np.argwhere(outer)[0]
        if 0 < j + k < a.size:
            raise BracketFailure(
                f"Green's function nonpositive at critical point {crit[j + k - 1]}")
        raise BracketFailure(f"Green's function nonpositive 2 cap beyond center {a[j]}")
    if inner.any():
        raise BracketFailure(
            f"no negative value of g found near center {a[np.argwhere(inner)[0, 0]]}")
    return (a[:, None] + r * [-1.0, 1.0]).reshape(-1)


@dataclass(frozen=True)
class BoundaryTrace:
    """One lobe of L: a closed polyline on its boundary around center, or
    for an unsampled lobe None, with the message of the check it failed in
    reason."""

    center: float
    points: np.ndarray | None  # closed polyline; None if unsampled
    sampled: bool
    reason: str | None = None


def trace_boundary(dom: LemniscaticDomain, points_per_component: int = 64) -> list[BoundaryTrace]:
    """Trace each boundary component of L along points_per_component rays
    from its center, at angles 2 pi k / n, one point per ray where it leaves
    L.

    The centers are real, so L is its own mirror image in the real axis:
    only the rays from angle 0 to pi, k = 0 .. n // 2, are solved, those of
    every lobe at once (_solve_rays), and the point of ray n - k is the
    conjugate of that of ray k.  Each ray ends where it meets the vertical
    line through a neighboring critical point w_k (along which g only grows
    from g(w_k) > 0), the line 2 cap beyond an outermost center (see
    _outer_reach) or the band |Im w| = 2 cap (beyond which g >= log 2).  L
    between the center and these ends is this lobe alone, so the crossing
    found there is the lobe's own; a ray may re-enter L beyond its outer
    end, but that part of L belongs to a neighboring lobe.

    A lobe is reported unsampled, with the failed check in reason, when g
    is not negative at the float floor of its center on one of its rays
    (no disk inside L around it), one of its rays reaches its outer end
    inside L, or one re-enters L at 1.005, 1.02 or 1.05 times its crossing
    (tangency or a wiggle: the star-shaped sampling assumption fails); the
    other lobes are unaffected.  Raises TypeError for a points_per_component
    that is not an integer (a bool included), ValueError for fewer than one
    point per component.
    """
    n = points_per_component
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise TypeError(f"points_per_component must be an integer, got {n!r}")
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"points_per_component {n} < 1")
    a = np.asarray(dom.centers)
    ray = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)[:n // 2 + 1])
    r, r_out, inner, outer, level = _solve_rays(
        a, np.asarray(dom.exponents.m), dom.capacity, np.asarray(dom.crit_w, dtype=float), ray)
    reasons = [f"no disk inside L around center {aj}" if inner[j].any()
               else f"rays from center {aj} reach their outer end inside L" if outer[j].any()
               else None for j, aj in enumerate(dom.centers)]
    # immediately outside the crossing the ray must stay outside L
    for factor in (1.005, 1.02, 1.05):
        inside = (level(np.minimum(r * factor, r_out)) <= 0).any(1)
        for j in np.flatnonzero(inside).tolist():
            reasons[j] = reasons[j] or f"rays from center {a[j]} re-enter the level set"
    upper = a[:, None] + r * ray
    # rays n // 2 + 1 .. n - 1, then ray 0 again to close the polyline
    pts = np.concatenate((upper, upper[:, n - n // 2 - 1:0:-1].conj(), upper[:, :1]), axis=1)
    return [BoundaryTrace(center, None, False, reasons[j]) if reasons[j]
            else BoundaryTrace(center, pts[j], True)
            for j, center in enumerate(dom.centers)]


# center distances per block of a level pass: bounds its (ell, rays)
# temporaries, which otherwise grow as ell^2 n and stay in the resident
# memory of the process
_TRACE_BLOCK = 32768


def _blocks(ell, count):
    step = max(1, _TRACE_BLOCK // ell)
    return [slice(i, i + step) for i in range(0, count, step)]


def _trace_work(ell, count):
    """The two (ell, block) temporaries of every level pass over count rays,
    allocated once per solve: arrays this large are mapped fresh by the C
    allocator, so each pass that allocated its own would fault them in."""
    return np.empty((2, ell * min(max(1, _TRACE_BLOCK // ell), count)))


def _level(center, a, cos, sin, r, m, log_cap, work):
    """g_L at radius r along each ray, in the rays' unit: ray k leaves
    center[k] in the direction (cos_k, sin_k), and a is the column of every
    center; work (_trace_work) holds the squared distances."""
    out = np.empty(r.size)
    for k in _blocks(a.size, r.size):
        rk = r[k]
        dy = rk * sin[k]
        q = np.subtract(center[k], a, out=work[0, :a.size * rk.size].reshape(a.size, -1))
        q += rk * cos[k]
        q *= q
        q += dy * dy
        out[k] = 0.5 * (m @ np.log(q, out=q)) - log_cap
    return out


def _level_slope(center, a, cos, sin, r, m, log_cap, work):
    """_level and its derivative in r, sum m_i (dx cos + dy sin) / q_i, from
    the same squared distances q = dx^2 + dy^2."""
    g, slope = np.empty(r.size), np.empty(r.size)
    for k in _blocks(a.size, r.size):
        rk = r[k]
        size = a.size * rk.size
        dy = rk * sin[k]
        dx = np.subtract(center[k], a, out=work[0, :size].reshape(a.size, -1))
        dx += rk * cos[k]
        q = np.multiply(dx, dx, out=work[1, :size].reshape(a.size, -1))
        q += dy * dy
        dx *= cos[k]
        dx += dy * sin[k]
        dx /= q
        g[k] = 0.5 * (m @ np.log(q, out=q)) - log_cap
        slope[k] = m @ dx
    return g, slope


# the least radius of a ray, in its unit: keeps log r finite at a center at 0
_FLOOR = 2.0 ** -500


def _solve_rays(a, m, cap, crit, ray):
    """Where the rays from the centers of L leave it: ray k of center a_j
    leaves it in the direction ray[k], a complex unit, and ends at r_out, on
    the vertical line through the neighboring critical point in its
    direction, the line 2 cap beyond an outermost center or the band
    |Im w| = 2 cap, whichever comes first (see trace_boundary).

    Along a ray g = m_j log r + O(1), nearly affine in log r, so each ray is
    solved in u = log(r / r_out) - 1, between the float floor at its center,
    max(spacing(a_j), 2^-500 unit), and its outer end u = -1.  The shift
    keeps u away from 0, where _bisect's stop within two spacings of u would
    ask for more than the rounding of r.  A ray whose g is negative at its
    floor and positive at its end is solved by _bisect, all such rays in one
    call.  Each starts at the root of the disk model g_in + m_j (u - u_in),
    as g's slope in u at the floor is m_j, or, where that root falls outside
    the bracket, at the secant root of its ends' values.  g and its slope
    come from the center offsets plus r (cos, sin), never from a rounded
    point a_j + r, in a power-of-two unit near cap, so extreme scales
    neither overflow nor underflow (_level, _level_slope).

    Returns (r, r_out, inner, outer, level), the first four (ell, rays)
    arrays: the crossing radius of each solved ray (NaN on the others), the
    outer ends, where g >= 0 at the floor, where g <= 0 at the outer end,
    and level(r), g at radii r of every ray.
    """
    shape = (a.size, ray.size)
    unit = math.ldexp(1.0, round(math.log2(cap)))
    log_cap = math.log(cap / unit)
    reach = _outer_reach(cap, 0.0)
    left = np.concatenate(([a[0] - reach], crit))
    right = np.concatenate((crit, [a[-1] + reach]))
    with np.errstate(divide="ignore"):
        r_out = np.minimum(
            np.where(ray.real > 0, (right - a)[:, None], (a - left)[:, None]) / np.abs(ray.real),
            2.0 * cap / np.abs(ray.imag)).reshape(-1) / unit
    a_unit = a / unit
    center, column = np.repeat(a_unit, ray.size), a_unit[:, None]
    cos, sin = np.tile(ray.real, a.size), np.tile(ray.imag, a.size)
    work = _trace_work(a.size, center.size)

    def level(r):
        return _level(center, column, cos, sin, r, m, log_cap, work)

    floor = np.repeat(np.maximum(np.spacing(np.abs(a)) / unit, _FLOOR), ray.size)
    g_in, g_out = level(floor), level(r_out)
    inner, outer = g_in >= 0, g_out <= 0
    k = np.flatnonzero(~(inner | outer))
    end, rays = r_out[k], (center[k], column, cos[k], sin[k])
    u_in, g_in, g_out = np.log(floor[k] / end) - 1.0, g_in[k], g_out[k]

    def f(u):
        r = end * np.exp(u + 1.0)
        g, slope = _level_slope(*rays, r, m, log_cap, work)
        return g, slope * r

    secant = u_in + (-1.0 - u_in) * (g_in / (g_in - g_out))
    disk = u_in - g_in / np.repeat(m, ray.size)[k]
    u = _bisect(f, np.full(k.size, -1.0), u_in,
                start=np.where((u_in < disk) & (disk < -1.0), disk, secant))
    r = np.full(r_out.size, np.nan)
    r[k] = end * np.exp(u + 1.0)
    return ((r * unit).reshape(shape), (r_out * unit).reshape(shape), inner.reshape(shape),
            outer.reshape(shape), lambda radii: level(radii.reshape(-1) / unit).reshape(shape))


def centers_two(E: IntervalUnion, m, cap: float, data: GreenData):
    """Explicit two-component centers.

    The center gap is beta = cap / (m_1^m_1 m_2^m_2) * exp(g(z_1)); combined
    with the mass-weighted center sum this pins both centers.
    """
    m1, m2 = float(m[0]), float(m[1])
    beta = cap / (m1 ** m1 * m2 ** m2) * math.exp(data.green_at_roots[0])
    return data.alpha - m2 * beta, data.alpha + m1 * beta


def _center_newton(a, w, m, targets, s, p):
    """Residual of the center equations sum m_j log(|w_i - a_j| / p) =
    targets_i at the critical points w, in units of p, and sum m_j a_j =
    targets[-1] in units of the half-width s; and the full Newton step.  A
    singular Jacobian gives a NaN step, which no damped trial accepts."""
    d = w[:, None] - a
    J = np.empty((a.size, a.size))
    F = np.empty(a.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.subtract(np.log(np.abs(d) / p) @ m, targets[:-1], out=F[:-1])
        np.divide(-m, d, out=J[:-1])
    np.divide(m, s, out=J[-1])
    F[-1] = (m @ a - targets[-1]) / s
    try:
        return F, np.linalg.solve(J, -F)
    except np.linalg.LinAlgError:
        return F, np.full(a.size, np.nan)


def row_rounding(E: IntervalUnion, data: GreenData, a, w, m, c=()):
    """Every invariant row of a solve and its rounding, in the solve's unit
    p = E.unit: the Green rows sum_j m_j log(|x - a_j| / p) - target at the
    critical points x = w_k, target g_E(z_k) + log(cap / p), and at the
    boundary abscissae x = c_j, target log(cap / p); the center sum
    (m . (a - t) - (alpha - t)) / s in the frame (t, s) of E, so that its
    terms' rounding does not grow with |t|; the mass sum m . 1 - 1.  A row's
    rounding is 8 ell eps of its terms' sizes plus that of storing what it
    reads: sum_j m_j ulp(a_j) / |x - a_j| on a Green row, |g_L'(c_j)|
    ulp(c_j) more on a c_j row, (m . ulp(a) + ulp(alpha)) / s on the center
    sum.  Returns (rows, rounding) in that order; without c, the Green rows
    of _center_newton, the center sum and the mass sum."""
    p, (t, s) = E.unit, E.frame
    a, m, w, c = (np.asarray(v, dtype=float) for v in (a, m, w, c))
    targets = np.append(data.green_at_roots, np.zeros(c.size)) + math.log(data.capacity / p)
    ulp = np.spacing(np.abs(a))
    d = np.concatenate((w, c))[:, None] - a
    logs = np.log(np.abs(d) / p)
    rows = np.append(logs @ m - targets,
                     [(m @ (a - t) - (data.alpha - t)) / s, math.fsum(m) - 1.0])
    size = np.append(np.abs(logs) @ m + np.abs(targets),
                     [(m @ np.abs(a - t) + abs(data.alpha - t)) / s, math.fsum(m) + 1.0])
    stored = np.append(np.abs(1.0 / d) @ (m * ulp),
                       [(m @ ulp + np.spacing(abs(data.alpha))) / s, 0.0])
    stored[w.size:w.size + c.size] += np.abs(_deriv_values(c, a, m)) * np.spacing(np.abs(c))
    return rows, 8.0 * a.size * np.finfo(float).eps * size + stored


def _ride(a, m, w):
    """w moved by Newton steps onto the zeros of f(w) = sum m_j / (w - a_j),
    or None when a moved point leaves its bracket (a_k, a_{k+1}).

    Each w_k steps on h = f (w - a_k)(a_{k+1} - w), which has f's zero but
    not its poles at the bracket's ends: h'/h = f'/f + 1/(w - a_k) +
    1/(w - a_{k+1}), so the step is f / (f' + f (1/(w - a_k) +
    1/(w - a_{k+1}))).  h is linear when the other centers carry no mass, so
    the step is exact there, and nearly so while they are far.  Steps repeat
    until each is within 1e-2 of its point's distance to the nearer center,
    at most 4."""
    for _ in range(4):
        inv = 1.0 / (w[:, None] - a)
        f = inv @ m
        lo, hi = np.diagonal(inv), np.diagonal(inv, 1)
        step = f / (f * (lo + hi) - (inv * inv) @ m)
        w = w - step
        # the larger of 1 / (w - a_k) and 1 / (a_{k+1} - w) is 1 / distance
        if (np.abs(step) * np.maximum(lo, -hi)).max() <= 1e-2:
            break
    return w if np.all((a[:-1] < w) & (w < a[1:])) else None


def _center_solve(E: IntervalUnion, m, cap: float, data: GreenData, a0, w=None):
    """Damped Newton for the centers from a0, keeping them ordered: at the
    fixed critical points w, or, without w, at critical points that follow
    the centers.  The Jacobian is the same either way, since each w_i is a
    zero of g_L' and its motion drops out.

    Without w, the critical points ride the Newton: each trial takes the
    first-order motion of the last evaluation's critical points,
    w + (q @ (a - a_last)) / q.sum(1) with q_ij = m_j / (w_i - a_last,j)^2,
    and the first evaluation the two-pole points (m_{k+1} a_k + m_k a_{k+1})
    / (m_k + m_{k+1}); Newton steps on g_L' (_ride) carry them to their own
    stop.  A w off the critical points by d moves the Green rows by O(d^2)
    only, since g_L' vanishes there.  Only a trial whose moved point leaves
    its bracket calls crit_points, from the prediction.  Once the Newton
    stops, crit_points(a, start=w) gives the critical points of its centers,
    and the residual is evaluated again there if they differ, so the
    returned w is the last evaluation's.

    The Green's-value rows are in units of p = E.unit, against
    g_E(z_k) + log(cap / p).  It stops at a residual of 1e-14, or at a full
    step within 1e-15 max(s, max|a - t|) in the frame (t, s) of E or 2 ulp
    of a (binding only if |t| > s).  A Newton that stalls, no step lowering
    its largest row, with that row within its rounding (row_rounding) has
    converged too: its last iterate is returned, with that row, at its
    critical points when w is not given, as residual.  Returns (a, w, steps,
    residual norm), w the critical points of the returned centers; raises
    NoConvergence naming the stall and its residual.
    """
    t, s = E.frame
    p = E.unit
    m = np.asarray(m, dtype=float)
    targets = np.append(np.asarray(data.green_at_roots) + math.log(cap / p), data.alpha)
    last = []  # (a, w) of the last evaluation, when w follows a

    def follow(a):
        """The critical points w at the trial centers a."""
        if last:
            a_last, w_last = last.pop()
            q = m / (w_last[:, None] - a_last) ** 2
            start = guess = w_last + (q @ (a - a_last)) / q.sum(1)
        else:
            start, guess = None, (m[1:] * a[:-1] + m[:-1] * a[1:]) / (m[:-1] + m[1:])
        w_a = _ride(a, m, guess)
        return crit_points(a, m, start=start) if w_a is None else w_a

    def residual(a):
        if w is not None:
            return _center_newton(a, w, m, targets, s, p)
        last.append((a, follow(a)))
        return _center_newton(a, last[0][1], m, targets, s, p)

    stall = None
    try:
        a, F, steps = damped_newton(
            residual, np.array(a0, dtype=float),
            # a disordering trial counts as a failed step: the fixed-w system
            # can have spurious stationary points outside the ordered cone,
            # and crit_points brackets between consecutive centers
            admissible=lambda a: np.all(np.diff(a) > 0),
            tol=1e-14, step_tol=lambda a: np.maximum(
                1e-15 * max(s, float(np.max(np.abs(a - t)))), 2.0 * np.spacing(np.abs(a))),
            max_steps=80, max_halvings=20)
        resid = float(np.max(np.abs(F)))
    except NoConvergence as exc:
        stall, a, steps, resid = exc, exc.best, exc.steps, exc.estimate
    w_a = w
    if w is None:
        # the last evaluation is the returned iterate's unless the Newton stalled
        w_last = last[0][1]
        w_a = crit_points(a, m, start=w_last)
        if stall is None and not np.array_equal(w_a, w_last):
            resid = float(np.max(np.abs(_center_newton(a, w_a, m, targets, s, p)[0])))
    if stall is not None:
        # no step lowers the largest row: converged if it is within its rounding
        rows, rounding = row_rounding(E, data, a, w_a, m)
        k = np.argmax(np.abs(rows[:-1]))
        resid = float(abs(rows[k]))
        if not resid <= rounding[k]:
            raise NoConvergence(f"center Newton stalled: {stall}", best=stall.best,
                                estimate=stall.estimate) from stall
    return a, w_a, steps, resid


def centers_general(E: IntervalUnion, m, cap: float, data: GreenData):
    """The paper's centers iteration: alternate the center solve at fixed
    critical points with a critical-point update, from the component and gap
    midpoints.

    It stops once every center moves by less than 1e-13 (s + |a - t|) in the
    frame (t, s) of E, or 4 ulp if larger.  Returns (centers, crit_w,
    outer_iterations, inner_residual), counting the steps above that bound.
    Raises NoConvergence when a center solve stalls, MaxIterExceeded after
    50 outer steps.
    """
    if E.ell < 2:
        raise ValueError("need at least two components")
    b = np.asarray(E.endpoints)
    t, s = E.frame
    a = 0.5 * (b[::2] + b[1::2])
    w = 0.5 * (b[1:-1:2] + b[2::2])
    productive = 0
    for _ in range(50):
        a_new, _, _, resid = _center_solve(E, m, cap, data, a, w)
        w = crit_points(a_new, m)
        step_tol = np.maximum(1e-13 * (s + np.abs(a - t)), 4.0 * np.spacing(np.abs(a)))
        converged = bool(np.all(np.abs(a_new - a) < step_tol))
        a = a_new
        if converged:
            return a, w, productive, resid
        productive += 1
    raise MaxIterExceeded("center iteration did not converge in 50 outer steps")


def solve_domain(E: IntervalUnion, data: GreenData, m: ExponentVector) -> LemniscaticDomain:
    """Solve for the centers and assemble the full domain.

    One component forces a_1 = alpha (disk); two components are explicit;
    three or more run the centers' damped Newton from the component
    midpoints, with the critical points riding it (_center_solve), and take
    from it the critical points of its returned centers, w = crit_points(a).
    """
    cap = data.capacity
    ell = E.ell
    if ell == 1:
        a = np.array([data.alpha])
        w = np.array([])
        iterations, resid = 0, 0.0
    elif ell == 2:
        a = np.array(centers_two(E, m.m, cap, data))
        w = np.array([m[1] * a[0] + m[0] * a[1]])
        resid = abs(_green_scalar(float(w[0]), a, m.m, cap) - data.green_at_roots[0])
        iterations = 0
    else:
        b = np.asarray(E.endpoints)
        a, w, iterations, resid = _center_solve(E, m.m, cap, data,
                                                0.5 * (b[::2] + b[1::2]))
    if np.any(np.diff(a) <= 0):
        raise OrderViolation(f"centers out of order: {a}")
    interlaced = np.empty(2 * ell - 1)
    interlaced[0::2] = a
    if ell > 1:
        interlaced[1::2] = w
    if np.any(np.diff(interlaced) <= 0):
        raise OrderViolation("critical points do not interlace the centers")
    c = boundary_abscissae(a, m.m, cap, crit=w)
    # required ordering: c_1 < a_1 < c_2 < c_3 < a_2 < ... < a_ell < c_2l
    seq = [c[0], a[0]]
    for j in range(1, ell):
        seq += [c[2 * j - 1], c[2 * j], a[j]]
    seq.append(c[-1])
    if np.any(np.diff(np.array(seq)) <= 0):
        raise OrderViolation("boundary abscissae out of order")
    return LemniscaticDomain(
        centers=tuple(float(v) for v in a),
        exponents=m,
        capacity=cap,
        crit_w=tuple(float(v) for v in w),
        boundary_c=tuple(float(v) for v in c),
        outer_iterations=iterations,
        inner_residual=float(resid),
    )
