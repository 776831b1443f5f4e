"""Centers, exponents and geometry of the lemniscatic set L.

L = {w : prod |w - a_j|^(m_j) <= capacity} has the same capacity, Green's
function values and critical-point structure as E; the centers a_j are
recovered from that correspondence.  solve_domain dispatches two solver
paths: explicit formulas for one and two components, and the general
fixed-point iteration (centers step + critical-point step) for three or
more.  The critical-point system for three components, centers_three, is a
separate route that cross-checks the iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BracketFailure, MaxIterExceeded, NoConvergence,
                     OrderViolation, PoleAtCenter)
from .equilibrium import ExponentVector
from .green import GreenData
from .intervals import IntervalUnion
from .newton import damped_newton

__all__ = [
    "LemniscaticDomain",
    "green",
    "green_deriv",
    "crit_points",
    "boundary_abscissae",
    "centers_two",
    "centers_three",
    "centers_general",
    "solve_domain",
]


@dataclass(frozen=True)
class LemniscaticDomain:
    """Converged lemniscatic data: centers, masses, capacity, critical points
    w_1..w_{ell-1} and the real zeros c_1..c_{2l} of the Green's function.

    outer_iterations counts the centers-iteration steps that exceeded the
    stopping tolerance (the final sub-tolerance step is not counted, matching
    how iteration counts are usually reported for this scheme).
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


def _bisect(f, pos, neg):
    """Midpoints of the array brackets (pos, neg), where f(pos) > 0 >= f(neg),
    after bisecting all of them at once on the sign of f: 90 halvings, or
    fewer once every bracket is down to adjacent floats and halving cannot
    move it."""
    for _ in range(90):
        mid = 0.5 * (pos + neg)
        if np.all((mid == pos) | (mid == neg)):
            break
        up = f(mid) > 0
        pos = np.where(up, mid, pos)
        neg = np.where(up, neg, mid)
    return 0.5 * (pos + neg)


def crit_points(a, m) -> np.ndarray:
    """Critical points of the Green's function of the lemniscatic domain, one
    per interval (a_k, a_{k+1}): zeros of f(w) = sum m_j / (w - a_j).

    f falls from +inf to -inf across each interval, so the brackets set just
    inside the centers are bisected by _bisect, with no polish.  Raises
    BracketFailure when f does not change sign on a bracket.
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
    return _bisect(lambda w: _deriv_values(w, a, m), lo, hi)


def boundary_abscissae(a, m, cap, crit=None) -> np.ndarray:
    """Real zeros c_1 < ... < c_{2l} of the Green's function of C \\ L.

    Each zero is bracketed by a point where g > 0 and one where g < 0.  The
    positive ends: for the outermost zeros the points 2 cap beyond a_1 and
    a_ell, where g >= log 2 (see _outer_reach); for the interior pair of
    each interval (a_k, a_{k+1}) its critical point, where g must be
    positive.  The negative ends: halving from the positive end toward the
    nearest center, where g -> -inf.  All 2 ell brackets are bisected by
    _bisect, with no polish.  Raises BracketFailure when a bracket cannot be
    formed.
    """
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    ell = a.size
    if crit is None:
        crit = crit_points(a, m)
    crit = np.asarray(crit, dtype=float)

    def g(w):
        return _green_values(w, a, m, cap)

    nonpositive = g(crit) <= 0
    if np.any(nonpositive):
        k = int(np.argmax(nonpositive))
        raise BracketFailure(f"Green's function nonpositive at critical point {crit[k]}")
    r = _outer_reach(cap, 0.0)
    pos = np.concatenate(([a[0] - r], np.repeat(crit, 2), [a[-1] + r]))
    # negative ends: halve from the positive end toward the nearest center
    center = np.repeat(a, 2)
    neg = pos.copy()
    searching = np.arange(2 * ell)
    for _ in range(1100):
        neg[searching] = center[searching] + 0.5 * (neg[searching] - center[searching])
        if np.any(neg[searching] == center[searching]):
            raise BracketFailure("bracket collapsed onto a center")
        searching = searching[~(g(neg[searching]) < 0)]
        if searching.size == 0:
            break
    else:
        raise BracketFailure(
            f"no negative value of g found near center {center[searching[0]]}")
    return _bisect(g, pos, neg)


def centers_two(E: IntervalUnion, m, cap: float, data: GreenData):
    """Explicit two-component centers.

    The center gap is beta = cap / (m_1^m_1 m_2^m_2) * exp(g(z_1)); combined
    with the mass-weighted center sum this pins both centers.
    """
    m1, m2 = float(m[0]), float(m[1])
    beta = cap / (m1 ** m1 * m2 ** m2) * math.exp(data.green_at_roots[0])
    return data.alpha - m2 * beta, data.alpha + m1 * beta


def _center_newton(a, w, m, targets):
    """Residual of the center equations sum m_j log|w_i - a_j| = targets_i
    and sum m_j a_j = targets[-1] at the critical points w, and the full
    Newton step.  A singular Jacobian gives a NaN step, which no damped
    trial accepts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(np.abs(w[:, None] - a[None, :])) @ m
        J = np.empty((a.size, a.size))
        J[:-1, :] = -m[None, :] / (w[:, None] - a[None, :])
    J[-1, :] = m
    F = np.append(vals, m @ a) - targets
    try:
        return F, np.linalg.solve(J, -F)
    except np.linalg.LinAlgError:
        return F, np.full(a.size, np.nan)


def _center_system(w, m, g_targets, alpha, cap, a0):
    """Damped Newton for the center equations at fixed critical points w,
    keeping the centers ordered.  Returns (a, final residual norm); a stall
    returns the last iterate."""
    m = np.asarray(m, dtype=float)
    w = np.asarray(w, dtype=float)
    targets = np.append(np.asarray(g_targets, dtype=float) + math.log(cap), alpha)
    try:
        a, F, _ = damped_newton(
            lambda a: _center_newton(a, w, m, targets), np.array(a0, dtype=float),
            # a disordering trial counts as a failed step: the fixed-w system
            # can have spurious stationary points outside the ordered cone
            admissible=lambda a: np.all(np.diff(a) > 0),
            tol=1e-14, step_tol=lambda a: 1e-15 * max(1.0, float(np.max(np.abs(a)))),
            max_steps=80, max_halvings=20)
    except NoConvergence as exc:
        return exc.best, exc.estimate
    return a, float(np.max(np.abs(F)))


def centers_three(E: IntervalUnion, m, cap: float, data: GreenData,
                  max_iter: int = 100):
    """Three-component centers from the critical-point system.

    The two critical points are the explicit quadratic roots, so the three
    unknown centers satisfy two Green's-value equations plus the weighted
    center sum, solved by damped Newton with the analytic Jacobian (the
    critical points are stationary, so their sensitivity drops out).
    Raises NoConvergence when the residual stalls above 1e-10.
    """
    m = np.asarray(m, dtype=float)
    b = E.endpoints
    targets = np.append(np.asarray(data.green_at_roots) + math.log(cap), data.alpha)

    def crit_quadratic(avec):
        S = avec.sum()
        B = float(m @ (S - avec))
        C = float(m[0] * avec[1] * avec[2] + m[1] * avec[0] * avec[2]
                  + m[2] * avec[0] * avec[1])
        disc = math.sqrt(max(B * B - 4.0 * C, 0.0))
        return np.array([(B - disc) / 2.0, (B + disc) / 2.0])

    try:
        a, _, _ = damped_newton(
            lambda a: _center_newton(a, crit_quadratic(a), m, targets),
            np.array([(b[0] + b[1]) / 2, (b[2] + b[3]) / 2, (b[4] + b[5]) / 2]),
            tol=1e-14, max_steps=max_iter, max_halvings=20)
    except NoConvergence as exc:
        if exc.estimate < 1e-10:
            return exc.best
        raise NoConvergence(
            f"three-center system stalled at residual {exc.estimate:.3e}",
            best=exc.best, estimate=exc.estimate) from exc
    return a


def centers_general(E: IntervalUnion, m, cap: float, data: GreenData,
                    abstol: float = 1e-13, reltol: float = 1e-13):
    """General centers iteration: alternate the fixed-critical-point center
    solve with a critical-point update, from component/gap midpoints.

    Returns (centers, crit_w, outer_iterations, inner_residual);
    outer_iterations counts steps that exceeded the stopping tolerance.
    """
    if E.ell < 2:
        raise ValueError("need at least two components")
    b = E.endpoints
    ell = E.ell
    a = np.array([(b[2 * j] + b[2 * j + 1]) / 2 for j in range(ell)])
    w = np.array([(b[2 * j + 1] + b[2 * j + 2]) / 2 for j in range(ell - 1)])
    g_targets = data.green_at_roots
    productive = 0
    for _ in range(50):
        a_new, resid = _center_system(w, m, g_targets, data.alpha, cap, a)
        if np.any(np.diff(a_new) <= 0):
            raise OrderViolation(f"center iterate out of order: {a_new}")
        w = crit_points(a_new, m)
        converged = bool(np.all(np.abs(a_new - a) < abstol + reltol * np.abs(a)))
        a = a_new
        if converged:
            return a, w, productive, resid
        productive += 1
    raise MaxIterExceeded("center iteration did not converge in 50 outer steps")


def solve_domain(E: IntervalUnion, data: GreenData, m: ExponentVector,
                 abstol: float = 1e-13, reltol: float = 1e-13) -> LemniscaticDomain:
    """Dispatch to the right centers path and assemble the full domain.

    One component forces a_1 = alpha (disk); two components are explicit;
    three or more run the general iteration (the three-center system solver
    stays available as a cross-check path).
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
        a, w, iterations, resid = centers_general(E, m.m, cap, data,
                                                  abstol=abstol, reltol=reltol)
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
