"""Scalar reference versions of the L-side root finders, and E-side oracles
that the solve does not use.

crit_points and boundary_abscissae are the per-root loops that
lemniscatic.crit_points and lemniscatic.boundary_abscissae replaced with
array-wide bisection; they stay here as oracles for the array versions.
halving_bisect is the plain array bisection that newton._bisect
replaced with a Newton-safeguarded one, and bisect_reference that kernel
before it updated its brackets in place.  nested_center_solve is the
centers' damped Newton with crit_points solved at every trial, which
lemniscatic._center_solve replaced with critical points that ride it.  path
is green._path with its endpoint test run on every endpoint.
critical_points finds the numerator roots from coefficients (the solve
finds the roots directly), and rational_mass_fit tests masses for a common
denominator, a sign of a polynomial pre-image.  endpoint_weight_fd is the weight 1/sqrt|H| as one
product of every endpoint distance, which green._paired_ratio, the one
product behind every integral of N/S, replaced with factors paired per
gap, and paired_leave_one_out the prefix-and-suffix products that formed
its leave-one-out rows before the one division by each root factor.
capacity_tail is one of the capacity's two tail formulas in a call of the
tail rule of its own, as green._capacity_both computed each before it
integrated both in one call.
trace_lobe is the disk-and-march
reference for one lobe, in complex arithmetic from an inner disk found by
halving alone and a march outward by a factor 1.1, that
lemniscatic.trace_boundary replaced with one ray solver over every lobe, and
trace_full_circle that ray solver on every ray of the circle, as
trace_boundary ran it before it solved the rays from 0 to pi alone and
mirrored them.
distance_to_E is the loop over every component that mapping._distance_to_E
replaced with a bisection on the endpoints.  map_equation is the map
equation summed by a Python loop over the centers, for the scalar
damped_newton, and real_gap_image the real-gap branch of map_point on it,
both as the map ran them before every map equation took the masked Newton
on mapping._batch_equation.  gauss_legendre_reference is
quadrature._gauss_legendre from Tricomi's start with three allocating
Newton passes at every order, as it was before orders from 128 on started
from the zeros of J_0 and took one pass.
"""

import math

import numpy as np

from walshmap import lemniscatic, mapping
from walshmap.errors import BracketFailure, NoConvergence, PoleAtCenter, RootNotBracketed
from walshmap.green import _plain_deriv, green_real
from walshmap.lemniscatic import (BoundaryTrace, _deriv_values, _green_values, _outer_reach,
                                  _solve_rays)
from walshmap.newton import _bisect, damped_newton
from walshmap.quadrature import integrate_tail


def green_scalar(w, a, m, cap):
    total = -math.log(cap)
    for aj, mj in zip(a, m):
        d = abs(w - aj)
        if d == 0.0:
            raise PoleAtCenter(f"Green's function evaluated at center {aj}")
        total += mj * math.log(d)
    return total


def deriv_scalar(w, a, m):
    return math.fsum(mj / (w - aj) for aj, mj in zip(a, m))


def crit_points(a, m):
    """Bisection on the sign of sum m_j/(w - a_j), one gap at a time, then
    Newton polish on the polynomial form sum m_j prod_{i != j} (w - a_i)."""
    a = [float(v) for v in a]
    m = [float(v) for v in m]
    ell = len(a)

    def poly(w):
        return math.fsum(
            m[j] * math.prod(w - a[i] for i in range(ell) if i != j)
            for j in range(ell))

    def dpoly(w):
        total = 0.0
        for j in range(ell):
            for skip in range(ell):
                if skip == j:
                    continue
                total += m[j] * math.prod(
                    w - a[i] for i in range(ell) if i != j and i != skip)
        return total

    out = []
    for k in range(ell - 1):
        width = a[k + 1] - a[k]
        lo = max(a[k] + 1e-14 * width, float(np.nextafter(a[k], a[k + 1])))
        hi = min(a[k + 1] - 1e-14 * width, float(np.nextafter(a[k + 1], a[k])))
        flo = deriv_scalar(lo, a, m)
        fhi = deriv_scalar(hi, a, m)
        if not (flo > 0 > fhi):
            raise BracketFailure(f"derivative does not change sign in ({a[k]}, {a[k + 1]})")
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            if deriv_scalar(mid, a, m) > 0:
                lo = mid
            else:
                hi = mid
        w = 0.5 * (lo + hi)
        for _ in range(3):
            d = dpoly(w)
            if d == 0.0:
                break
            step = poly(w) / d
            if abs(step) > width:
                break
            w -= step
        out.append(min(max(w, a[k]), a[k + 1]))
    return np.array(out)


def halving_bisect(f, pos, neg):
    """Midpoints of the array brackets (pos, neg), where f(pos) > 0 >= f(neg),
    after bisecting all of them at once on the sign of f: 90 halvings, or
    fewer once every bracket is down to adjacent floats."""
    for _ in range(90):
        mid = 0.5 * (pos + neg)
        if np.all((mid == pos) | (mid == neg)):
            break
        up = f(mid) > 0
        pos = np.where(up, mid, pos)
        neg = np.where(up, neg, mid)
    return 0.5 * (pos + neg)


def bisect_reference(f, pos, neg, start=None):
    """newton._bisect before it updated its brackets in place: the same
    iterates and stops, each array rebuilt by np.where on every pass."""
    pos = np.array(pos, dtype=float)
    neg = np.array(neg, dtype=float)
    x = root = 0.5 * (pos + neg) if start is None else np.array(start, dtype=float)
    live = np.ones(x.shape, dtype=bool)
    small_newton = np.zeros(x.shape, dtype=bool)
    f_prev = np.full(x.shape, np.inf)
    for _ in range(90):
        fx, slope = f(x)
        up = fx > 0
        pos = np.where(up, x, pos)
        neg = np.where(up, neg, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / slope
        mid = 0.5 * (pos + neg)
        at_x = ((fx == 0.0) | (np.abs(step) <= 2.0 * np.spacing(np.abs(x)))
                | (small_newton & (np.abs(fx) >= 0.5 * f_prev)))
        adjacent = (mid == pos) | (mid == neg)
        stop = live & (at_x | adjacent)
        root = np.where(stop, np.where(at_x, x, mid), root)
        live &= ~stop
        if not live.any():
            return root
        newton = x - step
        inside = (newton - pos) * (newton - neg) < 0.0
        small_newton = inside & (np.abs(step) <= 1.5e-8 * np.abs(x))
        f_prev = np.abs(fx)
        x = np.where(live, np.where(inside, newton, mid), x)
    return np.where(live, 0.5 * (pos + neg), root)


def nested_center_solve(E, m, cap, data, a0):
    """lemniscatic._center_solve with the critical points solved at every
    trial: w = crit_points(a) from the first-order motion of the last
    evaluation's w (from the bracket midpoints at the first), on the same
    rows, damped-Newton settings and stops.  Returns (a, w, steps, residual
    norm), on a stall the largest row of lemniscatic.row_rounding, after
    the polishing full step where that lowers the rows' largest excess
    over their rounding; raises NoConvergence on a stall whose largest row
    is above its rounding."""
    frame = E.frame
    p = E.unit
    m = np.asarray(m, dtype=float)
    targets = np.append(np.asarray(data.green_at_roots) + math.log(cap / p), data.alpha)
    last = []  # (a, w) of the last evaluation

    def residual(a):
        start = None
        if last:
            a_last, w_last = last.pop()
            q = m / (w_last[:, None] - a_last) ** 2
            start = w_last + (q @ (a - a_last)) / q.sum(1)
        last.append((a, lemniscatic.crit_points(a, m, start=start)))
        return lemniscatic._center_newton(a, last[0][1], m, targets, frame, p)

    stall = None
    try:
        a, F, steps = damped_newton(
            residual, np.array(a0, dtype=float),
            admissible=lambda a: np.all(np.diff(a) > 0),
            tol=1e-14, step_tol=lambda a: 2.0 * np.spacing(np.abs(a)),
            max_steps=80, max_halvings=20)
        resid = float(np.max(np.abs(F)))
    except NoConvergence as exc:
        stall, a, steps, resid = exc, exc.best, exc.steps, exc.estimate
    w_last = last[0][1]
    w = lemniscatic.crit_points(a, m, start=w_last)
    if stall is None and not np.array_equal(w, w_last):
        resid = float(np.max(np.abs(
            lemniscatic._center_newton(a, w, m, targets, frame, p)[0])))
    if stall is not None:
        rows, rounding = lemniscatic.row_rounding(E, data, a, w, m)
        k = np.argmax(np.abs(rows[:-1]))
        resid = float(abs(rows[k]))
        if not resid <= rounding[k]:
            raise NoConvergence(f"center Newton stalled: {stall}", best=stall.best,
                                estimate=stall.estimate) from stall
        a_new = a + lemniscatic._center_newton(a, w, m, targets, frame, p)[1]
        if np.all(np.diff(a_new) > 0):
            w_new = lemniscatic.crit_points(a_new, m, start=w)
            rows_new, rounding_new = lemniscatic.row_rounding(E, data, a_new, w_new, m)
            if np.max(np.abs(rows_new) - rounding_new) < np.max(np.abs(rows) - rounding):
                a, w, steps = a_new, w_new, steps + 1
                resid = float(np.max(np.abs(rows_new[:-1])))
    return a, w, steps, resid


def path(E, base, z):
    """Vertices after base of the straight path from base to z, testing
    every endpoint for a split."""
    span = z - base
    length = abs(span)
    length2 = length * length
    splits = []
    for bj in E.endpoints:
        if bj == base:
            continue
        s = ((bj - base) * span.conjugate()).real / length2
        if not 1e-9 < s < 1.0 - 1e-9:
            continue
        if abs(base + span * s - bj) < min(0.1, s) * length:
            splits.append(s)
    hull = E.endpoints[-1] - E.endpoints[0]
    d = 4.0 * hull
    while d < 0.5 * length:
        splits.append(d / length)
        d *= 8.0
    splits.sort()
    knots = []
    for s in splits:
        if not knots or s > knots[-1] * (1.0 + 1e-6):
            knots.append(s)
    return [base + span * s for s in knots] + [z]


def _bisect_green_zero(a, m, cap, lo, hi, f_lo_positive):
    def g(w):
        return green_scalar(w, a, m, cap)

    if (g(lo) > 0) != f_lo_positive:
        raise BracketFailure(f"no bracket for a boundary zero on ({lo}, {hi})")
    x0, x1 = lo, hi
    for _ in range(90):
        mid = 0.5 * (x0 + x1)
        if (g(mid) > 0) == f_lo_positive:
            x0 = mid
        else:
            x1 = mid
    w = 0.5 * (x0 + x1)
    for _ in range(2):
        d = deriv_scalar(w, a, m)
        if d != 0.0 and np.isfinite(d):
            w -= g(w) / d
    return w


def boundary_abscissae(a, m, cap, crit=None):
    """Each real zero of g bracketed and bisected on its own: the outermost
    by outward doubling, the interior pairs against the critical points."""
    a = [float(v) for v in a]
    m = [float(v) for v in m]
    ell = len(a)
    if crit is None:
        crit = crit_points(a, m)

    def g(w):
        return green_scalar(w, a, m, cap)

    def inward_negative(center, toward):
        x = toward
        for _ in range(1100):
            x = center + 0.5 * (x - center)
            if x == center:
                raise BracketFailure("bracket collapsed onto a center")
            if g(x) < 0:
                return x
        raise BracketFailure(f"no negative value of g found near center {center}")

    out = []
    r = max(cap, 1e-12)
    for _ in range(200):
        if g(a[0] - r) > 0:
            break
        r *= 2.0
    else:
        raise BracketFailure("g stayed nonpositive arbitrarily far left")
    neg = inward_negative(a[0], a[0] - r)
    out.append(_bisect_green_zero(a, m, cap, a[0] - r, neg, True))
    for k in range(ell - 1):
        if g(crit[k]) <= 0:
            raise BracketFailure(
                f"Green's function nonpositive at critical point {crit[k]}")
        neg = inward_negative(a[k], crit[k])
        out.append(_bisect_green_zero(a, m, cap, neg, crit[k], False))
        neg = inward_negative(a[k + 1], crit[k])
        out.append(_bisect_green_zero(a, m, cap, crit[k], neg, True))
    r = max(cap, 1e-12)
    for _ in range(200):
        if g(a[-1] + r) > 0:
            break
        r *= 2.0
    else:
        raise BracketFailure("g stayed nonpositive arbitrarily far right")
    neg = inward_negative(a[-1], a[-1] + r)
    out.append(_bisect_green_zero(a, m, cap, neg, a[-1] + r, False))
    return np.array(out)


def distance_to_E(E, z):
    best = math.inf
    for lo, hi in E.components:
        dx = max(lo - z.real, z.real - hi, 0.0)
        best = min(best, math.hypot(dx, z.imag))
    return best


def map_equation(dom, target, log):
    """damped_newton's fun for sum m_j log(w - a_j) - log(cap) = target,
    with log = cmath.log for the complex equation and real_log for the real
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


def real_log(d):
    return math.log(abs(d))


def real_gap_image(x, k, E, dom, data):
    """(w, residual, steps) of the real point x of gap k by the scalar
    damped_newton on map_equation, on map_point's bracket of the gap, from
    its start, with its stop and limits."""
    target = green_real(x, E, data)
    if k == 0:
        lo = dom.centers[0] - _outer_reach(dom.capacity, max(target, 0.0))
        hi = dom.boundary_c[0]
    elif k == E.ell:
        lo = dom.boundary_c[-1]
        hi = dom.centers[-1] + _outer_reach(dom.capacity, max(target, 0.0))
    elif x < data.roots[k - 1]:
        lo, hi = dom.boundary_c[2 * k - 1], dom.crit_w[k - 1]
    else:
        lo, hi = dom.crit_w[k - 1], dom.boundary_c[2 * k]
    w0 = mapping._gap_image(x, k, E, dom, data)
    w, F, steps = damped_newton(
        map_equation(dom, target, real_log), w0 if lo < w0 < hi else 0.5 * (lo + hi),
        admissible=lambda w: lo < w < hi, tol=mapping._TOL, max_steps=200, max_halvings=40)
    return w, abs(F), steps


def critical_points(E, coeffs):
    """Roots of the numerator polynomial with coefficients coeffs, one per
    bounded gap of E.

    Bisection bracketed on each gap down to width 1e-10, then three Newton
    polish steps with the analytic derivative.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    dcoeffs = np.polynomial.polynomial.polyder(coeffs)
    b = E.endpoints
    roots = []
    for k in range(1, E.ell):
        lo, hi = b[2 * k - 1], b[2 * k]
        flo = np.polynomial.polynomial.polyval(lo, coeffs)
        fhi = np.polynomial.polynomial.polyval(hi, coeffs)
        if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
            raise RootNotBracketed(
                f"no sign change of the numerator polynomial on gap {k}")
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            fm = np.polynomial.polynomial.polyval(mid, coeffs)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        z = 0.5 * (lo + hi)
        for _ in range(3):
            fz = np.polynomial.polynomial.polyval(z, coeffs)
            dz = np.polynomial.polynomial.polyval(z, dcoeffs)
            if dz == 0.0:
                break
            step = fz / dz
            if abs(step) > 2.0 * max(hi - lo, 1e-10):
                break  # polishing must stay inside the bisection bracket
            z -= step
        roots.append(z)
    return np.array(roots)


def rational_mass_fit(m, tol: float = 1e-6, max_denominator: int = 64):
    """Search a common denominator n <= max_denominator with m_j ~ n_j/n.

    Returns (n, (n_1, ..., n_ell)) for the smallest fitting n, or None.  A fit
    signals (numerically, within tol) that E may be a polynomial pre-image;
    no claim is made beyond the tolerance.
    """
    m = [float(v) for v in m]
    for n in range(1, max_denominator + 1):
        counts = [round(v * n) for v in m]
        if any(c < 1 for c in counts) or sum(counts) != n:
            continue
        if all(abs(v - c / n) <= tol for v, c in zip(m, counts)):
            return n, tuple(counts)
    return None


def endpoint_weight_fd(E, i_lo, i_hi):
    """Bounds and integrand fd(x, d_lo, d_hi) = 1/sqrt|H| of the scalar
    Chebyshev rule on [b[i_lo], b[i_hi]], with the exact distances to those
    two endpoints and (b[i_lo] - b_j) + d_lo to the others."""
    b = np.asarray(E.endpoints)
    lo, hi = b[i_lo], b[i_hi]
    lo_off = (lo - np.delete(b, [i_lo, i_hi]))[:, None]

    def fd(x, d_lo, d_hi):
        factors = np.empty((len(lo_off) + 1,) + np.shape(d_lo))
        factors[0] = d_lo * d_hi
        np.abs(np.add(lo_off, d_lo, out=factors[1:]), out=factors[1:])
        return 1.0 / np.sqrt(np.prod(factors, axis=0))

    return float(lo), float(hi), fd


def paired_leave_one_out(num, sq):
    """green._paired_ratio(num, sq, leave_one_out=True) from prefix and
    suffix products of the paired factors: row 0 the product, row 1 + j
    (factors before j) * (factors after j) / pair j, so no factor is divided
    out.  num and sq are left unchanged."""
    pair = sq[1:-1:2] * sq[2:-1:2]
    ratio = num / pair
    outer = sq[0] * sq[-1]
    prefix = np.cumprod(ratio, axis=0)
    out = np.empty((len(ratio) + 1,) + outer.shape, dtype=ratio.dtype)
    out[0] = prefix[-1]
    out[1] = 1.0
    out[2:] = prefix[:-1]
    out[1:-1] *= np.cumprod(ratio[:0:-1], axis=0)[::-1]
    out[1:] /= pair
    out /= outer
    return out


def capacity_tail(E, roots, side, cfg):
    """cap = shift exp(integral of 1/|x - beta| - |N/S|) over the ray beyond
    b_2l (side +1) or b_1 (side -1), beta one unit (E.unit) inside that
    endpoint, in units of E.unit, by one scalar call of the tail rule."""
    b = np.asarray(E.endpoints)
    base, unit = (b[-1] if side > 0 else b[0]), E.unit
    shift = side * (base - (base - side * unit))
    ratio = _plain_deriv(E, roots)

    def fd(u):
        delta = unit * u
        return unit * (1.0 / (delta + shift) - side * ratio(side * delta, base))

    return shift * math.exp(integrate_tail(None, base, side, cfg, fd=fd))


def trace_lobe(dom, j, n_rays):
    """The closed polyline of trace_boundary on the lobe around center j, or
    None where it reports the lobe unsampled: the inner disk halved from the
    nearer on-axis crossing, never widened again, and each ray's g and slope
    from complex w - a_i."""
    a = np.asarray(dom.centers)
    m = np.asarray(dom.exponents.m)
    cap = dom.capacity
    c = dom.boundary_c
    center = a[j]
    r_in = min(center - c[2 * j], c[2 * j + 1] - center)
    while np.log(np.abs(a - center) + r_in) @ m >= math.log(cap):
        r_in *= 0.5
        if r_in < np.spacing(abs(center)):
            return None
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
            return None
        neg[marching] = pos[marching]
        pos[marching] = np.minimum(1.1 * pos[marching], r_out[marching])
        marching = marching[level(pos[marching], marching) <= 0]

    def level_slope(r):
        w = center + r * ray
        return _green_values(w, a, m, cap), (ray * _deriv_values(w, a, m)).real

    r = _bisect(level_slope, pos, neg, start=neg)
    for factor in (1.005, 1.02, 1.05):
        if np.any(level(np.minimum(r * factor, r_out)) <= 0):
            return None
    pts = center + r * ray
    return np.append(pts, pts[:1])


def trace_full_circle(dom, n):
    """trace_boundary(dom, n) with _solve_rays on all n rays of the circle,
    the re-entry checks on every one of them, and no mirror."""
    a = np.asarray(dom.centers)
    ray = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
    r, r_out, inner, outer, level = _solve_rays(
        a, np.asarray(dom.exponents.m), dom.capacity, np.asarray(dom.crit_w, dtype=float), ray)
    reasons = [f"no disk inside L around center {aj}" if inner[j].any()
               else f"rays from center {aj} reach their outer end inside L" if outer[j].any()
               else None for j, aj in enumerate(dom.centers)]
    for factor in (1.005, 1.02, 1.05):
        inside = (level(np.minimum(r * factor, r_out)) <= 0).any(1)
        for j in np.flatnonzero(inside).tolist():
            reasons[j] = reasons[j] or f"rays from center {a[j]} re-enter the level set"
    pts = a[:, None] + r * ray
    return [BoundaryTrace(center, None, False, reasons[j]) if reasons[j]
            else BoundaryTrace(center, np.append(pts[j], pts[j, :1]), True)
            for j, center in enumerate(dom.centers)]


def gauss_legendre_reference(n):
    """quadrature._gauss_legendre as built before it started from the zeros
    of J_0: at every order Tricomi's start and three Newton passes, each
    allocating its recurrence's arrays anew at every degree."""
    def newton(x):
        xm1 = x - 1
        p, d = x, xm1  # P_1 and P_1 - P_0
        for k in range(1, n):
            d = ((2 * k + 1) * xm1 * p + k * d) / (k + 1)
            p = p + d
        one_minus_x2 = -xm1 * (1 + x)
        dp = n * (-xm1 * p - d) / one_minus_x2
        step = p / dp
        w = 2 / (one_minus_x2 * dp ** 2) * (1 + 2 * x * step / one_minus_x2)
        return x - step, w

    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n ** 3)
         - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4)) * np.cos(theta)
    for _ in range(3):
        x, w = newton(x)
    odd = n % 2
    if odd:
        x[-1] = 0.0
    m = x.size - odd
    u = np.concatenate((-x[:m], x[::-1]))
    w = np.concatenate((w[:m], w[::-1]))
    w *= 2 / w.sum()
    return u, w
