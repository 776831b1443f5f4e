"""Green's function of the complement of an interval union.

Everything on the E side: the analytic square-root branch of the endpoint
polynomial, the monic numerator polynomial of the Green's derivative, its
roots (the critical points), the real and complex Green's function, the
equilibrium masses of the components, the logarithmic capacity, and the
1/z^2 Laurent coefficient alpha.

Twice the Wirtinger derivative of the Green's function is N(z)/S(z), where
S = sqrt_branch is the square root of prod(z - b_j) that behaves like z^ell
at infinity and N is the monic degree ell-1 polynomial whose integral over
every bounded gap of E vanishes.
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityMismatch, NoConvergence, NotOnCut, OnCutError,
                     PathOnCut, RootNotBracketed, SingularSystem)
from .intervals import IntervalUnion, locate
from .newton import damped_newton
from .quadrature import (DEFAULT_CONFIG, QuadConfig, integrate_chebyshev,
                         integrate_segment_complex, integrate_tail)

__all__ = [
    "GreenData",
    "sqrt_branch",
    "sqrt_branch_rim",
    "green_poly",
    "green_real",
    "green_complex",
    "capacity",
    "alpha_coefficient",
    "green_data",
]


@dataclass(frozen=True)
class GreenData:
    """Computed Green's-function data for one interval union.

    coeffs holds the full ascending coefficients of the monic numerator
    polynomial (last entry 1.0); roots are its zeros, one per bounded gap,
    which are exactly the critical points of the Green's function.  masses
    are the equilibrium masses of the components as integrated, before
    equilibrium.exponents checks and renormalizes them.
    Immutable; all evaluation helpers are pure.
    """

    domain: IntervalUnion
    coeffs: tuple[float, ...]
    roots: tuple[float, ...]
    green_at_roots: tuple[float, ...]
    masses: tuple[float, ...]
    capacity: float
    capacity_mismatch: float
    alpha: float


def sqrt_branch(E: IntervalUnion, z) -> complex:
    """Branch of sqrt(prod(z - b_j)) that behaves like z^ell at infinity.

    Computed as the product of principal square roots sqrt(z - b_j), which is
    analytic exactly off E; on the bounded gaps it is real with sign
    (-1)^(ell - k).  Raises OnCutError on E itself (use sqrt_branch_rim).
    """
    z = np.asarray(z, dtype=complex)
    b = E.endpoints
    on_axis = z.imag == 0.0
    if np.any(on_axis):
        x = z.real
        for j in range(E.ell):
            if np.any(on_axis & (b[2 * j] <= x) & (x <= b[2 * j + 1])):
                raise OnCutError("sqrt_branch evaluated on E; use sqrt_branch_rim")
    for bj in b:
        d = z - bj
        # values this close to an endpoint are indistinguishable from the cut
        if np.any(np.abs(d) < 1e-300):
            raise OnCutError(f"evaluation point within 1e-300 of endpoint {bj}")
    out = np.ones_like(z)
    for bj in b:
        out = out * np.sqrt(z - bj)
    return out if out.ndim else complex(out)


def sqrt_branch_rim(E: IntervalUnion, x, side: int) -> complex:
    """One-sided limit of sqrt_branch on the cut, from above (+1) or below (-1).

    For x on component j the limit is  side * i * (-1)^(ell - j) * sqrt|H(x)|
    with the positive real root.
    """
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    x = float(x)
    loc = locate(E, x)
    if not loc.inside:
        raise NotOnCut(f"x = {x} is not on E")
    b = E.endpoints
    absH = math.prod(abs(x - bj) for bj in b)
    return side * 1j * (-1) ** (E.ell - loc.index) * math.sqrt(absH)


def _endpoint_weight_fd(E: IntervalUnion, i_lo: int, i_hi: int, roots=(),
                        leave_one_out=False):
    """Bounds and integrand fd(x, d_lo, d_hi) = prod(x - z_k)/sqrt|H| over
    the roots z_k on [b[i_lo], b[i_hi]] (a bounded gap I_k is (2k-1, 2k),
    the j-th component (2j-2, 2j-1)), with exact endpoint distances; with
    no roots it is the weight 1/sqrt|H| alone.

    With leave_one_out the integrand is a block for the vector-valued
    Chebyshev rule: row 0 the full product, row 1 + j the product without
    factor j, from prefix and suffix products, so no factor is divided out.
    """
    b = np.asarray(E.endpoints)
    lo, hi = b[i_lo], b[i_hi]
    lo_off = (lo - np.delete(b, [i_lo, i_hi]))[:, None]
    roots = np.asarray(roots, dtype=float)[:, None]
    n = len(roots)

    def fd(x, d_lo, d_hi):
        # row 0 is d_lo * d_hi, so the product runs in the order of a
        # left-to-right loop over the factors
        factors = np.empty((len(lo_off) + 1,) + np.shape(d_lo))
        factors[0] = d_lo * d_hi
        np.abs(np.add(lo_off, d_lo, out=factors[1:]), out=factors[1:])
        weight = 1.0 / np.sqrt(np.prod(factors, axis=0))
        if n == 0:
            return weight
        factors = x - roots
        prefix = np.cumprod(factors, axis=0)
        if not leave_one_out:
            return prefix[-1] * weight
        # row 1 + j: (factors before j) * (factors after j)
        rows = np.ones((n + 1,) + x.shape)
        rows[0] = prefix[-1]
        rows[2:] = prefix[:-1]
        rows[1:-1] *= np.cumprod(factors[:0:-1], axis=0)[::-1]
        rows *= weight
        return rows

    return float(lo), float(hi), fd


def _gap_system(E: IntervalUnion, roots, cfg: QuadConfig, want_jacobian=True):
    """Residuals F_i = integral over gap i of prod(x - z_k)/sqrt|H| and the
    Jacobian dF_i/dz_j = -integral of the product with factor j removed.

    One vector-valued quadrature per gap integrates F_i and its Jacobian row
    on a shared node set (see _endpoint_weight_fd).
    """
    ell = E.ell
    n = ell - 1
    F = np.empty(n)
    J = np.empty((n, n)) if want_jacobian else None
    for i in range(1, ell):
        lo, hi, fd = _endpoint_weight_fd(E, 2 * i - 1, 2 * i, roots,
                                         leave_one_out=want_jacobian)
        out = integrate_chebyshev(None, lo, hi, cfg, fd=fd)
        if want_jacobian:
            F[i - 1] = out[0]
            J[i - 1] = -out[1:]
        else:
            F[i - 1] = out
    return F, J


# Newton steps on the gap conditions, and halvings of one step, before giving
# up; from the gap midpoints the benchmark's sets stop after 3 or 4 steps
_NEWTON_STEPS = 20
_MAX_HALVINGS = 40


def _solve_numerator(E: IntervalUnion, cfg: QuadConfig):
    """Numerator roots and coefficients to quadrature accuracy.

    Damped Newton on the gap conditions in root space, started from the gap
    midpoints.  Root space is well conditioned (one root per gap, diagonally
    dominant Jacobian) even where the coefficient problem is not.  The
    residual is each gap condition over its roundoff scale |J| max(|z|, 1),
    the amplification of representing the roots; a step is halved until
    every root stays strictly inside its gap and the residual falls.  The
    iteration stops at a full step no larger than 1e-14 of the gap width or
    4 ulp of the root, and every gap condition is then checked at the last
    residual.  Raises SingularSystem for a singular or non-finite Jacobian
    or a gap condition missed at the result, and RootNotBracketed when no
    halving of a step is taken.
    """
    ell = E.ell
    if ell == 1:
        return np.array([1.0]), np.array([])
    b = np.asarray(E.endpoints)
    lo, hi = b[1:-1:2], b[2:-1:2]

    def fun(roots):
        F, J = _gap_system(E, roots, cfg)
        if not np.all(np.isfinite(J)):
            raise SingularSystem("gap-condition Jacobian is not finite")
        try:
            delta = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"gap-condition Jacobian singular: {exc}")
        return F / (np.abs(J) @ np.maximum(np.abs(roots), 1.0)), delta

    try:
        roots, F, _ = damped_newton(
            fun, 0.5 * (lo + hi),
            admissible=lambda roots: np.all((lo < roots) & (roots < hi)),
            step_tol=lambda roots: np.maximum(
                1e-14 * (hi - lo), 4.0 * np.spacing(np.abs(roots))),
            max_steps=_NEWTON_STEPS, max_halvings=_MAX_HALVINGS)
    except NoConvergence as exc:
        if np.shape(exc.best) != lo.shape:
            raise  # a gap rule's, whose best has a row per root and one for F
        raise RootNotBracketed(f"gap conditions unsolved: {exc}") from exc
    k = int(np.argmax(np.abs(F)))
    if abs(F[k]) > 10.0 * cfg.tolerance(1.0):
        raise SingularSystem(
            f"gap condition violated on gap {k + 1}: scaled residual {F[k]:.3e}")
    return np.polynomial.polynomial.polyfromroots(roots), roots


def green_poly(E: IntervalUnion, cfg: QuadConfig | None = None) -> np.ndarray:
    """Monic numerator polynomial of the Green's derivative (ascending coeffs).

    Built from its roots, which damped Newton on the gap conditions finds
    one per bounded gap; every gap condition is re-verified at the result.
    """
    coeffs, _ = _solve_numerator(E, cfg or DEFAULT_CONFIG)
    return coeffs


# nodes per N/S evaluation: bounds the (2 ell, block) square-root temporaries,
# whose peaks otherwise stay in the resident memory of the process
_NS_BLOCK = 256


def _ns_ratio(r_off, e_off):
    """fd(t, base=None) = prod(t + r_k) / prod(sqrt(t + e_j)) at the nodes t,
    for root offsets r (ell - 1) and endpoint offsets e (2 ell) to a
    common base.  The last axis of t holds the nodes of one panel (a 1-D t
    is one panel).  A real `base`, a scalar or one value per panel (shape
    t.shape[:-1] + (1,)), moves the offsets of each panel first, to
    base + r_k and base + e_j, so an endpoint equal to the base is at
    offset exactly 0.  Nodes are evaluated in blocks of at most _NS_BLOCK:
    whole panels, or pieces of one.

    Root k is paired against component k's endpoints, so every factor is
    O(1) and no partial product can overflow.  Each t + e_j gets its own
    principal square root: the root of a product could change the branch.
    """
    r_off, e_off = r_off[:, None, None], e_off[:, None, None]

    def block(tb, r, e):
        sq = tb + e
        np.sqrt(sq, out=sq)
        den = np.multiply(sq[0:-2:2], sq[1:-2:2], out=sq[0:-2:2])
        ratio = tb + r
        ratio /= den
        return np.multiply.reduce(ratio) / (sq[-2] * sq[-1])

    def fd(t, base=None):
        panels = t.reshape(-1, t.shape[-1])
        r, e = r_off, e_off
        if base is not None:
            column = np.asarray(base).reshape(1, -1, 1)
            r, e = column + r, column + e
        if panels.size <= _NS_BLOCK:  # one block (a single point's panels): no buffer
            return block(panels, r, e).reshape(t.shape)
        out = np.empty(panels.shape, dtype=np.result_type(t, float))
        count, n = panels.shape
        step = max(1, _NS_BLOCK // n)
        for i in range(0, count, step):
            rows = slice(i, i + step)
            ri, ei = (r[:, rows], e[:, rows]) if r.shape[1] > 1 else (r, e)
            for j in range(0, n, _NS_BLOCK):
                cols = slice(j, j + _NS_BLOCK)
                out[rows, cols] = block(panels[rows, cols], ri, ei)
        return out.reshape(t.shape)

    return fd


def _green_real(E: IntervalUnion, roots, x: float, cfg: QuadConfig) -> float:
    if E.contains(x):
        return 0.0
    loc = locate(E, complex(x))
    k = loc.index
    b = E.endpoints
    if k == 0:
        base = b[0]
    elif k == E.ell:
        base = b[-1]
    else:
        lo, hi = b[2 * k - 1], b[2 * k]
        base = lo if x - lo <= hi - x else hi
    val = _green_integral(E, roots, base, complex(x), cfg).real
    if val < 0.0:
        val = max(val, 0.0) if val > -100.0 * cfg.abs_tol else val
    return val


def green_real(z: float, E: IntervalUnion, data: GreenData,
               cfg: QuadConfig | None = None) -> float:
    """Green's function at real z, integrated from the nearest endpoint of the
    surrounding gap.  Zero on E itself."""
    return _green_real(E, data.roots, float(z), cfg or DEFAULT_CONFIG)


def _plain_deriv(E: IntervalUnion, roots):
    """Vectorized N/S: f(z) at points comfortably away from every endpoint,
    and f(offset, base) from an endpoint `base` (see _ns_ratio), which
    represents the local 1/sqrt factor by the offset alone."""
    return _ns_ratio(-np.asarray(roots, dtype=float), -np.asarray(E.endpoints))


def _path(E: IntervalUnion, base: float, z: complex) -> list[complex]:
    """Vertices after `base` of the straight path from the endpoint `base` to
    z: its knots, then z.

    The segment is subdivided at its closest-approach point to any other
    endpoint that comes within a tenth of the path length and closer to the
    path than that point lies to the base: a branch point near the middle
    of a Gauss panel stalls the rule, while one just beyond a panel end is
    harmless.  (An endpoint behind the base projects next to it, and a knot
    there would start a panel beside the base singularity.)
    """
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
    # far targets: the integrand decays like 1/zeta over many decades, which a
    # single Gauss panel cannot resolve; subdivide geometrically beyond the set
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


def _green_integral(E: IntervalUnion, roots, base, z, cfg: QuadConfig):
    """Integral of N/S along the straight segment from the endpoint `base`
    to z, a complex number or an array of them, in panels between the
    vertices of _path.  base is one endpoint, or an array of them that
    broadcasts against z (a base per point).

    Every point's first panel, singular at its base, goes into one vector
    call of the segment rule, which hands each panel's base to the
    integrand, and every later panel into one more; each point's panels
    are then added in path order.  For a scalar z the first
    panel that does not converge raises NoConvergence with its own message,
    last estimate (best) and error estimate, both scalars.  For an array the
    other points are unaffected: the result has z's shape, and if any point
    failed, NoConvergence is raised with that result as its best, NaN at
    each failed point (a converged panel is finite).
    """
    z = np.asarray(z, dtype=complex)
    bases = np.empty(z.shape)
    bases[...] = base
    paths = [_path(E, b, p) for b, p in zip(bases.reshape(-1).tolist(),
                                            z.reshape(-1).tolist())]
    # one row of vertices per point, padded with z: the padding panels from
    # z to z have zero length and add nothing
    width = max(map(len, paths), default=1)
    verts = np.array([path + path[-1:] * (width - len(path)) for path in paths],
                     dtype=complex).reshape(z.shape + (width,))

    def panels(f, z0, z1, singular_at_start=False, fd=None):
        """Panel values, NaN where a panel did not converge."""
        try:
            return integrate_segment_complex(f, z0, z1, singular_at_start, cfg, fd=fd)
        except NoConvergence as exc:
            # the rule's own stopping test picks out the unconverged panels
            failed = ~(exc.estimate <= cfg.tolerance(exc.best))
            if z.ndim:
                return np.where(failed, np.nan, exc.best)
            # one point: the payload of its first failing panel, which the
            # message names, as for a path integrated panel by panel
            i = np.argmax(np.ravel(failed))
            exc.best = complex(np.ravel(exc.best)[i])
            exc.estimate = float(np.ravel(exc.estimate)[i])
            raise

    ratio = _plain_deriv(E, roots)
    total = panels(None, bases, verts[..., 0], True,
                   lambda offset, start: ratio(offset, start.real))
    if width > 1:
        later = panels(ratio, verts[..., :-1], verts[..., 1:])
        for k in range(width - 1):
            total = total + later[..., k]
    if not z.ndim:
        return complex(total)
    failed = np.count_nonzero(np.isnan(total))
    if failed:
        raise NoConvergence(f"Green's integral did not converge at {failed} of "
                            f"{total.size} points", best=total)
    return total


def green_complex(z, E: IntervalUnion, data: GreenData,
                  cfg: QuadConfig | None = None):
    """Complex Green's function: the integral of N/S from b_{2l} to z, the
    branch analytic off (-inf, b_{2l}]; its real part is the Green's
    function.

    Each point is integrated along the straight segment from the endpoint
    b_i nearest Re z, so no other endpoint lies under its path (a path
    that runs along the set within |Im z| of its endpoints does not
    converge near the axis), and the change of base is added exactly:
    i pi (m_{k+1} + ... + m_ell) sign(Im z) for a base on gap
    k = (i + 1) // 2 (0-based i), with the normalized masses of data.

    z may be an array: every point's path is integrated at once (see
    _green_integral) and the result has z's shape.  A point whose path does
    not converge fails alone; NoConvergence then carries the whole result
    as best, NaN at each failed point.  For a scalar z it is the first
    failing panel's, with scalar best and estimate.

    Raises PathOnCut on the half-line (-inf, b_{2l}] (use green_real / rim
    conventions there).
    """
    cfg = cfg or DEFAULT_CONFIG
    z = np.asarray(z, dtype=complex)
    b = E.endpoints
    # pi (m_{k+1} + ... + m_ell) for k = 0 .. ell, with the masses normalized
    scale = math.pi / math.fsum(data.masses)
    tail = [scale * v for v in itertools.accumulate(reversed(data.masses),
                                                    initial=0.0)][::-1]
    bases, jumps = [], []
    for p in z.reshape(-1).tolist():
        x = p.real
        if p.imag == 0.0 and x <= b[-1]:
            raise PathOnCut(f"z = {p} lies on the excluded half-line")
        i = bisect.bisect_right(b, x)  # b[i - 1] <= x < b[i]
        if i == len(b) or (i > 0 and x - b[i - 1] <= b[i] - x):
            i -= 1
        bases.append(b[i])
        jumps.append(complex(0.0, math.copysign(tail[(i + 1) // 2], p.imag)))
    jump = np.array(jumps).reshape(z.shape)
    try:
        total = _green_integral(E, data.roots, np.reshape(bases, z.shape), z, cfg)
    except NoConvergence as exc:
        if z.ndim:
            exc.best = exc.best + jump  # NaN stays at each failed point
        raise
    return total + jump if z.ndim else complex(total + jump)


def _capacity_one(E: IntervalUnion, roots, side: int, beta: float,
                  cfg: QuadConfig) -> float:
    b = np.asarray(E.endpoints)
    base = b[-1] if side > 0 else b[0]
    shift = side * (base - beta)  # > 0 on either legal side
    if shift <= 0:
        raise ValueError("beta must lie strictly on the far side of the endpoint")
    # every offset is >= 0, so this is |N/S| at distance delta, in reals
    ratio = _ns_ratio(side * (base - np.asarray(roots, dtype=float)),
                      side * (base - b))

    def fd(delta):
        # on both tails the signed integrand reduces to 1/|x-beta| - |N/S|
        return 1.0 / (delta + shift) - ratio(delta)

    integral = integrate_tail(None, base, side, cfg, fd=fd)
    return shift * math.exp(integral)


def capacity(E: IntervalUnion, data_or_roots, cfg: QuadConfig | None = None,
             beta_right: float | None = None,
             beta_left: float | None = None) -> float:
    """Logarithmic capacity as the mean of the two tail formulas.

    Evaluates the right-tail formula with beta_right (default b_{2l} - 1) and
    the left-tail formula with beta_left (default b_1 + 1); their discrepancy
    is a built-in consistency diagnostic.
    """
    cfg = cfg or DEFAULT_CONFIG
    roots = data_or_roots.roots if isinstance(data_or_roots, GreenData) else data_or_roots
    cap, _ = _capacity_both(E, roots, cfg, beta_right, beta_left)
    return cap


def _capacity_both(E, roots, cfg, beta_right=None, beta_left=None):
    """Mean of the two tail formulas and their discrepancy; raises
    CapacityMismatch when they disagree by more than 100 tolerances."""
    b = E.endpoints
    beta_right = b[-1] - 1.0 if beta_right is None else beta_right
    beta_left = b[0] + 1.0 if beta_left is None else beta_left
    cap1 = _capacity_one(E, roots, +1, beta_right, cfg)
    cap2 = _capacity_one(E, roots, -1, beta_left, cfg)
    cap = 0.5 * (cap1 + cap2)
    if abs(cap1 - cap2) > 100.0 * cfg.tolerance(cap):
        raise CapacityMismatch(
            f"capacity formulas disagree: {cap1!r} vs {cap2!r}")
    return cap, abs(cap1 - cap2)


def alpha_coefficient(E: IntervalUnion, roots) -> float:
    """Coefficient of 1/z^2 in the expansion of twice the Green's derivative:
    half the endpoint sum minus the critical-point sum.  Equals the
    mass-weighted sum of the lemniscatic centers."""
    return 0.5 * math.fsum(E.endpoints) - math.fsum(float(r) for r in roots)


def _component_masses(E: IntervalUnion, roots, cfg: QuadConfig):
    """Equilibrium masses: the density |N|/(pi sqrt|H|) integrated over each
    component, not renormalized.

    On component j the numerator polynomial has constant sign (-1)^(ell-j),
    which is used instead of abs() to keep the integrand smooth for the
    Chebyshev rule.
    """
    ell = E.ell
    if ell == 1:
        return (1.0,)
    raw = []
    for j in range(1, ell + 1):
        lo, hi, fd = _endpoint_weight_fd(E, 2 * j - 2, 2 * j - 1, roots)
        sign = (-1.0) ** (ell - j)
        raw.append(sign / math.pi * integrate_chebyshev(None, lo, hi, cfg, fd=fd))
    return tuple(raw)


def green_data(E: IntervalUnion, cfg: QuadConfig | None = None) -> GreenData:
    """Compute the full Green's-function data set for E."""
    cfg = cfg or DEFAULT_CONFIG
    coeffs, roots = _solve_numerator(E, cfg)
    green_at_roots = tuple(_green_real(E, roots, float(z), cfg) for z in roots)
    masses = _component_masses(E, roots, cfg)
    cap, mismatch = _capacity_both(E, roots, cfg)
    return GreenData(
        domain=E,
        coeffs=tuple(float(c) for c in coeffs),
        roots=tuple(float(z) for z in roots),
        green_at_roots=green_at_roots,
        masses=masses,
        capacity=cap,
        capacity_mismatch=mismatch,
        alpha=alpha_coefficient(E, roots),
    )
