"""Green's function of the complement of an interval union.

Everything on the E side: the analytic square-root branch of the endpoint
polynomial, the monic numerator polynomial of the Green's derivative, its
roots (the critical points), the real and complex Green's function, the
equilibrium masses of the components, the logarithmic capacity, and the
1/z^2 Laurent coefficient alpha.

Twice the Wirtinger derivative of the Green's function is N(z)/S(z), where
S = sqrt_branch is the square root of prod(z - b_j) that behaves like z^ell
at infinity and N is the monic degree ell-1 polynomial whose integral over
every bounded gap of E vanishes.  These gap conditions are linear in N
(Embree & Trefethen, SIAM Rev. 41, 1999): each linear pass solves them
exactly from one Chebyshev call at nodes one per gap, and one more call
over all the intervals of the hull, at the roots of that N, checks them
and integrates the component masses (_solve_numerator).

Every integral of N/S forms it by one product, _paired_ratio: root k over
the square roots of its own gap's two endpoint distances, the outer pair
last, so no partial product underflows or overflows; the gap conditions'
Jacobian rows, each without one root factor, are that product divided
once by the factor.  Its callers only build the distances: exact ones per
interval for the gap conditions and the masses (_product_integrals);
offsets from an endpoint for the critical values, the capacity tails and
the Green paths (_plain_deriv), with sqrt|x - b_j| and the gap's sign on
the real axis and principal roots off it; and equilibrium.density.  The
two capacity tails are one call of the tail rule (_capacity_both).

The Green's function is the log potential of the equilibrium measure mu_E.
In the frame (t, s) of E, with zeta = (z - t)/s and the Joukowski variable
v = zeta + sqrt(zeta - 1) sqrt(zeta + 1), |v| > 1 off the hull segment,

    G(z) = log(s v / 2) - log cap - sum_{k >= 1} (e_k / k) v^-k

with e_k = 2 int T_k((x - t)/s) dmu_E, the Chebyshev moments of mu_E
(GreenData.chebyshev_moments, from the roots and endpoints alone).  Green
targets outside the ellipse |v| = 1.5 around the hull come from all K = 90
terms of this series, summed by one array function for one point or many
(_series_green); points inside it integrate N/S in one panel from the
endpoint nearest Re z, in real arithmetic on the real axis.  The oracle
_green_integral integrates N/S from any endpoint, in the panels of _path.
"""

import bisect
import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (CapacityMismatch, NoConvergence, NotFinite, NotOnCut,
                     OnCutError, PathOnCut, RootNotBracketed, SingularSystem)
from .intervals import IntervalUnion, locate
from .newton import _bisect
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


class _Targets(NamedTuple):
    """What every Green target of a set reads (GreenData._targets): the
    frame midpoint t and half-width s, the focal sum (V + 1/V) s of the
    ellipse |v| = V = _ELLIPSE, log cap, the series coefficients e_k / k for
    k = 1 .. K as an array, and the branch jumps pi (m_{k+1} + ... + m_ell)
    for k = 0 .. ell, masses normalized."""

    t: float
    s: float
    reach: float
    log_cap: float
    coeffs: np.ndarray
    jumps: list


@dataclass(frozen=True)
class GreenData:
    """Computed Green's-function data for one interval union.

    coeffs holds the full ascending coefficients of the monic numerator
    polynomial (last entry 1.0); roots are its zeros, one per bounded gap,
    which are exactly the critical points of the Green's function.  masses
    are the equilibrium masses of the components as integrated, before
    equilibrium.exponents checks and renormalizes them.
    Immutable; all evaluation helpers are pure.  The Chebyshev moments and
    the constants of the Green targets are derived on first use and cached.
    """

    domain: IntervalUnion
    coeffs: tuple[float, ...]
    roots: tuple[float, ...]
    green_at_roots: tuple[float, ...]
    masses: tuple[float, ...]
    capacity: float
    capacity_mismatch: float
    alpha: float

    @cached_property
    def chebyshev_moments(self) -> tuple[float, ...]:
        """e_0 = 1 and e_k = 2 integral of T_k((x - t)/s) dmu_E for k = 1 ..
        _CHEBYSHEV_TERMS in the frame (t, s) of the domain, so |e_k| <= 2
        (see _chebyshev_moments); built on first use."""
        return _chebyshev_moments(self.domain, self.roots)

    @cached_property
    def _targets(self) -> _Targets:
        """What every Green target of the set reads (_Targets), built on
        first use."""
        t, s = self.domain.frame
        e = self.chebyshev_moments
        scale = math.pi / math.fsum(self.masses)
        jumps = [scale * v for v in itertools.accumulate(reversed(self.masses),
                                                         initial=0.0)][::-1]
        return _Targets(t, s, (_ELLIPSE + 1.0 / _ELLIPSE) * s, math.log(self.capacity),
                        np.array(e[1:]) / np.arange(1, len(e)), jumps)


def sqrt_branch(E: IntervalUnion, z) -> complex:
    """Branch of sqrt(prod(z - b_j)) that behaves like z^ell at infinity.

    Computed as the product of principal square roots sqrt(z - b_j), which is
    analytic exactly off E; on the bounded gaps it is real with sign
    (-1)^(ell - k).  Raises OnCutError on E itself (use sqrt_branch_rim), and
    NotFinite at an infinite or NaN point.
    """
    z = np.asarray(z, dtype=complex)
    if not np.isfinite(z).all():  # name the first non-finite point
        _require_finite(complex(z.flat[np.argmin(np.isfinite(z))]))
    b = E.endpoints
    on_axis = z.imag == 0.0
    if np.any(on_axis):
        x = z.real
        for j in range(E.ell):
            if np.any(on_axis & (b[2 * j] <= x) & (x <= b[2 * j + 1])):
                raise OnCutError("sqrt_branch evaluated on E; use sqrt_branch_rim")
    out = np.ones_like(z)
    for bj in b:
        d = z - bj
        # values this close to an endpoint are indistinguishable from the cut
        if np.any(np.abs(d) < 1e-300):
            raise OnCutError(f"evaluation point within 1e-300 of endpoint {bj}")
        out = out * np.sqrt(d)
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
    # sqrt|H| as a mantissa and a binary exponent: on Cantor level 9 |H|
    # itself is 1e-574, below the float range, and its root 7.9e-288
    m, e = 1.0, 0
    for bj in E.endpoints:
        f, k = math.frexp(abs(x - bj))
        m, j = math.frexp(m * f)
        e += j + k
    if e % 2:
        m, e = 2.0 * m, e - 1
    return side * 1j * (-1) ** (E.ell - loc.index) * math.ldexp(math.sqrt(m), e // 2)


def _paired_ratio(num, sq, leave_one_out=False):
    """N/S from its factors in rows along axis 0: num[k] = x - z_k for the
    ell - 1 roots, sq[j] a square root of x - b_j for the 2 ell endpoints
    (principal roots for N/S off the axis; sqrt|x - b_j| for |N|/sqrt|H|,
    which is N/S up to sign on the axis).

    Root k is paired with its own gap's endpoints b[2k + 1], b[2k + 2]: their
    two roots are multiplied, and num[k] is divided once by that product.
    The outer pair sq[0] sq[-1] is divided out last.  Each factor is near 1
    away from its own gap, so no partial product underflows or overflows:
    on Cantor level 9 the product of all the endpoint distances is 1e-574.
    A product of principal roots is sqrt_branch in any grouping.

    With leave_one_out the result has a leading axis of ell rows: row 0 the
    product, row 1 + j the product without num[j], formed as the product
    divided once by num[j].  Where the product is 0 (a node on a root),
    rows 1 + j take the product of the other factors over pair j instead.
    num and sq are overwritten.
    """
    pair = np.multiply(sq[1:-1:2], sq[2:-1:2], out=sq[1:-1:2])
    outer = sq[0] * sq[-1]
    if not leave_one_out:
        ratio = np.divide(num, pair, out=num)
        return np.multiply.reduce(ratio) / outer
    out = np.empty((len(num) + 1,) + outer.shape, dtype=np.result_type(num, sq))
    ratio = np.divide(num, pair, out=out[1:])
    np.multiply.reduce(ratio, axis=0, out=out[0])
    out[0] /= outer
    hit = out[0] == 0.0
    if not hit.any():
        np.divide(out[0], num, out=out[1:])
        return out
    r = ratio[:, hit]
    others = np.array([np.multiply.reduce(np.delete(r, j, axis=0))
                       for j in range(len(r))]).reshape(r.shape)
    others /= pair[:, hit]
    others /= outer[hit]
    num[:, hit] = 1.0  # no 0/0 in the division
    np.divide(out[0], num, out=out[1:])
    out[1:, hit] = others
    return out


# endpoint distances per block of _product_integrals' integrand: bounds its
# (2 ell, nodes) temporaries, which at ell >= 80 outgrow the cache and
# double the cost per node
_PRODUCT_BLOCK = 32768


def _product_integrals(E: IntervalUnion, first, roots, cfg: QuadConfig,
                       leave_one_out=False):
    """Integrals of prod(x - z_k)/sqrt|H| over the intervals [b[i], b[i + 1]]
    for i in first (a bounded gap at odd i, a component at even i), all in
    one call of the array Chebyshev rule, whose integrand receives the
    indices into first of its rows of nodes.  Raises the first failing
    interval's own NoConvergence.

    The integrand is _paired_ratio of the factors x - z_k and the square
    roots of the endpoint distances: the exact d_lo and d_hi to the
    interval's own endpoints, |(b[i] - b_j) + d_lo| to the others.  With
    leave_one_out the result is a row of K = ell integrals per interval:
    the product, then the product without each factor x - z_j.
    """
    b = np.asarray(E.endpoints)
    first = np.asarray(first)
    lo_off = (b[first] - b[:, None])[:, :, None]  # (2 ell, P, 1)
    roots = np.asarray(roots, dtype=float)[:, None, None]
    lead = (len(roots) + 1,) if leave_one_out else ()

    def block(x, d_lo, d_hi, idx):
        sq = lo_off[:, idx] + d_lo
        np.abs(sq, out=sq)
        own = np.arange(len(idx))
        sq[first[idx], own] = d_lo
        sq[first[idx] + 1, own] = d_hi
        np.sqrt(sq, out=sq)
        return _paired_ratio(x - roots, sq, leave_one_out)

    def fd(x, d_lo, d_hi, idx):
        # blocks of whole intervals, about _PRODUCT_BLOCK distances each
        count, n = x.shape
        step = max(1, _PRODUCT_BLOCK // (len(b) * n))
        if step >= count:
            return block(x, d_lo, d_hi, idx)
        out = np.empty(lead + x.shape)
        for i in range(0, count, step):
            at = slice(i, i + step)
            out[..., at, :] = block(x[at], d_lo[at], d_hi[at], idx[at])
        return out

    try:
        return integrate_chebyshev(None, b[first], b[first + 1], cfg, fd=fd)
    except NoConvergence as exc:
        raise exc.failures[min(exc.failures)] from None


def _gap_system(E: IntervalUnion, roots, cfg: QuadConfig):
    """Residuals F_i = integral over gap i of prod(x - z_k)/sqrt|H| and the
    Jacobian dF_i/dz_j = -integral of the product with factor j removed.

    One quadrature call integrates F and the Jacobian rows of every gap, on
    node sets shared per gap, with the paired factors of _product_integrals;
    it raises the error of the first gap that fails.
    """
    out = _product_integrals(E, np.arange(1, 2 * E.ell - 2, 2), roots, cfg,
                             leave_one_out=True)
    return out[:, 0], -out[:, 1:]


# the midpoint Jacobian's step at the roots, against the roots' own Jacobian's
# step, read 0.90-1.17 over the ladder sets, Cantor 6-8 and ell 80/160: a
# residual pass accepts the roots at a step within bound / _STEP_MARGIN
_STEP_MARGIN = 1.5
# linear passes before the gap conditions count as unsolved: every benchmark
# set is accepted after its first, and no known set needs a third
_PASSES = 3


def _gap_step(F, J):
    """The full Newton step J^-1 (-F) of the gap conditions; raises
    SingularSystem for a singular or non-finite Jacobian."""
    if not np.all(np.isfinite(J)):
        raise SingularSystem("gap-condition Jacobian is not finite")
    try:
        return np.linalg.solve(J, -F)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"gap-condition Jacobian singular: {exc}")


def _scaled_residual(E: IntervalUnion, F, J, roots):
    """Each gap condition over its roundoff scale |J| max(|z - t|, s)."""
    t, s = E.frame
    return F / (np.abs(J) @ np.maximum(np.abs(roots - t), s))


def _exact_roots(E: IntervalUnion, lo, hi, nodes, cfg: QuadConfig):
    """Roots of the numerator N solved exactly from one gap-system pass at
    the nodes m, one inside each gap (lo, hi), and that pass's root-space
    Jacobian J.

    The gap conditions are linear in N.  With q0 = prod_k (x - m_k) and
    q_j = q0 / (x - m_j), which span the polynomials of degree at most
    ell - 2, the pass gives F_i = integral over gap i of q0/sqrt|H| and
    J_ij = -integral of q_j/sqrt|H|, so N = q0 - sum_j delta_j q_j with
    J delta = -F meets every gap condition to quadrature accuracy.  No other
    node lies in gap i, so there N has the zeros of N / prod_{j != i}
    (x - m_j) = g_i(x) = (x - m_i)(1 - sum_{j != i} delta_j / (x - m_j)) -
    delta_i, which rises through its root; _bisect finds every g_i's root
    on its gap's own bracket at once, started at m_i, with no quadrature.
    Raises SingularSystem as _gap_step does, and RootNotBracketed naming the
    first gap on whose ends g_i is not negative, then positive.
    """
    F, J = _gap_system(E, nodes, cfg)
    delta = _gap_step(F, J)

    def g(x):
        d = x[:, None] - nodes
        np.fill_diagonal(d, np.inf)  # j != i
        inv = 1.0 / d
        rest = 1.0 - inv @ delta
        return (x - nodes) * rest - delta, rest + (x - nodes) * ((inv * inv) @ delta)

    bracketed = (g(lo)[0] < 0.0) & (g(hi)[0] > 0.0)
    if not np.all(bracketed):
        k = int(np.argmin(bracketed))
        raise RootNotBracketed(
            f"gap conditions unsolved: N from a linear pass has no root in "
            f"gap {k + 1} ({lo[k]}, {hi[k]})")
    return _bisect(g, hi, lo, nodes), J


def _solve_numerator(E: IntervalUnion, cfg: QuadConfig):
    """Numerator coefficients and roots to quadrature accuracy, and the raw
    equilibrium masses of the components, all by linear passes.

    Each pass solves the linear gap conditions exactly (_exact_roots) from
    nodes one per gap: the gap midpoints, then the last pass's roots.  One
    residual pass at its roots integrates the product over all 2 ell - 1
    intervals of the hull in one Chebyshev call: the gaps give the gap
    residuals F, and the components the masses, the density |N|/(pi
    sqrt|H|) over each, not renormalized (on component j the numerator has
    the constant sign (-1)^(ell - j), used instead of abs() to keep the
    integrand smooth).  The roots are accepted when the step J^-1 (-F),
    with that pass's own Jacobian, lies within 1e-14 of the gap width or
    4 ulp of the root, over _STEP_MARGIN; after _PASSES passes without that
    RootNotBracketed names the largest step against its bound.  Every gap
    condition is then checked at the last residual, over its roundoff
    scale |J| max(|z - t|, s), the amplification of representing the roots
    in the frame (t, s) of E.  Raises SingularSystem for a singular or
    non-finite Jacobian or a gap condition missed at the result, and
    RootNotBracketed when a solved N has no root in a gap.
    """
    ell = E.ell
    if ell == 1:
        return np.array([1.0]), np.array([]), (1.0,)
    b = np.asarray(E.endpoints)
    lo, hi = b[1:-1:2], b[2:-1:2]
    nodes = 0.5 * (lo + hi)
    for _ in range(_PASSES):
        roots, J = _exact_roots(E, lo, hi, nodes, cfg)
        hull = _product_integrals(E, np.arange(2 * ell - 1), roots, cfg)
        F = hull[1::2]
        step = np.abs(_gap_step(F, J))
        bound = np.maximum(1e-14 * (hi - lo), 4.0 * np.spacing(np.abs(roots))) / _STEP_MARGIN
        if np.all(step <= bound):
            break
        nodes = roots
    else:
        k = int(np.argmax(step / bound))
        raise RootNotBracketed(
            f"gap conditions unsolved: after {_PASSES} linear passes the step on "
            f"gap {k + 1} is {step[k] / bound[k]:.3e} times its bound")
    F = _scaled_residual(E, F, J, roots)
    k = int(np.argmax(np.abs(F)))
    if abs(F[k]) > 10.0 * cfg.tolerance(1.0):
        raise SingularSystem(
            f"gap condition violated on gap {k + 1}: scaled residual {F[k]:.3e}")
    masses = tuple((-1.0) ** (ell - j) / math.pi * v
                   for j, v in enumerate(hull[::2].tolist(), 1))
    return _poly_from_roots(roots), roots, masses


def _poly_from_roots(roots) -> np.ndarray:
    """The ascending coefficients of prod (x - z_k) for the array roots,
    bit for bit those of numpy's polyfromroots: its product tree over the
    sorted roots, pairing the first and second halves at each level (the
    odd factor joins the first product), by np.convolve alone, without
    polymul's conversions."""
    p = [np.array([-r, 1.0]) for r in np.sort(roots).tolist()]
    if not p:
        return np.ones(1)
    while len(p) > 1:
        m, odd = divmod(len(p), 2)
        tmp = [np.convolve(p[i], p[i + m]) for i in range(m)]
        if odd:
            tmp[0] = np.convolve(tmp[0], p[-1])
        p = tmp
    return p[0]


def green_poly(E: IntervalUnion, cfg: QuadConfig | None = None) -> np.ndarray:
    """Monic numerator polynomial of the Green's derivative (ascending coeffs).

    Built from its roots, one per bounded gap, solved from the linear gap
    conditions by linear passes, each confirmed or refined by one residual
    pass (see _solve_numerator); every gap condition is re-verified at the
    result.
    """
    coeffs, _, _ = _solve_numerator(E, cfg or DEFAULT_CONFIG)
    return coeffs


# nodes per N/S evaluation: bounds the (2 ell, block) square-root temporaries,
# whose peaks otherwise stay in the resident memory of the process
_NS_BLOCK = 256


def _blockwise(block, t, args, size):
    """block(panels, *args) over the panels of t, a row each along its last
    axis (a 1-D t is one panel), in blocks of at most `size` nodes: whole
    panels, or pieces of one.  Each of args holds its panels along axis 1,
    one per panel of t, or one for all of them."""
    panels = t.reshape(-1, t.shape[-1])
    if panels.size <= size:  # one block (a single point's panels): no buffer
        return block(panels, *args).reshape(t.shape)
    out = np.empty(panels.shape, dtype=np.result_type(t, float))
    count, n = panels.shape
    step = max(1, size // n)
    for i in range(0, count, step):
        rows = slice(i, i + step)
        sub = [a[:, rows] if a.shape[1] > 1 else a for a in args]
        for j in range(0, n, size):
            cols = slice(j, j + size)
            out[rows, cols] = block(panels[rows, cols], *sub)
    return out.reshape(t.shape)


def _require_finite(z):
    if not cmath.isfinite(z):
        raise NotFinite(f"z = {z} is not finite")


def _nearest_endpoint(b, x: float) -> int:
    """Index of the endpoint of b nearest x (the left on a tie): the base."""
    i = bisect.bisect_right(b, x)  # b[i - 1] <= x < b[i]
    if i == len(b) or (i > 0 and x - b[i - 1] <= b[i] - x):
        i -= 1
    return i


def _nonnegative(g: float, cfg: QuadConfig) -> float:
    return 0.0 if -100.0 * cfg.tol < g < 0.0 else g


# Chebyshev terms K of the far field, and the ellipse |v| = V, in the
# Joukowski variable of the frame, outside which Green targets use it:
# |e_k| <= 2, so the terms past K leave at most 2 |r|^(K+1) / ((K + 1)(1 -
# |r|)) at r = 1/v, 6.3e-18 on the ellipse
_CHEBYSHEV_TERMS = 90
_ELLIPSE = 1.5


def _chebyshev_moments(E: IntervalUnion, roots) -> tuple[float, ...]:
    """e_0 = 1, ..., e_K, twice the Chebyshev moments of the equilibrium
    measure in the frame (t, s) of E, from the roots and endpoints alone,
    with no quadrature.

    With zeta = (v + 1/v)/2 and r = 1/v, each factor zeta - x~ of N/S is
    (v/2)(1 - 2 x~ r + r^2), whose logarithm is log(v/2) -
    sum_m 2 T_m(x~) r^m / m.  The outer endpoints +-1 cancel exactly
    against d zeta / dv = (1 - r^2)/2, so dG/dv = (1/v) sum_n e_n r^n with
    log sum_n e_n r^n = -sum_m Q_m r^m / m, where Q_m = 2 sum_k T_m(z~_k) -
    sum_{interior j} T_m(b~_j); so n e_n = -sum_{m=1..n} Q_m e_{n-m}.
    """
    t, s = E.frame
    x = (np.concatenate((np.asarray(roots, dtype=float), E.endpoints[1:-1])) - t) / s
    weight = np.where(np.arange(x.size) < len(roots), 2.0, -1.0)
    cheb = np.polynomial.chebyshev.chebvander(x, _CHEBYSHEV_TERMS)[:, 1:]
    q = [math.fsum(row) for row in (weight * cheb.T).tolist()]
    e = [1.0]
    for n in range(1, _CHEBYSHEV_TERMS + 1):
        e.append(math.fsum(-q[m - 1] * e[n - m] for m in range(1, n + 1)) / n)
    return tuple(e)


def _far_series(z: np.ndarray, t: float, s: float, coeffs: np.ndarray):
    """z - t, q and sum_k coeffs[k - 1] r^k at every point of the complex
    array z outside the ellipse of the frame (t, s), with r = 1/v, over
    every term of coeffs.

    It is formed in u = s/(z - t), never in zeta, so it cannot overflow:
    q = sqrt(1 - u^2) (principal) and r = u/(1 + q).  The powers of r come
    from one running product along each row of r repeated K times, a view
    with stride 0, so the (n, K) table is written once; and each point's sum
    from a row-wise einsum, so a point reads the same alone or in any batch:
    a BLAS product rounds by the batch's size.  K is the caller's, fixed per
    domain.
    """
    dz = z - t
    with np.errstate(over="ignore"):  # u of a |z - t| above the float range is 0
        u = s / dz
    q = np.sqrt(1.0 - u * u)
    r = u / (1.0 + q)
    # np.broadcast_to(r[:, None], (n, K)) without its Python-level checks:
    # r is a fresh contiguous array, and a 60-point outer row of the grid
    # domains reads 4-7 % faster for it in scripts/ab_solve.py --grid
    rows = np.ndarray((r.size, coeffs.size), r.dtype, r, 0, (r.itemsize, 0))
    return dz, q, np.einsum("ik,k->i", np.multiply.accumulate(rows, axis=1), coeffs)


def _series_green(data: GreenData, z: np.ndarray) -> np.ndarray:
    """G at every point of the complex array z outside the ellipse, from all
    K terms of the Chebyshev series (_far_series):
    G = log(z - t) + log((1 + q)/2) - log cap - sum (e_k / k) r^k."""
    t, s, _, log_cap, coeffs, _ = data._targets
    dz, q, tail = _far_series(z, t, s, coeffs)
    return np.log(dz) + np.log(0.5 * (1.0 + q)) - log_cap - tail


def _outside_ellipse(p, b, reach) -> bool:
    """Whether p lies on or outside the ellipse |v| = V: its focal sum
    |p - b_1| + |p - b_2l| against (V + 1/V) s.  A distance above the float
    range, which Python's complex abs raises on, lies outside."""
    try:
        return abs(p - b[0]) + abs(p - b[-1]) >= reach
    except OverflowError:
        return True


def _green_real(E: IntervalUnion, data: GreenData, x: float, cfg: QuadConfig) -> float:
    """Green's function at real x: 0 on E, the Chebyshev series outside the
    ellipse, else the integral from the nearest endpoint in real arithmetic
    (_gap_integral), as green_data's critical values do, on a bounded gap
    or beyond the hull alike; a rounding of up to 100 tol below 0 reads 0."""
    if E.contains(x):
        return 0.0
    b = E.endpoints
    if _outside_ellipse(x, b, data._targets.reach):
        return float(_series_green(data, np.array([complex(x)]))[0].real)
    base = b[_nearest_endpoint(b, x)]
    return _nonnegative(_gap_integral(E, data.roots, base, x, cfg), cfg)


def green_real(z: float, E: IntervalUnion, data: GreenData,
               cfg: QuadConfig | None = None) -> float:
    """Green's function at real z (see _green_real); NotFinite unless finite."""
    _require_finite(z)
    return _green_real(E, data, float(z), cfg or DEFAULT_CONFIG)


def _plain_deriv(E: IntervalUnion, roots):
    """Vectorized N/S by _paired_ratio: f(z) at points comfortably away from
    every endpoint, and f(offset, base) from an endpoint `base`, whose own
    distance is exactly the offset, so the 1/sqrt singularity there is
    represented by the offset alone.  base is a scalar or one value per
    panel (shape t.shape[:-1] + (1,)); the last axis of t holds the nodes of
    one panel (a 1-D t is one panel).

    Complex offsets take the principal roots of t + (base - b_j).  Real
    offsets, along the gap k = (i + 1) // 2 beside base = b[i] (the rays
    beyond the hull being gaps 0 and ell), take sqrt|t + (base - b_j)| and
    the sign (-1)^(ell - k) of sqrt_branch on that gap, in real arithmetic.
    Nodes are evaluated in blocks of at most _NS_BLOCK: whole panels, or
    pieces of one.
    """
    roots = np.asarray(roots, dtype=float)[:, None, None]
    b = np.asarray(E.endpoints, dtype=float)
    ends = b[:, None, None]
    # (-1)^(ell - k) for the gap k = (i + 1) // 2 beside each endpoint b[i]
    signs = np.repeat((-1.0) ** (E.ell - np.arange(E.ell + 1)), 2)[1:-1]

    def block(tb, r, e, sign):
        sq = tb + e
        if not np.iscomplexobj(sq):
            np.abs(sq, out=sq)
        np.sqrt(sq, out=sq)
        out = _paired_ratio(tb + r, sq)
        out *= sign[0]
        return out

    def fd(t, base=None):
        column = np.reshape(0.0 if base is None else base, (1, -1, 1))
        sign = np.ones((1, 1, 1)) if np.iscomplexobj(t) else signs[np.searchsorted(b, column)]
        return _blockwise(block, t, (column - roots, column - ends, sign), _NS_BLOCK)

    return fd


def _gap_integral(E: IntervalUnion, roots, base, x, cfg: QuadConfig):
    """Integral of N/S along the real axis from the endpoint `base` to the
    real x off E, the nearest endpoint of x (so no other endpoint lies on
    the way), in real arithmetic: one panel of the segment rule, singular
    at its base, whose real offsets _plain_deriv takes along the gap, with
    sqrt|x - b_j| and the gap's sign.  base and x are scalars, or arrays
    that broadcast (a base per point).  Returns a float or an array, and
    raises what the segment rule raises: a scalar call its panel's own
    NoConvergence, an array one with failures by flat index.
    """
    ratio = _plain_deriv(E, roots)
    return integrate_segment_complex(
        None, base, x, True, cfg,
        fd=lambda offset, start: ratio(offset.real, start.real)).real


def _path(E: IntervalUnion, base: float, z: complex) -> list[complex]:
    """Vertices after `base` of the straight path from the endpoint `base` to
    z: its knots, then z; the panels of the oracle _green_integral.

    The segment is subdivided at its closest-approach point to any other
    endpoint that comes within a tenth of the path length and closer to the
    path than that point lies to the base: a branch point near the middle
    of a Gauss panel stalls the rule, while one just beyond a panel end is
    harmless.  (An endpoint behind the base projects next to it, and a knot
    there would start a panel beside the base singularity.)

    Only endpoints strictly within |Re z - base| of Re z can split: a split
    needs 0 < s < 1 and a distance below s times the length, so
    0 < (b_j - base) / (Re z - base) < 2.  The loop scans that slice of the
    endpoints, ends included against rounding: for the base _nearest_endpoint
    picks, the base alone.
    """
    span = z - base
    length = abs(span)
    splits = []
    b = E.endpoints
    x, reach = z.real, abs(z.real - base)
    for bj in b[bisect.bisect_left(b, x - reach):bisect.bisect_right(b, x + reach)]:
        if bj == base:
            continue
        s = ((bj - base) * span.conjugate()).real / (length * length)
        if not 1e-9 < s < 1.0 - 1e-9:
            continue
        if abs(base + span * s - bj) < min(0.1, s) * length:
            splits.append(s)
    # far targets (green_complex takes the Chebyshev series there): the
    # integrand decays like 1/zeta over many decades, which a single Gauss
    # panel cannot resolve; subdivide geometrically beyond the set
    d = 8.0 * E.frame[1]  # four hull widths
    while d < 0.5 * length:
        splits.append(d / length)
        d *= 8.0
    if not splits:
        return [z]
    splits.sort()
    knots = []
    for s in splits:
        if not knots or s > knots[-1] * (1.0 + 1e-6):
            knots.append(s)
    return [base + span * s for s in knots] + [z]


def _green_integral(E: IntervalUnion, roots, base: float, z: complex, cfg: QuadConfig):
    """Integral of N/S along the straight segment from the endpoint `base`
    to the point z, in the panels between the vertices of _path: a scalar
    oracle of paths other than green_complex's.

    The panels are integrated in path order, one call of the segment rule
    each, the first singular at its base, and a failure raises the first
    failing panel's own NoConvergence.
    """
    ratio = _plain_deriv(E, roots)
    verts = _path(E, base, z)
    total = integrate_segment_complex(None, base, verts[0], True, cfg,
                                      fd=lambda offset, start: ratio(offset, start.real))
    for z0, z1 in zip(verts[:-1], verts[1:]):
        total += integrate_segment_complex(ratio, z0, z1, cfg=cfg)
    return total


def _batch_failure(best, failures):
    """The NoConvergence of a batch of Green targets: best, NaN at each
    failed point, and failures, each failed point's own error by flat index."""
    exc = NoConvergence(f"Green's integral did not converge at {len(failures)} "
                        f"of {best.size} points", best=best)
    exc.failures = failures
    return exc


def green_complex(z, E: IntervalUnion, data: GreenData,
                  cfg: QuadConfig | None = None):
    """Complex Green's function: the integral of N/S from b_{2l} to z, the
    branch analytic off (-inf, b_{2l}]; its real part is the Green's
    function.

    Every point on or outside the ellipse |v| = 1.5 around the hull, in the
    Joukowski variable v of the frame (t, s) of E, takes all K terms of the
    Chebyshev series (_series_green), in one call.  Every point inside it is
    integrated along the straight segment from the endpoint b_i nearest
    Re z (_nearest_endpoint), one panel singular at b_i, all in one call of
    the segment rule: inside the ellipse no other endpoint splits the path
    (a path that runs along the set within |Im z| of its endpoints does not
    converge near the axis).  The change of base is added exactly: i pi
    (m_{k+1} + ... + m_ell) sign(Im z) for a base on gap k = (i + 1) // 2
    (0-based i), with the normalized masses of data.

    A scalar z raises its panel's own NoConvergence.  For an array z a
    point whose panel does not converge fails alone: NoConvergence carries
    best, NaN at each failed point, and failures, each failed point's own
    error, the one it raises alone, by flat index.  Raises NotFinite for an
    infinite or NaN coordinate, and PathOnCut on the half-line
    (-inf, b_{2l}] (use green_real / rim conventions there).
    """
    cfg = cfg or DEFAULT_CONFIG
    z = np.asarray(z, dtype=complex)
    b = E.endpoints
    reach, jumps = data._targets.reach, data._targets.jumps
    flat = z.reshape(-1)
    # the branch jump of an inner point, to which its integral is added
    total = np.zeros(flat.shape, dtype=complex)
    far, near, bases = [], [], []
    for i, p in enumerate(flat.tolist()):
        _require_finite(p)
        x = p.real
        if p.imag == 0.0 and x <= b[-1]:
            raise PathOnCut(f"z = {p} lies on the excluded half-line")
        if _outside_ellipse(p, b, reach):
            far.append(i)
            continue
        k = _nearest_endpoint(b, x)
        near.append(i)
        bases.append(b[k])
        total[i] = complex(0.0, math.copysign(jumps[(k + 1) // 2], p.imag))
    if far:
        total[far] = _series_green(data, flat[far])
    if near:
        ratio = _plain_deriv(E, data.roots)
        try:
            total[near] += integrate_segment_complex(
                None, np.array(bases), flat[near], True, cfg,
                fd=lambda offset, start: ratio(offset, start.real))
        except NoConvergence as exc:
            if not z.ndim:  # a scalar raises its panel's own error
                raise exc.failures[0] from None
            exc.best[list(exc.failures)] = np.nan
            total[near] += exc.best
            raise _batch_failure(total.reshape(z.shape), {
                near[i]: err for i, err in exc.failures.items()}) from None
    return total.reshape(z.shape) if z.ndim else complex(total[0])


def capacity(E: IntervalUnion, data_or_roots, cfg: QuadConfig | None = None,
             beta_right: float | None = None,
             beta_left: float | None = None) -> float:
    """Logarithmic capacity as the mean of the two tail formulas.

    Evaluates the right-tail formula with beta_right (default b_{2l} - p) and
    the left-tail formula with beta_left (default b_1 + p), where p is the
    power of two nearest the half-width of the hull; their discrepancy is a
    built-in consistency diagnostic.
    """
    cfg = cfg or DEFAULT_CONFIG
    roots = data_or_roots.roots if isinstance(data_or_roots, GreenData) else data_or_roots
    cap, _ = _capacity_both(E, roots, cfg, beta_right, beta_left)
    return cap


def _capacity_both(E, roots, cfg, beta_right=None, beta_left=None):
    """Mean of the two tail formulas and their discrepancy; raises
    CapacityMismatch when they disagree by more than 100 tolerances.

    Each formula is cap = shift exp(integral of 1/|x - beta| - |N/S| over
    the ray beyond b_2l (side +1) or b_1 (side -1)), shift = |base - beta|.
    |N/S| is side N/S there, from _plain_deriv's real offsets from the
    endpoint along the unbounded gap.  Both rays are integrated in one call
    of the tail rule (integrate_tail), each stopping on its own, so each
    equals a call on it alone; a failure raises the first failing ray's own
    error.

    Both tails are integrated in units of p, the power of two nearest the
    half-width s of the hull: the tail rule's nodes span 5e-38..2e37 from
    the endpoint, so in absolute units they miss a set far from unit scale.
    Scaling by p is exact, and p = 1 for s in [0.71, 1.41)."""
    b = E.endpoints
    unit = E.unit
    beta_right = b[-1] - unit if beta_right is None else beta_right
    beta_left = b[0] + unit if beta_left is None else beta_left
    side = np.array([1.0, -1.0])
    base = np.array([b[-1], b[0]])
    shift = side * (base - np.array([beta_right, beta_left]))  # > 0 on either legal side
    if not np.all(shift > 0):
        raise ValueError("beta must lie strictly on the far side of the endpoint")
    ratio = _plain_deriv(E, roots)

    def fd(u, idx):
        # in u = delta / unit, whose nodes span the set's scale; on both
        # tails the signed integrand reduces to 1/|x-beta| - |N/S|
        delta = unit * u
        s = side[idx, None]
        return unit * (1.0 / (delta + shift[idx, None]) - s * ratio(s * delta, base[idx, None]))

    try:
        integral = integrate_tail(None, base, side, cfg, fd=fd)
    except NoConvergence as exc:
        raise exc.failures[min(exc.failures)] from None
    cap1, cap2 = (v * math.exp(i) for v, i in zip(shift.tolist(), integral.tolist()))
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


def green_data(E: IntervalUnion, cfg: QuadConfig | None = None) -> GreenData:
    """Compute the full Green's-function data set for E.

    The numerator's roots come from the gap conditions, and the raw masses
    from the residual pass that accepts them (_solve_numerator).  The
    critical values g_E(z_k) are integrals along each root's gap from its
    nearest endpoint, in real arithmetic, all in one call of the segment
    rule; each is based and rounded as _green_real does it at that root
    alone, so the two agree bit for bit, and a failure raises the first
    failing root's own error.
    """
    cfg = cfg or DEFAULT_CONFIG
    coeffs, roots, masses = _solve_numerator(E, cfg)
    bases = [E.endpoints[_nearest_endpoint(E.endpoints, z)] for z in roots]
    try:
        g = _gap_integral(E, roots, np.array(bases), roots, cfg).tolist()
    except NoConvergence as exc:  # the first failing root's own error
        raise exc.failures[min(exc.failures)] from None
    green_at_roots = tuple(_nonnegative(v, cfg) for v in g)
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
