"""Integration engine for the three integral shapes the solver needs.

All rules double their node count until an estimate's error is within the
tolerance, in one loop (_doubling) that holds the one stop rule: each rule
supplies only its sum at each level, whose error is its distance from the
previous level's.  The Chebyshev rule's first level, of 32 nodes, hands in
its own error with its sum, the largest of the sum's top four cosine
coefficients, so it needs no coarser level to check it.  Integrands must
accept numpy arrays (vectorized evaluation).

The Chebyshev rule also integrates the K rows of a vector-valued integrand
over an array of intervals, the tail rule arrays of tails on its shared
nodes, and the segment rule arrays of panels, in bounded node blocks; each
row of each interval, each tail or each panel stops on its own, with the
value a call on it alone returns, and an array call that fails carries
each failed interval's, tail's or panel's own error.

* inverse-square-root endpoint singularities on a finite interval
  -> cosine substitution + Gauss-Chebyshev midpoint rule of 32, 64, ...
  nodes,
* semi-infinite tails with O(1/x^2) decay and an inverse-square-root
  singularity at the finite endpoint
  -> log compactification + tanh-sinh (double exponential) trapezoid,
* complex line integrals over a straight segment with at most an
  inverse-square-root singularity at the start
  -> s^2 parameter substitution + Gauss-Legendre of orders 16 to 2048.
  The tables are built by Newton on the three-term recurrence from
  asymptotic starts, in O(n^2) flops and O(n) memory: orders 16 to 64 take
  three passes from Tricomi's start, orders 128 to 2048 one pass from
  Olver's start at the zeros of the Bessel function J_0.  Nodes within
  9.1e-17 of the roots, weights within 2.6e-14 relative.

Each rule also accepts a singular-aware callback (``fd``) that receives the
distance(s) to the singular endpoint(s) computed without cancellation.  A
plain callback ``f(x)`` cannot resolve points closer to an endpoint than one
ulp of the endpoint itself, which caps the attainable accuracy of 1/sqrt
integrands near 1e-8; internal callers therefore pass ``fd`` whenever a
singular endpoint lies on the path, and a plain ``f`` only on segments that
stay away from every endpoint (the Green integral's panels after the first,
and the contour-mass rectangle).
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NoConvergence

__all__ = [
    "QuadConfig",
    "DEFAULT_CONFIG",
    "integrate_chebyshev",
    "integrate_tail",
    "integrate_segment_complex",
]


# the least tol: one ulp of 1, under which no rule's sum can settle
_MIN_TOL = 2.0 ** -52


@dataclass(frozen=True)
class QuadConfig:
    tol: float = 1e-12  # absolute and relative alike, 2^-52 or more
    max_level: int = 12  # node-doubling cap, 3 to 20

    def __post_init__(self):
        if not self.tol >= _MIN_TOL:
            raise ValueError(f"tol must be at least 2^-52 = {_MIN_TOL!r}, got {self.tol!r}")
        # a failing tail rule builds a table of 8 * 2^max_level nodes, and
        # a failing Chebyshev rule sums 16 * 2^max_level nodes per interval
        if not 3 <= self.max_level <= 20:
            raise ValueError(f"max_level must be in [3, 20], got {self.max_level}")

    def tolerance(self, value: float) -> float:
        return self.tol + self.tol * abs(value)


DEFAULT_CONFIG = QuadConfig()


# nodes per integrand call: bounds the (K, block) temporaries of vector rules,
# whose peaks otherwise stay in the resident memory of the process.  An array
# of intervals is evaluated in chunks of whole intervals and about
# _CHEB_CHUNK nodes, one interval's nodes in blocks of _CHEB_BLOCK.
_CHEB_BLOCK = 1024
_CHEB_CHUNK = 256
_SEG_BLOCK = 2048


def _doubling(level_sums, size, levels, cfg, active=None, dtype=float):
    """Double `size` independent integrals until each stops, for `levels`:
    the one stop rule of every quadrature rule here.

    level_sums(level, active) returns the estimates at that level of the
    integrals in `active`, an index array, or of all while active is None
    (a numpy scalar for one integral, cheaper than a one-element array).  At
    the first level a rule may return (estimates, errors) instead, with an
    error that certifies the estimate on its own; every later level's error
    is |est - prev|, the estimate's distance from the previous one.  One
    stops at the first estimate est whose error is within the tolerance of
    cfg at est, keeping est and that error; one not in the initial `active`
    is 0 with error 0.  Returns value and error arrays and the sorted
    indices of those never stopped, at their last estimates.
    """
    value = np.zeros(size, dtype)
    error = np.zeros(size)
    if active is not None and not active.size:
        return value, error, active
    prev = err = None
    for level in range(levels):
        est = level_sums(level, active)
        if type(est) is tuple:
            est, err = est
        elif prev is not None:
            err = abs(est - prev)
        if err is not None:
            done = err <= cfg.tolerance(est)
            settled = np.count_nonzero(done)
            # every integral settled: a whole-array write and no compaction,
            # how the one or few panels of a single point usually end
            if settled == est.size:
                if active is None:
                    return est, err, np.arange(0)
                value[active], error[active] = est, err
                return value, error, active[:0]
            if settled:
                if active is None:
                    active = np.arange(size)
                value[active[done]], error[active[done]] = est[done], err[done]
                keep = ~done
                active, est, err = active[keep], est[keep], err[keep]
        prev = est
    if active is None:
        active = np.arange(size)
    value[active], error[active] = prev, err
    return value, error, active


# the Chebyshev rule's first level, and how many of its top cosine
# coefficients certify it alone
_CHEB_FIRST = 32
_CHEB_TAIL = 4


@lru_cache(maxsize=None)
def _tail_weights(n):
    """cos((n - j) t_i) = (-1)^i sin(j t_i) at the n midpoint angles t_i, a
    row per j = 1 .. _CHEB_TAIL."""
    t = (np.arange(n) + 0.5) * (np.pi / n)
    sign = 1.0 - 2.0 * (np.arange(n) % 2)
    w = sign * np.sin(np.arange(1, _CHEB_TAIL + 1)[:, None] * t)
    w.flags.writeable = False  # shared by every caller
    return w


def _tail(h):
    """The certificate of a midpoint sum of the terms h (the last axis holds
    the n nodes): the largest of its top cosine coefficients a_{n-j} =
    (2/n) sum_i h_i cos((n - j) t_i), j = 1 .. _CHEB_TAIL.

    The products are summed along the nodes of each row by einsum's own
    loop, never a matrix product (BLAS rounds a row differently by the
    shape of the block): so a row's certificate is what a call on that row
    alone gives.
    """
    coef = np.einsum("...i,ji->...j", h, _tail_weights(h.shape[-1]))
    return np.max(np.abs(coef), axis=-1) * (2.0 / h.shape[-1])


def _angles(n, start):
    """cos(t/2)^2, sin(t/2)^2, cos(t) and sin(t) at the midpoint angles
    t = (i + 1/2) pi / n of the block of nodes i from start, read-only."""
    t = (np.arange(start, min(n, start + _CHEB_BLOCK)) + 0.5) * (np.pi / n)
    out = np.cos(0.5 * t) ** 2, np.sin(0.5 * t) ** 2, np.cos(t), np.sin(t)
    for a in out:
        a.flags.writeable = False
    return out


# the levels of one block, shared by every call: 64 KB in all
_one_block_angles = lru_cache(maxsize=None)(_angles)


def _chebyshev_sum(f, fd, mid, hw, n, *rest, tail=False):
    """Midpoint-rule sum at n nodes, evaluated in node blocks.

    mid and hw are one interval's scalars, or columns of several intervals
    whose nodes then lie along the last axis; rest is passed on to the
    integrand.  The block sums are added pairwise, which for n a
    power-of-two multiple of the block is numpy's pairwise summation of all
    n terms at once: a running total would add up to n / 1024 roundings,
    enough to stall the tightest tolerances.

    With tail (n at most one block) it also returns the sum's certificate
    (_tail).
    """
    sums = []
    angles = _one_block_angles if n <= _CHEB_BLOCK else _angles
    for start in range(0, n, _CHEB_BLOCK):
        half_cos2, half_sin2, cos, sin = angles(n, start)
        # endpoint distances computed in t, free of 1 - cos(t) cancellation
        d_lo = 2.0 * hw * half_cos2
        d_hi = 2.0 * hw * half_sin2
        x = mid + hw * cos
        vals = fd(x, d_lo, d_hi, *rest) if fd is not None else f(x, *rest)
        h = vals * (hw * sin)
        sums.append(np.sum(h, axis=-1))
    while len(sums) > 1:
        sums = [sum(sums[i:i + 2]) for i in range(0, len(sums), 2)]
    value = sums[0] * (np.pi / n)
    if not tail:
        return value
    return value, _tail(h)


def _interval_failure(lo, hi, best, estimate, unconverged):
    """The Chebyshev rule's NoConvergence for [lo, hi] alone, where
    `unconverged` rows of a vector-valued integrand did not stop."""
    last = (repr(best) if np.ndim(best) == 0 else
            f"{unconverged} of {np.size(best)} components unconverged")
    return NoConvergence(
        f"Chebyshev rule did not reach tolerance on [{lo}, {hi}] "
        f"(last estimate {last})", best=best, estimate=estimate)


def integrate_chebyshev(f, lo, hi, cfg=None, *, fd=None, with_estimate=False):
    """Integrate f over [lo, hi], tolerating 1/sqrt singularities at both ends.

    The substitution x = mid + hw*cos(t) turns the endpoint singularities into
    a smooth integrand h(t) = f(x) hw sin(t) on [0, pi], summed by the
    midpoint rule with doubling N.  The first level has 32 nodes and
    certifies itself: it stops where its four top cosine coefficients
    a_{32-j} = (2/32) sum_i (-1)^i h(t_i) sin(j t_i), j = 1 .. 4, are all
    within the tolerance at the sum.  The sum's truncation error is the
    aliased coefficients from a_64 on, far below these where the
    coefficients of h decay: a tail test like the one that chops a
    Chebyshev series (Aurentz & Trefethen, ACM TOMS 43, 2017).  From 64
    nodes on a sum stops within the tolerance of the previous one.  So the
    rule sums at most 16 * 2^max_level nodes.

    The integrand may be vector-valued: given m nodes it returns either m
    values or a (K, m) block, and the rule then integrates all K components
    on one shared node set.  Stopping is per component: each keeps the
    estimate of the first level at which it met the tolerance, and doubling
    goes on until every component has, so each component equals what a
    scalar call on it alone returns.  Nodes are passed to the integrand in
    blocks of at most 1024, whose sums are accumulated.

    lo and hi may be 1-D arrays of P intervals, all integrated at once on
    the same t nodes: the integrand then receives a (p, m) block of nodes,
    a row per interval, and as one more positional argument the indices of
    those p intervals, and returns a (p, m) or (K, p, m) block.  Each
    (interval, component) stops on its own, and an interval is no longer
    evaluated once all its components have, so each equals what a call on
    that interval alone returns; but one that never converges keeps every
    other unconverged interval doubling to max_level beside it, where calls
    one interval at a time could stop at the first failure.  Chunks hold
    whole intervals and about 256 nodes (or one interval).

    ``fd(x, d_lo, d_hi)``, when given, replaces f and receives d_lo = x - lo
    and d_hi = hi - x to full precision.  with_estimate also returns each
    estimate's error: the largest top coefficient for one that stopped at
    32 nodes, else |last - previous|.

    Returns a float for a scalar integrand and an array of K estimates (and
    K error estimates) for a (K, m) one; for P intervals, arrays of shape
    (P,) or (P, K).  NoConvergence carries ``best`` and ``estimate`` in the
    same shape: a converged component's kept value and estimate, an
    unconverged one's last.  For arrays it also carries ``failures``, each
    unconverged interval's own error (the one a call on it alone raises) by
    index, and the message of the first.
    """
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = np.broadcast_arrays(np.asarray(lo), np.asarray(hi))
    if not (lo.size and np.all(hi > lo)):
        raise ValueError("need lo < hi")
    shape = lo.shape  # () for one interval, else (P,)
    mid = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)

    def sums(n, chunk, tail):
        """The sums at n nodes of the intervals in chunk, a row per interval,
        and with tail their certificates alike."""
        if not shape:
            out = _chebyshev_sum(f, fd, mid, hw, n, tail=tail)
            return tuple(v[None] for v in out) if tail else out[None]
        out = _chebyshev_sum(f, fd, mid[chunk, None], hw[chunk, None], n, chunk, tail=tail)
        return tuple(v.T for v in out) if tail else out.T

    def level_est(level, intervals):
        n = _CHEB_FIRST << level
        step = max(1, _CHEB_CHUNK // n)
        parts = [sums(n, intervals[i:i + step], not level)
                 for i in range(0, intervals.size, step)]
        if not level:  # every interval, with the certificates
            return tuple(np.concatenate(part) for part in zip(*parts))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    first, tail = level_est(0, np.arange(lo.size))  # shapes (P,) or (P, K)
    rows = np.size(first) // lo.size

    def level_sums(level, active):
        if not level:
            return first.reshape(-1), tail.reshape(-1)
        if active is None:
            return level_est(level, np.arange(lo.size)).reshape(-1)
        # the intervals of the active rows: active is sorted, so each
        # interval's rows are adjacent
        q = active // rows
        new = np.concatenate(([True], q[1:] != q[:-1]))
        est = level_est(level, q[new]).reshape(-1, rows)
        return est[np.cumsum(new) - 1, active % rows]

    value, error, failed = _doubling(level_sums, first.size, cfg.max_level, cfg)
    value, error = value.reshape(first.shape), error.reshape(first.shape)
    if failed.size:
        # unconverged rows per interval, in interval order
        unconverged = Counter((failed // rows).tolist())
        ends = lo.reshape(-1).tolist(), hi.reshape(-1).tolist()
        failures = {}
        for i, n in unconverged.items():
            best, estimate = ((value[i].item(), error[i].item()) if value.ndim == 1
                              else (value[i].copy(), error[i].copy()))
            failures[i] = _interval_failure(ends[0][i], ends[1][i], best, estimate, n)
        exc = failures[int(failed[0]) // rows]
        if shape:
            exc = NoConvergence(str(exc), best=value, estimate=error)
            exc.failures = failures
        raise exc
    if not shape:
        value, error = value[0], error[0]
        if value.ndim == 0:
            value, error = value.item(), error.item()
    return (value, error) if with_estimate else value


# tanh-sinh truncation: exp(-2q(TMAX)) ~ 5e-38 keeps every node representable
_TS_TMAX = 4.0


@lru_cache(maxsize=32)
def _ts_nodes(level):
    """tanh-sinh node data at h = 0.5/2^level; levels > 0 hold only new nodes."""
    h = 0.5 / 2 ** level
    half_count = int(round(_TS_TMAX / h))
    if level == 0:
        m = np.arange(-half_count, half_count + 1)
    else:
        m = np.arange(-half_count + 1, half_count, 2)  # odd multiples of h
    t = m * h
    q = 0.5 * np.pi * np.sinh(t)
    delta = np.exp(-2.0 * q)  # = |x - lo| after compactification
    weight = np.pi * np.cosh(t) * delta
    return delta, weight


def _tail_failure(lo, best, estimate):
    """The tail rule's NoConvergence for the ray from lo alone."""
    return NoConvergence(
        f"tanh-sinh tail rule did not reach tolerance at lo={lo} "
        f"(last estimate {best!r})", best=best, estimate=estimate)


def integrate_tail(f, lo, direction=1, cfg=None, *, fd=None, with_estimate=False):
    """Integrate f over (lo, +inf) (direction=+1) or (-inf, lo) (direction=-1).

    Requires f = O(1/x^2) at infinity and at worst a 1/sqrt singularity at lo.
    The ray is compactified by |x - lo| = exp(-pi*sinh t); the resulting
    doubly-exponential integrand is summed by the trapezoid rule with step
    halving, reusing all previously evaluated nodes.

    ``fd(delta)``, when given, receives the exact distance |x - lo|.

    lo and direction may be arrays (broadcast against each other) of P
    tails, all integrated at once on the same tanh-sinh nodes: the
    integrand then receives a (p, n) block of nodes (of distances for fd, a
    read-only view of the shared row), a row per tail, and as one more
    positional argument the indices of those p tails, and returns a (p, n)
    block.  Each tail stops on its own and is no longer evaluated once it
    has, so each equals what a call on it alone returns.

    Returns a float for scalar lo and direction, else an array of their
    broadcast shape (and error estimates alike with ``with_estimate``).
    NoConvergence carries ``best`` and ``estimate`` in the same shape; for
    arrays it also carries ``failures``, each unconverged tail's own error
    (the one a call on it alone raises) by flat index, and the message of
    the first.
    """
    cfg = cfg or DEFAULT_CONFIG
    lo_arr, sides = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(direction))
    if not np.all((sides == 1) | (sides == -1)):
        raise ValueError("direction must be +1 or -1")
    shape = lo_arr.shape  # () for one tail
    starts, sides = lo_arr.reshape(-1), sides.reshape(-1)
    acc = np.zeros(starts.size)  # the weighted sum of every node so far, per tail

    def level_sums(level, active):
        delta, weight = _ts_nodes(level)
        if not shape:
            vals = fd(delta) if fd is not None else f(lo + direction * delta)
            acc[0] += float(np.sum(weight * vals))
            return acc[0] * (0.5 / 2 ** level)
        idx = np.arange(starts.size) if active is None else active
        if fd is not None:
            vals = fd(np.broadcast_to(delta, (idx.size, delta.size)), idx)
        else:
            vals = f(starts[idx, None] + sides[idx, None] * delta, idx)
        acc[idx] += np.sum(weight * vals, axis=-1)
        return acc[idx] * (0.5 / 2 ** level)

    value, error, failed = _doubling(level_sums, starts.size, cfg.max_level + 1, cfg)
    if failed.size:
        ends = starts.tolist() if shape else [lo]
        failures = {i: _tail_failure(ends[i], value[i].item(), error[i].item())
                    for i in failed.tolist()}
        exc = failures[int(failed[0])]
        if shape:
            exc = NoConvergence(str(exc), best=value.reshape(shape),
                                estimate=error.reshape(shape))
            exc.failures = failures
        raise exc
    if shape:
        value, error = value.reshape(shape), error.reshape(shape)
    else:
        value, error = value.item(), error.item()
    return (value, error) if with_estimate else value


def _newton_legendre(n, x):
    """One Newton step on P_n from each x in [0, 1), by one pass of the
    three-term recurrence, and the Gauss weights at the roots it nears.

    The recurrence runs on d_k = P_k - P_{k-1} (Reinsch's form), whose
    rounding errors stay small near x = 1, where those of P_k alone grow
    with k.  The pass updates P_k, d_k and one work array in place and
    allocates nothing per degree, with the operations of
    d = ((2k + 1) (x - 1) P_k + k d) / (k + 1) in that order, so it rounds
    as the expression does.  The weight 2 / ((1 - x^2) P_n'(x)^2) has
    logarithmic slope -2x / (1 - x^2) at a root, so it is carried to the
    Newton image of x: near +-1, half an ulp of x would move it by up to
    8e-11.
    """
    xm1 = x - 1
    p, d = x.copy(), xm1.copy()  # P_1 and P_1 - P_0
    t = np.empty_like(x)
    for k in range(1, n):
        np.multiply(xm1, 2 * k + 1, out=t)
        t *= p
        d *= k
        t += d
        np.divide(t, k + 1, out=d)
        p += d
    one_minus_x2 = -xm1 * (1 + x)
    dp = n * (-xm1 * p - d) / one_minus_x2  # n (P_{n-1} - x P_n) / (1 - x^2)
    step = p / dp
    w = 2 / (one_minus_x2 * dp ** 2) * (1 + 2 * x * step / one_minus_x2)
    return x - step, w


# the first zeros of the Bessel function J_0, from mpmath.besseljzero(0, k)
_J0_ZEROS = np.array([
    2.404825557695772768621631879326455, 5.520078110286310649596604112813027,
    8.653727912911012216954198712660947, 11.79153443901428161374304491192546,
    14.93091770848778594776259399738868, 18.07106396791092254314788297561818,
    21.21163662987925895907839335052631, 24.35247153074930273705794476317891,
    27.49347913204025479587728823460741, 30.63460646843197511754957892685423,
    33.77582021357356868423854634671473, 36.91709835366404397976949306327295,
    40.05842576462823929479930737399447, 43.19979171317673035752407272874342,
    46.34118837166181401868578887911285, 49.48260989739781717360276153317827,
    52.62405184111499602925128538039157, 55.76551075501997931168349277346183,
    58.90698392608094213283440663461569, 62.04846919022716988285250026465095,
])


def _bessel_j0_zeros(m):
    """The first m zeros j_{0,k} of J_0: the frozen table, then McMahon's
    expansion in 1/(8 beta), beta = (k - 1/4) pi, through its (8 beta)^-7
    term.  For k up to 1024 each is within 2.3e-16 relative (1.3 ulp) of
    the zero."""
    beta = (np.arange(1, m + 1) - 0.25) * np.pi
    r = 1 / (8 * beta)
    r2 = r * r
    j = beta + r * (1 + r2 * (-124 / 3 + r2 * (120928 / 15 + r2 * (-401743168 / 105))))
    head = min(m, _J0_ZEROS.size)
    j[:head] = _J0_ZEROS[:head]
    return j


# the least order started from the zeros of J_0: from here on that start is
# within 1e-10 of the roots and one Newton pass reaches rounding; below, it
# is 1.5e-9 (n = 64) to 3e-7 (n = 16) off
_BESSEL_START = 128


def _gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    The non-negative nodes x_k = cos(theta_k), largest first, start from an
    asymptotic guess and take Newton steps on P_n (_newton_legendre), the
    last of which gives the weights; the negative ones are their mirror
    image, so the rule is exactly symmetric.  From n = 128 on the start is
    Olver's, from the zeros of J_0 (_bessel_j0_zeros):
    theta_k = psi + (psi cot psi - 1) / (8 rho^2 psi), psi = j_{0,k} / rho,
    rho = n + 1/2 (cf. Hale & Townsend, SIAM J. Sci. Comput. 35, 2013),
    within 1e-10 of the roots at n = 128 and 2e-15 at n = 2048, and one step
    reaches rounding.  Below 128, where that start is up to 3e-7 off, the
    start is Tricomi's, up to 2e-5 off, and three steps are taken.  O(n^2)
    flops and O(n) memory, where the eigenvalues of the n x n companion
    matrix (numpy's leggauss) take O(n^3) flops.  For n up to 2048 the
    nodes are within 9.1e-17 of the roots and the weights within 2.6e-14
    relative (every node, against 32-digit values), before the weights are
    scaled to sum to 2 as numpy's are.
    """
    half = (n + 1) // 2  # the non-negative nodes, the largest first
    if n >= _BESSEL_START:
        rho = n + 0.5
        psi = _bessel_j0_zeros(half) / rho
        x = np.cos(psi + (psi * np.cos(psi) / np.sin(psi) - 1) / (8 * rho ** 2 * psi))
        passes = 1
    else:
        k = np.arange(1, half + 1)
        theta = np.pi * (4 * k - 1) / (4 * n + 2)
        x = (1 - (n - 1) / (8 * n ** 3)
             - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4)) * np.cos(theta)
        passes = 3
    for _ in range(passes):
        x, w = _newton_legendre(n, x)
    odd = n % 2
    if odd:
        x[-1] = 0.0
    m = x.size - odd  # the nodes mirrored: all but a middle 0
    u = np.concatenate((-x[:m], x[::-1]))
    w = np.concatenate((w[:m], w[::-1]))
    w *= 2 / w.sum()
    return u, w


@lru_cache(maxsize=None)
def _leggauss(n):
    """Gauss-Legendre nodes mapped to [0, 1], and the weights on [-1, 1].

    Both are stored complex: a product with complex values would convert
    them on every call, to the same numbers."""
    u, w = _gauss_legendre(n)
    return (0.5 * (u + 1.0)).astype(complex), w.astype(complex)


def _panel_failure(z0, z1, best, estimate):
    """The segment rule's NoConvergence for the panel z0 -> z1 alone."""
    return NoConvergence(
        f"segment rule did not reach tolerance on [{complex(z0)}, {complex(z1)}] "
        f"(last estimate {complex(best)!r})", best=complex(best), estimate=float(estimate))


def integrate_segment_complex(f, z0, z1, singular_at_start=False, cfg=None, *,
                              fd=None, with_estimate=False):
    """Integrate f along the straight segments from z0 to z1.

    f must be analytic on each open segment; with singular_at_start it may
    have an inverse-square-root singularity at z0, removed by the
    substitution zeta = z0 + (z1 - z0) s^2.  Gauss-Legendre with doubling
    order.

    z0 and z1 may be arrays (broadcast against each other) of P panels, all
    integrated at once: at each order one integrand call per node chunk
    receives the offsets of every panel still doubling, as a (panels, n)
    block.  Stopping is per panel: each keeps the estimate of the level at
    which |est - prev| met the tolerance, so each equals what a call on it
    alone returns.  A zero-length panel gives 0j.  Node chunks hold whole
    panels and at most 2048 nodes (or one panel).

    ``fd(offset, start)``, when given, receives the exact complex offsets
    zeta - z0 and, as a column, the start z0 of each panel in the block.

    Returns a complex for scalar z0 and z1, else an array of their broadcast
    shape (and error estimates alike with ``with_estimate``).  NoConvergence
    carries ``best`` and ``estimate`` in the same shape: a converged panel's
    kept value and estimate, an unconverged one's last; its message names
    the first unconverged panel and its last estimate.  For arrays it also
    carries ``failures``, each unconverged panel's own error (the one a call
    on it alone raises) by flat index.
    """
    cfg = cfg or DEFAULT_CONFIG
    z0, z1 = np.asarray(z0, dtype=complex), np.asarray(z1, dtype=complex)
    span = z1 - z0
    shape = span.shape
    flat = span.reshape(-1)
    origin = np.empty(shape, dtype=complex)
    origin[...] = z0
    starts = origin.reshape(-1)
    # the active panels' spans and starts, as columns
    sp = at = None

    def level_sums(level, active):
        nonlocal sp, at
        if sp is None or len(sp) != active.size:  # the active set shrank
            sp, at = flat[active, None], starts[active, None]
        n = 16 << level
        s, w = _leggauss(n)
        chunk = max(1, _SEG_BLOCK // n)
        est = np.empty(active.size, dtype=complex)
        for lo in range(0, active.size, chunk):
            spc, start = sp[lo:lo + chunk], at[lo:lo + chunk]
            # singular at start: d zeta = 2 span s ds and ds = du/2
            jac = spc * s if singular_at_start else 0.5 * spc
            offset = jac * s if singular_at_start else spc * s
            vals = fd(offset, start) if fd is not None else f(start + offset)
            vals = vals * jac
            vals *= w
            np.add.reduce(vals, axis=-1, out=est[lo:lo + chunk])
        return est

    # the order stops at 2048 whatever max_level: that bounds the work of a
    # panel that cannot converge (a singularity just beside it) to 4080
    # nodes, and the tests' failing points are chosen against that order
    value, error, failed = _doubling(level_sums, span.size, min(cfg.max_level, 7) + 1,
                                     cfg, flat.nonzero()[0], complex)
    value, error = value.reshape(shape), error.reshape(shape)
    if failed.size:
        ends = np.broadcast_to(z1, shape).reshape(-1)
        failures = {i: _panel_failure(starts[i], ends[i], value.flat[i], error.flat[i])
                    for i in failed.tolist()}
        exc = failures[int(failed[0])]
        if shape:
            exc = NoConvergence(str(exc), best=value, estimate=error)
            exc.failures = failures
        raise exc
    if not shape:
        value, error = complex(value), float(error)
    return (value, error) if with_estimate else value
