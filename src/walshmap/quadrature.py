"""Integration engine for the three integral shapes the solver needs.

All rules double their node count until an estimate's error is within the
tolerance, in one driver (_doubling) that holds the one stop rule: each rule
supplies only its sum at each level, whose error is its distance from the
previous level's.  The Chebyshev rule's first level, of 32 nodes, hands in
its own error with its sum, the largest of the sum's top four cosine
coefficients, so it needs no coarser level to check it.  Integrands must
accept numpy arrays (vectorized evaluation).

Every call integrates an array: one interval, tail or panel per element
of the shape its arguments broadcast to, and one integral per row of it
(the K rows of a vector-valued Chebyshev integrand, else one); a scalar
call is the same path on an array of one.  Each integral stops on its own,
with the value a call on it alone returns, and an element is no longer
evaluated once all its rows have.  Results have the call's shape, the rows
last, and are Python numbers for a scalar call of one row; with_estimate
also returns the error estimates alike.  An element with a row that never
stops fails: its NoConvergence reads "<rule> did not reach tolerance
<where> (last estimate <last>)" and carries its last estimates and errors
as best and estimate.  A scalar call raises that error; an array call
raises one with the first failed element's message, best and estimate
holding every integral's kept or last estimate and error in the call's
shape, and failures, each failed element's own error by flat index.

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

import math
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


def _doubling(level_sums, shape, levels, cfg, rule, where, active=None,
              with_estimate=False):
    """Run one rule call's integrals for at most `levels` levels and return
    or raise its results, as the module docstring states: the one driver of
    every rule here.

    The call has an element per index of `shape`.  level_sums(level, elements)
    returns the estimates at that level of `elements`, a sorted index array
    into the flattened shape, as an (elements, *rows) array; level 0 sees
    every element in `active` (default all; one not in it is 0 with error
    0), and its row shape holds at every level.  At level 0 a rule may
    return (estimates, errors) instead, with errors that certify the
    estimates on their own; every later level's error is |est - prev|, the
    distance from the previous level's estimate.  Each row of each element
    stops at the first estimate est whose error is within the tolerance of
    cfg at est, keeping est and that error, and an element is passed on
    while a row of it runs.  A failed element's message names the rule,
    where(index) and its last estimate (its repr, or for rows "n of K
    components unconverged"); its best and estimate are Python numbers, or
    arrays of its rows.
    """
    count = math.prod(shape)
    active = np.arange(count) if active is None else active
    est = level_sums(0, active)
    est, err = est if type(est) is tuple else (est, None)
    rows = est.shape[1:]
    width = math.prod(rows)
    value, error = np.zeros(count * width, est.dtype), np.zeros(count * width)
    # the live integrals, flat indices element * width + row, and with rows
    # those of a level's flattened block of the live elements
    live = active if width == 1 else (active[:, None] * width + np.arange(width)).reshape(-1)
    pick = slice(None)
    if rows:
        est, err = est.reshape(-1), err if err is None else err.reshape(-1)
    failed = live[:0]
    for level in range(1, levels + 1):
        if err is not None:
            done = err <= cfg.tolerance(est)
            settled = np.count_nonzero(done)
            if settled == est.size:
                break
            if settled:
                value[live[done]], error[live[done]] = est[done], err[done]
                keep = ~done
                live, est, err = live[keep], est[keep], err[keep]
                # live is sorted, so each element's rows are adjacent
                owner = live // width
                new = np.concatenate(([True], owner[1:] != owner[:-1]))
                active, pick = owner[new], (np.cumsum(new) - 1) * width + live % width
        if level == levels:
            failed = live
            break
        prev = est
        est = level_sums(level, active)
        if rows:
            est = est.reshape(-1)[pick]
        err = abs(est - prev)
    if live.size == value.size:  # every integral ran to its end with every other
        value, error = est, err
    else:
        value[live], error[live] = est, err
    value, error = value.reshape(shape + rows), error.reshape(shape + rows)
    if failed.size:
        failures = {}
        for i, n in Counter((failed // width).tolist()).items():
            best, estimate = value.reshape(-1, width)[i], error.reshape(-1, width)[i]
            best, estimate = ((best.copy(), estimate.copy()) if rows else
                              (best.item(), estimate.item()))
            last = f"{n} of {width} components unconverged" if rows else repr(best)
            failures[i] = NoConvergence(
                f"{rule} did not reach tolerance {where(i)} (last estimate {last})",
                best=best, estimate=estimate)
        exc = failures[int(failed[0]) // width]
        if shape:
            exc = NoConvergence(str(exc), best=value, estimate=error)
            exc.failures = failures
        raise exc
    if not value.ndim:
        value, error = value.item(), error.item()
    return (value, error) if with_estimate else value


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
    return np.abs(coef).max(axis=-1) * (2.0 / h.shape[-1])


def _angles(n, start):
    """2 cos(t/2)^2, 2 sin(t/2)^2, cos(t) and sin(t) at the midpoint angles
    t = (i + 1/2) pi / n of the block of nodes i from start, read-only."""
    t = (np.arange(start, min(n, start + _CHEB_BLOCK)) + 0.5) * (np.pi / n)
    out = 2.0 * np.cos(0.5 * t) ** 2, 2.0 * np.sin(0.5 * t) ** 2, np.cos(t), np.sin(t)
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
        cos2, sin2, cos, sin = angles(n, start)
        # endpoint distances computed in t, free of 1 - cos(t) cancellation
        d_lo = hw * cos2
        d_hi = hw * sin2
        x = mid + hw * cos
        vals = fd(x, d_lo, d_hi, *rest) if fd is not None else f(x, *rest)
        h = vals * (hw * sin)
        sums.append(np.add.reduce(h, axis=-1))
    while len(sums) > 1:
        sums = [sum(sums[i:i + 2]) for i in range(0, len(sums), 2)]
    value = sums[0] * (np.pi / n)
    if not tail:
        return value
    return value, _tail(h)


def integrate_chebyshev(f, lo, hi, cfg=None, *, fd=None, with_estimate=False):
    """Integrate f over [lo, hi], tolerating 1/sqrt singularities at both ends.

    The substitution x = mid + hw*cos(t) turns the endpoint singularities into
    a smooth integrand h(t) = f(x) hw sin(t) on [0, pi], summed by the
    midpoint rule with doubling N.  The first level has 32 nodes and
    certifies itself: it stops where its four top cosine coefficients
    a_{32-j} = (2/32) sum_i (-1)^i h(t_i) sin(j t_i), j = 1 .. 4, are all
    within the tolerance at the sum, and that largest coefficient is its
    error estimate.  The sum's truncation error is the aliased coefficients
    from a_64 on, far below these where the coefficients of h decay: a tail
    test like the one that chops a Chebyshev series (Aurentz & Trefethen,
    ACM TOMS 43, 2017).  From 64 nodes on a sum stops within the tolerance
    of the previous one.  So the rule sums at most 16 * 2^max_level nodes.

    The integrand may be vector-valued: given m nodes it returns either m
    values or a (K, m) block, and the rule then integrates all K components
    on one shared node set, each stopping on its own (the module's shape and
    failure contract, with the K rows last).  Nodes are passed to the
    integrand in blocks of at most 1024, whose sums are accumulated.

    lo and hi may be 1-D arrays of P intervals, all integrated at once on
    the same t nodes: the integrand then receives a (p, m) block of nodes,
    a row per interval, and as one more positional argument the indices of
    those p intervals, and returns a (p, m) or (K, p, m) block.  One
    interval that never converges keeps every other unconverged interval
    doubling to max_level beside it, where calls one interval at a time
    could stop at the first failure.  Chunks hold whole intervals and about
    256 nodes (or one interval).

    ``fd(x, d_lo, d_hi)``, when given, replaces f and receives d_lo = x - lo
    and d_hi = hi - x to full precision.
    """
    cfg = cfg or DEFAULT_CONFIG
    lo, hi = np.asarray(lo), np.asarray(hi)
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    if not (lo.size and (hi > lo).all()):
        raise ValueError("need lo < hi")
    if not lo.ndim:  # one interval: a row of one, its integrand wrapped once
        g, gd = f, fd
        f = lambda x, at: g(x[0])[..., None, :]  # noqa: E731
        fd = gd and (lambda x, d_lo, d_hi, at: gd(x[0], d_lo[0], d_hi[0])[..., None, :])
    # each interval's midpoint and half-width, as columns
    mid = 0.5 * (lo + hi).reshape(-1, 1)
    hw = 0.5 * (hi - lo).reshape(-1, 1)

    def level_sums(level, intervals):
        n = _CHEB_FIRST << level
        step = max(1, _CHEB_CHUNK // n)
        parts = [_chebyshev_sum(f, fd, mid[at], hw[at], n, at, tail=not level)
                 for at in (intervals[i:i + step] for i in range(0, intervals.size, step))]
        if not level:  # the sums and their certificates, a row per interval
            return tuple(np.concatenate([v.T for v in part]) for part in zip(*parts))
        return parts[0].T if len(parts) == 1 else np.concatenate([v.T for v in parts])

    return _doubling(level_sums, lo.shape, cfg.max_level, cfg, "Chebyshev rule",
                     lambda i: f"on [{lo.flat[i].item()}, {hi.flat[i].item()}]",
                     with_estimate=with_estimate)


# tanh-sinh truncation: exp(-2q(TMAX)) ~ 5e-38 keeps every node representable
_TS_TMAX = 4.0


@lru_cache(maxsize=32)
def _ts_nodes(level):
    """tanh-sinh node data at h = 0.5/2^level, read-only; levels > 0 hold
    only new nodes."""
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
    for a in delta, weight:
        a.flags.writeable = False
    return delta, weight


@lru_cache(maxsize=64)
def _ts_rows(level, count):
    """The node distances of a level as a (count, n) view of one row."""
    delta = _ts_nodes(level)[0]
    return np.broadcast_to(delta, (count, delta.size))


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
    block.
    """
    cfg = cfg or DEFAULT_CONFIG
    starts, sides = np.asarray(lo, dtype=float), np.asarray(direction)
    if starts.shape != sides.shape:
        starts, sides = np.broadcast_arrays(starts, sides)
    if not ((sides == 1) | (sides == -1)).all():
        raise ValueError("direction must be +1 or -1")
    shape = starts.shape  # () for one tail
    if not shape:  # one tail: a row of one, its integrand wrapped once
        g, gd = f, fd
        f = lambda x, at: g(x[0])[None]  # noqa: E731
        fd = gd and (lambda d, at: gd(d[0])[None])
    starts, sides = starts.reshape(-1), sides.reshape(-1)
    # the tails still doubling, their starts and sides as columns, and the
    # weighted sum of every node so far of each
    held, origin, side = np.arange(starts.size), starts[:, None], sides[:, None]
    acc = np.zeros(starts.size)

    def level_sums(level, tails):
        nonlocal held, origin, side, acc
        if tails.size < held.size:  # some tails stopped
            keep = np.searchsorted(held, tails)
            held, origin, side, acc = tails, origin[keep], side[keep], acc[keep]
        delta, weight = _ts_nodes(level)
        if fd is not None:
            vals = fd(_ts_rows(level, tails.size), tails)
        else:
            vals = f(origin + side * delta, tails)
        acc = acc + np.add.reduce(weight * vals, axis=-1)
        return acc * (0.5 / 2 ** level)

    return _doubling(level_sums, shape, cfg.max_level + 1, cfg, "tanh-sinh tail rule",
                     lambda i: f"at lo={starts[i].item() if shape else lo}",
                     with_estimate=with_estimate)


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


def integrate_segment_complex(f, z0, z1, singular_at_start=False, cfg=None, *,
                              fd=None, with_estimate=False):
    """Integrate f along the straight segments from z0 to z1.

    f must be analytic on each open segment; with singular_at_start it may
    have an inverse-square-root singularity at z0, removed by the
    substitution zeta = z0 + (z1 - z0) s^2.  Gauss-Legendre with doubling
    order; a panel stops at the first order within the tolerance of the
    previous one.

    z0 and z1 may be arrays (broadcast against each other) of P panels, all
    integrated at once: at each order one integrand call per node chunk
    receives the offsets of every panel still doubling, as a (panels, n)
    block.  A zero-length panel gives 0j.  Node chunks hold whole panels and
    at most 2048 nodes (or one panel).

    ``fd(offset, start)``, when given, receives the exact complex offsets
    zeta - z0 and, as a column, the start z0 of each panel in the block.
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
    return _doubling(level_sums, shape, min(cfg.max_level, 7) + 1, cfg, "segment rule",
                     lambda i: f"on [{complex(starts[i])}, "
                               f"{complex(np.broadcast_to(z1, shape).flat[i])}]",
                     flat.nonzero()[0], with_estimate)
