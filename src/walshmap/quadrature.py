"""Integration engine for the three integral shapes the solver needs.

All rules double their node count until two successive estimates agree to
tolerance.  Integrands must accept numpy arrays (vectorized evaluation).

The Chebyshev rule also takes vector-valued integrands, returning a (K, m)
block for m nodes: the K components share one node set and each stops on
its own, keeping the estimate of the first level at which it met the
tolerance.  Its nodes reach the integrand in blocks of at most 1024, so a
K-row integrand never holds more than K x 1024 values at once.

The segment rule likewise takes arrays of P segments (panels): at each
order one integrand call per chunk receives the offsets of every panel
still doubling, as a (panels, n) block, and each panel stops on its own.
Chunks hold whole panels, so each panel's sum is the one a call on it
alone forms, and at most _SEG_BLOCK nodes unless one panel has more.

* inverse-square-root endpoint singularities on a finite interval
  -> cosine substitution + Gauss-Chebyshev midpoint rule,
* semi-infinite tails with O(1/x^2) decay and an inverse-square-root
  singularity at the finite endpoint
  -> log compactification + tanh-sinh (double exponential) trapezoid,
* complex line integrals over a straight segment with at most an
  inverse-square-root singularity at the start
  -> s^2 parameter substitution + Gauss-Legendre.

Each rule also accepts a singular-aware callback (``fd``) that receives the
distance(s) to the singular endpoint(s) computed without cancellation.  A
plain callback ``f(x)`` cannot resolve points closer to an endpoint than one
ulp of the endpoint itself, which caps the attainable accuracy of 1/sqrt
integrands near 1e-8; internal callers therefore pass ``fd`` whenever a
singular endpoint lies on the path, and a plain ``f`` only on segments that
stay away from every endpoint (the Green integral's panels after the first,
and the contour-mass rectangle).
"""

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


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_level: int = 12  # node-doubling cap

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_level < 3:
            raise ValueError("max_level must be >= 3")

    def tolerance(self, value: float) -> float:
        return self.abs_tol + self.rel_tol * abs(value)


DEFAULT_CONFIG = QuadConfig()


# nodes per integrand call: bounds the (K, block) temporaries of vector rules,
# whose peaks otherwise stay in the resident memory of the process
_CHEB_BLOCK = 1024
_SEG_BLOCK = 2048


def _chebyshev_sum(f, fd, mid, hw, n):
    """Midpoint-rule sum at n nodes, evaluated in node blocks.

    The block sums are added pairwise, which for n a power-of-two multiple
    of the block is numpy's pairwise summation of all n terms at once: a
    running total would add up to n / 1024 roundings, enough to stall the
    tightest tolerances.
    """
    sums = []
    for start in range(0, n, _CHEB_BLOCK):
        t = (np.arange(start, min(n, start + _CHEB_BLOCK)) + 0.5) * (np.pi / n)
        # endpoint distances computed in t, free of 1 - cos(t) cancellation
        d_lo = 2.0 * hw * np.cos(0.5 * t) ** 2
        d_hi = 2.0 * hw * np.sin(0.5 * t) ** 2
        x = mid + hw * np.cos(t)
        vals = fd(x, d_lo, d_hi) if fd is not None else f(x)
        sums.append(np.sum(vals * (hw * np.sin(t)), axis=-1))
    while len(sums) > 1:
        sums = [sum(sums[i:i + 2]) for i in range(0, len(sums), 2)]
    return sums[0] * (np.pi / n)


def integrate_chebyshev(f, lo, hi, cfg=None, *, fd=None, with_estimate=False):
    """Integrate f over [lo, hi], tolerating 1/sqrt singularities at both ends.

    The substitution x = mid + hw*cos(t) turns the endpoint singularities into
    a smooth integrand in t, summed by the midpoint rule with doubling N.

    The integrand may be vector-valued: given m nodes it returns either m
    values or a (K, m) block, and the rule then integrates all K components
    on one shared node set.  Stopping is per component: each keeps the
    estimate of the first level at which it met the tolerance, and doubling
    goes on until every component has, so each component equals what a
    scalar call on it alone returns.  Nodes are passed to the integrand in
    blocks of at most 1024, whose sums are accumulated.

    Parameters
    ----------
    f : callable
        Vectorized integrand f(x).  Ignored when ``fd`` is given.
    lo, hi : float
        Integration bounds, lo < hi.
    cfg : QuadConfig, optional
    fd : callable, optional
        Singular-aware form fd(x, d_lo, d_hi) where d_lo = x - lo and
        d_hi = hi - x are supplied to full precision.
    with_estimate : bool
        Also return the doubling error estimate |last - previous|.

    Returns a float for a scalar integrand and an array of K estimates (and
    K error estimates) for a (K, m) one.  NoConvergence carries ``best`` and
    ``estimate`` in the same shape: a converged component's kept value and
    estimate, an unconverged one's last.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not hi > lo:
        raise ValueError("need lo < hi")
    mid = 0.5 * (lo + hi)
    hw = 0.5 * (hi - lo)

    prev = err = None
    n = 16
    for _ in range(cfg.max_level + 1):
        raw = _chebyshev_sum(f, fd, mid, hw, n)
        est = np.atleast_1d(raw)
        if prev is None:
            value = est.copy()
            error = np.full(est.shape, np.inf)
            done = np.zeros(est.shape, dtype=bool)
        else:
            err = np.abs(est - prev)
            new = ~done & (err <= cfg.tolerance(est))
            value[new] = est[new]
            error[new] = err[new]
            done |= new
            if done.all():
                break
        prev = est
        n *= 2
    else:
        best = np.where(done, value, prev)
        estimate = np.where(done, error, err)
        if np.ndim(raw) == 0:
            best, estimate = float(best[0]), float(estimate[0])
            last = repr(best)
        else:
            last = f"{int(np.sum(~done))} of {done.size} components unconverged"
        raise NoConvergence(
            f"Chebyshev rule did not reach tolerance on [{lo}, {hi}] "
            f"(last estimate {last})", best=best, estimate=estimate)
    if np.ndim(raw) == 0:
        value, error = float(value[0]), float(error[0])
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


def integrate_tail(f, lo, direction=1, cfg=None, *, fd=None, with_estimate=False):
    """Integrate f over (lo, +inf) (direction=+1) or (-inf, lo) (direction=-1).

    Requires f = O(1/x^2) at infinity and at worst a 1/sqrt singularity at lo.
    The ray is compactified by |x - lo| = exp(-pi*sinh t); the resulting
    doubly-exponential integrand is summed by the trapezoid rule with step
    halving, reusing all previously evaluated nodes.

    ``fd(delta)``, when given, receives the exact distance |x - lo|.
    """
    cfg = cfg or DEFAULT_CONFIG
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")

    def node_sum(level):
        delta, weight = _ts_nodes(level)
        vals = fd(delta) if fd is not None else f(lo + direction * delta)
        return float(np.sum(weight * vals))

    acc = node_sum(0)
    prev = 0.5 * acc
    err = np.inf
    for level in range(1, cfg.max_level + 1):
        acc += node_sum(level)
        est = acc * (0.5 / 2 ** level)
        err = abs(est - prev)
        if err <= cfg.tolerance(est):
            return (est, err) if with_estimate else est
        prev = est
    raise NoConvergence(
        f"tanh-sinh tail rule did not reach tolerance at lo={lo} "
        f"(last estimate {prev!r})", best=prev, estimate=err)


@lru_cache(maxsize=None)
def _leggauss(n):
    """Gauss-Legendre nodes mapped to [0, 1], and the weights on [-1, 1].

    Both are stored complex: a product with complex values would convert
    them on every call, to the same numbers."""
    u, w = np.polynomial.legendre.leggauss(n)
    return (0.5 * (u + 1.0)).astype(complex), w.astype(complex)


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
    the first unconverged panel and its last estimate.
    """
    cfg = cfg or DEFAULT_CONFIG
    z0, z1 = np.asarray(z0, dtype=complex), np.asarray(z1, dtype=complex)
    span = z1 - z0
    shape = span.shape
    value = np.zeros(span.size, dtype=complex)
    error = np.zeros(span.size)
    flat = span.reshape(-1)
    active = flat.nonzero()[0]
    # the still-doubling panels' spans and starts, as columns
    sp = flat[active, None]
    origin = np.empty(shape, dtype=complex)
    origin[...] = z0
    at = origin.reshape(-1)[active, None]

    def evaluate(offset, starts):
        return fd(offset, starts) if fd is not None else f(starts + offset)

    prev = err = None
    n = 16
    # Gauss rules above n=2048 cost more to construct than they repay
    for _ in range(min(cfg.max_level, 7) + 1):
        if not active.size:
            break
        s, w = _leggauss(n)
        chunk = max(1, _SEG_BLOCK // n)
        est = np.empty(active.size, dtype=complex)
        for lo in range(0, active.size, chunk):
            spc = sp[lo:lo + chunk]
            if singular_at_start:
                # d zeta = 2 span s ds and ds = du/2
                jac = spc * s
                vals = evaluate(jac * s, at[lo:lo + chunk])
            else:
                jac = 0.5 * spc
                vals = evaluate(spc * s, at[lo:lo + chunk])
            vals = vals * jac
            vals *= w
            np.add.reduce(vals, axis=-1, out=est[lo:lo + chunk])
        if prev is not None:
            err = np.abs(est - prev)
            done = err <= cfg.tolerance(est)
            # every panel settled: a whole-array write and no compaction,
            # how the one or few panels of a single point usually end
            if np.count_nonzero(done) == active.size:
                value[active], error[active] = est, err
                active = active[:0]
                break
            value[active[done]] = est[done]
            error[active[done]] = err[done]
            keep = ~done
            active, est, err = active[keep], est[keep], err[keep]
            sp, at = sp[keep], at[keep]
        prev = est
        n *= 2
    if active.size:
        value[active] = prev
        error[active] = err
        i = active[0]
        best, estimate = value.reshape(shape), error.reshape(shape)
        if not shape:
            best, estimate = complex(best), float(estimate)
        raise NoConvergence(
            f"segment rule did not reach tolerance on "
            f"[{complex(np.broadcast_to(z0, shape).flat[i])}, "
            f"{complex(np.broadcast_to(z1, shape).flat[i])}] "
            f"(last estimate {complex(value[i])!r})",
            best=best, estimate=estimate)
    if not shape:
        value, error = complex(value[0]), float(error[0])
    else:
        value, error = value.reshape(shape), error.reshape(shape)
    return (value, error) if with_estimate else value
