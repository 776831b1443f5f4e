"""Integration engine for the three integral shapes the solver needs.

All rules double their node count until two successive estimates agree to
tolerance.  Integrands must accept numpy arrays (vectorized evaluation).

The Chebyshev rule also takes vector-valued integrands, returning a (K, m)
block for m nodes: the K components share one node set and each stops on
its own, keeping the estimate of the first level at which it met the
tolerance.  Its nodes reach the integrand in blocks of at most 1024, so a
K-row integrand never holds more than K x 1024 values at once.

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

    prev = None
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
    return np.polynomial.legendre.leggauss(n)


def integrate_segment_complex(f, z0, z1, singular_at_start=False, cfg=None, *,
                              fd=None, with_estimate=False):
    """Integrate f along the straight segment from z0 to z1.

    f must be analytic on the open segment; with singular_at_start it may have
    an inverse-square-root singularity at z0, removed by the substitution
    zeta = z0 + (z1 - z0) s^2.  Gauss-Legendre with doubling order.

    ``fd(offset)``, when given, receives the exact complex offset zeta - z0.
    """
    cfg = cfg or DEFAULT_CONFIG
    z0 = complex(z0)
    z1 = complex(z1)
    span = z1 - z0
    if span == 0:
        return (0j, 0.0) if with_estimate else 0j

    def evaluate(offset):
        if fd is not None:
            return fd(offset)
        return f(z0 + offset)

    prev = None
    err = np.inf
    n = 16
    # Gauss rules above n=2048 cost more to construct than they repay
    for _ in range(min(cfg.max_level, 7) + 1):
        u, w = _leggauss(n)
        s = 0.5 * (u + 1.0)
        if singular_at_start:
            # d zeta = 2 span s ds and ds = du/2
            vals = evaluate(span * s * s) * (span * s)
        else:
            vals = evaluate(span * s) * (0.5 * span)
        est = complex(np.sum(vals * w))
        if prev is not None:
            err = abs(est - prev)
            if err <= cfg.tolerance(abs(est)):
                return (est, err) if with_estimate else est
        prev = est
        n *= 2
    raise NoConvergence(
        f"segment rule did not reach tolerance on [{z0}, {z1}] "
        f"(last estimate {prev!r})", best=prev, estimate=err)
