"""Damped Newton iteration shared by every nonlinear solve of the package.

The numerator roots, both center systems and the two map equations of a
single point run through damped_newton; each caller supplies its residual,
full Newton step, acceptance test and stopping rule.  map_grid solves the
complex map equations of a whole batch of points with its masked twin,
damped_newton_masked, which runs the same rule on every element at once.
"""

import numpy as np

from .errors import NoConvergence

__all__ = ["damped_newton", "damped_newton_masked"]


def _max_abs(F) -> float:
    return float(np.max(np.abs(F)))


def _stalled(x, res):
    return NoConvergence(f"no damped Newton step lowers the residual {res:.3e}",
                         best=x, estimate=res)


def _out_of_steps(max_steps, x, res):
    return NoConvergence(f"Newton iteration stopped after {max_steps} steps at "
                         f"residual {res:.3e}", best=x, estimate=res)


def damped_newton(fun, x, *, admissible=None, tol=0.0, step_tol=None,
                  max_steps, max_halvings):
    """Damped Newton from x; returns (x, F, steps).

    fun(x) returns (F, delta): the residual at x and the full Newton step.
    Each step tries x + t delta for t = 1, 1/2, ... (max_halvings trials)
    and takes the first trial that satisfies admissible(trial), when given,
    and has a smaller max|F| than x.  The iteration stops when max|F| <= tol,
    or when every entry of the full step at x is within step_tol(x).  Raises
    NoConvergence, carrying the last iterate as best and its max|F| as
    estimate, when no trial of a step is taken or max_steps steps do not
    stop.
    """
    F, delta = fun(x)
    # plain abs for Python scalars: the map calls this several times a point
    norm = abs if isinstance(F, (float, complex)) else _max_abs
    res = norm(F)
    steps = 0
    while not (res <= tol or (step_tol is not None
                              and np.all(np.abs(delta) <= step_tol(x)))):
        if steps == max_steps:
            raise _out_of_steps(max_steps, x, res)
        t = 1.0
        for _ in range(max_halvings):
            trial = x + t * delta
            if admissible is None or admissible(trial):
                F_t, delta_t = fun(trial)
                res_t = norm(F_t)
                if res_t < res:
                    break
            t *= 0.5
        else:
            raise _stalled(x, res)
        x, F, delta, res = trial, F_t, delta_t, res_t
        steps += 1
    return x, F, steps


def damped_newton_masked(fun, x, *, admissible, tol, max_steps, max_halvings):
    """damped_newton on every element of the 1-D array x at once, for
    independent scalar equations: each element has its own damping
    sequence, acceptance test, residual stop and step count, and its
    iterates are the ones damped_newton gives it alone.

    fun(x, idx) returns (F, delta) for the elements idx at the points x, and
    admissible(trial, idx) whether each trial is allowed.  Returns
    (x, F, steps, failures, margin): the last iterates, their residuals and
    step counts, a dict from the index of each element that did not stop to
    the NoConvergence damped_newton raises for it, and per element the least
    |r / tol - 1|, capped at 1, over the residuals r of its iterates: how
    near its stop test came to the other outcome.
    """
    x = np.array(x)
    F, delta = fun(x, np.arange(x.size))
    res = np.abs(F)
    margin = np.minimum(np.abs(res / tol - 1.0), 1.0) if tol > 0 else np.ones(x.size)
    steps = np.zeros(x.size, dtype=int)
    failures = {}
    live = np.flatnonzero(~(res <= tol))
    # every live element takes one step per pass, so all have taken `taken`
    for taken in range(max_steps + 1):
        if not live.size:
            break
        if taken == max_steps:
            for i in live.tolist():
                failures[i] = _out_of_steps(max_steps, x[i].item(), float(res[i]))
            break
        trying, moved, t = live, [], 1.0
        for _ in range(max_halvings):
            trial = x[trying] + t * delta[trying]
            ok = admissible(trial, trying)
            every = ok.all()
            tried = trying if every else trying[ok]
            if tried.size:
                if not every:
                    trial = trial[ok]
                F_t, delta_t = fun(trial, tried)
                res_t = np.abs(F_t)
                took = res_t < res[tried]
                if not took.all():
                    tried, trial, F_t, delta_t, res_t = (
                        tried[took], trial[took], F_t[took], delta_t[took], res_t[took])
                x[tried], F[tried], delta[tried], res[tried] = trial, F_t, delta_t, res_t
                moved.append(tried)
                if tried.size == trying.size:
                    break
                ok[ok] = took  # the trials taken
            trying = trying[~ok]
            t *= 0.5
        else:
            for i in trying.tolist():
                failures[i] = _stalled(x[i].item(), float(res[i]))
        live = moved[0] if len(moved) == 1 else np.concatenate(moved or [live[:0]])
        steps[live] = taken + 1
        near = live[res[live] < 2.0 * tol]
        if near.size:
            margin[near] = np.minimum(margin[near], np.abs(res[near] / tol - 1.0))
        live = live[~(res[live] <= tol)]
    return x, F, steps, failures, margin
