"""Damped Newton iteration shared by every nonlinear solve of the package.

The numerator roots, both center systems and the two map equations run
through damped_newton; each caller supplies its residual, full Newton step,
acceptance test and stopping rule.
"""

import numpy as np

from .errors import NoConvergence

__all__ = ["damped_newton"]


def _max_abs(F) -> float:
    return float(np.max(np.abs(F)))


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
            raise NoConvergence(
                f"Newton iteration stopped after {max_steps} steps at "
                f"residual {res:.3e}", best=x, estimate=res)
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
            raise NoConvergence(
                f"no damped Newton step lowers the residual {res:.3e}",
                best=x, estimate=res)
        x, F, delta, res = trial, F_t, delta_t, res_t
        steps += 1
    return x, F, steps
