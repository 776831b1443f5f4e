"""Newton kernels shared by every nonlinear solve of the package.

Both center systems run through damped_newton; each caller supplies its
residual, full Newton step, acceptance test and stopping rule.  Every map
equation, complex or real, of map_point's one point, of a map_grid batch
or of a component series' samples, runs through its masked twin,
damped_newton_masked, which runs the same rule on every element at once.
Real zeros in known brackets (the numerator roots of each linear pass on
the gap conditions, the critical points of g_L at the centers the centers'
Newton returns, and the rays of L's boundary in log r, whose rays at angles
0 and pi are the real zeros of g_L) come from _bisect, Newton's method
safeguarded by bisection on arrays of brackets.  The trials of the centers'
Newton take no bracketed solve: their critical points ride it by Newton
steps of their own (lemniscatic._ride).
"""

import numpy as np

from .errors import NoConvergence

__all__ = ["damped_newton", "damped_newton_masked"]


def _max_abs(F) -> float:
    return float(np.max(np.abs(F)))


def _stalled(x, res, steps):
    exc = NoConvergence(f"no damped Newton step lowers the residual {res:.3e}",
                        best=x, estimate=res)
    exc.steps = steps
    return exc


def _out_of_steps(max_steps, x, res):
    exc = NoConvergence(f"Newton iteration stopped after {max_steps} steps at "
                        f"residual {res:.3e}", best=x, estimate=res)
    exc.steps = max_steps
    return exc


def damped_newton(fun, x, *, admissible=None, tol=0.0, step_tol=None,
                  max_steps, max_halvings):
    """Damped Newton from x; returns (x, F, steps).

    fun(x) returns (F, delta): the residual at x and the full Newton step.
    Each step tries x + t delta for t = 1, 1/2, ... (max_halvings trials)
    and takes the first trial that satisfies admissible(trial), when given,
    and has a smaller max|F| than x.  The iteration stops when max|F| <= tol,
    or when every entry of the full step at x is within step_tol(x).  Raises
    NoConvergence, carrying the last iterate as best, its max|F| as estimate
    and the steps taken to it as steps, when no trial of a step is taken or
    max_steps steps do not stop.
    """
    F, delta = fun(x)
    res = _max_abs(F)
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
                res_t = _max_abs(F_t)
                if res_t < res:
                    break
            t *= 0.5
        else:
            raise _stalled(x, res, steps)
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
    (x, F, steps, failures): the last iterates, their residuals and step
    counts, and a dict from the index of each element that did not stop to
    the NoConvergence damped_newton raises for it.  An element's iterates
    are the same in any batch when fun's are.
    """
    x = np.array(x)
    F, delta = fun(x, np.arange(x.size))
    res = np.abs(F)
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
                failures[i] = _stalled(x[i].item(), float(res[i]), taken)
        live = moved[0] if len(moved) == 1 else np.concatenate(moved or [live[:0]])
        steps[live] = taken + 1
        live = live[~(res[live] <= tol)]
    return x, F, steps, failures


# evaluations of f per _bisect call at most; plain halving needs about 60 to
# shrink a bracket of the set's size to adjacent floats
_BISECT_STEPS = 90


def _bisect(f, pos, neg, start=None):
    """Zeros of f in the array brackets (pos, neg), where f(pos) > 0 >= f(neg),
    by Newton's method safeguarded by bisection.  f(x) returns f and its
    slope at every point of the array x.

    Each bracket starts at its point of start (default: its midpoint).
    Every evaluation moves the end of the same sign as f to the point, and
    the next point is the Newton step from it when that lands strictly
    inside the bracket, the midpoint otherwise.  A bracket stops at its
    point when f vanishes there, when the Newton step is within two float
    spacings of it, or when a Newton step below sqrt(eps) of the point did
    not halve |f| (f's rounding noise then outweighs the step); or at the
    midpoint of its ends once they are adjacent floats.  All brackets are
    evaluated together until the last one stops, at most _BISECT_STEPS
    times; one still open then returns its midpoint.  The ends are updated
    in place, and the noise test runs only while some Newton step is below
    sqrt(eps).
    """
    pos = np.array(pos, dtype=float)
    neg = np.array(neg, dtype=float)
    x = 0.5 * (pos + neg) if start is None else np.array(start, dtype=float)
    root = np.empty(x.shape)
    live = np.ones(x.shape, dtype=bool)
    small_newton = None  # where the last Newton step was below sqrt(eps)
    for _ in range(_BISECT_STEPS):
        fx, slope = f(x)
        up = fx > 0
        np.copyto(pos, x, where=up)
        np.copyto(neg, x, where=~up)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = fx / slope
        abs_x, abs_step = np.abs(x), np.abs(step)
        mid = 0.5 * (pos + neg)
        at_x = (fx == 0.0) | (abs_step <= 2.0 * np.spacing(abs_x))
        if small_newton is not None:
            at_x |= small_newton & (np.abs(fx) >= f_prev)
        stop = live & (at_x | (mid == pos) | (mid == neg))
        np.copyto(root, np.where(at_x, x, mid), where=stop)
        live &= ~stop
        if not live.any():
            return root
        newton = x - step
        inside = (newton - pos) * (newton - neg) < 0.0
        small_newton = inside & (abs_step <= 1.5e-8 * abs_x)
        if small_newton.any():
            f_prev = 0.5 * np.abs(fx)
        else:
            small_newton = None
        x = np.where(live, np.where(inside, newton, mid), x)
    np.copyto(root, mid, where=live)
    return root
