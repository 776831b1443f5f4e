import math
import warnings

import numpy as np
import pytest

from walshmap.errors import NoConvergence
from walshmap.newton import _bisect, damped_newton, damped_newton_masked

import scalar_oracles as oracle


def recording(fun):
    """fun, with every point it is evaluated at appended to .calls."""
    def wrapped(x):
        wrapped.calls.append(x)
        return fun(x)
    wrapped.calls = []
    return wrapped


def test_inadmissible_trial_is_halved():
    # the full step lands on the root 3, outside x < 2; the halved one is
    # taken, and the single step allowed then runs out
    fun = recording(lambda x: (x - 3.0, 3.0 - x))
    with pytest.raises(NoConvergence) as err:
        damped_newton(fun, 0.0, admissible=lambda x: x < 2.0, max_steps=1,
                      max_halvings=10)
    assert fun.calls == [0.0, 1.5]  # the inadmissible 3.0 is never evaluated
    assert err.value.best == 1.5 and err.value.estimate == 1.5


def test_step_that_raises_the_residual_is_halved():
    # plain Newton on atan diverges from x = 2; the full step there raises
    # |F| from 1.107 to 1.295 and is refused
    fun = recording(lambda x: (math.atan(x), -math.atan(x) * (1.0 + x * x)))
    x, F, steps = damped_newton(fun, 2.0, tol=1e-14, max_steps=20, max_halvings=10)
    delta = -math.atan(2.0) * 5.0
    assert fun.calls[1:3] == [2.0 + delta, 2.0 + 0.5 * delta]
    assert abs(x) <= 1e-14 and abs(F) <= 1e-14 and steps >= 3


def test_residual_stop():
    fun = recording(lambda x: (x - np.array([1.0, 2.0]), np.array([1.0, 2.0]) - x))
    x, F, steps = damped_newton(fun, np.zeros(2), max_steps=5, max_halvings=5)
    assert steps == 1 and np.all(x == [1.0, 2.0]) and np.all(F == 0.0)
    assert len(fun.calls) == 2


def test_step_stop():
    # a step of half the distance to the root: the residual never reaches
    # tol = 0, and the iteration stops once the full step is within 1e-3
    x, F, steps = damped_newton(lambda x: (x - 1.0, 0.5 * (1.0 - x)), 0.0,
                                step_tol=lambda x: 1e-3, max_steps=50,
                                max_halvings=5)
    assert steps == 9 and x == 1.0 - 2.0 ** -9 and F == x - 1.0


def test_stall_carries_best_and_estimate_for_scalar_residual():
    # every trial along delta = +1 raises 1 + x^2 from x = 0.5
    with pytest.raises(NoConvergence) as err:
        damped_newton(lambda x: (1.0 + x * x, 1.0), 0.5, max_steps=10, max_halvings=8)
    assert err.value.best == 0.5 and err.value.estimate == 1.25


def test_stall_carries_best_and_estimate_for_array_residual():
    def fun(x):
        return np.array([1.0 + x[0] ** 2, 0.5]), np.array([1.0])

    with pytest.raises(NoConvergence) as err:
        damped_newton(fun, np.array([0.5]), max_steps=10, max_halvings=8)
    assert np.all(err.value.best == [0.5]) and err.value.estimate == 1.25


# --- the masked twin --------------------------------------------------------

# one equation per element: converges at once, needs halvings (atan from 2),
# is refused by the admissibility test x < 1.5 until halved (an overshooting
# step), stalls (1 + x^2 along +1), runs out of steps (a step of half the
# distance to the root) and has a zero derivative (x^2 - 1 at 0, NaN step)
MASKED_X0 = np.array([1.0, 2.0, 0.0, 0.5, 0.0, 0.0])


def masked_fun(x, kind):
    # an element's index is its kind of equation
    F = np.select([kind == 1, kind == 3, kind == 5],
                  [np.arctan(x), 1.0 + x * x, x * x - 1.0], x - 1.0)
    slope_step = np.full_like(x, np.nan)
    np.divide(-F, 2.0 * x, out=slope_step, where=2.0 * x != 0.0)
    delta = np.select([kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
                      [1.0 - x, -np.arctan(x) * (1.0 + x * x), 2.0 * (1.0 - x),
                       np.ones_like(x), 0.5 * (1.0 - x)], slope_step)
    return F, delta


def test_masked_kernel_matches_scalar_kernel_per_element():
    options = dict(tol=1e-14, max_steps=12, max_halvings=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, F, steps, failures = damped_newton_masked(
            masked_fun, MASKED_X0, admissible=lambda x, idx: x < 1.5, **options)
    assert sorted(failures) == [3, 4, 5]
    for i, x0 in enumerate(MASKED_X0.tolist()):
        def one(v, i=i):
            F, delta = masked_fun(np.array([v]), np.array([i]))
            return F[0], delta[0]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                xs, Fs, ss = damped_newton(one, x0, admissible=lambda v: v < 1.5,
                                           **options)
            except NoConvergence as exc:
                got = failures[i]
                assert (str(got), got.best, got.estimate) == (
                    str(exc), exc.best, exc.estimate)
                assert x[i] == exc.best and abs(F[i]) == exc.estimate
                continue
        assert i not in failures
        assert (x[i], F[i], steps[i]) == (xs, Fs, ss)
    assert steps.tolist()[:3] == [0, 5, 1]
    for i in (3, 5):
        assert str(failures[i]).startswith("no damped Newton step lowers the residual")
    assert str(failures[4]).startswith("Newton iteration stopped after 12 steps")


def _bit_identical(f, pos, neg, start=None):
    """_bisect's roots equal its reference kernel's bit for bit."""
    got = _bisect(f, pos, neg, start)
    want = oracle.bisect_reference(f, pos, neg, start)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return got


def _bracketed(kind, root, k, sign):
    """f with its slope, rising through root when sign is 1 and falling when
    -1: a cubic, an arctangent (Newton overshoots its flat tails, so some
    steps fall back to the midpoint) or a line with rounding-sized noise
    (the noise-floor stop)."""
    def f(x):
        d = x - root
        if kind == 0:
            return sign * (d + k * d ** 3), sign * (1.0 + 3.0 * k * d ** 2)
        if kind == 1:
            return sign * np.arctan(k * d), sign * k / (1.0 + (k * d) ** 2)
        return sign * (d + 1e-13 * np.sin(1e15 * x)), sign * np.ones_like(x)
    return f


@pytest.mark.parametrize("kind", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_bisect_is_its_reference_on_random_brackets(kind, seed):
    # brackets of either orientation (pos above or below neg), 1e-12 to 10
    # wide (1e-6 with the noise), started at their midpoints, inside or
    # outside them
    rng = np.random.default_rng(seed)
    n = 64
    lo = rng.uniform(-3.0, 3.0, n)
    hi = lo + 10.0 ** rng.uniform(-12.0 if kind < 2 else -6.0, 1.0, n)
    root = lo + rng.uniform(0.01, 0.99, n) * (hi - lo)
    rising = rng.random(n) < 0.5
    pos, neg = np.where(rising, hi, lo), np.where(rising, lo, hi)
    f = _bracketed(kind, root, 10.0 ** rng.uniform(-1.0, 6.0, n), np.where(rising, 1.0, -1.0))
    assert np.all(f(pos)[0] > 0.0) and np.all(f(neg)[0] <= 0.0)
    _bit_identical(f, pos, neg)
    _bit_identical(f, pos, neg, lo + rng.uniform(-0.5, 1.5, n) * (hi - lo))


def test_bisect_is_its_reference_on_adjacent_floats_and_exact_zeros():
    x = np.array([0.5, -3.0, 1e-300])
    line = lambda v: (v - x, np.ones_like(v))  # noqa: E731
    _bit_identical(line, np.nextafter(x, np.inf), x)
    _bit_identical(line, np.nextafter(x, np.inf), x, np.nextafter(x, np.inf))
    # f hits 0 exactly: at the first midpoint, and after a Newton step
    assert _bit_identical(lambda v: (v - 0.5, np.ones_like(v)), [1.0], [0.0])[0] == 0.5
    assert _bit_identical(lambda v: (2.0 * v - 0.5, np.full_like(v, 2.0)), [1.0], [0.0],
                          [0.75])[0] == 0.25
    # no Newton step (a NaN slope) on a bracket 90 halvings cannot close:
    # the midpoint of its last ends, beside a bracket that does close
    halving = lambda v: (v - 0.3, np.full_like(v, np.nan))  # noqa: E731
    got = _bit_identical(halving, [1e300, 1.0], [-1e300, 0.0])
    assert abs(got[0] - 0.3) > 1.0 and got[1] == 0.3
