#!/usr/bin/env python3
"""Profile the centers' damped Newton over random interval sets.

Draws seeded random unions, runs the full solve, and prints a histogram of
the centers' Newton step counts (LemniscaticDomain.outer_iterations)
together with the worst invariant defects:

    python scripts/iteration_profile.py --ell 10 --count 200 --seed 1

With --nodes it also counts the Chebyshev rule's work: how many intervals
it summed at each node count, its calls and node evaluations per drawn set,
and the numerator's gap passes per set: leave-one-out passes (a row per
root left out) and residual passes (the plain product, gaps among its
intervals).  The count wraps the rule, its integrand and
green._product_integrals from outside the package, as the benchmark's
tracing does, so it reads the same on any version of it.

With --rays it prints, for each drawn set, the passes over rays of L that
evaluate g_L: those of boundary_abscissae inside the solve, and those of one
trace_boundary(dom, 256), each split into level and slope passes with the
rays a pass, counted by wrapping lemniscatic._level and _level_slope from
outside the package.  The trace solves the 129 rays of each lobe from angle
0 to pi and mirrors the others, so its passes run over 129 ell rays.

With --crit it counts, per solve, the calls of lemniscatic.crit_points and
the calls of the bracketed solver _bisect and their evaluations of f, split
by caller: the numerator's exact roots (green), the critical points of the
centers' Newton (lemniscatic.crit_points) and the rays of boundary_abscissae.
It also prints the Newton steps of lemniscatic._ride per evaluation of the
centers' Newton, and per solve the evaluations whose ridden critical points
left their brackets (and so called crit_points).

With --stages it times the stages of each solve instead: per set, the median
over --repeat solves of the leave-one-out gap pass, the hull pass (gap
residuals and masses), the critical values, the capacity tails, the centers'
Newton (with its critical points) and the boundary abscissae, in ms, and of
the whole solve.  Each stage is timed by wrapping the function that does it
from outside the package (green._product_integrals, _gap_integral,
_capacity_both; lemniscatic._center_solve, boundary_abscissae).

Every mode solves the same sets: --count draws of --ell intervals, or
Cantor levels (--cantor) and Dirichlet sets filling [-1, 1] drawn from
default_rng(ell) (--dirichlet):

    python scripts/iteration_profile.py --stages --cantor 6 7 8 --dirichlet 80 160
    python scripts/iteration_profile.py --crit --dirichlet 5 10 40
"""

import argparse
import collections
import functools
import math
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np

from inputs import dirichlet_intervals  # the benchmark's seeded sets
from walshmap import equilibrium, green, lemniscatic
from walshmap.api import solve
from walshmap.verify import cantor_pairs, random_interval_set, worst_invariant


def node_count(x, d_lo, d_hi):
    """The node count n of the midpoint rule whose nodes x = mid + hw cos t,
    t = (i + 1/2) pi / n, lie along the last axis of x (a block of at most
    1024 of them): from the spacing of the first two t, which the exact
    endpoint distances give as t = 2 atan(sqrt(d_hi / d_lo))."""
    d_lo, d_hi = np.reshape(d_lo, (-1, x.shape[-1])), np.reshape(d_hi, (-1, x.shape[-1]))
    t = 2.0 * np.arctan(np.sqrt(d_hi[0, :2] / d_lo[0, :2]))
    return 1 << round(math.log2(math.pi / (t[1] - t[0])))


def count_chebyshev(nodes, calls):
    """Wrap the Chebyshev rule where the solve reaches it, so that every
    call adds one to calls["chebyshev"] and every integrand call its node
    evaluations to nodes[n], n its level's node count; and the numerator's
    interval integrals, so that each adds one to calls["leave_one_out"] or,
    over intervals that include a gap, calls["residual"].  Returns the
    undo."""
    saved = [(green, "_product_integrals", green._product_integrals)]

    def wrap(rule):
        @functools.wraps(rule)
        def wrapper(f, lo, hi, cfg=None, *, fd=None, **kwargs):
            calls["chebyshev"] += 1
            if fd is None:  # a plain f, called through fd for its distances
                def fd(x, d_lo, d_hi, *rest):
                    return f(x, *rest)
            inner = fd

            def counted(x, d_lo, d_hi, *rest):
                nodes[node_count(x, d_lo, d_hi)] += x.size
                return inner(x, d_lo, d_hi, *rest)
            return rule(None, lo, hi, cfg, fd=counted, **kwargs)
        return wrapper

    def passes(rule):
        @functools.wraps(rule)
        def wrapper(E, first, roots, cfg, leave_one_out=False):
            if leave_one_out:
                calls["leave_one_out"] += 1
            elif np.any(np.asarray(first) % 2):
                calls["residual"] += 1
            return rule(E, first, roots, cfg, leave_one_out)
        return wrapper

    green._product_integrals = passes(green._product_integrals)
    for module in (green, equilibrium):
        saved.append((module, "integrate_chebyshev", module.integrate_chebyshev))
        module.integrate_chebyshev = wrap(module.integrate_chebyshev)

    def undo():
        for module, name, rule in saved:
            setattr(module, name, rule)
    return undo


def per_set_line(label, counts):
    """'label: mean M, min A, max B' over the per-set counts."""
    return f"{label}: mean {np.mean(counts):.1f}, min {min(counts)}, max {max(counts)}"


RAY_PASSES = ("_level", "_level_slope")


def count_rays(counts):
    """Wrap lemniscatic's level and slope passes, so that every call adds
    one to counts[name] and its rays to counts[name + "_rays"]; returns the
    undo."""
    saved = [(name, getattr(lemniscatic, name)) for name in RAY_PASSES]

    def wrap(name, rule):
        @functools.wraps(rule)
        def wrapper(center, a, cos, sin, r, *rest):
            counts[name] += 1
            counts[name + "_rays"] += r.size
            return rule(center, a, cos, sin, r, *rest)
        return wrapper

    for name, rule in saved:
        setattr(lemniscatic, name, wrap(name, rule))

    def undo():
        for name, rule in saved:
            setattr(lemniscatic, name, rule)
    return undo


def ray_passes(counts):
    """'L level + S slope passes of R rays', R the rays a pass."""
    passes = sum(counts[name] for name in RAY_PASSES)
    rays = sum(counts[name + "_rays"] for name in RAY_PASSES)
    return (f"{counts['_level']} level + {counts['_level_slope']} slope passes of "
            f"{rays / max(passes, 1):.0f} rays")


# the callers of _bisect --crit tells apart
BISECT_CALLERS = ("exact roots", "centers", "rays")


def count_crit(counts, ride_steps):
    """Wrap lemniscatic.crit_points, lemniscatic._ride and the _bisect of
    green and lemniscatic, so that every crit_points call adds one to
    counts["crit_points"], every _bisect call one to counts[caller] and its
    evaluations of f to counts[caller + " evals"], and every _ride call its
    Newton steps to ride_steps and, when it leaves a bracket, one to
    counts["bracket exits"]; a lemniscatic _bisect call inside crit_points
    is the centers', any other the rays'.  Returns the undo."""
    plain_crit, plain_ride = lemniscatic.crit_points, lemniscatic._ride
    saved = [(green, "_bisect", green._bisect), (lemniscatic, "_bisect", lemniscatic._bisect),
             (lemniscatic, "crit_points", plain_crit), (lemniscatic, "_ride", plain_ride)]
    inside = []  # nonempty while crit_points runs

    def bisect(rule, caller):
        @functools.wraps(rule)
        def wrapper(f, *args, **kwargs):
            name = caller or ("centers" if inside else "rays")
            counts[name] += 1

            def counted(x):
                counts[name + " evals"] += 1
                return f(x)
            return rule(counted, *args, **kwargs)
        return wrapper

    @functools.wraps(plain_crit)
    def crit_points(*args, **kwargs):
        counts["crit_points"] += 1
        inside.append(1)
        try:
            return plain_crit(*args, **kwargs)
        finally:
            inside.pop()

    steps = [0]  # Newton steps of the running _ride call

    class Centers(np.ndarray):
        """The centers handed to _ride, counting the differences w - a it
        forms, one per Newton step."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            steps[0] += ufunc is np.subtract
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    @functools.wraps(plain_ride)
    def ride(a, *args):
        steps[0] = 0
        w = plain_ride(np.asarray(a).view(Centers), *args)
        ride_steps.append(steps[0])
        counts["bracket exits"] += w is None
        return w

    green._bisect = bisect(green._bisect, "exact roots")
    lemniscatic._bisect = bisect(lemniscatic._bisect, None)
    lemniscatic.crit_points = crit_points
    lemniscatic._ride = ride

    def undo():
        for module, name, rule in saved:
            setattr(module, name, rule)
    return undo


# (column, module, function) of each timed solve stage; the calls of
# _product_integrals without leave_one_out go to the column "hull"
STAGES = (("loo", green, "_product_integrals"),
          ("crit_g", green, "_gap_integral"), ("tails", green, "_capacity_both"),
          ("centers", lemniscatic, "_center_solve"),
          ("bound_c", lemniscatic, "boundary_abscissae"))
COLUMNS = ("loo", "hull", "crit_g", "tails", "centers", "bound_c", "solve")


def time_stages(seconds):
    """Wrap the solve's stages so that every call adds its wall time to
    seconds[column] (STAGES); returns the undo."""
    saved = []

    def wrap(rule, column):
        @functools.wraps(rule)
        def wrapper(*args, **kwargs):
            name = column
            if column == "loo" and not (kwargs.get("leave_one_out")
                                        or len(args) > 4 and args[4]):
                name = "hull"
            t0 = time.perf_counter()
            try:
                return rule(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
        return wrapper

    for column, module, name in STAGES:
        rule = getattr(module, name)
        saved.append((module, name, rule))
        setattr(module, name, wrap(rule, column))

    def undo():
        for module, name, rule in saved:
            setattr(module, name, rule)
    return undo


def stage_sets(args):
    """(label, pairs) of every set to solve."""
    if args.cantor or args.dirichlet:
        return ([(f"cantor{k}", cantor_pairs(k)) for k in args.cantor]
                + [(f"dirichlet{ell}", dirichlet_intervals(np.random.default_rng(ell), ell))
                   for ell in args.dirichlet])
    rng = np.random.default_rng(args.seed)
    return [(f"set {i}", random_interval_set(rng, args.ell, args.min_length))
            for i in range(args.count)]


def print_stages(args, sets):
    """One line per set: the median ms of each stage and of the solve."""
    print(f"median ms over {args.repeat} solves: " + " ".join(f"{c:>9s}" for c in COLUMNS))
    for label, pairs in sets:
        runs = collections.defaultdict(list)
        for _ in range(args.repeat):
            seconds = collections.Counter()
            undo = time_stages(seconds)
            t0 = time.perf_counter()
            try:
                solve(pairs)
            finally:
                seconds["solve"] = time.perf_counter() - t0
                undo()
            for column in COLUMNS:
                runs[column].append(seconds[column])
        print(f"{label:>12s} ell {len(pairs):4d}: " + " ".join(
            f"{1e3 * statistics.median(runs[c]):9.3f}" for c in COLUMNS))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ell", type=int, default=10, help="components per set")
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-length", type=float, default=1e-2,
                        help="smallest allowed component/gap length")
    parser.add_argument("--nodes", action="store_true",
                        help="count the Chebyshev rule's intervals and nodes")
    parser.add_argument("--rays", action="store_true",
                        help="count the g_L passes of boundary_abscissae and of a "
                             "256-ray trace_boundary per set (129 solved rays a lobe)")
    parser.add_argument("--crit", action="store_true",
                        help="count crit_points calls and _bisect evaluations per solve")
    parser.add_argument("--stages", action="store_true",
                        help="time each solve stage per set instead")
    parser.add_argument("--repeat", type=int, default=5,
                        help="solves per set with --stages")
    parser.add_argument("--cantor", type=int, nargs="+", default=[], metavar="LEVEL",
                        help="solve Cantor levels instead of random draws")
    parser.add_argument("--dirichlet", type=int, nargs="+", default=[], metavar="ELL",
                        help="solve Dirichlet sets of ELL intervals instead of random draws")
    args = parser.parse_args()
    try:
        sets = stage_sets(args)
    except ValueError as exc:
        sys.exit(f"iteration_profile: {exc}")
    if args.stages:
        print_stages(args, sets)
        return

    histogram = collections.Counter()
    nodes = collections.Counter()  # node evaluations by node count
    calls = collections.Counter()  # Chebyshev calls and gap passes
    per_set = []
    calls_per_set = collections.defaultdict(list)
    worst = 0.0
    rays = collections.Counter()  # ray passes and their rays
    crit = collections.Counter()  # crit_points calls, _bisect calls and evaluations
    ride_steps = []  # Newton steps of each _ride call
    undos = ([count_chebyshev(nodes, calls)] if args.nodes else []) + (
        [count_rays(rays)] if args.rays else []) + (
        [count_crit(crit, ride_steps)] if args.crit else [])
    t0 = time.perf_counter()
    try:
        for label, pairs in sets:
            before, before_calls, before_rays = sum(nodes.values()), calls.copy(), rays.copy()
            before_crit = crit.copy()
            wm = solve(pairs)
            per_set.append(sum(nodes.values()) - before)
            for name in ("chebyshev", "leave_one_out", "residual"):
                calls_per_set[name].append(calls[name] - before_calls[name])
            for name in ("crit_points", "bracket exits") + tuple(
                    f"{caller}{kind}" for caller in BISECT_CALLERS for kind in ("", " evals")):
                calls_per_set[name].append(crit[name] - before_crit[name])
            if args.rays:
                in_solve, before_rays = rays - before_rays, rays.copy()
                lemniscatic.trace_boundary(wm.lemniscatic, 256)
                print(f"{label}: boundary_abscissae {ray_passes(in_solve)}; "
                      f"trace {ray_passes(rays - before_rays)}")
            histogram[wm.lemniscatic.outer_iterations] += 1
            worst = max(worst, worst_invariant(wm))
    finally:
        for undo in undos:
            undo()
    elapsed = time.perf_counter() - t0

    if args.cantor or args.dirichlet:
        print("sets: " + ", ".join(label for label, _ in sets))
    else:
        print(f"{args.count} random sets with {args.ell} components "
              f"(min length {args.min_length:g}, seed {args.seed})")
    for steps in sorted(histogram):
        bar = "#" * histogram[steps]
        print(f"  {steps:2d} Newton steps: {histogram[steps]:4d} {bar}")
    print(f"worst invariant defect: {worst:.3e}")
    if args.nodes:
        print("Chebyshev intervals per node count: " + (", ".join(
            f"{n}: {nodes[n] // n}" for n in sorted(nodes)) or "none"))
        print(f"{per_set_line('Chebyshev node evaluations per set', per_set)}, "
              f"total {sum(per_set)}")
        print(per_set_line("Chebyshev calls per set", calls_per_set["chebyshev"]))
        print(per_set_line("leave-one-out gap passes per set", calls_per_set["leave_one_out"]))
        print(per_set_line("residual gap passes per set", calls_per_set["residual"]))
    if args.crit:
        print(per_set_line("crit_points calls per solve", calls_per_set["crit_points"]))
        for caller in BISECT_CALLERS:
            print(per_set_line(f"_bisect calls per solve, {caller}", calls_per_set[caller]))
            print(per_set_line(f"_bisect evaluations per solve, {caller}",
                               calls_per_set[caller + " evals"]))
        if ride_steps:
            print(f"_ride steps per evaluation: mean {np.mean(ride_steps):.2f}, "
                  f"min {min(ride_steps)}, max {max(ride_steps)}")
        print(per_set_line("_ride bracket exits per solve", calls_per_set["bracket exits"]))
    print(f"total {elapsed:.1f}s ({1e3 * elapsed / len(sets):.1f} ms per set)")


if __name__ == "__main__":
    main()
