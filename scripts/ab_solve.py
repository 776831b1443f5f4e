#!/usr/bin/env python3
"""Compare the solve time of two source trees in one process, interleaved.

    python scripts/ab_solve.py OLD_SRC NEW_SRC --rounds 20

OLD_SRC and NEW_SRC are directories that hold a ``walshmap`` package (a
checkout's ``src``).  The first is imported as ``walshmap``; the second is
copied under another package name, which works because the package's own
imports are all relative.  Each round draws one pass of the benchmark's
solve ladder (``bench/inputs.ladder_sets``: Dirichlet sets of 5 to 40
intervals, then Cantor levels 2-5) and solves every set with both trees,
one right after the other, the old first in even rounds and the new first
in odd ones.  So both sides see the same sets on the same machine state, and
drifts of the host's speed fall on both alike.

Prints, per class, the median solve time of each side (for the Cantor class
the median time of one pass over its levels, as the benchmark counts it)
and their ratio, then the geometric mean of the class medians of each side
and the ratio of the two: new over old, below 1 when the new tree is faster.

With --outputs it compares what the two trees solve instead of timing
them: over the same ladder passes, the worst move of each output (roots,
masses, capacity, green_at_roots, centers, crit_w and boundary_c) between
the two solves of a set, relative to the largest entry of the old tree's
vector, how many solves are bit-identical, the totals of the centers'
Newton steps (outer_iterations) on each side, and each side's worst
solve invariant (verify.worst_invariant) and largest final residual of the
centers' Newton (inner_residual):

    python scripts/ab_solve.py OLD_SRC NEW_SRC --outputs --rounds 3

With --grid it times the map instead, on the benchmark's grid domains
(``bench/inputs.grid_domains``: the two- and three-interval sets, Cantor
level 2 and the seeded 10-interval sets), each solved once by each tree.
Each round draws one jittered grid a domain and calls, with both trees one
right after the other, its 256-ray trace_boundary and then map_grid on each
of its rows.  It prints the median call time of each of the benchmark's
grid_dense classes (``boundary`` for the traces, the domain's name before
its first ``_`` for the rows, so the seeded sets share ``random10``), and the
geometric mean of the class medians, as the solve mode does.  With --grid
--outputs it compares the two trees' points instead: statuses and errors,
bit-identical images and the worst move of the others relative to |w| and
in units in the last place of |w|, changes in the other fields of each
MapResult, and the traces' points:

    python scripts/ab_solve.py OLD_SRC NEW_SRC --grid --rounds 10
    python scripts/ab_solve.py OLD_SRC NEW_SRC --grid --outputs --rounds 2

With --points it times map_point on the benchmark's edge domains
(``bench/inputs.edge_domains``, seeded as the edge_points workload seeds
them), each solved once by each tree.  Each round draws the points of one
edge_points unit (``bench/inputs.edge_points`` on every domain) and maps
each with both trees one right after the other, the old first in even
rounds.  It prints each class's median microseconds a call (gap,
endpoint, near_axis, far, plain; a point inside E, which the workload does
not count, is left out) and the geometric mean of the class medians, as the
other modes do.  With --points --outputs it reports every point whose
records differ in a field or in a field's type, and every error that
differs in type or message:

    python scripts/ab_solve.py OLD_SRC NEW_SRC --points --rounds 20
    python scripts/ab_solve.py OLD_SRC NEW_SRC --points --outputs --rounds 50
"""

import argparse
import gc
import importlib
import math
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402  (the benchmark's seeded sets)

import numpy as np  # noqa: E402


def load_trees(old_src, new_src, workdir):
    """The walshmap package of old_src, and that of new_src copied into
    workdir as walshmap_new; both imported."""
    for src in (old_src, new_src):
        if not (pathlib.Path(src) / "walshmap" / "__init__.py").is_file():
            sys.exit(f"ab_solve: no walshmap package under {src}")
    sys.path.insert(0, str(pathlib.Path(old_src).resolve()))
    old = importlib.import_module("walshmap")
    shutil.copytree(pathlib.Path(new_src) / "walshmap", pathlib.Path(workdir) / "walshmap_new",
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(workdir))
    new = importlib.import_module("walshmap_new")
    return old, new


def timed_solve(package, pairs):
    """Seconds of one package.solve(pairs); a typed failure counts too."""
    t0 = time.perf_counter()
    try:
        package.solve(pairs)
    except package.errors.WalshMapError:
        pass
    return time.perf_counter() - t0


def class_medians(times):
    """The median of each class's times; for the Cantor class the median of
    its passes, each the sum over the levels of one round."""
    return {label: statistics.median(sum(p) for p in values) if label == "cantor"
            else statistics.median(v for p in values for v in p)
            for label, values in times.items()}


# (label, attribute path on a WalshMap) of every output --outputs compares
OUTPUTS = (("roots", "green.roots"), ("masses", "exponents.m"),
           ("capacity", "green.capacity"), ("green_at_roots", "green.green_at_roots"),
           ("centers", "lemniscatic.centers"), ("crit_w", "lemniscatic.crit_w"),
           ("boundary_c", "lemniscatic.boundary_c"))


def outputs(package, pairs):
    """{label: array} of a solve's outputs, its outer_iterations,
    worst_invariant and inner_residual, or the name of its typed failure."""
    try:
        wm = package.solve(pairs)
    except package.errors.WalshMapError as exc:
        return type(exc).__name__
    out = {}
    for label, path in OUTPUTS:
        value = wm
        for name in path.split("."):
            value = getattr(value, name)
        out[label] = np.atleast_1d(np.asarray(value, dtype=float))
    out["outer_iterations"] = wm.lemniscatic.outer_iterations
    out["worst_invariant"] = importlib.import_module(
        package.__name__ + ".verify").worst_invariant(wm)
    out["inner_residual"] = wm.lemniscatic.inner_residual
    return out


def compare_outputs(sides, ladders):
    """Print the worst relative move of each output over the ladders' sets,
    the bit-identical solves, each side's outer_iterations total and its
    largest worst_invariant and inner_residual."""
    worst = {name: (0.0, None) for name, _ in OUTPUTS}  # (move, class label)
    identical = solves = 0
    steps = [0, 0]
    largest = {name: [0.0, 0.0] for name in ("worst_invariant", "inner_residual")}
    failures = []
    for label, pairs in (item for ladder in ladders for item in ladder):
        old, new = (outputs(package, pairs) for package in sides)
        solves += 1
        if isinstance(old, str) or isinstance(new, str):
            failures.append(f"{label}: {old if isinstance(old, str) else 'solved'} -> "
                            f"{new if isinstance(new, str) else 'solved'}")
            identical += old == new
            continue
        same = True
        for name, _ in OUTPUTS:
            scale = float(np.max(np.abs(old[name]), initial=0.0)) or 1.0
            move = float(np.max(np.abs(new[name] - old[name]), initial=0.0)) / scale
            same &= bool(np.array_equal(new[name], old[name]))
            if move > worst[name][0]:
                worst[name] = (move, label)
        identical += same
        for side, out in enumerate((old, new)):
            steps[side] += out["outer_iterations"]
            for name, values in largest.items():
                values[side] = max(values[side], out[name])
    print(f"{solves} ladder solves, {identical} bit-identical; worst move relative to "
          f"the vector's largest entry:")
    for name, (move, label) in worst.items():
        print(f"  {name:14s} {move:.3e}" + (f" ({label})" if label else ""))
    print(f"outer_iterations: old {steps[0]}, new {steps[1]}")
    for name, (old, new) in largest.items():
        print(f"{name}: old {old:.3e}, new {new:.3e}")
    for line in failures:
        print(f"  failed {line}")


# rays a lobe of each grid domain's trace, as grid_dense draws them
RAYS = 256


def solved_grids(sides, rng, limit):
    """(name, class, x range, y range, (old WalshMap, new WalshMap)) of the
    first limit grid domains that both trees solve."""
    out = []
    for name, pairs, xr, yr in inputs.grid_domains(rng)[:limit]:
        try:
            wms = tuple(package.solve(pairs) for package in sides)
        except (sides[0].errors.WalshMapError, sides[1].errors.WalshMapError) as exc:
            print(f"  {name}: not solved ({type(exc).__name__}), left out")
            continue
        out.append((name, name.partition("_")[0], xr, yr, wms))
    return out


def grid_calls(grids, rng, jitter):
    """One grid's calls, per domain its trace and then its rows:
    (class, domain index, the row's points or None for the trace)."""
    calls = []
    for k, (_, cls, xr, yr, _) in enumerate(grids):
        calls.append(("boundary", k, None))
        xs, ys = inputs.grid_axes(rng, xr, yr, jitter)
        calls += [(cls, k, [complex(x, y) for x in xs.tolist()]) for y in ys.tolist()]
    return calls


def grid_call(package, wm, zs):
    """map_grid on the row zs, or the domain's trace for zs None; a typed
    failure of the trace is returned."""
    if zs is not None:
        return wm.map_grid(zs)
    try:
        return package.trace_boundary(wm.lemniscatic, RAYS)
    except package.errors.WalshMapError as exc:
        return type(exc).__name__


def _bits(w):
    return w.real.hex(), w.imag.hex()


def compare_grid_outputs(sides, grids, rounds):
    """Print, over the rows and traces of the rounds' grids, the two trees'
    status and error changes, bit-identical and moved images, other
    MapResult fields changed, and bit-identical traces."""
    points = identical = changed = residuals = others = traces = same_traces = 0
    worst, worst_ulp, worst_trace = (0.0, None), 0.0, 0.0
    for calls in rounds:
        for _, k, zs in calls:
            old, new = (grid_call(package, wm, zs) for package, wm in zip(sides, grids[k][4]))
            if zs is None:
                traces += 1
                if isinstance(old, str) or isinstance(new, str):
                    same_traces += old == new
                    continue
                same = True
                for a, b in zip(old, new):
                    if a.points is None or b.points is None:
                        same &= a.points is b.points
                        continue
                    same &= a.points.tobytes() == b.points.tobytes()
                    scale = float(np.max(np.abs(a.points), initial=0.0)) or 1.0
                    worst_trace = max(worst_trace,
                                      float(np.max(np.abs(b.points - a.points))) / scale)
                same_traces += same
                continue
            for p, q in zip(old, new):
                points += 1
                if (p.status, p.error) != (q.status, q.error):
                    changed += 1
                    continue
                if p.result is None:
                    identical += 1
                    continue
                if _bits(p.result.w) == _bits(q.result.w):
                    identical += 1
                else:
                    move = abs(q.result.w - p.result.w) / abs(p.result.w)
                    worst_ulp = max(worst_ulp, abs(q.result.w - p.result.w)
                                    / float(np.spacing(abs(p.result.w))))
                    if move > worst[0]:
                        worst = (move, f"{grids[k][0]} z = {p.z!r}")
                residuals += p.result.residual != q.result.residual
                others += p.result[2:] != q.result[2:]
    print(f"{points} grid points: {changed} status or error changes, {identical} images "
          f"bit-identical, {points - changed - identical} moved")
    print(f"  worst move relative to |w| {worst[0]:.3e}"
          + (f" ({worst[1]})" if worst[1] else "") + f", in ulp of |w| {worst_ulp:.2f}")
    print(f"  residuals changed {residuals}, iterations, branch, index or near_boundary "
          f"changed {others}")
    print(f"{traces} traces: {same_traces} bit-identical, worst move relative to the lobe's "
          f"largest |point| {worst_trace:.3e}")


def grid_main(args, sides):
    """--grid: the map's A/B on the benchmark's grid domains."""
    rng = np.random.default_rng(args.seed)
    grids = solved_grids(sides, rng, args.limit)
    for _, _, _, _, wms in grids:  # warm-up: each domain's series, first calls
        for wm in wms:
            wm.map_grid([complex(0.0, 0.5), complex(0.0, 5.0)])
    rounds = (grid_calls(grids, rng, jitter=r > 0) for r in range(args.rounds))
    if args.outputs:
        compare_grid_outputs(sides, grids, rounds)
        return
    times = ({}, {})
    for round_, calls in enumerate(rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        gc.collect()
        for cls, k, zs in calls:
            for side in order:
                package, wm = sides[side], grids[k][4][side]
                t0 = time.perf_counter()
                grid_call(package, wm, zs)
                times[side].setdefault(cls, []).append(time.perf_counter() - t0)
    old, new = ({cls: statistics.median(v) for cls, v in t.items()} for t in times)
    print(f"{args.rounds} interleaved grids (seed {args.seed}): median ms, old / new / ratio")
    report(old, new)


def solved_edges(sides, seed, limit):
    """(name, endpoints, (old WalshMap, new WalshMap)) of the first limit
    edge domains, drawn as the edge_points workload of this seed draws them,
    that both trees solve."""
    out = []
    for name, pairs in inputs.edge_domains(np.random.default_rng([seed, 0]))[:limit]:
        try:
            wms = tuple(package.solve(pairs) for package in sides)
        except (sides[0].errors.WalshMapError, sides[1].errors.WalshMapError) as exc:
            print(f"  {name}: not solved ({type(exc).__name__}), left out")
            continue
        out.append((name, [v for pair in pairs for v in pair], wms))
    return out


def point_calls(edges, seed, round_):
    """The points of one edge_points unit, numbered round_:
    (kind, domain index, z) for every domain in order."""
    rng = np.random.default_rng([seed, 3, round_])
    return [(kind, k, z) for k, (_, endpoints, _) in enumerate(edges)
            for kind, z in inputs.edge_points(rng, endpoints)]


def point_call(package, wm, z):
    """map_point's MapResult at z, or the typed error it raised."""
    try:
        return wm.map_point(z)
    except package.errors.WalshMapError as exc:
        return exc


def _same_value(a, b):
    """Whether a and b are of one type and equal, floats and complex
    numbers bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, complex):
        return _bits(a) == _bits(b)
    return a == b


def _describe(res):
    if isinstance(res, Exception):
        return f"{type(res).__name__}: {res}"
    return ", ".join(f"{name}={value!r} ({type(value).__name__})"
                     for name, value in zip(res._fields, res))


def compare_point_outputs(sides, edges, rounds):
    """Print, over the rounds' points, how many records and errors of the
    two trees are the same, and each one that differs: a record in a field
    or a field's type (or its own type's name), an error in type or
    message."""
    records = errors = 0
    differ = []
    for calls in rounds:
        for kind, k, z in calls:
            old, new = (point_call(package, wm, z) for package, wm in zip(sides, edges[k][2]))
            if isinstance(old, Exception) or isinstance(new, Exception):
                errors += 1
                same = _describe(old) == _describe(new)
            else:
                records += 1
                same = (type(old).__name__ == type(new).__name__
                        and old._fields == new._fields and all(map(_same_value, old, new)))
            if not same:
                differ.append(f"  {edges[k][0]} {kind} z = {z!r}:\n"
                              f"    old {_describe(old)}\n    new {_describe(new)}")
    print(f"{records + errors} points: {records} records, {errors} errors; "
          f"{len(differ)} differ")
    for line in differ:
        print(line)


def points_main(args, sides):
    """--points: map_point's A/B on the benchmark's edge domains."""
    edges = solved_edges(sides, args.seed, args.limit)
    for wm in (wm for name, _, wms in edges if name == "two" for wm in wms):
        # warm-up, as the workload's set-up does
        wm.map_point(complex(0.0, 0.5))
        wm.map_point(complex(-2.0, 0.0))
    rounds = (point_calls(edges, args.seed, r) for r in range(args.rounds))
    if args.outputs:
        compare_point_outputs(sides, edges, rounds)
        return
    times = tuple({kind: [] for kind in inputs.EDGE_KINDS} for _ in range(2))
    for round_, calls in enumerate(rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        gc.collect()
        for kind, k, z in calls:
            for side in order:
                package, wm = sides[side], edges[k][2][side]
                t0 = time.perf_counter()
                res = point_call(package, wm, z)
                seconds = time.perf_counter() - t0
                if not isinstance(res, package.errors.InsideE):
                    times[side][kind].append(seconds)
    old, new = ({kind: statistics.median(v) for kind, v in t.items() if v} for t in times)
    print(f"{args.rounds} interleaved edge_points units (seed {args.seed}): "
          f"median us, old / new / ratio")
    report(old, new, scale=1e6)


def report(old, new, scale=1e3):
    """Print each class's median of both sides, in seconds times scale, and
    their ratio, then the geometric means of the class medians and theirs."""
    for label in old:
        print(f"  {label:9s} {scale * old[label]:10.4f} {scale * new[label]:10.4f} "
              f"{new[label] / old[label]:7.4f}")
    gmeans = [math.exp(statistics.fmean(math.log(v) for v in side.values()))
              for side in (old, new)]
    print(f"  {'gmean':9s} {scale * gmeans[0]:10.4f} {scale * gmeans[1]:10.4f} "
          f"{gmeans[1] / gmeans[0]:7.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src", help="directory holding the old walshmap package")
    parser.add_argument("new_src", help="directory holding the new walshmap package")
    parser.add_argument("--rounds", type=int, default=20,
                        help="ladder passes (grids with --grid, units with --points)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--limit", type=int, default=None,
                        help="solve only the first LIMIT sets of each pass (with --grid "
                             "or --points, map only the first LIMIT grid or edge domains)")
    parser.add_argument("--outputs", action="store_true",
                        help="compare the two trees' outputs instead of their times")
    parser.add_argument("--grid", action="store_true",
                        help="time or compare the map on the grid domains instead of the "
                             "solve ladder")
    parser.add_argument("--points", action="store_true",
                        help="time or compare map_point on the edge domains instead of the "
                             "solve ladder")
    args = parser.parse_args()
    if args.grid and args.points:
        parser.error("--grid and --points are two modes: give one")

    with tempfile.TemporaryDirectory() as workdir:
        sides = load_trees(args.old_src, args.new_src, workdir)
        for package in sides:  # warm-up: quadrature tables, first calls
            package.solve(inputs.TWO_INTERVAL_SET)
        if args.grid:
            grid_main(args, sides)
            return
        if args.points:
            points_main(args, sides)
            return
        rng = np.random.default_rng(args.seed)
        if args.outputs:
            compare_outputs(sides, [inputs.ladder_sets(rng)[:args.limit]
                                    for _ in range(args.rounds)])
            return
        # times[side][label]: one list of seconds per round
        times = ({}, {})
        for round_ in range(args.rounds):
            ladder = inputs.ladder_sets(rng)[:args.limit]
            order = (0, 1) if round_ % 2 == 0 else (1, 0)
            for side in (0, 1):
                for label in dict(ladder):
                    times[side].setdefault(label, []).append([])
            gc.collect()
            for label, pairs in ladder:
                for side in order:
                    times[side][label][-1].append(timed_solve(sides[side], pairs))

    old, new = (class_medians(t) for t in times)
    print(f"{args.rounds} interleaved ladder passes (seed {args.seed}): "
          f"median ms, old / new / ratio")
    report(old, new)


if __name__ == "__main__":
    main()
