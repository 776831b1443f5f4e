#!/usr/bin/env python3
"""walshmap benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload grid_dense --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  Each run
sets up its workload (import, warm-up, solving the fixed domains), runs a
number of units of work fixed by --seconds (at least --seconds on the
baseline machine) in a closed loop (one call at a time, one thread), checks every
output outside the timed region, and prints

* one line {"workload": ..., "detail": {...}} with the workload's own
  figures (per-class solve times, grid row and per-point percentiles), then
* the result line {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of metrics.END_TO_END.
With --trace 1 a fixed number of units runs twice, first plain and then with
span wrappers at the layer boundaries, and the metrics are the per-layer
ones of metrics.PER_LAYER; the spans are written to
.bench_trace/<workload>-<seed>.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 5  # this process plus four fresh interpreters
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used to time "
                        "set-up in fresh interpreters)")
    return p.parse_args(argv)


def measure(workload, seconds):
    """Run the run's fixed units.  Returns the calls, the loop's wall time
    and the peak resident memory read after each call (in MB)."""
    from speed import rss_mb
    ops = []
    workload.clock.rss_peak_mb = rss_mb()
    t0 = time.perf_counter()
    for i in range(workload.units(seconds)):
        ops += workload.run_unit(i)
    return ops, time.perf_counter() - t0, workload.clock.rss_peak_mb


def child_setup_s(args):
    """Set-up time of the same workload and seed in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def reference_seconds(ops, clock):
    """Summed reference-speed time of the calls, leaving them unchanged."""
    return sum(op.seconds * clock.factor(op.start, op.seconds) for op in ops if op.called)


def scale_to_reference(ops, clock):
    """Replace each call's wall time by its reference-speed time (see
    speed.py); returns the wall times."""
    wall = []
    for op in ops:
        if op.called:
            wall.append(op.seconds)
            op.seconds *= clock.factor(op.start, op.seconds)
    return wall


def accounting(ops):
    """(attempted, failed, failures by type) over every operation."""
    attempted = sum(op.items for op in ops)
    by_type = {}
    for op in ops:
        for f in op.failures:
            by_type[f] = by_type.get(f, 0) + 1
    return attempted, sum(by_type.values()), by_type


def end_to_end(ops, setups, class_times, loop_rss_mb):
    """The gated metrics; `class_times` holds one time per call class."""
    attempted, failed, _ = accounting(ops)
    return {
        "setup_s": statistics.median(setups),
        "class_ms.gmean": 1e3 * statistics.geometric_mean(class_times.values()),
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loop_rss_mb": loop_rss_mb,
    }


def per_layer(metrics, tracer, ops, timings):
    """Per-layer metrics from the spans of the traced segment."""
    from tracing import aggregate, self_times
    total, per_label = aggregate(tracer)
    out = dict.fromkeys((name for name, _, _ in metrics.PER_LAYER), 0)
    for span in metrics.SELF_TIME_SPANS:
        for key in ("calls", "nodes", "self_s"):
            if f"{span}.{key}" in out:
                out[f"{span}.{key}"] = total[span][key]
        for cls in metrics.CLASSES:
            for key in ("calls", "nodes", "self_s"):
                name = f"{span}.{key}.{cls}"
                if name in out:
                    out[name] = per_label[(span, cls)][key]
    out["lemniscatic.outer_iterations"] = total["lemniscatic.solve_domain"]["outer_iterations"]
    for cls in metrics.CLASSES:
        out[f"lemniscatic.outer_iterations.{cls}"] = \
            per_label[("lemniscatic.solve_domain", cls)]["outer_iterations"]
    for branch in ("complex", "real_gap"):
        out[f"mapping.{branch}.iterations"] = total[f"mapping.{branch}"]["iterations"]
    out["quadrature.no_convergence"] = tracer.events["quadrature.no_convergence"]
    for op in ops:
        if op.kind == "trace" and op.output is not None:
            out["mapping.trace_boundary.unsampled"] += sum(not t.sampled for t in op.output)
        for f in op.failures:
            if op.kind == "solve":
                known = f if f in metrics.SOLVE_FAILURES else "Other"
                out[f"api.solve.failed.{known}"] += 1
            else:
                known = f if f in metrics.POINT_FAILURES else "Other"
                out[f"mapping.failed.{known}"] += 1
    spans = [tuple(s) for s in tracer.spans]
    root_self = self_times(spans)[0]
    traced, untraced = spans[0][2] - spans[0][1], timings["untraced_s"]
    covered = sum(total[s]["self_s"] for s in metrics.SELF_TIME_SPANS)
    if set(total) - set(metrics.SELF_TIME_SPANS) != {"bench"} or \
            abs(covered + root_self - traced) > 1e-9 * max(1.0, traced):
        raise RuntimeError("layer self times do not add up to the traced time")
    out.update({
        "setup.import_s": timings["import_s"],
        "setup.first_call_s": timings["first_call_s"],
        "trace.total_s": traced,
        "trace.untraced_s": untraced,
        "trace.uninstrumented_s": root_self,
        "trace.overhead_ratio": timings["overhead_ratio"],
        "trace.spans": len(spans),
    })
    return out


def traced_run(workload, metrics, timings, seed):
    """The fixed units plain, then the same units traced."""
    from tracing import Instrumentation, Tracer

    def units(tracer=None):
        ops = []
        for i in range(workload.trace_units):
            ops += workload.run_unit(i, tracer)
        workload.cli_grid(tracer)
        return ops

    t0 = time.perf_counter()
    plain = units()
    timings["untraced_s"] = time.perf_counter() - t0

    tracer = Tracer()
    inst = Instrumentation(tracer)
    inst.install()
    try:
        with tracer.span("bench"):
            traced = units(tracer)
    finally:
        inst.remove()
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"{workload.name}-{seed}.json")

    # the overhead compares the calls at reference speed, as the timed runs do
    timings["overhead_ratio"] = (reference_seconds(traced, workload.clock)
                                 / reference_seconds(plain, workload.clock) - 1.0)
    workload.gate(plain)
    same = [workload.outcome(a) == workload.outcome(b) for a, b in zip(plain, traced)]
    correct = len(plain) == len(traced) and all(same)
    return plain, correct, per_layer(metrics, tracer, plain, timings)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "walshmap" / "__init__.py").is_file():
        print(f"error: walshmap sources not found under {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread, set before numpy loads: the loop is single threaded by
    # design, and the set-up children inherit the setting
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    t_import = time.perf_counter()
    import walshmap
    import_s = time.perf_counter() - t_import
    if not pathlib.Path(walshmap.__file__).resolve().is_relative_to(SRC):
        print(f"error: walshmap imported from {walshmap.__file__}", file=sys.stderr)
        return 2
    import metrics
    import speed
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    # the kernel runs before and after set-up, and its own time is left out;
    # the node tables are dense LAPACK work whose speed does not follow the
    # kernel's, so their time is kept as measured
    t_kernel = time.perf_counter()
    factor = speed.factor_now()
    t_setup = time.perf_counter()
    workload.setup()
    now = time.perf_counter()
    factor = 0.5 * (factor + speed.factor_now())
    scaled = now - T_START - (t_setup - t_kernel) - workload.table_s
    setup_s = scaled * factor + workload.table_s
    timings = {"import_s": import_s, "first_call_s": now - t_setup}
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload.gate_domains()

    if args.trace:
        ops, correct, values = traced_run(workload, metrics, timings, args.seed)
        specs = metrics.PER_LAYER
    else:
        ops, loop_s, loop_rss_mb = measure(workload, args.seconds)
        wall = scale_to_reference(ops, workload.clock)
        workload.gate(ops)
        correct = True
        setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        values = end_to_end(ops, setups, workload.class_times(ops), loop_rss_mb)
        specs = metrics.END_TO_END

    attempted, failed, by_type = accounting(ops)
    correct = correct and "GateMiss" not in by_type
    detail = {name: {"value": v, "unit": u} for name, (v, u) in workload.detail(ops).items()}
    detail["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    if not args.trace:
        detail["loop_s"] = {"value": loop_s, "unit": "s"}
        detail["units"] = {"value": workload.units(args.seconds), "unit": "count"}
        detail["class_ms"] = {cls: 1e3 * t for cls, t in workload.class_times(ops).items()}
        detail["wall_call_ms.p50"] = {"value": 1e3 * statistics.median(wall), "unit": "ms"}
        detail["kernel_ms.p50"] = {"value": 1e3 * statistics.median(workload.clock.kernels),
                                   "unit": "ms"}
        detail["setup_s.runs"] = {"value": setups, "unit": "s"}
    detail["failures"] = by_type
    print(json.dumps({"workload": workload.name, "call": workload.call, "detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {spec[0]: {"value": values[spec[0]], "unit": spec[1]} for spec in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
