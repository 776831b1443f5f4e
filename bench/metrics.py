"""Metric names, units and directions: the single source for run.py's output
and for BENCHMARK.json (a test keeps the two in step)."""

CLASSES = ("ell5", "ell10", "ell20", "ell40", "cantor")

# (name, unit, better, bound): what every untraced run prints
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("class_ms.gmean", "ms", "lower", 0.20),
    ("ok_ratio", "ratio", "higher", 0.04),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("loop_rss_mb", "MB", "lower", 0.05),
)

# span name -> metric prefix for the span's self time
SELF_TIME_SPANS = (
    "quadrature.chebyshev", "quadrature.segment", "quadrature.tail",
    "green.green_data", "green.target", "equilibrium.exponents",
    "lemniscatic.solve_domain", "lemniscatic.crit_points",
    "lemniscatic.boundary_abscissae", "mapping.complex", "mapping.real_gap",
    "mapping.boundary", "mapping.grid", "mapping.trace_boundary", "api.solve",
    "cli.grid",
)
CALL_COUNTED = ("quadrature.chebyshev", "quadrature.segment", "quadrature.tail",
                "green.target", "lemniscatic.crit_points")
NODE_COUNTED = ("quadrature.chebyshev", "quadrature.segment", "quadrature.tail")
# reported per solve_ladder class as well as in total
PER_CLASS = ("quadrature.chebyshev.calls", "quadrature.chebyshev.nodes",
             "quadrature.chebyshev.self_s", "green.green_data.self_s",
             "equilibrium.exponents.self_s", "lemniscatic.solve_domain.self_s",
             "lemniscatic.crit_points.calls", "lemniscatic.crit_points.self_s",
             "lemniscatic.boundary_abscissae.self_s", "lemniscatic.outer_iterations")
POINT_FAILURES = ("NoConvergence", "CapacityMismatch", "BracketFailure",
                  "GateMiss", "Other")
SOLVE_FAILURES = ("NoConvergence", "RootNotBracketed", "GateMiss", "Other")


def _unit(name):
    if name.endswith(("_s", ".self_s")) or "self_s." in name:
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer_names():
    names = []
    for span in SELF_TIME_SPANS:
        if span in CALL_COUNTED:
            names.append(f"{span}.calls")
        if span in NODE_COUNTED:
            names.append(f"{span}.nodes")
        names.append(f"{span}.self_s")
    names += ["quadrature.no_convergence", "lemniscatic.outer_iterations",
              "mapping.complex.iterations", "mapping.real_gap.iterations",
              "mapping.trace_boundary.unsampled"]
    names += [f"{base}.{cls}" for base in PER_CLASS for cls in CLASSES]
    names += [f"mapping.failed.{t}" for t in POINT_FAILURES]
    names += [f"api.solve.failed.{t}" for t in SOLVE_FAILURES]
    names += ["setup.import_s", "setup.first_call_s", "trace.total_s",
              "trace.untraced_s", "trace.uninstrumented_s",
              "trace.overhead_ratio", "trace.spans"]
    return names


PER_LAYER = tuple((name, _unit(name), "lower") for name in per_layer_names())
