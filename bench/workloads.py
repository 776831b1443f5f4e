"""The three benchmark workloads and their correctness gates.

Each workload solves its fixed domains in ``setup`` and then runs numbered
units of work: ``run_unit(i)`` draws its inputs from (seed, i) alone, so a
unit does the same work however many units ran before it, and a run does a
fixed number of units (``units``), so one seed always does the same work.
Every call is timed on its own and kept with its output; ``gate`` then
checks the outputs outside the timed region and decides which operations
failed.  Every call belongs to a class (a set size, a grid's domain, a kind
of point); ``class_times`` gives one time per class.

An operation is one solve (solve_ladder), or one point or boundary trace
(grid_dense, edge_points).  It fails when it raises a typed walshmap error,
other than InsideE for a point on E, or when its output misses its check.
Points of a domain that failed to solve fail with the solve's error type.
"""

import contextlib
import io
import math
import statistics
import time

import numpy as np

import inputs
import speed
import walshmap
from walshmap import cli, verify
from walshmap.errors import InsideE, NoConvergence, WalshMapError
from walshmap.green import _green_integral
from walshmap.lemniscatic import green as green_L

GREEN_TOL = 1e-9        # |g_E(z) - g_L(Phi(z))| for every mapped point
INVARIANT_TOL = 1e-10   # solve invariants of the stress battery
ORACLE_TOL = 1e-10      # closed-form map of [-1, 1], relative beyond |w| = 1
CANTOR_TOL = 5e-12
PUBLISHED_TOL = 5e-5    # published values are printed to 4-5 decimals
COVARIANCE_TOL = 1e-9   # relative, for scaled and shifted copies


class Op:
    """One timed call and what it produced.

    `label` names the set size or the domain, `cls` the call's class (the
    label unless given); `items` is the number of operations the call stands
    for (1 for a solve or point, the row length for a map_grid call);
    `failures` lists one failure type per failed operation once the gate has
    run.
    """

    __slots__ = ("kind", "label", "cls", "start", "seconds", "items", "args",
                 "output", "error", "failures")

    def __init__(self, kind, label, timing, items, args, cls=None):
        self.kind, self.label, self.items, self.args = kind, label, items, args
        self.cls = label if cls is None else cls
        self.start, self.seconds, self.output, self.error = timing
        self.failures = []

    @property
    def called(self):
        return self.output is not None or self.error is not None


NO_CALL = (0.0, 0.0, None, None)


def warm_quadrature():
    """Build every cached node table once (Gauss-Legendre up to n = 2048 and
    all tanh-sinh levels) by running the rules on an integrand that never
    settles; a user's first far-field point would otherwise pay for them.
    Returns the seconds it took."""
    t0 = time.perf_counter()

    def rough(x):
        return np.cos(1e6 * np.real(x))

    for rule, args in ((walshmap.integrate_segment_complex, (rough, 0.0, 1.0)),
                       (walshmap.integrate_tail, (rough, 0.0))):
        with contextlib.suppress(NoConvergence):
            rule(*args)
    return time.perf_counter() - t0


# --- oracles -----------------------------------------------------------------

def solve_defect(wm):
    """Largest violation of the stress-battery invariants, each scaled to
    be compared with INVARIANT_TOL: masses sum to 1, m.a = alpha, g_L
    vanishes at the boundary abscissae, g_L(w_k) = g_E(z_k)."""
    dom, data = wm.lemniscatic, wm.green
    m = np.array(wm.exponents.m)
    a = np.array(dom.centers)
    size = max(1.0, max(abs(v) for v in wm.domain.endpoints))
    checks = [abs(math.fsum(m) - 1.0), abs(float(m @ a) - data.alpha) / size]
    checks += [abs(green_L(c, dom)) for c in dom.boundary_c]
    checks += [abs(green_L(w, dom) - g)
               for w, g in zip(dom.crit_w, data.green_at_roots)]
    return max(checks)


def reference_defect(name, wm):
    """Distance to published or closed-form values, divided by their
    tolerance (>1 is a miss); 0 for sets without reference values."""
    if name == "two":
        ref = verify.TWO_INTERVAL_PUBLISHED
        got = {"z1": wm.green.roots[0], "m1": wm.exponents.m[0],
               "m2": wm.exponents.m[1], "alpha": wm.green.alpha,
               "green_at_z1": wm.green.green_at_roots[0],
               "capacity": wm.green.capacity,
               "a1": wm.lemniscatic.centers[0], "a2": wm.lemniscatic.centers[1]}
        return max(abs(got[k] - ref[k]) for k in got) / PUBLISHED_TOL
    if name == "three":
        ref = verify.THREE_INTERVAL_PUBLISHED
        err = max(max(abs(x - y) for x, y in zip(wm.exponents.m, ref["m"])),
                  abs(wm.green.capacity - ref["capacity"]),
                  max(abs(x - y) for x, y in zip(wm.lemniscatic.centers, ref["a"])))
        return err / PUBLISHED_TOL
    if name == "touching":
        ref = verify.TOUCHING_SET_CENTERS_REF
        return max(abs(x - y) for x, y in zip(wm.lemniscatic.centers, ref)) / INVARIANT_TOL
    level = {"cantor2": 2, "cantor3": 3}.get(name)
    if level is not None:
        return abs(wm.green.capacity - verify.CANTOR_CAPACITY[level]) / CANTOR_TOL
    return 0.0


def covariance_defect(wm, base, scale, shift):
    """Relative distance of capacity and centers to those of `base` mapped
    by z -> scale*z + shift (exact covariances of the problem)."""
    cap = abs(wm.green.capacity - scale * base.green.capacity) / (scale * base.green.capacity)
    size = max(scale, abs(shift))
    a = max(abs(x - (scale * y + shift)) / size
            for x, y in zip(wm.lemniscatic.centers, base.lemniscatic.centers))
    return max(cap, a) / COVARIANCE_TOL


def green_E(wm, z):
    """g_E(z) along a path independent of the one the map uses.

    Off the axis the integral starts at the endpoint nearest Re z; on the
    axis it runs from the far edge of a bounded gap (the map starts at the
    near edge).  Where the quadrature gives up, the next base is tried."""
    b = wm.domain.endpoints
    if z.imag != 0.0:
        bases = sorted(b, key=lambda e: abs(e - z.real))
    else:
        k = sum(e < z.real for e in b)  # endpoints left of z
        if k in (0, len(b)):
            bases = [b[0] if k == 0 else b[-1]]
        else:
            near_lo = z.real - b[k - 1] <= b[k] - z.real
            bases = [b[k], b[k - 1]] if near_lo else [b[k - 1], b[k]]
    for base in bases[:-1]:
        try:
            return _green_integral(wm.domain, wm.green.roots, base, z, wm.config).real
        except NoConvergence:
            pass
    return _green_integral(wm.domain, wm.green.roots, bases[-1], z, wm.config).real


def point_failure(wm, z, result, domain_name):
    """None if the mapped point passes its gate, else "GateMiss"."""
    w = result.w
    if result.branch == "boundary":
        j = result.index - 1
        ok = (z.imag == 0.0 and wm.domain.endpoints[j] == z.real
              and w == wm.lemniscatic.boundary_c[j]
              and abs(green_L(w, wm.lemniscatic)) <= GREEN_TOL)
        return None if ok else "GateMiss"
    try:
        err = abs(green_E(wm, z) - green_L(w, wm.lemniscatic))
    except WalshMapError:
        return "GateMiss"
    if domain_name == "unit":
        exact = 0.5 * (z + np.sqrt(z - 1.0) * np.sqrt(z + 1.0))
        if abs(w - exact) > ORACLE_TOL * max(1.0, abs(exact)):
            return "GateMiss"
    return None if err <= GREEN_TOL else "GateMiss"


def error_type(exc):
    return type(exc).__name__


# --- workloads ---------------------------------------------------------------

class Workload:
    """Shared bookkeeping: the seed, solved domains and recorded calls."""

    trace_units = 1
    unit_s = 1.0  # wall time of one unit on the baseline machine

    def __init__(self, seed):
        self.seed = seed
        self.clock = speed.Clock()
        self.domains = {}         # name -> (WalshMap or None, error type)
        self.setup_failures = {}  # name -> failure type of its solve
        self.table_s = 0.0        # set-up time spent building node tables

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def solve_domains(self, named_sets):
        for name, pairs in named_sets:
            try:
                self.domains[name] = (walshmap.solve(pairs), None)
            except WalshMapError as exc:
                self.domains[name] = (None, error_type(exc))

    def gate_domains(self):
        """Check every set-up solve; a domain that misses is not mapped."""
        base = self.domains.get("two", (None, None))[0]
        for name, (wm, err) in self.domains.items():
            if wm is None:
                self.setup_failures[name] = err
                continue
            bad = solve_defect(wm) > INVARIANT_TOL or reference_defect(name, wm) > 1.0
            if base is not None and name.startswith("two_"):
                kind, value = name.split("_")[1:]
                factor = float(value)
                scale, shift = (factor, 0.0) if kind == "scaled" else (1.0, factor)
                bad |= covariance_defect(wm, base, scale, shift) > 1.0
            if bad:
                self.setup_failures[name] = "GateMiss"

    def units(self, seconds):
        """Units in a run of `seconds`: the fewest that fill `seconds` on the
        baseline machine, a count fixed by `seconds` alone, so that the same
        seed always does the same work."""
        return max(1, math.ceil(seconds / self.unit_s - 1e-9))

    def class_times(self, ops):
        """Seconds per call class: the median over the class's calls that
        returned (over all its calls when none did)."""
        groups = {}
        for op in ops:
            if op.called:
                groups.setdefault(op.cls, []).append(op)
        out = {}
        for cls, group in groups.items():
            done = [op.seconds for op in group if op.error is None]
            out[cls] = statistics.median(done or [op.seconds for op in group])
        return out

    def cli_grid(self, tracer=None):
        """Nothing by default; grid_dense also drives the command line."""


class SolveLadder(Workload):
    """`walshmap.solve` on a ladder of set sizes and the Cantor levels."""

    name = "solve_ladder"
    call = "solve"
    unit_s = 9.5

    def setup(self):
        self.table_s = warm_quadrature()
        walshmap.solve(inputs.TWO_INTERVAL_SET)

    def run_unit(self, i, tracer=None):
        ops = []
        for label, pairs in inputs.ladder_sets(self.rng(1, i)):
            if tracer is not None:
                tracer.label = label
            timing = self.clock.call(walshmap.solve, pairs, errors=WalshMapError)
            ops.append(Op("solve", label, timing, 1, pairs))
        if tracer is not None:
            tracer.label = None
        return ops

    def gate(self, ops):
        for op in ops:
            if op.error is not None:
                op.failures = [error_type(op.error)]
                continue
            name = f"cantor{len(op.args).bit_length() - 1}" if op.label == "cantor" else ""
            if solve_defect(op.output) > INVARIANT_TOL or reference_defect(name, op.output) > 1.0:
                op.failures = ["GateMiss"]

    @staticmethod
    def outcome(op):
        if op.error is not None:
            return error_type(op.error)
        return (op.output.green.capacity, op.output.lemniscatic.centers)

    def class_times(self, ops):
        """The median solve time of each set size, and for the Cantor class
        the median time of one pass over levels 2-5, failed level 5 included."""
        out = super().class_times([op for op in ops if op.label != "cantor"])
        per_pass = len(inputs.CANTOR_LEVELS)
        cantor = [op.seconds for op in ops if op.label == "cantor"]
        out["cantor"] = statistics.median(
            sum(cantor[i:i + per_pass]) for i in range(0, len(cantor), per_pass))
        return out

    def detail(self, ops):
        times = self.class_times(ops)
        out = {f"solve_ms.{label}": (1e3 * times[label], "ms") for label, _, _ in inputs.LADDER}
        out["cantor_s"] = (times["cantor"], "s")
        return out


class GridDense(Workload):
    """60x60 grids mapped row by row with `map_grid`, plus boundary curves,
    on domains solved once in set-up.

    The seeded 10-interval sets take turns: each is mapped at every fourth
    row position of a cycle, so together they fill one grid's rows.  Their
    rows form one class, whose time then rests on four sets rather than on
    the cost of one seed's set, which varies by +-20 %.
    """

    name = "grid_dense"
    call = "map_grid row"
    trace_units = inputs.GRID_N
    unit_s = 1 / 6  # two grid cycles in a 20 s run
    rays = 256
    cli_n = 8

    def setup(self):
        self.table_s = warm_quadrature()
        self.grids = inputs.grid_domains(self.rng(0))
        self.solve_domains([(name, pairs) for name, pairs, _, _ in self.grids])
        wm = self.domains["two"][0]
        if wm is not None:
            wm.map_grid([complex(0.0, 0.5), complex(-2.0, 0.0)])
            walshmap.trace_boundary(wm.lemniscatic, 8)

    def run_unit(self, i, tracer=None):
        """Row position i % 60 of grid cycle i // 60 on every fixed domain
        and on one seeded set in turn; a new cycle starts with fresh
        (jittered) axes and the boundary traces of every domain."""
        c, pos = divmod(i, inputs.GRID_N)
        ops = []
        if pos == 0:
            rng = self.rng(2, c)
            axes = {name: inputs.grid_axes(rng, xr, yr, jitter=c > 0)
                    for name, _, xr, yr in self.grids}
            self.cycle = (axes, rng.permutation(inputs.GRID_N))
            for name, _, _, _ in self.grids:
                wm = self.domains[name][0]
                if wm is not None and name not in self.setup_failures:
                    timing = self.clock.call(walshmap.trace_boundary, wm.lemniscatic,
                                             self.rays, errors=WalshMapError)
                    ops.append(Op("trace", name, timing, 1, None, cls="boundary"))
        axes, order = self.cycle
        row = order[pos]
        seeded = [name for name, _, _, _ in self.grids if name.startswith("random10_")]
        for name, _, _, _ in self.grids:
            if name in seeded and name != seeded[pos % len(seeded)]:
                continue
            cls = name.partition("_")[0]  # the seeded sets share one class
            xs, ys = axes[name]
            zs = [complex(x, ys[row]) for x in xs]
            wm = self.domains[name][0]
            if wm is None or name in self.setup_failures:
                op = Op("row", name, NO_CALL, len(zs), zs, cls=cls)
                op.failures = [self.setup_failures[name]] * len(zs)
                ops.append(op)
                continue
            timing = self.clock.call(wm.map_grid, zs, errors=WalshMapError)
            ops.append(Op("row", name, timing, len(zs), zs, cls=cls))
        return ops

    def gate(self, ops):
        for op in ops:
            if op.failures:
                continue
            if op.error is not None:
                op.failures = [error_type(op.error)] * op.items
                continue
            wm = self.domains[op.label][0]
            if op.kind == "trace":
                if any(tr.sampled and np.max(np.abs(green_L(tr.points, wm.lemniscatic))) > GREEN_TOL
                       for tr in op.output):
                    op.failures = ["GateMiss"]
                continue
            for p in op.output:
                if p.status == "converged":
                    fail = point_failure(wm, p.z, p.result, op.label)
                elif p.status == "skipped":
                    fail = None if p.z.imag == 0.0 and wm.domain.contains(p.z.real) else "GateMiss"
                else:
                    try:  # map_grid keeps no error type: ask the point again
                        wm.map_point(p.z)
                        fail = "GateMiss"
                    except WalshMapError as exc:
                        fail = error_type(exc)
                if fail is not None:
                    op.failures.append(fail)

    @staticmethod
    def outcome(op):
        if op.output is None:
            return None if op.error is None else error_type(op.error)
        if op.kind == "trace":
            return tuple(None if t.points is None else t.points.tobytes() for t in op.output)
        return tuple((p.status, None if p.result is None else p.result.w) for p in op.output)

    def cli_grid(self, tracer=None):
        """`walshmap grid` in-process on each domain, output captured."""
        for name, pairs, xr, yr in self.grids:
            intervals = ";".join(f"{a!r},{b!r}" for a, b in pairs)
            argv = ["grid", f"--intervals={intervals}", f"--x-range={xr[0]!r},{xr[1]!r}",
                    f"--y-range={yr[0]!r},{yr[1]!r}", f"--nx={self.cli_n}", f"--ny={self.cli_n}"]
            buf = io.StringIO()
            span = tracer.span("cli.grid") if tracer is not None else contextlib.nullcontext()
            with span, contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            lines = buf.getvalue().splitlines()
            if code != 0 or len(lines) != 1 + self.cli_n ** 2:
                raise RuntimeError(f"walshmap grid on {name} exited {code} "
                                   f"with {len(lines)} lines")

    def detail(self, ops):
        rows = [op for op in ops if op.kind == "row" and op.called]
        traces = [op.seconds for op in ops if op.kind == "trace"]
        busy = sum(op.seconds for op in ops if op.called)
        return {
            "map_points_per_s": (sum(op.items for op in rows) / busy, "1/s"),
            "grid_row_ms.p50": (1e3 * statistics.median(op.seconds for op in rows), "ms"),
            "grid_row_ms.p95": (1e3 * float(np.percentile([op.seconds for op in rows], 95)), "ms"),
            "boundary_ms": (1e3 * statistics.median(traces), "ms"),
        }


class EdgePoints(Workload):
    """Single `map_point` calls at hard points on many small domains."""

    name = "edge_points"
    call = "map_point"
    trace_units = 4
    unit_s = 0.5

    def setup(self):
        self.table_s = warm_quadrature()
        self.edge = inputs.edge_domains(self.rng(0))
        self.solve_domains(self.edge)
        wm = self.domains["two"][0]
        if wm is not None:
            wm.map_point(complex(0.0, 0.5))
            wm.map_point(complex(-2.0, 0.0))

    def run_unit(self, i, tracer=None):
        """One sweep: a few fresh points on every domain."""
        rng = self.rng(3, i)
        ops = []
        for name, pairs in self.edge:
            wm = self.domains[name][0]
            endpoints = [v for pair in pairs for v in pair]
            for kind, z in inputs.edge_points(rng, endpoints):
                if wm is None or name in self.setup_failures:
                    op = Op("point", name, NO_CALL, 1, z, cls=kind)
                    op.failures = [self.setup_failures[name]]
                    ops.append(op)
                    continue
                timing = self.clock.call(wm.map_point, z, errors=WalshMapError)
                if isinstance(timing[3], InsideE):
                    continue  # a point on E is not an operation
                ops.append(Op("point", name, timing, 1, z, cls=kind))
        return ops

    def gate(self, ops):
        for op in ops:
            if op.failures:
                continue
            if op.error is not None:
                op.failures = [error_type(op.error)]
                continue
            fail = point_failure(self.domains[op.label][0], op.args, op.output, op.label)
            if fail is not None:
                op.failures = [fail]

    @staticmethod
    def outcome(op):
        if op.error is not None:
            return error_type(op.error)
        return None if op.output is None else op.output.w

    def detail(self, ops):
        times = [op.seconds for op in ops if op.called]
        return {
            "map_point_us.p50": (1e6 * statistics.median(times), "us"),
            "map_point_us.p99": (1e6 * float(np.percentile(times, 99)), "us"),
        }


WORKLOADS = {w.name: w for w in (SolveLadder, GridDense, EdgePoints)}
