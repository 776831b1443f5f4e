"""Tests of the benchmark's own pieces: python3 -m pytest bench -q"""

import json
import math
import pathlib

import numpy as np
import pytest

import inputs
import metrics
import run
import tracing
import workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("ell", [1, 2, 5, 40, 80])
@pytest.mark.parametrize("floor", [0.0, 0.25, 0.9])
def test_generator_deterministic_and_floored(ell, floor):
    a = inputs.dirichlet_intervals(np.random.default_rng([7, ell]), ell, floor)
    b = inputs.dirichlet_intervals(np.random.default_rng([7, ell]), ell, floor)
    c = inputs.dirichlet_intervals(np.random.default_rng([8, ell]), ell, floor)
    assert a == b
    assert ell == 1 or a != c
    ends = np.array(a).ravel()
    assert len(a) == ell and ends[0] == -1.0 and ends[-1] == 1.0
    pieces = np.diff(ends)
    assert np.all(pieces >= floor * 2.0 / (2 * ell - 1) * (1 - 1e-12))
    assert np.all(pieces > 0)


def test_workload_inputs_depend_only_on_seed():
    first = [inputs.ladder_sets(np.random.default_rng([3, 1, 0])) for _ in range(2)]
    assert first[0] == first[1]
    pts = [inputs.edge_points(np.random.default_rng(5), [-1.0, -0.3, 0.1, 1.0]) for _ in range(2)]
    assert pts[0] == pts[1]
    assert {kind for kind, _ in pts[0]} == set(inputs.EDGE_KINDS)


def test_units_fixed_by_seconds():
    w = workloads.SolveLadder(seed=1)
    assert w.units(20) == w.units(20) == math.ceil(20 / w.unit_s - 1e-9)
    assert w.units(20) * w.unit_s >= 20
    assert w.units(0.1) == 1
    assert workloads.GridDense(seed=1).units(20) == 2 * inputs.GRID_N


def op(kind, items=1, failures=(), called=True, label="d", seconds=0.5, error=None):
    timing = (0.0, seconds, object(), error) if called else workloads.NO_CALL
    o = workloads.Op(kind, label, timing, items, None)
    o.failures = list(failures)
    return o


def test_fail_ratio_accounting():
    ops = [op("point"), op("point", failures=["NoConvergence"]),
           op("row", items=4, failures=["GateMiss"]),
           # two points of a domain that did not solve: no call, both failed
           op("point", failures=["CapacityMismatch"], called=False),
           op("point", failures=["CapacityMismatch"], called=False)]
    attempted, failed, by_type = run.accounting(ops)
    assert (attempted, failed) == (8, 4)
    assert by_type == {"NoConvergence": 1, "GateMiss": 1, "CapacityMismatch": 2}
    times = workloads.EdgePoints(seed=1).class_times(ops)
    # the uncalled points have no latency
    assert times == {"d": pytest.approx(0.5)}
    values = run.end_to_end(ops, setups=[1.0, 3.0, 2.0], class_times=times, loop_rss_mb=40.0)
    assert values["ok_ratio"] == 0.5
    assert values["setup_s"] == 2.0
    assert values["class_ms.gmean"] == pytest.approx(500.0)
    assert values["loop_rss_mb"] == 40.0


def test_each_class_weighs_the_same():
    # 30 fast solves and one slow one: the slow class still has half the weight
    ops = [op("solve", label="ell5", seconds=0.01) for _ in range(30)]
    ops += [op("solve", label="ell40", seconds=4.0),
            op("solve", label="ell40", seconds=6.0),
            # a call that raised is left out of its class's median
            op("solve", label="ell40", seconds=0.5, error=ValueError())]
    ops += [op("solve", label="cantor", seconds=s) for s in (0.1, 0.2, 0.3, 0.4)]
    times = workloads.SolveLadder(seed=1).class_times(ops)
    assert times == pytest.approx({"ell5": 0.01, "ell40": 5.0, "cantor": 1.0})
    values = run.end_to_end(ops, [1.0], times, 40.0)
    assert values["class_ms.gmean"] == pytest.approx(1e3 * (0.01 * 5.0 * 1.0) ** (1 / 3))


def test_points_of_unsolved_domain_fail_with_its_error():
    w = workloads.EdgePoints(seed=1)
    w.edge = [("two", inputs.TWO_INTERVAL_SET), ("broken", inputs.THREE_INTERVAL_SET)]
    w.solve_domains(w.edge)
    w.domains["broken"] = (None, "CapacityMismatch")
    w.gate_domains()
    ops = w.run_unit(0)
    w.gate(ops)
    broken = [o for o in ops if o.label == "broken"]
    assert broken and all(o.failures == ["CapacityMismatch"] for o in broken)
    assert all(o.output is None and o.seconds == 0.0 for o in broken)
    attempted, failed, by_type = run.accounting(ops)
    assert by_type["CapacityMismatch"] == len(broken)
    assert attempted == len(ops) and failed >= len(broken)


def test_self_times_on_synthetic_tree():
    # root [0,10] > a [1,4] > (a1 [1.5,2], a2 [2,3.5]); root > b [5,9] > b1 [6,6.5]
    spans = [("root", 0.0, 10.0, None), ("a", 1.0, 4.0, 0), ("a1", 1.5, 2.0, 1),
             ("a2", 2.0, 3.5, 1), ("b", 5.0, 9.0, 0), ("b1", 6.0, 6.5, 4)]
    got = tracing.self_times(spans)
    assert got == pytest.approx([3.0, 1.0, 0.5, 1.5, 3.5, 0.5])
    assert sum(got) == pytest.approx(10.0)


def test_tracer_aggregates_by_name_and_label():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tr.span("root"):               # 0 .. 9
        tr.label = "ell5"
        with tr.span("x"):              # 1 .. 4
            with tr.span("y") as idx:   # 2 .. 3
                tr.count(idx, "nodes", 16)
        tr.label = None
        with tr.span("x"):              # 5 .. 8
            with tr.span("y"):          # 6 .. 7
                pass
    total, per_label = tracing.aggregate(tr)
    assert total["root"]["self_s"] == 3.0
    assert total["x"]["calls"] == 2 and total["x"]["self_s"] == 4.0
    assert total["y"]["nodes"] == 16
    assert per_label[("x", "ell5")]["self_s"] == 2.0
    assert per_label[("y", "ell5")]["nodes"] == 16


def test_wrappers_record_layers_and_restore_originals():
    import walshmap
    from walshmap import green, mapping
    before = (walshmap.solve, green.integrate_chebyshev, mapping.map_point)
    tr = tracing.Tracer()
    inst = tracing.Instrumentation(tr)
    inst.install()
    try:
        with tr.span("bench"):
            wm = walshmap.solve(inputs.THREE_INTERVAL_SET)
            wm.map_point(0.3 + 0.4j)
    finally:
        inst.remove()
    assert (walshmap.solve, green.integrate_chebyshev, mapping.map_point) == before
    total, _ = tracing.aggregate(tr)
    for name in ("api.solve", "green.green_data", "equilibrium.exponents",
                 "lemniscatic.solve_domain", "lemniscatic.crit_points",
                 "quadrature.chebyshev", "quadrature.tail", "green.target",
                 "mapping.complex"):
        assert total[name]["calls"] >= 1, name
    assert total["quadrature.chebyshev"]["nodes"] > 0
    assert set(total) - {"bench"} <= set(metrics.SELF_TIME_SPANS)
    root = tr.spans[0]
    assert sum(v["self_s"] for v in total.values()) == pytest.approx(root[2] - root[1])


def test_benchmark_json_matches_metric_spec():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in metrics.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
