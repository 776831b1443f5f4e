import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from walshmap import cli, errors
from walshmap.cli import GRID_HEADER, main
from walshmap.lemniscatic import BoundaryTrace
from walshmap.quadrature import QuadConfig

import reference_values as ref


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_report(capsys):
    code, out, _ = run_cli(capsys, "params", "--intervals=-1,-0.3;0.1,1")
    assert code == 0
    report = json.loads(out)
    assert report["component_count"] == 2
    assert abs(report["critical_points"][0] - ref.TWO_INTERVAL["z1"]) < 1e-13
    assert abs(report["capacity"]["value"] - ref.TWO_INTERVAL["capacity"]) < 1e-12
    assert abs(report["exponents"][0] - ref.TWO_INTERVAL["m"][0]) < 1e-12
    assert abs(report["alpha"] - ref.TWO_INTERVAL["alpha"]) < 1e-13
    assert report["centers_in_components"] == [True, True]
    assert report["warnings"] == []


def test_params_report_roundtrips_to_zero_level(capsys):
    code, out, _ = run_cli(capsys, "params", "--intervals=-2,-0.9;-0.7,0.2;0.5,2.2")
    report = json.loads(out)
    a = np.array(report["centers"])
    m = np.array(report["exponents"])
    cap = report["capacity"]["value"]
    for c in report["boundary_abscissae"]:
        level = float(np.log(np.abs(c - a)) @ m) - math.log(cap)
        assert abs(level) < 1e-9


def test_params_pretty(capsys):
    code, out, _ = run_cli(capsys, "params", "--intervals=-1,1", "--pretty")
    assert code == 0
    assert "capacity" in out and "0.49999999999" in out


def test_params_flags_stray_center(capsys):
    code, out, _ = run_cli(capsys, "params", "--intervals=-1,1;1.2,1.4")
    report = json.loads(out)
    assert report["centers_in_components"] == [True, False]
    assert len(report["warnings"]) == 1 and "component 2" in report["warnings"][0]


def test_params_cantor_level3_capacity_digits(capsys):
    pairs = ";".join(f"{lo!r},{hi!r}" for lo, hi in ref.cantor_pairs(3))
    code, out, _ = run_cli(capsys, "params", f"--intervals={pairs}")
    assert code == 0
    report = json.loads(out)
    assert repr(report["capacity"]["value"]).startswith("0.224752818755")
    assert report["outer_iterations"] <= 3


def test_input_file_json(tmp_path, capsys):
    path = tmp_path / "domain.json"
    path.write_text(json.dumps({"intervals": [[-1, -0.3], [0.1, 1]]}))
    code, out, _ = run_cli(capsys, "params", "--input", str(path))
    assert code == 0
    assert json.loads(out)["component_count"] == 2


@pytest.mark.parametrize("intervals", [[1, 2], None, 7, [[0, None]]],
                         ids=["flat", "null", "number", "null_endpoint"])
def test_malformed_json_input_is_input_error(tmp_path, capsys, intervals):
    # each raised a TypeError from the pair unpacking or float()
    path = tmp_path / "domain.json"
    path.write_text(json.dumps({"intervals": intervals}))
    code, out, err = run_cli(capsys, "params", "--input", str(path))
    assert code == 2 and out == ""
    line, = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ValueError" and error["message"].startswith(f"{path}: ")


def test_input_file_text(tmp_path, capsys):
    path = tmp_path / "domain.txt"
    path.write_text("# set\n-1 -0.3\n0.1 1\n")
    code, out, _ = run_cli(capsys, "params", "--input", str(path))
    assert code == 0
    assert json.loads(out)["component_count"] == 2


@pytest.mark.parametrize("case", ["missing", "directory"])
def test_unreadable_input_file_is_input_error(tmp_path, capsys, case):
    # each ended in a FileNotFoundError or IsADirectoryError traceback
    path = tmp_path / "missing.json" if case == "missing" else tmp_path
    code, out, err = run_cli(capsys, "params", "--input", str(path))
    assert code == 2 and out == ""
    line, = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ValueError" and error["exit_code"] == 2
    assert error["message"].startswith(f"{path}: cannot read --input: ")


def test_unwritable_output_is_input_error(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "report.json"
    code, out, err = run_cli(capsys, "params", "--intervals=-1,1", "--output", str(path))
    assert code == 2 and out == "" and not path.parent.exists()
    line, = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "ValueError" and error["exit_code"] == 2
    assert error["message"] == f"{path}: cannot write --output: No such file or directory"


@pytest.mark.parametrize("flag, text, message", [
    ("--x-range", "1,2,3", "expected 'lo,hi' for --x-range, got '1,2,3'"),
    ("--y-range", "0", "expected 'lo,hi' for --y-range, got '0'"),
    ("--x-range", "0,one", "expected 'lo,hi' for --x-range, got '0,one'"),
    ("--y-range", "1,0", "empty range for --y-range: '1,0'"),
], ids=["three_values", "one_value", "not_a_number", "empty"])
def test_bad_grid_range_names_its_flag(capsys, flag, text, message):
    # '1,2,3' reported "too many values to unpack (expected 2)"
    ranges = {"--x-range": "0,1", "--y-range": "0,1", flag: text}
    code, out, err = run_cli(capsys, "grid", "--intervals=-1,1", "--nx", "2", "--ny", "2",
                             *(f"{name}={value}" for name, value in ranges.items()))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize("argv, message", [
    (("params", "--intervals=a,1"), "--intervals: not a number: 'a'"),
    (("params", "--intervals=-1,-0.5;0.2,1e"), "--intervals: not a number: '1e'"),
    (("phi", "--intervals=-1,1", "--z=1,x"), "--z: not a number: 'x'"),
    (("phi", "--intervals=-1,1", "--z=nan0"), "--z: not a number: 'nan0'"),
], ids=["interval_lo", "interval_hi", "z_imag", "z_real"])
def test_bad_number_names_its_flag(capsys, argv, message):
    # each reported only "could not convert string to float: 'a'"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError" and error["message"] == message


def test_bad_number_in_input_file_names_its_line(tmp_path, capsys):
    path = tmp_path / "domain.txt"
    path.write_text("# set\n-1 -0.3\n\n0.1 x  # right\n")
    code, out, err = run_cli(capsys, "params", "--input", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["message"] == f"{path}, line 4: not a number: 'x'"


def test_missing_intervals_is_input_error(capsys):
    code, out, err = run_cli(capsys, "params")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_quad_tol_below_one_ulp_is_input_error(capsys):
    code, out, err = run_cli(capsys, "params", "--intervals=-1,-0.3;0.1,1", "--quad-tol=5e-17")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("tol must be at least 2^-52")


def test_overlap_is_input_error(capsys):
    code, _, err = run_cli(capsys, "params", "--intervals=0,1;0.5,2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "OverlapError"


def test_hull_wider_than_the_float_range_is_input_error(capsys):
    # exited with an untyped OverflowError from IntervalUnion.unit
    code, out, err = run_cli(capsys, "params", "--intervals=-1.7e308,1.7e308")
    assert code == 2 and out == ""
    line, = err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "DegenerateError",
        "message": "hull width b_2l - b_1 = 1.7e+308 - -1.7e+308 exceeds the float range",
        "exit_code": 2}


def test_phi_single_interval(capsys):
    code, out, _ = run_cli(capsys, "phi", "--intervals=-1,1", "--z", "2")
    assert code == 0
    report = json.loads(out)
    assert abs(report["w"][0] - 0.5 * (2 + math.sqrt(3))) < 1e-12
    assert report["w"][1] == 0.0
    assert report["branch"] == "real_gap"


def test_phi_endpoint(capsys):
    code, out, _ = run_cli(capsys, "phi", "--intervals=-1,-0.3;0.1,1", "--z", "1")
    report = json.loads(out)
    assert report["branch"] == "boundary" and report["index"] == 4


def test_phi_complex_argument(capsys):
    code, out, _ = run_cli(capsys, "phi", "--intervals=-1,1", "--z", "0.3,1.5")
    report = json.loads(out)
    want = 0.5 * ((0.3 + 1.5j) + np.sqrt(complex(0.3 + 1.5j) ** 2 - 1))
    assert abs(complex(*report["w"]) - want) < 1e-10


def test_phi_inside_set_exits_2(capsys):
    code, _, err = run_cli(capsys, "phi", "--intervals=-1,1", "--z", "0.5")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InsideE"


def test_phi_non_finite_point_exits_2(capsys):
    code, _, err = run_cli(capsys, "phi", "--intervals=-1,-0.3;0.1,1", "--z=nan")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NotFinite"


def test_grid_csv_contract(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "grid", "--intervals=-1,-0.3;0.1,1",
                         "--x-range", "0.1,1.0", "--y-range=-1,1",
                         "--nx", "3", "--ny", "3", "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == GRID_HEADER
    assert len(lines) == 10
    statuses = [line.split(",")[4] for line in lines[1:]]
    assert statuses.count("skipped") == 1  # the interior midpoint row
    assert statuses.count("converged") == 8


def test_grid_deterministic(tmp_path, capsys):
    args = ("grid", "--intervals=-1,1", "--x-range=-2,2", "--y-range",
            "0.5,1.5", "--nx", "4", "--ny", "2")
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, *args, "--output", str(f1))
    run_cli(capsys, *args, "--output", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_grid_failed_rows_carry_the_error(capsys):
    # the Green path of -0.2+6j, inside the ellipse |v| = 1.5 around the
    # hull [-1, 101], starts at -1e-8, 2e-8 from the endpoint 1e-8 across
    # the narrow gap, and is 6 long: at 2048 nodes the segment rule does not
    # reach the 1e-15 quadrature tolerance (paths up to 3 long do);
    # 250+6j, outside the ellipse, takes the series
    args = ("grid", "--intervals=-1,-1e-8;1e-8,1;100,101", "--quad-tol=1e-15",
            "--x-range=-0.2,250", "--y-range=6,7", "--nx", "2", "--ny", "1")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["status"] for r in rows] == ["failed", "converged"]
    assert rows[0]["error"].startswith("NoConvergence: segment rule")
    assert rows[1]["error"] == ""
    code, out, _ = run_cli(capsys, *args, "--format", "doc")
    doc = json.loads(out)
    assert doc[0]["error"] == rows[0]["error"] and doc[1]["error"] is None


def test_grid_all_skipped_exits_3(capsys):
    code, out, _ = run_cli(capsys, "grid", "--intervals=-1,1",
                           "--x-range", "0.4,0.6", "--y-range", "0,1",
                           "--nx", "1", "--ny", "1")
    assert code == 3


def test_grid_doc_format(capsys):
    code, out, _ = run_cli(capsys, "grid", "--intervals=-1,1",
                           "--x-range", "2,3", "--y-range", "0,1",
                           "--nx", "2", "--ny", "1", "--format", "doc")
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 2 and all(p["status"] == "converged" for p in doc)


def test_grid_bad_counts(capsys):
    code, _, err = run_cli(capsys, "grid", "--intervals=-1,1",
                           "--x-range", "0,1", "--y-range", "0,1",
                           "--nx", "0", "--ny", "2")
    assert code == 2


def test_boundary_doc(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "boundary", "--intervals=-1,1", "--points", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["sampled"] is True and doc[0]["reason"] is None
    pts = np.array([complex(re, im) for re, im in doc[0]["points"]])
    assert np.max(np.abs(np.abs(pts) - 0.5)) < 1e-9
    # an unsampled lobe carries the message of the check it failed
    unsampled = BoundaryTrace(0.5, None, False, "no disk inside L around center 0.5")
    monkeypatch.setattr(cli, "trace_boundary", lambda dom, n: [unsampled])
    code, out, _ = run_cli(capsys, "boundary", "--intervals=-1,1", "--points", "16")
    assert code == 0
    assert json.loads(out) == [{"center": 0.5, "sampled": False, "points": None,
                                "reason": "no disk inside L around center 0.5"}]


def test_boundary_without_points_exits_2(capsys):
    code, _, err = run_cli(capsys, "boundary", "--intervals=-1,1", "--points", "0")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_boundary_csv(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--intervals=-1,-0.3;0.1,1",
                           "--points", "8", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "component,w_re,w_im"
    assert len(lines) == 1 + 2 * 9  # closed polylines repeat the first point
    for line in lines[1:]:
        comp, w_re, w_im = line.split(",")
        assert comp in ("1", "2")
        float(w_re), float(w_im)  # plain parseable numbers


def test_verify_only_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "final_remark,ex44")
    assert code == 0
    assert "PASS final_remark" in out and "PASS ex44" in out
    assert "cantor" not in out


def test_verify_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonsense")
    assert code == 2


def test_verify_degraded_tolerance_fails_cantor_by_name(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "cantor",
                           "--quad-tol", "1e-4")
    assert code == 1
    assert "FAIL cantor" in out


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "walshmap", "phi", "--intervals=-1,1", "--z", "3"],
        capture_output=True, text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}, cwd=".")
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["w"][0] - 0.5 * (3 + math.sqrt(8))) < 1e-10


def test_every_error_has_one_exit_category():
    # the class of an error sets the command line's exit code
    categories = (errors.InputError, errors.SolverError, errors.ConsistencyError)
    assert [c.exit_code for c in categories] == [2, 3, 4]
    seen, todo = [], list(errors.WalshMapError.__subclasses__())
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls not in categories:
            seen.append(cls)
            assert sum(issubclass(cls, c) for c in categories) == 1, cls.__name__
    assert set(seen) == {c for c in vars(errors).values() if isinstance(c, type)
                         and issubclass(c, errors.WalshMapError)
                         and c not in categories + (errors.WalshMapError,)}
    assert issubclass(errors.NotFinite, ValueError)
    for cls in (errors.OnCutError, errors.PoleAtCenter, errors.PadTooLarge):
        assert cls.exit_code == 2


@pytest.mark.parametrize("exc, code", [
    (errors.PadTooLarge("x"), 2), (errors.OnCutError("x"), 2), (ValueError("x"), 2),
    (errors.BracketFailure("x"), 3), (errors.OrderViolation("x"), 4)])
def test_main_exits_with_the_error_class_code(monkeypatch, capsys, exc, code):
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_params", raising)
    assert main(["params", "--intervals=-1,1"]) == code
    record = json.loads(capsys.readouterr().err)["error"]
    assert (record["type"], record["exit_code"]) == (type(exc).__name__, code)


_COMMANDS = {
    "params": ["params", "--intervals=-1,1"],
    "phi": ["phi", "--intervals=-1,1", "--z", "3"],
    "grid": ["grid", "--intervals=-1,1", "--x-range=-2,2", "--y-range=-1,1",
             "--nx=2", "--ny=2"],
    "boundary": ["boundary", "--intervals=-1,1"],
    "verify": ["verify", "--only", "ex44"],
}


_REMOVED_FLAGS = [(name, flag) for name in _COMMANDS
                  for flag in ("--abstol=1e-13", "--reltol=1e-13")]
_REMOVED_FLAGS += [("phi", "--tol=1e-12"), ("grid", "--tol=1e-12")]


@pytest.mark.parametrize("name, flag", _REMOVED_FLAGS)
def test_stop_tolerance_flags_are_rejected(capsys, name, flag):
    # every stop test is fixed and measured in the set's own frame
    with pytest.raises(SystemExit) as exit_:
        main(_COMMANDS[name] + [flag])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_quad_tol_reaches_the_quadrature_config(monkeypatch, capsys, name):
    from walshmap import api, verify

    seen = []

    def recording(intervals, cfg=None):
        seen.append(cfg)
        return api.solve(intervals, cfg)

    monkeypatch.setattr(cli, "solve", recording)
    monkeypatch.setattr(verify, "solve", recording)
    assert main(_COMMANDS[name] + ["--quad-tol=1e-10"]) == 0
    capsys.readouterr()
    assert seen and all(cfg == QuadConfig(tol=1e-10) for cfg in seen)
