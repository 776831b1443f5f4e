import csv
import io
import json
import math
import subprocess
import sys

import numpy as np

from walshmap.cli import GRID_HEADER, main

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


def test_input_file_text(tmp_path, capsys):
    path = tmp_path / "domain.txt"
    path.write_text("# set\n-1 -0.3\n0.1 1\n")
    code, out, _ = run_cli(capsys, "params", "--input", str(path))
    assert code == 0
    assert json.loads(out)["component_count"] == 2


def test_missing_intervals_is_input_error(capsys):
    code, out, err = run_cli(capsys, "params")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_overlap_is_input_error(capsys):
    code, _, err = run_cli(capsys, "params", "--intervals=0,1;0.5,2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "OverlapError"


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
    # the Green path of -0.5+1j starts at -1e-7, 2e-7 from the endpoint 1e-7
    # across the narrow gap: at 2048 nodes the segment rule's estimates still
    # differ by about 4e-14, above the 1e-15 quadrature tolerance; the path
    # of 2+1j, from 1, converges
    args = ("grid", "--intervals=-1,-1e-7;1e-7,1", "--quad-tol=1e-15",
            "--x-range=-0.5,2", "--y-range=1,2", "--nx", "2", "--ny", "1")
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


def test_boundary_doc(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--intervals=-1,1", "--points", "16")
    assert code == 0
    doc = json.loads(out)
    assert doc[0]["sampled"] is True
    pts = np.array([complex(re, im) for re, im in doc[0]["points"]])
    assert np.max(np.abs(np.abs(pts) - 0.5)) < 1e-9


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
