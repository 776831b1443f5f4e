"""The scripts under scripts/ run end to end at small sizes."""

import math
import pathlib
import re
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)


def test_iteration_profile_runs():
    for ell in ("5", "1"):  # one interval has no critical points
        proc = run_script("iteration_profile.py", "--ell", ell, "--count", "2")
        assert proc.returncode == 0, proc.stderr
        assert f"2 random sets with {ell} components" in proc.stdout


def test_iteration_profile_counts_chebyshev_nodes():
    proc = run_script("iteration_profile.py", "--ell", "5", "--count", "3", "--nodes")
    assert proc.returncode == 0, proc.stderr
    counts = re.search(r"Chebyshev intervals per node count: (.*)", proc.stdout).group(1)
    per_count = {int(n): int(k) for n, k in (item.split(": ") for item in counts.split(", "))}
    # the first level has 32 nodes, and every interval of the three solves'
    # two array calls (the 4 gaps, then all 9 intervals of the hull) is
    # summed there
    assert min(per_count) == 32 and per_count[32] == 3 * (4 + 9)
    total = int(re.search(r"total (\d+)\n", proc.stdout).group(1))
    assert total == sum(n * k for n, k in per_count.items())
    # one leave-one-out and one residual gap pass per set, nothing else
    for label, count in (("Chebyshev calls", 2), ("leave-one-out gap passes", 1),
                         ("residual gap passes", 1)):
        assert f"{label} per set: mean {count}.0, min {count}, max {count}\n" in proc.stdout


def test_iteration_profile_counts_ray_passes():
    proc = run_script("iteration_profile.py", "--ell", "5", "--count", "2", "--rays")
    assert proc.returncode == 0, proc.stderr
    sets = re.findall(r"set \d+: boundary_abscissae (\d+) level \+ (\d+) slope passes of "
                      r"(\d+) rays; trace (\d+) level \+ (\d+) slope passes of (\d+) rays",
                      proc.stdout)
    assert len(sets) == 2
    for counts in sets:
        ba_level, ba_slope, ba_rays, level, slope, rays = map(int, counts)
        # two end checks over every ray, then _bisect; the trace adds its
        # three re-entry checks
        assert (ba_level, ba_rays) == (2, 2 * 5) and ba_slope <= 10
        assert (level, rays) == (5, 129 * 5) and slope <= 12


def test_iteration_profile_times_solve_stages():
    proc = run_script("iteration_profile.py", "--stages", "--cantor", "3", "--repeat", "2")
    assert proc.returncode == 0, proc.stderr
    head, line = proc.stdout.splitlines()
    assert head.split()[-7:] == ["loo", "hull", "crit_g", "tails", "centers", "bound_c",
                                 "solve"]
    label, times = line.split(":")
    assert label.split() == ["cantor3", "ell", "8"]
    times = [float(v) for v in times.split()]
    # every stage ran, and the stages lie within the solve
    assert len(times) == 7 and min(times) > 0.0 and sum(times[:-1]) < times[-1]


def test_ab_solve_runs_a_against_a():
    src = str(SCRIPTS.parent / "src")
    proc = run_script("ab_solve.py", src, src, "--rounds", "2", "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    head, *rows = proc.stdout.splitlines()
    assert head.startswith("2 interleaved ladder passes (seed 1)")
    # the first two ladder sets are both of the ell5 class
    assert [row.split()[0] for row in rows] == ["ell5", "gmean"]
    old, new, ratio = (float(v) for v in rows[-1].split()[1:])
    assert old > 0.0 and new > 0.0 and abs(ratio - new / old) <= 1e-3


def test_iteration_profile_modes_solve_the_named_sets():
    # --nodes takes its sets from --cantor, as --stages does
    proc = run_script("iteration_profile.py", "--nodes", "--cantor", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sets: cantor3\n")
    assert "Chebyshev calls per set: mean 2.0, min 2, max 2\n" in proc.stdout
    # --crit: crit_points runs once per solve, at the centers' returned
    # iterate, and each caller of _bisect calls it once
    proc = run_script("iteration_profile.py", "--crit", "--dirichlet", "5")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("sets: dirichlet5\n")
    assert "crit_points calls per solve: mean 1.0, min 1, max 1\n" in proc.stdout
    for caller in ("exact roots", "centers", "rays"):
        assert f"_bisect calls per solve, {caller}: mean 1.0, min 1, max 1\n" in proc.stdout
        evals = re.search(rf"_bisect evaluations per solve, {caller}: mean \S+, min (\d+), "
                          rf"max (\d+)\n", proc.stdout)
        assert 1 <= int(evals.group(1)) <= int(evals.group(2)) <= 15
    # each evaluation of the centers' Newton rides its critical points by 1
    # to 4 steps, and none leaves its bracket
    steps = re.search(r"_ride steps per evaluation: mean \S+, min (\d+), max (\d+)\n",
                      proc.stdout)
    assert 1 <= int(steps.group(1)) <= int(steps.group(2)) <= 4
    assert "_ride bracket exits per solve: mean 0.0, min 0, max 0\n" in proc.stdout


def test_ab_solve_outputs_of_a_against_a():
    src = str(SCRIPTS.parent / "src")
    proc = run_script("ab_solve.py", src, src, "--outputs", "--rounds", "1", "--limit", "3")
    assert proc.returncode == 0, proc.stderr
    head, *rows, steps, invariant, residual = proc.stdout.splitlines()
    assert head.startswith("3 ladder solves, 3 bit-identical")
    assert [row.split()[:2] for row in rows] == [
        [name, "0.000e+00"] for name in ("roots", "masses", "capacity", "green_at_roots",
                                        "centers", "crit_w", "boundary_c")]
    old, new = re.fullmatch(r"outer_iterations: old (\d+), new (\d+)", steps).groups()
    assert int(old) == int(new) > 0
    # each side's worst invariant and largest centers' residual, equal
    # between two solves of the same tree and within the solve's stops
    for line, name in ((invariant, "worst_invariant"), (residual, "inner_residual")):
        old, new = re.fullmatch(rf"{name}: old (\S+), new (\S+)", line).groups()
        assert old == new and float(old) <= 1e-12


def test_ab_solve_grid_of_a_against_a():
    # --grid times each grid_dense class of the first two grid domains
    # (their traces and rows), and with --outputs finds every point and
    # trace of the same tree bit-identical
    src = str(SCRIPTS.parent / "src")
    proc = run_script("ab_solve.py", src, src, "--grid", "--rounds", "1", "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    head, *rows = proc.stdout.splitlines()
    assert head.startswith("1 interleaved grids (seed 1)")
    assert [row.split()[0] for row in rows] == ["boundary", "two", "three", "gmean"]
    # a row takes about 0.1 ms, printed to 1e-4 ms
    old, new, ratio = (float(v) for v in rows[-1].split()[1:])
    assert old > 0.0 and new > 0.0 and abs(ratio - new / old) <= 2e-3
    proc = run_script("ab_solve.py", src, src, "--grid", "--outputs", "--rounds", "1",
                      "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    # 60 rows of 60 points on each of the two domains
    assert proc.stdout.splitlines() == [
        "7200 grid points: 0 status or error changes, 7200 images bit-identical, 0 moved",
        "  worst move relative to |w| 0.000e+00, in ulp of |w| 0.00",
        "  residuals changed 0, iterations, branch, index or near_boundary changed 0",
        "2 traces: 2 bit-identical, worst move relative to the lobe's largest |point| 0.000e+00"]


def test_ab_solve_points_of_a_against_a():
    # --points times map_point per edge_points class on the first three
    # edge domains, then, outside the gmean, the points that took the
    # complex Newton and those that took the real-gap Newton (in two units
    # of seed 2, some near-axis points and some gap points of these domains
    # do), and with --outputs finds every record of the same tree the same
    src = str(SCRIPTS.parent / "src")
    proc = run_script("ab_solve.py", src, src, "--points", "--rounds", "2", "--limit", "3",
                      "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    head, *rows = proc.stdout.splitlines()
    assert head.startswith("2 interleaved edge_points units (seed 2)")
    assert [row.split()[0] for row in rows] == ["gap", "endpoint", "near_axis", "far", "plain",
                                                "gmean", "newton", "real_gap"]
    medians = {row.split()[0]: [float(v) for v in row.split()[1:]] for row in rows}
    for old, new, ratio in (medians["gmean"], medians["newton"], medians["real_gap"]):
        assert old > 0.0 and new > 0.0 and abs(ratio - new / old) <= 1e-3
    classes = [medians[row.split()[0]][0] for row in rows[:5]]
    assert abs(math.exp(sum(map(math.log, classes)) / 5) - medians["gmean"][0]) <= 1e-3 * (
        medians["gmean"][0])
    proc = run_script("ab_solve.py", src, src, "--points", "--outputs", "--rounds", "1",
                      "--limit", "3")
    assert proc.returncode == 0, proc.stderr
    # the unit interval's 11 points, the two-interval set's 12 and the
    # three-interval set's 13: every gap, an endpoint, four near-axis, two
    # far and two plain points each
    assert proc.stdout.splitlines() == ["36 points: 36 records, 0 errors; 0 differ"]


def test_ab_solve_quad_of_a_against_a():
    # --quad times each one-integral call on the three-interval set
    src = str(SCRIPTS.parent / "src")
    proc = run_script("ab_solve.py", src, src, "--quad", "--rounds", "1")
    assert proc.returncode == 0, proc.stderr
    head, *rows = proc.stdout.splitlines()
    assert head.startswith("1 interleaved rounds of 50 calls each")
    assert [row.split()[0] for row in rows] == ["chebyshev", "tail", "segment", "green_real",
                                                "green_complex", "gmean"]
    for row in rows:
        old, new, ratio = (float(v) for v in row.split()[1:])
        assert old > 0.0 and new > 0.0 and abs(ratio - new / old) <= 1e-3


def test_export_figure_data_writes_every_csv(tmp_path):
    proc = run_script("export_figure_data.py", "--n", "5", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = {"two_intervals", "three_intervals", "cantor_level2"}
    assert {p.name for p in tmp_path.iterdir()} == {
        f"{name}_{kind}.csv" for name in names for kind in ("grid", "boundary")}
    for path in tmp_path.iterdir():
        assert len(path.read_text().splitlines()) > 1


def test_multiscale_sweep_runs():
    proc = run_script("multiscale_sweep.py", "--count", "5", "--list")
    assert proc.returncode == 0, proc.stderr
    head, *by_decades, invariant = proc.stdout.splitlines()[:5]
    assert head.startswith("5 multi-scale sets (seed 42): ")
    assert [line.split(":")[0].strip() for line in by_decades] == ["D =  4", "D =  8", "D = 12"]
    # the largest worst_invariant of the solved draws, with its draw
    value, draw = re.fullmatch(r"  largest worst_invariant (\S+) \(draw (\d+)\)",
                               invariant).groups()
    assert float(value) <= 1e-12 and 0 <= int(draw) < 5
    assert f"  draw {draw} (" not in proc.stdout  # a solved draw, not a listed failure


def test_accuracy_probe_measures_capacity_and_critical_values():
    proc = run_script("accuracy_probe.py", "--sets", "two", "cantor2")
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^(two|cantor2) +(\d+) +(\S+) +(\S+) +(\S+)$", proc.stdout, re.M)
    assert [(name, int(ell)) for name, ell, *_ in rows] == [("two", 2), ("cantor2", 4)]
    # both solves are within a few ulps of their 30-digit values; the far
    # field's series within a few times the capacity's error
    assert all(float(cap) < 1e-13 and float(crit) < 1e-14 and float(far) < 1e-13
               for _, _, cap, crit, far in rows)
    for label in ("capacity", "critical values", "far field"):
        assert re.search(rf"^{label}: median \S+, max \S+ \((two|cantor2)\)$",
                         proc.stdout, re.M)
    estimate = float(re.search(r"largest mpmath error estimate (\S+),", proc.stdout).group(1))
    assert estimate < 1e-25
