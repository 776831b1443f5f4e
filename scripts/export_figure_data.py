#!/usr/bin/env python3
"""Export grid images and boundary curves for the standard example sets.

Writes, per set, a CSV with the mapped grid and a CSV with the sampled
boundary curves of the lemniscatic set, ready for external plotting:

    python scripts/export_figure_data.py --outdir figure_data
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from walshmap.api import solve
from walshmap.cli import boundary_csv, grid_csv
from walshmap.lemniscatic import trace_boundary

SETS = {
    "two_intervals": ([[-1, -0.3], [0.1, 1]], (-2.0, 2.0), (-1.5, 1.5)),
    "three_intervals": ([[-2, -0.9], [-0.7, 0.2], [0.5, 2.2]], (-3.0, 3.0), (-2.0, 2.0)),
    "cantor_level2": ([[0, 1 / 9], [2 / 9, 1 / 3], [2 / 3, 7 / 9], [8 / 9, 1]],
                      (-0.4, 1.4), (-0.6, 0.6)),
}


def export(name, pairs, x_range, y_range, outdir, n):
    t0 = time.perf_counter()
    wm = solve(pairs)
    xs = [x_range[0] + i * (x_range[1] - x_range[0]) / (n - 1) for i in range(n)]
    ys = [y_range[0] + i * (y_range[1] - y_range[0]) / (n - 1) for i in range(n)]
    points = wm.map_grid([complex(x, y) for y in ys for x in xs])
    (outdir / f"{name}_grid.csv").write_text(grid_csv(points))
    (outdir / f"{name}_boundary.csv").write_text(
        boundary_csv(trace_boundary(wm.lemniscatic, 256)))

    converged = sum(p.status == "converged" for p in points)
    print(f"{name}: {converged}/{len(points)} grid points mapped, "
          f"{time.perf_counter() - t0:.1f}s")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data")
    parser.add_argument("--n", type=int, default=60, help="grid points per axis")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, (pairs, x_range, y_range) in SETS.items():
        export(name, pairs, x_range, y_range, outdir, args.n)


if __name__ == "__main__":
    main()
