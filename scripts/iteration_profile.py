#!/usr/bin/env python3
"""Profile the centers' damped Newton over random interval sets.

Draws seeded random unions, runs the full solve, and prints a histogram of
the centers' Newton step counts (LemniscaticDomain.outer_iterations)
together with the worst invariant defects:

    python scripts/iteration_profile.py --ell 10 --count 200 --seed 1
"""

import argparse
import collections
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from walshmap.api import solve
from walshmap.verify import random_interval_set, worst_invariant


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ell", type=int, default=10, help="components per set")
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--min-length", type=float, default=1e-2,
                        help="smallest allowed component/gap length")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    histogram = collections.Counter()
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(args.count):
        try:
            pairs = random_interval_set(rng, args.ell, args.min_length)
        except ValueError as exc:
            sys.exit(f"iteration_profile: {exc}")
        wm = solve(pairs)
        histogram[wm.lemniscatic.outer_iterations] += 1
        worst = max(worst, worst_invariant(wm))
    elapsed = time.perf_counter() - t0

    print(f"{args.count} random sets with {args.ell} components "
          f"(min length {args.min_length:g}, seed {args.seed})")
    for steps in sorted(histogram):
        bar = "#" * histogram[steps]
        print(f"  {steps:2d} Newton steps: {histogram[steps]:4d} {bar}")
    print(f"worst invariant defect: {worst:.3e}")
    print(f"total {elapsed:.1f}s ({1e3 * elapsed / args.count:.1f} ms per set)")


if __name__ == "__main__":
    main()
