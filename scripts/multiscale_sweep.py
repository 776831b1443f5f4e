#!/usr/bin/env python3
"""Solve seeded multi-scale interval sets and count the failures.

The sets have tiny components and tiny gaps.  Each draw takes, from
numpy.random.default_rng(42), a component count ell in 2 .. 12 and a
number of decades D in {4, 8, 12}; its 2 ell - 1 component and gap lengths
are 10**uniform(-D, 0), and their cumulative sum is scaled onto [-1, 1].
Prints the solved and failed counts by D, the largest solve invariant
(verify.worst_invariant) among the solved draws with the draw's number, and
the failures by error type and cause (the error message up to its first
figure):

    python scripts/multiscale_sweep.py --count 300 --list
"""

import argparse
import collections
import pathlib
import re
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from walshmap.api import solve
from walshmap.errors import WalshMapError
from walshmap.verify import worst_invariant

DECADES = (4, 8, 12)


def multiscale_set(rng):
    """One draw: (ell, D, pairs)."""
    ell = int(rng.integers(2, 13))
    decades = int(rng.choice(DECADES))
    lengths = 10.0 ** rng.uniform(-decades, 0.0, 2 * ell - 1)
    b = -1.0 + 2.0 * np.concatenate(([0.0], np.cumsum(lengths))) / lengths.sum()
    b[-1] = 1.0
    return ell, decades, [[float(b[2 * j]), float(b[2 * j + 1])] for j in range(ell)]


def _cause(exc):
    """The message of exc up to its first number, interval or colon."""
    return re.split(r" on \[|[:\[(]| -?\d", str(exc), maxsplit=1)[0].strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--count", type=int, default=300, help="sets to draw")
    parser.add_argument("--list", action="store_true",
                        help="print every failing draw with its error")
    args = parser.parse_args()

    rng = np.random.default_rng(42)
    drawn = collections.Counter()
    failed = collections.Counter()
    by_type = collections.Counter()
    failures = []
    worst = (-1.0, None)  # (worst_invariant, draw) of the solved draws
    t0 = time.perf_counter()
    for draw in range(args.count):
        ell, decades, pairs = multiscale_set(rng)
        drawn[decades] += 1
        try:
            invariant = worst_invariant(solve(pairs))
        except WalshMapError as exc:
            failed[decades] += 1
            by_type[f"{type(exc).__name__}: {_cause(exc)}"] += 1
            failures.append(f"  draw {draw} (ell {ell}, D {decades}): "
                            f"{type(exc).__name__}: {exc}")
        else:
            if invariant > worst[0]:
                worst = (invariant, draw)
    elapsed = time.perf_counter() - t0

    print(f"{args.count} multi-scale sets (seed 42): "
          f"{args.count - sum(failed.values())} solved, {sum(failed.values())} failed "
          f"in {elapsed:.1f}s")
    for decades in DECADES:
        print(f"  D = {decades:2d}: {drawn[decades] - failed[decades]:4d} solved, "
              f"{failed[decades]:4d} failed of {drawn[decades]}")
    if worst[1] is not None:
        print(f"  largest worst_invariant {worst[0]:.1e} (draw {worst[1]})")
    for name, count in by_type.most_common():
        print(f"  {name}: {count}")
    if args.list:
        print("\n".join(failures))


if __name__ == "__main__":
    main()
