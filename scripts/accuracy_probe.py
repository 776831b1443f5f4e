#!/usr/bin/env python3
"""Measure the actual error of the capacity, the critical values and the
far field.

Solves each named interval set (green_data at the default configuration)
and evaluates, in mpmath at 30 significant digits and on the solve's own
float roots, the two capacity tail integrals, the critical values g_E(z_k)
and g_E at the real points x = t +- (V + 1/V) s/2 beyond the hull, for
V = 1.5 (1 + 1e-12), 3 and 30 in the frame (t, s) of the set, where
green_real takes the Chebyshev series.  Prints, per set, the relative error
of the capacity (against the mean of the two mpmath tails), the largest
relative error of a critical value and of a far-field value, then their
median and maximum over the sets:

    python scripts/accuracy_probe.py
    python scripts/accuracy_probe.py --sets two cantor3

The sets are the two- and three-interval regression sets, the Dirichlet
sets of tests/reference_values.py with ell = 5, 10, 20, 40, 80 (seed ell)
and Cantor levels 2-6.  The mpmath integrals are taken in u with
|x - base| = u^2, which removes the 1/sqrt singularity at their endpoint;
the far-field values are integrated from the nearer outer endpoint.  The
largest error estimate mpmath reports is printed with the table.
"""

import argparse
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import mpmath as mp
import numpy as np

import reference_values as ref
from walshmap.green import _nearest_endpoint, green_data, green_real
from walshmap.intervals import parse_domain
from walshmap.verify import THREE_INTERVAL_SET, TWO_INTERVAL_SET, cantor_pairs

mp.mp.dps = 30

SETS = {"two": TWO_INTERVAL_SET, "three": THREE_INTERVAL_SET}
SETS.update({f"ell{ell}": ref.dirichlet_intervals(np.random.default_rng(ell), ell)
             for ell in (5, 10, 20, 40, 80)})
SETS.update({f"cantor{k}": cantor_pairs(k) for k in range(2, 7)})


def _quad(f, points):
    value, error = mp.quad(f, points, error=True)
    return value, error / max(abs(value), mp.mpf(1e-300))


def tail_capacity(b, roots, side, unit):
    """shift exp(integral of 1/|x - beta| - |N/S| beyond the endpoint) for
    the tail on `side`, beta = base - side unit, in u with x = base + side
    u^2: |N/S| 2u du = 2 prod(u^2 + r_k) / sqrt(prod_{j != base}(u^2 + e_j))."""
    base = b[-1] if side > 0 else b[0]
    e = [side * (base - bj) for bj in b if bj != base]
    r = [side * (base - z) for z in roots]
    shift = mp.mpf(unit)

    def f(u):
        u2 = u * u
        return (2 * u / (u2 + shift)
                - 2 * mp.fprod(u2 + rk for rk in r) / mp.sqrt(mp.fprod(u2 + ej for ej in e)))

    s = mp.sqrt(shift)
    value, error = _quad(f, [0, s / 64, s / 16, s / 4, s, 4 * s, mp.inf])
    return shift * mp.exp(value), error


def gap_green(b, roots, i, x):
    """g_E(x) at a real x off E with no endpoint between it and b[i]: the
    integral of |N|/sqrt|H| from b[i], in u with x = base + sigma u^2."""
    base = b[i]
    sigma = 1 if x > base else -1
    e = [base - bj for j, bj in enumerate(b) if j != i]
    r = [base - z for z in roots]

    def f(u):
        t = sigma * u * u
        return 2 * mp.fprod(t + rk for rk in r) / mp.sqrt(abs(mp.fprod(t + ej for ej in e)))

    value, error = _quad(f, [0, mp.sqrt(abs(x - base))])
    return abs(value), error


# |v| of the far-field points: just outside the ellipse |v| = 1.5, where
# the series has the fewest digits to spare, and two farther out
FAR_V = (1.5 * (1 + 1e-12), 3.0, 30.0)


def probe(pairs):
    """(ell, capacity error, critical-value error, far-field error, largest
    mpmath estimate)."""
    E = parse_domain(pairs)
    data = green_data(E)
    b = [mp.mpf(v) for v in E.endpoints]
    roots = [mp.mpf(z) for z in data.roots]
    tails = [tail_capacity(b, roots, side, E.unit) for side in (1, -1)]
    cap = (tails[0][0] + tails[1][0]) / 2
    cap_err = float(abs(data.capacity - cap) / cap)
    crit_err, estimate = 0.0, max(t[1] for t in tails)
    for k, g in enumerate(data.green_at_roots):
        i = _nearest_endpoint(E.endpoints, data.roots[k])
        value, error = gap_green(b, roots, i, roots[k])
        crit_err = max(crit_err, float(abs(g - value) / value))
        estimate = max(estimate, error)
    t, s = E.frame
    far_err = 0.0
    for v in FAR_V:
        for side, i in ((1, len(b) - 1), (-1, 0)):
            x = t + side * (v + 1 / v) * s / 2
            value, error = gap_green(b, roots, i, mp.mpf(x))
            far_err = max(far_err, float(abs(green_real(x, E, data) - value) / value))
            estimate = max(estimate, error)
    return E.ell, cap_err, crit_err, far_err, float(estimate)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sets", nargs="+", choices=list(SETS), default=list(SETS),
                        metavar="NAME", help=f"sets to probe, of {', '.join(SETS)}")
    args = parser.parse_args()

    t0 = time.perf_counter()
    rows = {name: probe(SETS[name]) for name in args.sets}
    print(f"{'set':10s} {'ell':>4s}  {'capacity':>9s}  {'critical':>9s}  {'far':>9s}")
    for name, (ell, cap_err, crit_err, far_err, _) in rows.items():
        print(f"{name:10s} {ell:4d}  {cap_err:9.2e}  {crit_err:9.2e}  {far_err:9.2e}")
    for label, col in (("capacity", 1), ("critical values", 2), ("far field", 3)):
        errs = {name: row[col] for name, row in rows.items()}
        worst = max(errs, key=errs.get)
        print(f"{label}: median {statistics.median(errs.values()):.2e}, "
              f"max {errs[worst]:.2e} ({worst})")
    print(f"largest mpmath error estimate {max(row[4] for row in rows.values()):.1e}, "
          f"{mp.mp.dps} digits, {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
