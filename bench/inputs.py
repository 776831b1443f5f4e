"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of its random generator, so the same
``--seed`` always yields the same interval sets and evaluation points.  The
program under test only ever sees the endpoints and points produced here.
"""

import numpy as np

# published reference sets (the two- and three-interval examples, the
# touching-interval remark) and the plotting windows the figure export uses
TWO_INTERVAL_SET = [[-1.0, -0.3], [0.1, 1.0]]
THREE_INTERVAL_SET = [[-2.0, -0.9], [-0.7, 0.2], [0.5, 2.2]]
TOUCHING_SET = [[-1.0, 1.0], [1.2, 1.4]]
UNIT_SET = [[-1.0, 1.0]]


def cantor_pairs(level):
    """Intervals of the middle-thirds Cantor construction at `level`."""
    iv = [(0.0, 1.0)]
    for _ in range(level):
        iv = [t for (lo, hi) in iv
              for t in ((lo, lo + (hi - lo) / 3), (hi - (hi - lo) / 3, hi))]
    return [list(p) for p in iv]


def dirichlet_intervals(rng, ell, floor=0.25, lo=-1.0, hi=1.0):
    """`ell` disjoint intervals filling [lo, hi] with random spacing.

    The 2*ell - 1 component and gap lengths are a Dirichlet(1, ..., 1) split
    of the hull plus a floor: none is shorter than `floor` times the mean
    length (hi - lo) / (2*ell - 1).  One draw per call, so the cost does not
    grow with `ell` the way rejection sampling does.
    """
    if ell < 1:
        raise ValueError("need at least one interval")
    if not 0.0 <= floor < 1.0:
        raise ValueError("floor must lie in [0, 1)")
    n = 2 * ell - 1
    span = hi - lo
    lengths = floor * span / n + (1.0 - floor) * span * rng.dirichlet(np.ones(n))
    b = lo + np.concatenate(([0.0], np.cumsum(lengths)))
    b[-1] = hi
    return [[float(b[2 * j]), float(b[2 * j + 1])] for j in range(ell)]


def affine(pairs, scale=1.0, shift=0.0):
    return [[scale * a + shift, scale * b + shift] for a, b in pairs]


# --- solve_ladder ------------------------------------------------------------

# One ladder unit: (class label, intervals per set, sets per unit), then one
# pass over the Cantor levels.  The counts are a design choice, not a usage
# profile: every class enters the gated class_ms.gmean with the same weight
# whatever its count, so the counts only set how many solves each class median
# rests on, and cheap classes get more of them.  Cantor level 5 is a known
# solver failure.
LADDER = (("ell5", 5, 12), ("ell10", 10, 5), ("ell20", 20, 2), ("ell40", 40, 1))
CANTOR_LEVELS = (2, 3, 4, 5)


def ladder_sets(rng):
    """One ladder pass: a list of (class label, intervals)."""
    out = []
    for label, ell, count in LADDER:
        out += [(label, dirichlet_intervals(rng, ell)) for _ in range(count)]
    out += [("cantor", cantor_pairs(k)) for k in CANTOR_LEVELS]
    return out


# --- grid_dense --------------------------------------------------------------

GRID_N = 60
GRID_SEEDED_SETS = 4


def grid_domains(rng):
    """(name, intervals, x range, y range) for the gridded domains: the two-
    and three-interval sets, Cantor level 2, and GRID_SEEDED_SETS seeded
    10-interval sets named random10_<k>."""
    return [
        ("two", TWO_INTERVAL_SET, (-2.0, 2.0), (-1.5, 1.5)),
        ("three", THREE_INTERVAL_SET, (-3.0, 3.0), (-2.0, 2.0)),
        ("cantor2", cantor_pairs(2), (-0.4, 1.4), (-0.6, 0.6)),
    ] + [(f"random10_{k}", dirichlet_intervals(rng, 10), (-1.5, 1.5), (-1.0, 1.0))
         for k in range(GRID_SEEDED_SETS)]


def grid_axes(rng, x_range, y_range, jitter):
    """Grid abscissae and ordinates; with `jitter` the whole grid is shifted
    by a random fraction of a cell so that repeated grids share no point."""
    xs = np.linspace(*x_range, GRID_N)
    ys = np.linspace(*y_range, GRID_N)
    if jitter:
        xs = xs + rng.uniform(-0.5, 0.5) * (xs[1] - xs[0])
        ys = ys + rng.uniform(-0.5, 0.5) * (ys[1] - ys[0])
    return xs, ys


# --- edge_points -------------------------------------------------------------

EDGE_RANDOM_ELLS = tuple(range(3, 11))
EDGE_RANDOM_PER_ELL = 3


def edge_domains(rng):
    """(name, intervals) for the edge-point domains: the closed-form unit
    interval, the reference and touching sets, extreme scalings and shifts of
    the two-interval set, and seeded sets of 3 to 10 intervals."""
    out = [
        ("unit", UNIT_SET),
        ("two", TWO_INTERVAL_SET),
        ("three", THREE_INTERVAL_SET),
        ("touching", TOUCHING_SET),
        ("two_scaled_1e-6", affine(TWO_INTERVAL_SET, scale=1e-6)),
        ("two_scaled_1e6", affine(TWO_INTERVAL_SET, scale=1e6)),
        ("two_shifted_1e3", affine(TWO_INTERVAL_SET, shift=1e3)),
        ("two_shifted_1e6", affine(TWO_INTERVAL_SET, shift=1e6)),
    ]
    for ell in EDGE_RANDOM_ELLS:
        for i in range(EDGE_RANDOM_PER_ELL):
            out.append((f"random{ell}_{i}", dirichlet_intervals(rng, ell)))
    return out


EDGE_KINDS = ("gap", "endpoint", "near_axis", "far", "plain")


def edge_points(rng, endpoints):
    """A few hard evaluation points for one domain, in its own frame, as
    (kind, z) pairs with kind in EDGE_KINDS.

    Per call: one point in every gap (bounded and unbounded), one endpoint,
    four points at Im z = +-1e-3 ... +-1e-12 (relative to the hull), two far
    points up to 1e6 hull half-widths away, and two ordinary off-axis points.
    """
    b = np.asarray(endpoints, dtype=float)
    mid = 0.5 * (b[0] + b[-1])
    half = 0.5 * (b[-1] - b[0])
    pts = []
    for k in range(1, len(b) // 2):
        pts.append(("gap", complex(rng.uniform(b[2 * k - 1], b[2 * k]))))
    pts.append(("gap", complex(b[0] - half * 10.0 ** rng.uniform(-2.0, 0.5))))
    pts.append(("gap", complex(b[-1] + half * 10.0 ** rng.uniform(-2.0, 0.5))))
    pts.append(("endpoint", complex(b[rng.integers(len(b))])))
    for _ in range(4):
        x = rng.uniform(b[0] - 0.1 * half, b[-1] + 0.1 * half)
        y = rng.choice((-1.0, 1.0)) * half * 10.0 ** -rng.integers(3, 13)
        pts.append(("near_axis", complex(x, y)))
    for _ in range(2):
        r = half * 10.0 ** rng.uniform(1.0, 6.0)
        pts.append(("far", mid + r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))))
    for _ in range(2):
        y = rng.choice((-1.0, 1.0)) * half * rng.uniform(0.05, 1.5)
        pts.append(("plain", complex(rng.uniform(b[0] - half, b[-1] + half), y)))
    return pts
