"""One-call front door: solve a full interval-union problem.

Bundles the Green's data, component masses and lemniscatic domain for a set
of intervals, and exposes map evaluation on the bundle.
"""

from dataclasses import dataclass

from .equilibrium import ExponentVector, exponents
from .green import GreenData, green_data
from .intervals import IntervalUnion, parse_domain
from .lemniscatic import LemniscaticDomain, solve_domain
from .mapping import GridPoint, MapResult, map_grid, map_point
from .quadrature import DEFAULT_CONFIG, QuadConfig

__all__ = ["WalshMap", "solve"]


@dataclass(frozen=True)
class WalshMap:
    """Solved problem: domain E, Green's data, masses, and lemniscatic set."""

    domain: IntervalUnion
    green: GreenData
    exponents: ExponentVector
    lemniscatic: LemniscaticDomain
    config: QuadConfig

    def map_point(self, z: complex) -> MapResult:
        return map_point(z, self.domain, self.lemniscatic, self.green, self.config)

    def map_grid(self, zs) -> list[GridPoint]:
        return map_grid(zs, self.domain, self.lemniscatic, self.green, self.config)


def solve(intervals, cfg: QuadConfig | None = None) -> WalshMap:
    """Compute every lemniscatic parameter for a union of real intervals.

    `intervals` is either an IntervalUnion or a sequence of [lo, hi] pairs.
    """
    cfg = cfg or DEFAULT_CONFIG
    E = intervals if isinstance(intervals, IntervalUnion) else parse_domain(intervals)
    data = green_data(E, cfg)
    m = exponents(E, data)
    dom = solve_domain(E, data, m)
    return WalshMap(E, data, m, dom, cfg)
