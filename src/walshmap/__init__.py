"""Lemniscatic canonical domains and the normalized conformal map for unions
of real intervals: capacity, equilibrium masses, centers, and map evaluation.
"""

from . import errors
from .api import WalshMap, solve
from .equilibrium import ExponentVector, contour_mass, density, exponents
from .green import (GreenData, alpha_coefficient, capacity, green_complex,
                    green_data, green_poly, green_real, sqrt_branch,
                    sqrt_branch_rim)
from .intervals import Gap, IntervalUnion, Location, locate, parse_domain
from .lemniscatic import (BoundaryTrace, LemniscaticDomain, boundary_abscissae,
                          centers_general, centers_two, solve_domain, trace_boundary)
from .mapping import GridPoint, MapResult, branch_offset, map_grid, map_point
from .quadrature import (QuadConfig, integrate_chebyshev,
                         integrate_segment_complex, integrate_tail)

__version__ = "0.1.0"

__all__ = [
    "BoundaryTrace", "ExponentVector", "Gap", "GreenData", "GridPoint",
    "IntervalUnion", "LemniscaticDomain", "Location", "MapResult", "QuadConfig",
    "WalshMap", "alpha_coefficient", "boundary_abscissae", "branch_offset",
    "capacity", "centers_general", "centers_two",
    "contour_mass", "density", "errors", "exponents",
    "green_complex", "green_data", "green_poly", "green_real",
    "integrate_chebyshev", "integrate_segment_complex", "integrate_tail",
    "locate", "map_grid", "map_point", "parse_domain",
    "solve", "solve_domain", "sqrt_branch", "sqrt_branch_rim", "trace_boundary",
]
