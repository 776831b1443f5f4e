"""Equilibrium-measure density and the component masses m_1..m_ell.

The masses double as the exponents of the lemniscatic set: the mass the
equilibrium measure puts on component j equals the exponent attached to the
center a_j.  green_data integrates the density N/(pi sqrt|H|) over each
component; they are cross-checkable by a contour integral of the Green's
derivative around the component.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NormalizationDefect, OutsideSupport, PadTooLarge
from .green import GreenData, _paired_ratio, _plain_deriv
from .intervals import IntervalUnion, locate
# integrate_chebyshev is not called here; it stays a module attribute, which
# bench/tracing.py wraps in both green and equilibrium
from .quadrature import (DEFAULT_CONFIG, QuadConfig, integrate_chebyshev,  # noqa: F401
                         integrate_segment_complex)

__all__ = ["ExponentVector", "density", "exponents", "contour_mass"]


@dataclass(frozen=True)
class ExponentVector:
    """Masses m_1..m_ell, renormalized to sum exactly to 1.

    `defect` records |sum - 1| before renormalization (a quadrature
    diagnostic; downstream identities assume the exact sum).
    """

    m: tuple[float, ...]
    defect: float

    def __post_init__(self):
        if any(v <= 0 for v in self.m):
            raise ValueError("masses must be positive")

    def __len__(self):
        return len(self.m)

    def __getitem__(self, j):
        return self.m[j]


def density(x: float, data: GreenData) -> float:
    """Equilibrium density |N(x)| / (pi sqrt|H(x)|) at x strictly inside E,
    from green._paired_ratio's factors, which do not underflow where |H|
    does (Cantor level 9).

    Diverges at the endpoints; evaluation there (or off E) raises
    OutsideSupport.
    """
    E = data.domain
    x = float(x)
    loc = locate(E, complex(x))
    if not loc.inside or x in E.endpoints:
        raise OutsideSupport(f"x = {x} is not strictly inside a component")
    sq = np.sqrt(np.abs(x - np.asarray(E.endpoints)))
    return abs(float(_paired_ratio(x - np.asarray(data.roots), sq))) / math.pi


def exponents(E: IntervalUnion, data: GreenData) -> ExponentVector:
    """Component masses, renormalized to sum exactly to 1.

    They are the density integrals over the components that green_data
    ran (GreenData.masses); here they are only checked and renormalized.
    Raises NormalizationDefect when their sum misses 1 by more than 1e-8.
    """
    raw = data.masses
    total = math.fsum(raw)
    defect = abs(total - 1.0)
    if defect > 1e-8:
        raise NormalizationDefect(
            f"component masses sum to {total!r} before renormalization")
    return ExponentVector(tuple(v / total for v in raw), defect)


def contour_mass(E: IntervalUnion, data: GreenData, j: int, pad: float,
                 cfg: QuadConfig | None = None) -> float:
    """Mass of component j by a contour integral of the Green's derivative.

    Integrates N/S counterclockwise over the rectangle with horizontal pad
    and half-height `pad` around component j (1-based), its four sides in
    one vector call of the segment rule.  Test oracle, not a production
    path; raises PadTooLarge if the rectangle would reach another component.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not 1 <= j <= E.ell:
        raise ValueError(f"component index {j} out of range")
    if not 0 < pad < math.inf:
        raise ValueError(f"pad must be positive and finite, got {pad}")
    b = E.endpoints
    lo, hi = b[2 * j - 2] - pad, b[2 * j - 1] + pad
    for i in range(E.ell):
        if i != j - 1 and not (b[2 * i] > hi or b[2 * i + 1] < lo):
            raise PadTooLarge(
                f"pad {pad} reaches component {i + 1}; shrink the rectangle")

    corners = np.array([complex(lo, -pad), complex(hi, -pad), complex(hi, pad),
                        complex(lo, pad), complex(lo, -pad)])
    sides = integrate_segment_complex(_plain_deriv(E, data.roots), corners[:-1],
                                      corners[1:], cfg=cfg)
    return (sum(sides) / (2j * math.pi)).real
