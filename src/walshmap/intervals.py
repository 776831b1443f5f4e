"""Interval unions E = [b_1,b_2] u ... u [b_{2l-1},b_{2l}] and their gap structure.

Components are numbered 1..ell from left to right; the open gaps of the real
line are numbered 0..ell, with gap 0 = (-inf, b_1) and gap ell = (b_{2l}, +inf).
"""

import bisect
import cmath
import math
from dataclasses import dataclass, field

from .errors import DegenerateError, NotFinite, OverlapError

__all__ = ["Gap", "IntervalUnion", "Location", "locate", "parse_domain"]


@dataclass(frozen=True)
class Gap:
    """Open gap I_k between consecutive components (or a semi-infinite tail)."""

    index: int
    lower: float  # -inf for the leftmost gap
    upper: float  # +inf for the rightmost gap


@dataclass(frozen=True)
class IntervalUnion:
    """Ordered endpoints b_1 < ... < b_{2l} of a union of ell closed intervals.

    Immutable after construction; safe to share across threads.
    """

    endpoints: tuple[float, ...]

    def __post_init__(self):
        b = self.endpoints
        if len(b) == 0 or len(b) % 2 != 0:
            raise DegenerateError(f"need an even, positive number of endpoints, got {len(b)}")
        if not all(math.isfinite(x) for x in b):
            raise DegenerateError("endpoints must be finite")
        for i in range(0, len(b), 2):
            if not b[i] < b[i + 1]:
                raise DegenerateError(f"interval [{b[i]}, {b[i + 1]}] has no positive length")
        for i in range(1, len(b) - 1, 2):
            if not b[i] < b[i + 1]:
                raise OverlapError(
                    f"intervals touch or overlap at {b[i]} >= {b[i + 1]}; "
                    "components must be pairwise disjoint"
                )
        if not math.isfinite(b[-1] - b[0]):
            raise DegenerateError(
                f"hull width b_2l - b_1 = {b[-1]} - {b[0]} exceeds the float range")

    @property
    def ell(self) -> int:
        return len(self.endpoints) // 2

    @property
    def frame(self) -> tuple[float, float]:
        """Midpoint t and half-width s of the hull: every stop test's frame.
        Both are finite, as the hull's width is (a sum of endpoints beyond
        the float range is halved first)."""
        b = self.endpoints
        t = (b[0] + b[-1]) / 2
        return t if math.isfinite(t) else b[0] / 2 + b[-1] / 2, (b[-1] - b[0]) / 2

    @property
    def unit(self) -> float:
        """Power of two nearest the half-width: an exact unit of length."""
        return math.ldexp(1.0, round(math.log2(self.frame[1])))

    @property
    def components(self) -> list[tuple[float, float]]:
        b = self.endpoints
        return [(b[2 * j], b[2 * j + 1]) for j in range(self.ell)]

    @property
    def gaps(self) -> list[Gap]:
        b = self.endpoints
        out = [Gap(0, -math.inf, b[0])]
        out += [Gap(k, b[2 * k - 1], b[2 * k]) for k in range(1, self.ell)]
        out.append(Gap(self.ell, b[-1], math.inf))
        return out

    def gap(self, k: int) -> Gap:
        if not 0 <= k <= self.ell:
            raise IndexError(f"gap index {k} out of range 0..{self.ell}")
        return self.gaps[k]

    def contains(self, x: float) -> bool:
        """Exact containment test (endpoints included, no tolerance)."""
        b = self.endpoints
        return any(b[2 * j] <= x <= b[2 * j + 1] for j in range(self.ell))


@dataclass(frozen=True)
class Location:
    """Classification of a point relative to E.

    kind is "inside" (with 1-based component index), "gap" (with gap index
    0..ell) or "off_axis" (index None).
    """

    kind: str
    index: int | None = field(default=None)

    @property
    def inside(self) -> bool:
        return self.kind == "inside"


def parse_domain(spec) -> IntervalUnion:
    """Build an IntervalUnion from a sequence of [lo, hi] pairs.

    Pairs are sorted by lower endpoint; touching or overlapping intervals are
    rejected rather than merged (merging would silently change ell).
    """
    pairs = [(float(lo), float(hi)) for lo, hi in spec]
    if not pairs:
        raise DegenerateError("empty interval list")
    pairs.sort()
    endpoints = tuple(x for pair in pairs for x in pair)
    return IntervalUnion(endpoints)


def locate(E: IntervalUnion, z: complex) -> Location:
    """Classify z as inside a component, in a gap, or off the real axis.

    Containment uses exact comparison against the endpoints; callers needing
    fuzz apply it themselves.  Raises NotFinite for a NaN coordinate.
    """
    z = complex(z)
    if cmath.isnan(z):
        raise NotFinite(f"z = {z} is not a number")
    if z.imag != 0.0:
        return Location("off_axis")
    x = z.real
    b = E.endpoints
    i = bisect.bisect_right(b, x)  # b[i - 1] <= x < b[i]: x is in E if i is odd
    if i % 2 or (i and x == b[i - 1]):
        return Location("inside", (i + 1) // 2)
    return Location("gap", i // 2)
