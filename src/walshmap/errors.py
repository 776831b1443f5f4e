"""Exception hierarchy shared across the package."""


class WalshMapError(Exception):
    """Base class for all errors raised by this package."""


# --- interval domain ---------------------------------------------------------

class OverlapError(WalshMapError):
    """Input intervals touch or overlap after sorting."""


class DegenerateError(WalshMapError):
    """An input interval has zero or negative length."""


# --- quadrature and Newton ---------------------------------------------------

class NoConvergence(WalshMapError):
    """An iteration ended short of its tolerance: a quadrature rule's node
    doubling, or damped Newton (newton.damped_newton, or its masked twin for
    the points of a map_grid batch) when no halving of a step is taken or the
    steps run out.  The map raises it for a point whose equation stalls,
    centers_three for a residual stalled above 1e-10.
    best is the last estimate or iterate, estimate its error or residual;
    a batch of Green's integrals sets failures, each failed point's error
    by flat index, as damped_newton_masked returns them."""

    def __init__(self, message, best=None, estimate=None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate
        self.failures = None


# --- Green's function side (E) -----------------------------------------------

class OnCutError(WalshMapError):
    """sqrt(H) requested on a branch cut; use the rim limits instead."""


class NotOnCut(WalshMapError):
    """Rim value requested at a point that is not on the set E."""


class SingularSystem(WalshMapError):
    """Gap-condition Jacobian singular or not finite at a Newton iterate of
    the numerator roots, or a gap condition missed at the solved roots."""


class RootNotBracketed(WalshMapError):
    """Damped Newton on the gap conditions stalled: no halving of a step
    keeps every numerator root inside its gap and lowers the residual, or
    the steps ran out."""


class PathOnCut(WalshMapError):
    """Complex Green integral requested on the excluded half-line."""


class CapacityMismatch(WalshMapError):
    """The two capacity formulas disagree beyond tolerance."""


# --- equilibrium measure -----------------------------------------------------

class OutsideSupport(WalshMapError):
    """Density evaluated off the support (or at a diverging endpoint)."""


class NormalizationDefect(WalshMapError):
    """Exponents fail to sum to 1 within tolerance before renormalization."""


class PadTooLarge(WalshMapError):
    """Contour rectangle would intersect another component."""


# --- lemniscatic side (L) ----------------------------------------------------

class PoleAtCenter(WalshMapError):
    """g_L or its derivative evaluated at a center a_j."""


class BracketFailure(WalshMapError):
    """Could not bracket a zero of g_L."""


class MaxIterExceeded(WalshMapError):
    """Center iteration did not converge within the outer cap."""


class OrderViolation(WalshMapError):
    """A center iterate broke the ordering a_1 < ... < a_ell."""


# --- conformal map -----------------------------------------------------------

class InsideE(WalshMapError):
    """Map evaluation requested in the interior of E."""


class NotFinite(WalshMapError, ValueError):
    """Map or Green's function requested at an infinite or NaN point."""


class RayBracketFailure(WalshMapError):
    """A boundary-tracing ray crossed the level set more than once."""
