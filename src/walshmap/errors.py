"""Exception hierarchy shared across the package.  Every error is of one of
three categories, whose exit_code the command line returns: a bad input (2),
a solver that stopped short (3), a result that fails its own check (4)."""


class WalshMapError(Exception):
    """Base class for all errors raised by this package."""


class InputError(WalshMapError):
    """The input is outside what the called function accepts."""
    exit_code = 2


class SolverError(WalshMapError):
    """An iteration or search ended without its result."""
    exit_code = 3


class ConsistencyError(WalshMapError):
    """A computed result contradicts an identity it must satisfy."""
    exit_code = 4


# --- interval domain ---------------------------------------------------------

class OverlapError(InputError):
    """Input intervals touch or overlap after sorting."""


class DegenerateError(InputError):
    """An input interval has zero or negative length."""


# --- quadrature and Newton ---------------------------------------------------

class NoConvergence(SolverError):
    """An iteration ended short of its tolerance: a quadrature rule's node
    doubling, or damped Newton (newton.damped_newton, or its masked twin for
    the map's points) when no halving of a step is taken or the steps run
    out.  The map raises it for a point whose equation stalls, and
    solve_domain and centers_general for a stalled center Newton.
    best is the last estimate or iterate, estimate its error or residual;
    steps, the Newton steps taken to best, is set by the Newton kernels;
    failures, each failed element's own error by flat index, is set by an
    array call of the segment rule (per panel) and a batch of Green's
    integrals (per point), as damped_newton_masked returns them."""

    def __init__(self, message, best=None, estimate=None):
        super().__init__(message)
        self.best = best
        self.estimate = estimate
        self.steps = None
        self.failures = None


# --- Green's function side (E) -----------------------------------------------

class OnCutError(InputError):
    """sqrt(H) requested on a branch cut; use the rim limits instead."""


class NotOnCut(InputError):
    """Rim value requested at a point that is not on the set E."""


class SingularSystem(ConsistencyError):
    """Gap-condition Jacobian singular or not finite at the nodes of a
    linear pass, or a gap condition missed at the solved roots."""


class RootNotBracketed(SolverError):
    """Gap conditions unsolved: the numerator of a linear pass has no root
    in some gap, or no pass's roots met the step bound."""


class PathOnCut(InputError):
    """Complex Green integral requested on the excluded half-line."""


class CapacityMismatch(ConsistencyError):
    """The two capacity formulas disagree beyond tolerance."""


# --- equilibrium measure -----------------------------------------------------

class OutsideSupport(InputError):
    """Density evaluated off the support (or at a diverging endpoint)."""


class NormalizationDefect(ConsistencyError):
    """Exponents fail to sum to 1 within tolerance before renormalization."""


class PadTooLarge(InputError):
    """Contour rectangle would intersect another component."""


# --- lemniscatic side (L) ----------------------------------------------------

class PoleAtCenter(InputError):
    """g_L or its derivative evaluated at a center a_j."""


class BracketFailure(SolverError):
    """Could not bracket a zero of g_L."""


class MaxIterExceeded(SolverError):
    """The paper's centers iteration (centers_general) ran out of steps."""


class OrderViolation(ConsistencyError):
    """A center iterate broke the ordering a_1 < ... < a_ell."""


# --- conformal map -----------------------------------------------------------

class InsideE(InputError):
    """Map evaluation requested in the interior of E."""


class NotFinite(InputError, ValueError):
    """Map or Green's function requested at an infinite or NaN point."""


class NotComplex(InputError, TypeError, ValueError):
    """Map requested at a point that complex() does not take: None, a word,
    a sequence.  A TypeError or ValueError, as complex() raises either."""
