"""Shared exception types for the solver library."""


class SolverError(Exception):
    """Base class for all library-specific errors."""


class BranchCutPoint(SolverError):
    """Raised when a point lies strictly inside the branch cut, where the
    single-valued square root is ambiguous."""


class InvalidTruncation(SolverError):
    """Raised when the budget's truncation window is at most 1.1 times the
    deformed puncture radius rho."""


class ExponentialOverflow(SolverError):
    """Raised when a transform or assembly exponent exceeds the overflow guard
    (|exponent| above 700 in natural-log units), or when a puncture arc's
    radius is too large for the horizon: its amplification exponent passes
    the precision cap ln(tolerance / eps), where rounding alone would exceed
    the budget's tolerance, or it would need more than linear.MAX_ARC_PANELS
    panels."""


class QuadratureDiverged(SolverError):
    """Raised when node-count refinements fail to converge below the requested
    tolerance, or contour nodes come within the Delta margin of a zero."""


class GridTooCoarse(SolverError):
    """Raised when a grid is too small for the requested stencil."""


class MissingProxy(SolverError):
    """Raised when a lifespan-indicator constant has no supplied proxy value."""


class NoConvergence(SolverError):
    """Raised when Picard iteration exhausts max_iter without converging.

    Carries the partial report so callers can inspect the distance history.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class StepDiverged(SolverError):
    """Raised when the finite-difference oracle's per-step fixed-point sweep
    fails to contract."""


class InhomogeneousBoundary(SolverError):
    """Raised when a dissipation audit is requested for a field whose boundary
    traces are not homogeneous."""


class ConfigInvalid(SolverError):
    """Raised when a scenario configuration fails validation."""
