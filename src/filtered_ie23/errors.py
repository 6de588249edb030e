"""Exception types raised by the integrators.

The Newton failures of a step attempt (NewtonDiverged,
SingularLinearSystem) are recoverable inside the adaptive driver, which
reacts by halving the candidate step; it rejects a degenerate post-filter
coefficient the same way, without an exception.  The remaining errors,
DegenerateBeta included, abort a solve.
"""


class SolverError(Exception):
    """Base class for every error this package raises on purpose."""


class NonMonotonicTimes(SolverError):
    """History times are not strictly increasing."""


class NonPositiveStep(SolverError):
    """A step size that must be positive is zero or negative."""


class DimensionMismatch(SolverError):
    """Two state vectors that must have equal length do not, or an rhs
    value has fewer components than the problem's dimension."""


class DegenerateBeta(SolverError):
    """The post-filter denominator is too close to zero for the current
    step-size history.  Raised by the constant-step ie-pre-post-3 method at
    a clamped final step, which it cannot shorten, and by the adaptive
    driver before its bootstrap when four steps of dt0 already leave beta
    outside float range; it halves any later degenerate step instead."""


class NewtonDiverged(SolverError):
    """Newton iteration failed to converge within the allowed iterations,
    or produced a non-finite iterate."""


class SingularLinearSystem(SolverError):
    """The Newton matrix is numerically singular."""


class NonFiniteState(SolverError):
    """The solution left the range of finite floating-point numbers."""


class MinStepReached(SolverError):
    """The controller halved the step below the floor k_min = 1e-12 * span
    without finding an acceptable step."""
