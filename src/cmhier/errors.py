"""Exception types shared across the package."""


class NumericsError(Exception):
    """Base class for numerical failures.

    `tau` is the tau of the failing RK4 stage when the failure happened inside
    a semi-discrete chain evolution, else None.
    """

    tau = None


class NonConvergence(NumericsError):
    """Newton iteration hit its iteration cap without meeting tolerance."""


class SingularMatrix(NumericsError):
    """A pivot fell below the relative singularity threshold, or the matrix
    had a non-finite entry; `system` is the failing system's index in a
    stacked solve, when known."""

    def __init__(self, message, system=None):
        super().__init__(message)
        self.system = system


class SingularJacobian(SingularMatrix):
    """The linear solve inside a Newton step failed."""


class CollisionSingularity(NumericsError):
    """Two particles came closer than the collision threshold."""

    def __init__(self, message, s=None):
        super().__init__(message)
        self.s = s


class LogSingularity(NumericsError):
    """A logarithm argument vanished, or particles crossed between lattice points."""


class DegenerateDirection(NumericsError):
    """Both components of a multi-time direction are zero."""


class ScenarioError(Exception):
    """Base class for configuration problems."""


class ParseError(ScenarioError):
    """Malformed scenario file syntax."""


class ValidationError(ScenarioError):
    """A scenario field violates its constraints."""
