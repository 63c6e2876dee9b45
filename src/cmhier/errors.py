"""Exception types shared across the package."""

from contextlib import contextmanager


class NumericsError(Exception):
    """Base class for numerical failures.

    `tau` is the tau of the failing RK4 stage or step of a chain evolution, `site` the
    lattice site a discrete orbit or sheet was being extended to, `s` the
    segment parameter of the failing step of a continuous march; else they are
    None. `system` is the failing system's index in a stacked solve or march,
    when known.
    """

    tau = None
    site = None

    def __init__(self, message, system=None, s=None):
        super().__init__(message)
        self.system = system
        self.s = s


@contextmanager
def located(*, tau=None, site=None):
    """Attach tau or a site index to a NumericsError raised inside, as attribute and in the message."""
    try:
        yield
    except NumericsError as exc:
        if tau is not None:
            exc.tau, where = tau, f"tau={tau:.6g}"
        else:
            exc.site, where = site, f"site {site}"
        exc.args = (f"at {where}: {exc}",)
        raise


class NonConvergence(NumericsError):
    """Newton iteration hit its iteration cap without meeting tolerance, or
    found no finite residual along a step."""


class SingularMatrix(NumericsError):
    """A pivot fell below the relative singularity threshold, or the matrix
    had a non-finite entry."""


class SingularJacobian(SingularMatrix):
    """The linear solve inside a Newton step failed."""


class CollisionSingularity(NumericsError):
    """Two particles came closer than the collision threshold."""


class LogSingularity(NumericsError):
    """A logarithm argument vanished, or particles crossed between lattice points."""


class ScenarioError(Exception):
    """Base class for configuration problems."""


class ParseError(ScenarioError):
    """Malformed scenario file syntax."""


class ValidationError(ScenarioError):
    """A scenario field violates its constraints."""
