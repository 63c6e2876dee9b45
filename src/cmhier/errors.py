"""Exception types shared across the package."""


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


class located:
    """Attach tau or a site index to a NumericsError raised inside, as attribute and in the message.
    A class, not a generator context manager: the numpy chain field enters one per RK4 stage."""

    __slots__ = ("tau", "site")

    def __init__(self, *, tau=None, site=None):
        self.tau, self.site = tau, site

    def __enter__(self):
        return None

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, NumericsError):
            if self.tau is not None:
                exc.tau, where = self.tau, f"tau={self.tau:.6g}"
            else:
                exc.site, where = self.site, f"site {self.site}"
            exc.args = (f"at {where}: {exc}",)
        return False


class NonConvergence(NumericsError):
    """Newton iteration hit its iteration cap without meeting tolerance, or
    found no finite residual along a step."""


class SingularMatrix(NumericsError):
    """A linear solve refused a system: a non-finite matrix entry, an inverse bound s‖A⁻¹‖∞ above the
    certificate's limit (infinite for an exactly singular matrix), or a normwise backward error above
    its tolerance."""


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
