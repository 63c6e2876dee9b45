"""Rational Calogero-Moser hierarchy in continuous, discrete and semi-discrete
time, with residual evaluators for every identity of its multi-time
variational structure."""

from .errors import (
    CollisionSingularity,
    LogSingularity,
    NonConvergence,
    ParseError,
    ScenarioError,
    SingularJacobian,
    SingularMatrix,
    ValidationError,
)
from .hierarchy import PhaseState

__version__ = "0.1.0"

__all__ = [
    "CollisionSingularity",
    "LogSingularity",
    "NonConvergence",
    "ParseError",
    "PhaseState",
    "ScenarioError",
    "SingularJacobian",
    "SingularMatrix",
    "ValidationError",
    "__version__",
]
