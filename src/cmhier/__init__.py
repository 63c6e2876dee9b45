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
from .numerics import NewtonSettings

__version__ = "0.1.0"

__all__ = [
    "CollisionSingularity",
    "LogSingularity",
    "NewtonSettings",
    "NonConvergence",
    "ParseError",
    "PhaseState",
    "ScenarioError",
    "SingularJacobian",
    "SingularMatrix",
    "ValidationError",
    "__version__",
]
