"""Dense numeric kernel: linear solves, Newton iteration, finite differences, RK4.

Everything operates on plain float ndarrays. Problem sizes are tiny (N up to
a few tens), so the cost of a solve is interpreter and numpy-call overhead,
not arithmetic. linear_solve therefore also takes a stack of independent
systems along a leading axis and eliminates them together, so that each numpy
call of its column loop serves the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergence, SingularJacobian, SingularMatrix

PIVOT_RTOL = 1e-14


@dataclass(frozen=True)
class NewtonSettings:
    """Controls for the damped Newton iteration.

    tolerance is a max-norm bound on the residual; damping scales every
    update step and must lie in (0, 1].
    """

    tolerance: float = 1e-12
    max_iterations: int = 50
    damping: float = 1.0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0 < self.damping <= 1:
            raise ValueError("damping must be in (0, 1]")


DEFAULT_NEWTON = NewtonSettings()


def linear_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ v = b by LU with partial pivoting, for one system or a stack.

    `a` of shape (n, n) with `b` of shape (n,) is one system; `a` of shape
    (m, n, n) with `b` of shape (m, n) is m independent systems, eliminated
    together one column at a time, and the result has shape (m, n). Each
    system pivots on the first largest |entry| in the column.

    Raises SingularMatrix, naming the system index, when a system's matrix
    has a non-finite entry or when its pivot is below PIVOT_RTOL times its
    largest |entry|. Non-finite entries are checked first; a pivot failure
    names the lowest failing system and its first failing column.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    single = a.ndim == 2
    if single:
        a, b = a[None], b[None]
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrix must be square")
    m, n = a.shape[:2]
    if b.shape != (m, n):
        raise ValueError("right-hand side length must match")
    scale = np.abs(a).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        system = int(np.flatnonzero(~np.isfinite(scale))[0])
        raise SingularMatrix(f"system {system}: non-finite matrix entry", system=system)
    threshold = PIVOT_RTOL * np.maximum(scale, 1e-300)

    # augmented [a | b], so row swaps and eliminations carry the right-hand side
    ab = np.empty((m, n, n + 1))
    ab[:, :, :n] = a
    ab[:, :, n] = b
    systems = np.arange(m)
    # a failed pivot spoils only its own system, so the pivots are checked
    # after the sweep: each system's first failing column is still exact
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(n):
            below = ab[:, col:]
            pivot_rows = np.abs(below[:, :, col]).argmax(axis=1)
            if np.count_nonzero(pivot_rows):
                swapped = below[systems, pivot_rows]
                below[systems, pivot_rows] = below[:, 0]
                below[:, 0] = swapped
            pivot = below[:, 0]
            rest = below[:, 1:, col:]
            rest -= rest[:, :, :1] / pivot[:, None, col:col + 1] * pivot[:, None, col:]
    diagonal = np.diagonal(ab, axis1=1, axis2=2)
    passed = np.abs(diagonal) >= threshold[:, None]
    if not passed.all():
        system, col = np.argwhere(~passed)[0]
        raise SingularMatrix(
            f"system {system}: pivot {diagonal[system, col]:.3e} below threshold in column {col}",
            system=int(system),
        )
    # back substitution on U with its rows scaled to a unit diagonal;
    # columns[j] is column j of that U above the diagonal, for every system
    columns = (np.triu(ab[:, :, :n], 1) / diagonal[:, :, None]).transpose(2, 0, 1)
    v = ab[:, :, n] / diagonal
    for row in range(n - 1, 0, -1):
        v -= columns[row] * v[:, row, None]
    return v[0] if single else v


def fd_jacobian(residual_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian with per-coordinate step 1e-7 * (1 + |x_i|)."""
    f0 = np.asarray(residual_fn(x), dtype=float)
    n = len(x)
    jac = np.empty((len(f0), n))
    for i in range(n):
        h = 1e-7 * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += h
        jac[:, i] = (np.asarray(residual_fn(xp), dtype=float) - f0) / h
    return jac


def newton_solve(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    guess: np.ndarray,
    jacobian_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    settings: NewtonSettings = DEFAULT_NEWTON,
) -> np.ndarray:
    """Damped Newton iteration for residual_fn(x) = 0.

    The Jacobian is formed by finite differences when jacobian_fn is absent.
    Steps that land on a non-finite residual (a pole of the residual) are
    halved until the residual is evaluable again; the nominal damping factor
    from `settings` scales every accepted update.
    """
    x = np.array(guess, dtype=float)
    f = np.asarray(residual_fn(x), dtype=float)
    if len(f) != len(x):
        raise ValueError("residual length must match guess length")
    for _ in range(settings.max_iterations):
        if np.all(np.isfinite(f)) and np.max(np.abs(f)) <= settings.tolerance:
            return x
        jac = jacobian_fn(x) if jacobian_fn is not None else fd_jacobian(residual_fn, x)
        try:
            step = linear_solve(jac, f)
        except SingularMatrix as exc:
            raise SingularJacobian(str(exc)) from exc
        scale = settings.damping
        for _ in range(60):
            x_new = x - scale * step
            f_new = np.asarray(residual_fn(x_new), dtype=float)
            if np.all(np.isfinite(f_new)):
                break
            scale *= 0.5
        else:
            raise NonConvergence("could not find a finite residual along the Newton step")
        x, f = x_new, f_new
    if np.all(np.isfinite(f)) and np.max(np.abs(f)) <= settings.tolerance:
        return x
    raise NonConvergence(
        f"residual {np.max(np.abs(f)):.3e} above tolerance {settings.tolerance:.1e} "
        f"after {settings.max_iterations} iterations"
    )


def fd_derivative(f: Callable[[np.ndarray], float], point: np.ndarray, index: int, step: float) -> float:
    """Central difference of a scalar function along one coordinate; O(step^2)."""
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=float)
    e = np.zeros_like(point)
    e[index] = step
    return (f(point + e) - f(point - e)) / (2.0 * step)


def rk4_step(
    field: Callable[[float, np.ndarray], np.ndarray], t: float, y: np.ndarray, dt: float
) -> np.ndarray:
    """One classical 4th-order Runge-Kutta update of y' = field(t, y), with
    stages at t, t + dt/2 (twice) and t + dt; field failures propagate."""
    y = np.asarray(y, dtype=float)
    k1 = np.asarray(field(t, y), dtype=float)
    k2 = np.asarray(field(t + 0.5 * dt, y + 0.5 * dt * k1), dtype=float)
    k3 = np.asarray(field(t + 0.5 * dt, y + 0.5 * dt * k2), dtype=float)
    k4 = np.asarray(field(t + dt, y + dt * k3), dtype=float)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
