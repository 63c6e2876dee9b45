"""Dense numeric kernel: linear solves, Newton iteration, finite differences, the RK4 march, row blocks.

Everything operates on plain float ndarrays, except float_rk4_march. Problem sizes are tiny (N up to a few
tens), so a solve costs interpreter and numpy-call overhead, not arithmetic: linear_solve and newton_solve
therefore take stacks of independent systems along a leading axis, one system being the stack of one, and
work on them together. linear_solve makes one LAPACK call for the systems that |A| certifies, one for the
rest, which their inverses certify, and leaves every failure to the column elimination.

There are two RK4 loops with one operation order: rk4_march steps an array with numpy, and
float_rk4_march steps one state held as a list of Python floats, which skips numpy's per-call cost on
small states; fed fields with the same bits, they give the same bits. flows and semidiscrete call one
driver, march, which runs the float loop first and hands the rest of a refused march to rk4_march.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonConvergence, SingularJacobian, SingularMatrix

PIVOT_RTOL = 1e-14
CERTIFY_MARGIN = 0.01  # a factor of 100 between linear_solve's certificate and the pivot check, for rounding

STACK_ENTRIES = 1 << 13
"""Array entries (64 KiB) of one stacked evaluation: chain checks, velocity solves and residuals and per-sample
trajectory kernels run in row blocks of at most this many, so memory does not grow with chains or samples."""


def row_blocks(rows: int, entries_per_row: int) -> list[slice]:
    """Consecutive slices covering range(rows), each of at most STACK_ENTRIES // entries_per_row rows
    and of at least one."""
    per_block = max(1, STACK_ENTRIES // entries_per_row)
    return [slice(start, start + per_block) for start in range(0, rows, per_block)]


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
    """Solve a @ v = b for a stack of m independent systems, `a` (m, n, n) and `b` (m, n), giving v
    of shape (m, n).

    A LAPACK solution stands when s‖a⁻¹‖∞ ≤ CERTIFY_MARGIN / PIVOT_RTOL, s = max|a_ij|: every pivot of LU
    with partial pivoting is then at least 1/‖a⁻¹‖∞ (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 9), so the pivot check passes. Strictly diagonally dominant systems, whose computed δ = min_i(|a_ii|
    - Σ_(j≠i) |a_ij|) exceeds (PIVOT_RTOL / CERTIFY_MARGIN + n² ε) s, ε = 2⁻⁵², have ‖a⁻¹‖∞ ≤ 1/δ (Varah,
    Linear Algebra Appl. 11 (1975)); one `np.linalg.solve` of the single right-hand side b solves them. The
    n² ε term bounds the rounding of a row sum, γ_(n-1) Σ_j |a_ij| ≤ n² s ε/2, and a zero matrix is not
    dominant. One solve of [b | I] gives the others their inverses to certify them; the column elimination
    solves those that fail, and all of them when LAPACK finds one exactly singular. So a system gets the
    bits it gets alone, unless it is not dominant and stacked with a singular one.

    Raises SingularMatrix as the elimination does, naming the lowest system with a non-finite entry,
    else the lowest with a pivot below PIVOT_RTOL times its largest |entry| and its first such column.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("matrices must be a stack (m, n, n)")
    m, n = a.shape[:2]
    if b.shape != (m, n):
        raise ValueError("right-hand side length must match")
    magnitude = np.abs(a)
    scale = magnitude.max(axis=(1, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite or overflowing row is not dominant
        margin = 2.0 * magnitude.diagonal(axis1=1, axis2=2) - magnitude.sum(axis=2)
        dominant = margin.min(axis=1) > (PIVOT_RTOL / CERTIFY_MARGIN + n * n * 2.0**-52) * scale
    if dominant.all():  # the common case, solved without gathering the stack
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    v, rest = np.empty((m, n)), np.flatnonzero(~dominant)
    if len(rest) < m:
        v[dominant] = np.linalg.solve(a[dominant], b[dominant, :, None])[:, :, 0]
    pick = rest if len(rest) < m else slice(None)  # a stack with no dominant system is not gathered
    rhs = np.empty((len(rest), n, n + 1))  # [b | I]
    rhs[:, :, 0] = b[pick]
    rhs[:, :, 1:] = np.eye(n)
    try:
        solved = np.linalg.solve(a[pick], rhs)
    except np.linalg.LinAlgError:  # an exactly singular or non-finite matrix: nothing is certified
        solved = np.full_like(rhs, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = scale[pick] * np.abs(solved[:, :, 1:]).sum(axis=2).max(axis=1)
    v[rest] = solved[:, :, 0]
    rest = rest[~(bound <= CERTIFY_MARGIN / PIVOT_RTOL)]  # a NaN bound certifies nothing
    if len(rest):
        v[rest] = _eliminate(a[rest], b[rest], rest)
    return v


def _eliminate(a: np.ndarray, b: np.ndarray, in_stack: np.ndarray) -> np.ndarray:
    """Solve the stack a (m, n, n) @ v = b (m, n) by LU with partial pivoting, eliminating all
    systems together one column at a time; each pivots on the first largest |entry| in the column.
    The lowest system with a non-finite entry, else the lowest with a pivot below PIVOT_RTOL times its
    largest |entry|, raises SingularMatrix, naming its index in_stack[k] and its first failing column."""
    m, n = b.shape
    scale = np.abs(a).max(axis=(1, 2))
    if not np.isfinite(scale).all():
        system = int(in_stack[np.flatnonzero(~np.isfinite(scale))[0]])
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
        k, col = np.argwhere(~passed)[0]
        system = int(in_stack[k])
        raise SingularMatrix(f"system {system}: pivot {diagonal[k, col]:.3e} below threshold in column {col}",
                             system=system)
    # back substitution on U with its rows scaled to a unit diagonal;
    # columns[j] is column j of that U above the diagonal, for every system
    columns = (np.triu(ab[:, :, :n], 1) / diagonal[:, :, None]).transpose(2, 0, 1)
    v = ab[:, :, n] / diagonal
    for row in range(n - 1, 0, -1):
        v -= columns[row] * v[:, row, None]
    return v


def _newton_pass(residual, jacobian, x, f, active, settings: NewtonSettings):
    """Iterate the `active` systems of the stack x, with residuals f, each until
    its own residual meets tolerance; returns x and {system: reason} for those
    that failed, each left at its last point, where its residual is finite."""
    failed = {}
    for iteration in range(settings.max_iterations + 1):
        active &= ~(np.isfinite(f).all(axis=1) & (np.abs(f).max(axis=1) <= settings.tolerance))
        if not active.any() or iteration == settings.max_iterations:
            break
        steps = np.zeros_like(x)
        try:
            steps[active] = linear_solve(jacobian(x)[active], f[active])
        except SingularMatrix as exc:
            # linear_solve counts the active systems; name the stack's index
            system = int(np.flatnonzero(active)[exc.system])
            raise SingularJacobian(f"system {system}: {str(exc).partition(': ')[2]}", system=system) from exc
        # a frozen system's step is zero; a step onto a pole of its system's residual is halved
        scale = np.full((len(x), 1), settings.damping)
        for _ in range(60):
            x_new = x - scale * steps
            f_new = residual(x_new)
            poles = active & ~np.isfinite(f_new).all(axis=1)
            if not poles.any():
                break
            scale[poles] *= 0.5
        else:
            reason = "could not find a finite residual along the Newton step"
            failed.update((int(k), reason) for k in np.flatnonzero(poles))
            x_new[poles], f_new[poles] = x[poles], f[poles]
            active &= ~poles
        x, f = x_new, f_new
    failed.update(
        (int(k), f"residual {np.max(np.abs(f[k])):.3e} above tolerance {settings.tolerance:.1e} "
                 f"after {settings.max_iterations} iterations")
        for k in np.flatnonzero(active)
    )
    return x, failed


def newton_solve(
    residual_fn: Callable[[np.ndarray], np.ndarray],
    guess: np.ndarray,
    jacobian_fn: Callable[[np.ndarray], np.ndarray],
    settings: NewtonSettings = DEFAULT_NEWTON,
    retry: Optional[NewtonSettings] = None,
) -> np.ndarray:
    """Damped Newton iteration for residual_fn(x) = 0 on a stack of m systems.

    The guess has shape (m, n); the callbacks take the whole stack and return
    float arrays (m, n) and (m, n, n), row k depending on row k alone, so
    one system is the stack of one. Each system is frozen once its
    own residual meets tolerance, and a step onto a non-finite residual is
    halved for its own system, so each follows exactly its iterates alone.
    A system that fails is iterated again from its own guess with `retry`,
    when given. NonConvergence and SingularJacobian name the failing `system`.
    """
    guess = np.asarray(guess, dtype=float)
    if guess.ndim != 2:
        raise ValueError("guess must be a stack (m, n)")
    x = guess.copy()
    f = residual_fn(x)
    if f.shape != x.shape:
        raise ValueError("residual shape must match guess shape")
    x, failed = _newton_pass(residual_fn, jacobian_fn, x, f, np.ones(len(x), dtype=bool), settings)
    if failed and retry is not None:
        again = np.isin(np.arange(len(x)), list(failed))
        x[again] = guess[again]
        x, failed = _newton_pass(residual_fn, jacobian_fn, x, residual_fn(x), again, retry)
    if failed:
        system = min(failed)
        raise NonConvergence(f"system {system}: {failed[system]}", system=system)
    return x


def fd_gradient(f: Callable[[np.ndarray], np.ndarray], y: np.ndarray, step: float) -> np.ndarray:
    """Central-difference gradient of f over the last axis of y, (..., m) to (..., m); O(step^2).
    f maps points (..., m) to values (...) over leading axes and is called once, on the stack
    (..., 2m, m) of the points y + step e_i followed by the points y - step e_i."""
    if step <= 0:
        raise ValueError("step must be positive")
    m = y.shape[-1]
    shifts = step * np.eye(m)
    values = f(np.concatenate([y[..., None, :] + shifts, y[..., None, :] - shifts], axis=-2))
    return (values[..., :m] - values[..., m:]) / (2.0 * step)


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


def rk4_march(field: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray, times: np.ndarray, dt: float,
              check: Callable[[float, np.ndarray, np.ndarray], None]) -> np.ndarray:
    """y0 and its rk4_step of dt from each of the caller's grid times to the next, shape (len(times), *y0.shape).
    check(t, y, before) sees each step's result y at its end time t, and the state before it. Stages run
    with floating-point warnings off, so the field or the check reports a non-finite stage."""
    ys = np.empty((len(times), *np.shape(y0)))
    ys[0] = y0
    with np.errstate(all="ignore"):
        for i in range(1, len(times)):
            ys[i] = rk4_step(field, times[i - 1], ys[i - 1], dt)
            check(times[i], ys[i], ys[i - 1])
    return ys


def float_rk4_march(field: Callable[[list], list], y: list, steps: int, dt: float,
                    accept: Callable[[list], bool]) -> tuple[array, bool]:
    """rk4_march on Python floats for one state y, a list of floats: the stages of rk4_step, operation for
    operation, so a field with numpy's bits gives rk4_march's bits. Returns y and its steps, up to `steps`,
    as one flat array('d'), and whether the march ended at a step that accept(y) refused, which is the
    last one kept."""
    dt = float(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    ys = array("d", y)
    for _ in range(steps):
        k1 = field(y)
        k2 = field([a + half * b for a, b in zip(y, k1)])
        k3 = field([a + half * b for a, b in zip(y, k2)])
        k4 = field([a + dt * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        ys.extend(y)
        if not accept(y):
            return ys, True
    return ys, False


def march(field: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray, times: np.ndarray, dt: float,
          check: Callable[[float, np.ndarray, np.ndarray], None], floats) -> np.ndarray:
    """rk4_march(field, y0, times, dt, check), with its bits on Python floats where it can: floats is None, or
    one (float_field, accept) pair per row of y0.reshape(len(floats), -1). Each row marches alone through
    float_rk4_march, up to the first step any row's accept refuses; from the last step every row accepted,
    rk4_march takes the whole stack, so a refused step is taken again on numpy, where it passes or raises."""
    if floats is None:
        return rk4_march(field, y0, times, dt, check)
    end, heads = len(times) - 1, []
    for (float_field, accept), y in zip(floats, y0.reshape(len(floats), -1).tolist()):
        ys, refused = float_rk4_march(float_field, y, end, dt, accept)
        heads.append(np.frombuffer(ys).reshape(-1, len(y)))
        end = len(heads[-1]) - 1 - refused
    head = np.stack([rows[:end + 1] for rows in heads], axis=1).reshape(end + 1, *y0.shape)
    if end == len(times) - 1:
        return head
    return np.concatenate((head[:-1], rk4_march(field, head[-1], times[end:], dt, check)))
