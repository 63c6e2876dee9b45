"""Dense numeric kernel: linear solves, Newton iteration, finite differences, the RK4 march, row blocks.

Everything operates on plain float ndarrays, except the float steps. Problem sizes are tiny (N up to a few
tens), so a solve costs interpreter and numpy-call overhead, not arithmetic: linear_solve and newton_solve
therefore take stacks of independent systems along a leading axis, one system being the stack of one, and
work on them together. linear_solve has two routes: one LAPACK call for the systems that |A| certifies, and
one for the rest, whose inverses and backward errors certify them; it refuses a system that the second route
does not certify. float_solve makes the first of those calls on Python floats: a float kernel certifies its
systems as linear_solve does and hands them to LAPACK, never repeating a BLAS kernel's operation order, so
its bits are numpy's on every CPU.
Both calls go straight to the dgesv gufuncs that np.linalg.solve wraps, numpy's private
_umath_linalg.solve1 and solve, named in this module alone and bound at import, so a numpy without them fails
there: on a certified stack the wrapper's conversions, shape checks and singular-matrix errstate would cost
more than the solve and find nothing, and on the rest an exactly singular system is left NaN, for its
certificate to refuse, instead of failing the whole stack.

There are two RK4 forms with one operation order: rk4_step on an array, with numpy, and float_rk4_step on
one small state of Python floats, which skips numpy's per-call cost: a function generated once per caller's
key that marches a whole leg of steps in local variables, with the field as straight-line source, and tests
each step inline; fed fields with the same bits, they give the same bits. flows and semidiscrete both call
march, which owns the one step test of both kernels: a step passes when it is finite and the particles of
each row of the caller's order stay tol apart in start order. It marches each system's float leg in one call
and hands the rest of a march, from the last step every system passed, to rk4_march, which calls the
caller's refused to word the abort.
"""

from __future__ import annotations

import math
from array import array
from typing import Callable, Optional

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NonConvergence, SingularJacobian, SingularMatrix

PIVOT_RTOL = 1e-14
CERTIFY_MARGIN = 0.01  # a factor of 100 between linear_solve's certificate and the pivot threshold, for rounding
BACKWARD_ERROR_FACTOR = 64  # c of linear_solve's backward-error test max|b - a v| <= c n ε max(|a||v| + |b|)

_SOLVE1 = _umath_linalg.solve1  # (n, n), (n) -> (n): dgesv for one right-hand side, as np.linalg.solve calls it
_SOLVE = _umath_linalg.solve  # (n, n), (n, k) -> (n, k): dgesv for k right-hand sides, as np.linalg.solve calls it

STACK_ENTRIES = 1 << 13
"""Array entries (64 KiB) of one stacked evaluation: chain checks, velocity solves and residuals and per-sample
trajectory kernels run in row blocks of at most this many, so memory does not grow with chains or samples."""


def row_blocks(rows: int, entries_per_row: int) -> list[slice]:
    """Consecutive slices covering range(rows), each of at most STACK_ENTRIES // entries_per_row rows
    and of at least one."""
    per_block = max(1, STACK_ENTRIES // entries_per_row)
    return [slice(start, start + per_block) for start in range(0, rows, per_block)]


NEWTON_ITERATIONS = 50
"""The iteration cap of every Newton solve, newton_solve's and the float orbit's."""


def dominance_threshold(n: int) -> float:
    """The margin δ/s above which linear_solve certifies an n × n system dominant; the float kernels read it too."""
    return PIVOT_RTOL / CERTIFY_MARGIN + n * n * 2.0**-52


def linear_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ v = b for a stack of m independent systems, `a` (m, n, n) and `b` (m, n), n ≥ 1, giving v
    of shape (m, n).

    Two routes, one LAPACK call each. Strictly diagonally dominant systems, whose computed
    δ = min_i(|a_ii| - Σ_(j≠i) |a_ij|) exceeds dominance_threshold(n) s = (PIVOT_RTOL / CERTIFY_MARGIN + n² ε) s,
    ε = 2⁻⁵², s = max|a_ij|, have ‖a⁻¹‖∞ ≤ 1/δ (Varah, Linear Algebra Appl. 11 (1975)), so s‖a⁻¹‖∞ ≤ CERTIFY_MARGIN /
    PIVOT_RTOL and every pivot of LU with partial pivoting is at least 1/‖a⁻¹‖∞ (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 9); one _lapack_solve, the dgesv kernel itself with the single
    right-hand side b, solves them: the shape and dtype are checked here and the certificate makes every
    pivot nonzero, so np.linalg.solve's checks would pass. The n² ε term bounds the rounding of a row sum,
    γ_(n-1) Σ_j |a_ij| ≤ n² s ε/2, and a zero matrix is not dominant. The test reads s off the diagonal,
    max_i |a_ii|, with the same decision: where δ beats that smaller scale, every computed row sum is below
    2|a_ii|, and a floating-point sum of nonnegative terms is at least the rounded sum of any two of them, so
    no |a_ij| exceeds |a_ii| and the two scales are equal; a NaN or infinite entry makes δ NaN or -inf under
    both. One dgesv call of [b | I] solves the others with their inverses, and a solution stands when
    s‖a⁻¹‖∞ ≤ CERTIFY_MARGIN / PIVOT_RTOL and it passes a normwise backward-error test, two batched matrix
    products: ‖b - a v‖∞ ≤ BACKWARD_ERROR_FACTOR n ε ‖|a||v| + |b|‖∞, which bounds the Rigal-Gaches backward
    error ‖b - a v‖∞ / (‖a‖∞‖v‖∞ + ‖b‖∞) by the same tolerance (Higham §7.1) and which LU with partial pivoting
    meets unless its growth factor is large (Higham ch. 9); the componentwise Oettli-Prager form it does not
    always meet. An LU whose pivots overflow can give a finite inverse of a small bound and a wrong v, which the
    second test refuses; a row of b with a non-finite entry is left out of it, so its solution is returned
    non-finite, as on the first route.
    Each route solves its systems in one call whatever is stacked with them, so every system gets the bits it
    gets alone; an empty stack (0, n, n) gives (0, n).

    Raises SingularMatrix naming the lowest system refused and why: a non-finite matrix entry, its inverse
    bound (infinite for an exactly singular matrix), or its backward error.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] == 0:
        raise ValueError("matrices must be a stack (m, n, n) with n >= 1")
    m, n = a.shape[:2]
    if b.shape != (m, n):
        raise ValueError("right-hand side length must match")
    magnitude = np.abs(a)
    diagonal = magnitude.diagonal(axis1=1, axis2=2)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite or overflowing row is not dominant
        margin = 2.0 * diagonal - magnitude.sum(axis=2)
        dominant = margin.min(axis=1) > dominance_threshold(n) * diagonal.max(axis=1)
    if dominant.all():  # the common case, solved without gathering the stack
        return _lapack_solve(a, b)
    v, rest = np.empty((m, n)), np.flatnonzero(~dominant)
    if len(rest) < m:  # a stack with no dominant system is not gathered
        v[dominant] = _lapack_solve(a[dominant], b[dominant])
        a, b, magnitude = a[rest], b[rest], magnitude[rest]
    rhs = np.empty((len(rest), n, n + 1))  # [b | I]
    rhs[:, :, 0] = b
    rhs[:, :, 1:] = np.eye(n)
    limit, tolerance = CERTIFY_MARGIN / PIVOT_RTOL, BACKWARD_ERROR_FACTOR * n * 2.0**-52
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        solved = _SOLVE(a, rhs, signature="dd->d")  # an exactly singular system's solution is NaN, its bound too
        x = solved[:, :, :1]
        bound = magnitude.max(axis=(1, 2)) * np.abs(solved[:, :, 1:]).sum(axis=2).max(axis=1)
        residual = np.abs(b - (a @ x)[:, :, 0]).max(axis=1)
        size = ((magnitude @ np.abs(x))[:, :, 0] + np.abs(b)).max(axis=1)
        # a non-finite b is no fault of the matrix: its solution is returned non-finite, as on the dominant route
        backward = (residual <= tolerance * size) | ~np.isfinite(b).all(axis=1)
        failed = ~(bound <= limit) | ~backward  # a NaN bound or backward error fails
        if failed.any():
            k = int(np.argmax(failed))
            system = int(rest[k])
            reason = ("non-finite matrix entry" if not np.isfinite(a[k]).all() else
                      f"inverse bound {np.nan_to_num(bound[k], nan=np.inf, posinf=np.inf):.3e} above {limit:.1e}"
                      if not bound[k] <= limit else  # a NaN bound, as a singular or zero matrix's, is named inf
                      f"backward error {residual[k] / size[k]:.3e} above {tolerance:.1e}")
            raise SingularMatrix(f"system {system}: {reason}", system=system)
    v[rest] = x[:, :, 0]
    return v


def _lapack_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solutions (m, n) of the certified float stack a (m, n, n) for one right-hand side each, b (m, n):
    LAPACK's dgesv through the gufunc np.linalg.solve calls, with its bits, without the wrapper. The caller's
    certificate stands for the wrapper's checks: no pivot is zero, so the kernel raises no singular-matrix
    flag, and it clears the floating-point flags of its own arithmetic, so a non-finite b warns of nothing."""
    return _SOLVE1(a, b, signature="dd->d")


def float_solve(n: int, a: list, b) -> list:
    """linear_solve of a stack that it certifies dominant, for Python floats: a holds the entries of m
    matrices n x n flat in row-major order, b their right-hand sides, m n floats flat or an array (m, n);
    returns the m solutions flat. It is linear_solve's own _lapack_solve, the dgesv kernel, so the bits are
    LAPACK's whatever BLAS kernel runs it; the caller certifies the systems as linear_solve does, or takes
    another route, since the kernel checks nothing."""
    b = np.asarray(b, dtype=float).reshape(-1, n)
    return _lapack_solve(np.array(a, dtype=float).reshape(-1, n, n), b).ravel().tolist()


def newton_solve(
    system: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]], guess: np.ndarray, tol: float
) -> np.ndarray:
    """Newton iteration for f(x) = 0 on a stack of m systems, full steps, at most NEWTON_ITERATIONS.

    The guess has shape (m, n); system(x) takes the whole stack and returns
    the residual f (m, n) and a function of no arguments that gives the
    Jacobian (m, n, n) at that same x, row k depending on row k alone, so
    one system is the stack of one. Newton keeps the pair of the point it
    steps from and asks for one Jacobian per linear solve: a converged
    stack or a rejected halving trial forms none.
    Each system is frozen once its own residual is at most tol in max-norm,
    and a step onto a non-finite residual is halved for its own system, so
    each follows exactly its iterates alone; while every system is active,
    the stack is solved whole, without gathering it. A step tries the full
    step x - steps first and tests the whole residual for finiteness in one
    pass; only a trial that fails it looks for the systems whose rows have
    a pole.
    NonConvergence and SingularJacobian name the failing `system`, the lowest.
    """
    x = np.array(guess, dtype=float)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("guess must be a stack (m, n) with n >= 1")
    f, jacobian = system(x)
    if f.shape != x.shape:
        raise ValueError("residual shape must match guess shape")
    active, failed = np.ones(len(x), dtype=bool), {}
    for iteration in range(NEWTON_ITERATIONS + 1):
        active &= ~(np.abs(f).max(axis=1) <= tol)  # false for a NaN or infinite residual
        if not active.any() or iteration == NEWTON_ITERATIONS:
            break
        try:
            if active.all():
                steps = linear_solve(jacobian(), f)
            else:
                steps = np.zeros_like(x)
                steps[active] = linear_solve(jacobian()[active], f[active])
        except SingularMatrix as exc:
            # linear_solve counts the active systems; name the stack's index
            k = int(np.flatnonzero(active)[exc.system])
            raise SingularJacobian(f"system {k}: {str(exc).partition(': ')[2]}", system=k) from exc
        # a frozen system's step is zero; a step onto a pole of its system's residual is halved
        x_new, scale = x - steps, 1.0  # the full step first, 1.0 * step being exact; one scale per system once halved
        for _ in range(60):
            f_new, jacobian_new = system(x_new)
            if np.isfinite(f_new).all():  # one pass over the stack: the common case has no pole to look for
                break
            poles = active & ~np.isfinite(f_new).all(axis=1)
            if not poles.any():
                break
            scale = np.where(poles[:, None], 0.5 * scale, scale)
            x_new = x - scale * steps
        else:
            reason = "could not find a finite residual along the Newton step"
            failed.update((int(k), reason) for k in np.flatnonzero(poles))
            # the systems still active keep the last trial: the halving after it left their rows of x_new as
            # they were, and its Jacobian rows are theirs
            x_new, f_new = np.where(poles[:, None], x, x_new), np.where(poles[:, None], f, f_new)
            active &= ~poles
        x, f, jacobian = x_new, f_new, jacobian_new
    failed.update(
        (int(k), f"residual {np.max(np.abs(f[k])):.3e} above tolerance {tol:.1e} "
                 f"after {NEWTON_ITERATIONS} iterations")
        for k in np.flatnonzero(active)
    )
    if failed:
        k = min(failed)
        raise NonConvergence(f"system {k}: {failed[k]}", system=k)
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
              order: np.ndarray, tol: float, refused: Callable[[float, np.ndarray, np.ndarray], None]) -> np.ndarray:
    """y0 and its rk4_step of dt from each of the caller's grid times to the next, shape (len(times), *y0.shape).
    The march's one step test: a step passes when it is finite (the differences would let +inf on the highest
    particle through) and y.take(order) rises by at least tol along every row of order, which holds flat
    indices into y, in start order, of particles that must stay apart.
    refused(t, y, before) sees a failing step's result y at its end time t and the state before it, and raises
    the caller's worded error. Stages run with floating-point warnings off, so a non-finite stage fails the test."""
    ys = np.empty((len(times), *np.shape(y0)))
    ys[0] = y0
    with np.errstate(all="ignore"):
        for i in range(1, len(times)):
            y = ys[i] = rk4_step(field, times[i - 1], ys[i - 1], dt)
            x = y.take(order)
            if not (np.isfinite(y).all() and (x[:, 1:] - x[:, :-1]).min(initial=np.inf) >= tol):
                refused(times[i], y, ys[i - 1])
    return ys


_FLOAT_STEPS: dict[tuple, Callable] = {}
"""The compiled leg makers of float_rk4_step by their callers' keys, each caller's keys from a bounded set."""


def float_rk4_step(key: tuple, size: int, pairs: int, source: Callable[[list, list], list], dt: float,
                   **params) -> Callable:
    """rk4_step of dt on one state of `size` Python floats, marched as a leg: a function
    leg(out, count, tol, lo0, hi0, ..., y0, y1, ...) that steps the state y up to count times, appends each step
    that passes rk4_march's test to the array('d') out and returns the number of steps it appended, stopping at
    the first that fails. A step passes when every value v is finite, v - v == 0.0, and t[hi] - t[lo] >= tol for
    each of the `pairs` neighbour pairs (lo, hi), indices into the new state t. It takes the stages of rk4_step
    operation for operation in local variables, so a field with numpy's bits gives rk4_march's bits.
    source(inputs, outputs) gives the lines that set the variables named in outputs to the field at the variables
    named in inputs; they may read dt and the params by name. The source is compiled once per key, on its first
    use, as a maker of legs that takes dt and the params as arguments, so no value is written into it: the key
    names all the source and the number of pairs depend on."""
    make = _FLOAT_STEPS.get(key)
    if make is None:
        make = _FLOAT_STEPS[key] = _compile_float_step(key, size, pairs, source, list(params))
    return make(float(dt), **params)


def _compile_float_step(key: tuple, size: int, pairs: int, source: Callable[[list, list], list],
                        params: list) -> Callable:
    """The leg maker of float_rk4_step: a loop of straight-line RK4 steps on `size` floats y0, y1, ..., stage s
    putting the field in ks_0, ks_1, ... at the state u0, u1, ... = y + half k(s-1), the last stage's at
    y + dt k3, and each step ending in the step test of the new state t = y0, y1, ..."""
    y = [f"y{i}" for i in range(size)]
    u = [f"u{i}" for i in range(size)]
    body, inputs = [], y
    for stage, scale in enumerate(("half", "half", "dt", None), 1):
        k = [f"k{stage}_{i}" for i in range(size)]
        body += source(inputs, k)
        if scale:
            body += [f"{a} = {b} + {scale} * {c}" for a, b, c in zip(u, y, k)]
            inputs = u
    new = "".join(f"{a} + sixth * (k1_{i} + 2.0 * k2_{i} + 2.0 * k3_{i} + k4_{i}), " for i, a in enumerate(y))
    passes = [f"{a} - {a} == 0.0" for a in y] + [f"t[hi{p}] - t[lo{p}] >= tol" for p in range(pairs)]
    indices = "".join(f"lo{p}, hi{p}, " for p in range(pairs))
    text = "\n".join([f"def make(dt, {', '.join(params)}):", "    half, sixth = 0.5 * dt, dt / 6.0",
                      f"    def leg(out, count, tol, {indices}{', '.join(y)}):", "        extend = out.extend",
                      "        for done in range(count):", *(f"            {line}" for line in body),
                      f"            t = {', '.join(y)}, = ({new})",
                      f"            if not ({' and '.join(passes)}):", "                return done",
                      "            extend(t)", "        return count", "    return leg"])
    namespace = {"copysign": math.copysign, "inf": math.inf, "nan": math.nan}
    exec(compile(text, f"<float_rk4_step {key}>", "exec"), namespace)
    return namespace["make"]


def march(field: Callable[[float, np.ndarray], np.ndarray], y0: np.ndarray, times: np.ndarray, dt: float,
          order: np.ndarray, tol: float, refused: Callable[[float, np.ndarray, np.ndarray], None],
          leg: Optional[Callable] = None) -> np.ndarray:
    """rk4_march(field, y0, times, dt, order, tol, refused), with its bits on Python floats where it can: leg is
    None, or a float_rk4_step of dt that marches each system along axis 0 of y0, its entries flat. Each system
    marches its leg alone, in one call, tested on the neighbour pairs of the rows of order in its system, up to
    the fewest steps that a system before it passed, so none marches past an earlier system's failure. From the
    last step that every system passed, rk4_march takes the whole stack, so the failing step is taken again on
    numpy, where it passes or is refused."""
    if leg is None:
        return rk4_march(field, y0, times, dt, order, tol, refused)
    rows = y0.reshape(len(y0), -1).tolist()
    size = len(rows[0])
    pairs = [[] for _ in rows]  # each system's neighbour pairs, lower then upper, as indices into its flat entries
    for particles in order.tolist():
        pairs[particles[0] // size] += (i % size for pair in zip(particles, particles[1:]) for i in pair)
    count, legs = len(times) - 1, []
    for row, indices in zip(rows, pairs):
        legs.append(array("d", row))
        count = leg(legs[-1], count, tol, *indices, *row)
    ys = np.stack([np.frombuffer(states, count=(count + 1) * size).reshape(count + 1, size) for states in legs], axis=1)
    ys = ys.reshape(count + 1, *y0.shape)
    if count == len(times) - 1:
        return ys
    return np.concatenate((ys, rk4_march(field, ys[-1], times[count:], dt, order, tol, refused)[1:]))
