"""Multi-time evolution and continuous-time verification residuals.

Trajectories are generated by RK4 under the Hamiltonian vector fields of the
two hierarchy members, either one flow at a time or along straight-line
segments in the (t2, t3) plane. The residual evaluators quantify the
variational identities: commuting flows, Poisson involution, the Lagrangian
closure relation, the generalized Euler-Lagrange equation of the two-flow
family, and conservation of the parametrized-path energy.

Batch axis: the one march steps a stack (B, 2N) of B systems, a single state
being the stack of one; each system takes the steps it takes alone, bit for
bit. The stack's shape picks one of two kernels with the same bits and the
same aborts: below ORDERED_SUM_N particles, with B N at most FLOAT_MARCH_SIZE,
each system marches on Python floats in numpy's operation order, which skips
numpy's per-call cost; any other stack marches through numerics.rk4_march, one
field evaluation per RK4 stage for all rows. The Poisson bracket evaluates its
observables once on the perturbed points of a stack of states.

Validation rule: RK4 stages are plain arithmetic on the stacked (x, p) array.
The march checks every row's accepted steps in flight; a Trajectory keeps them
as (T, N) arrays, checked once, and builds PhaseStates only when read.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import CollisionSingularity, DegenerateDirection, NumericsError
from .hierarchy import (
    FLOW_DIRECTIONS,
    ORDERED_SUM_N,
    PhaseState,
    VelocityState,
    check_collision_free,
    check_flow_index,
    constraint_velocity,
    hamiltonian_grad,
    inverse_gaps,
    lagrangian,
    min_gap,  # noqa: F401 -- benchmarks/tests wrap the flows.min_gap binding
    weighted_gradient,
    weighted_hamiltonian,
)
from .numerics import fd_gradient, rk4_march, row_blocks

FLIGHT_GAP_TOL = 1e-6
# a stack of B systems of N < ORDERED_SUM_N particles marches on Python floats when B N is at most this:
# a float step costs about 10 + N^2 us per system, a numpy step 60-110 us for any small stack (2 vCPUs)
FLOAT_MARCH_SIZE = 12

BRACKET_STEP = 1e-5  # central-difference step of poisson_bracket in each coordinate of (x, p)
ENDPOINT_SUBSTEPS = 8  # RK4 steps of each flow endpoint in the closure residuals


@dataclass(frozen=True)
class PathSpec:
    """Straight-line segment in multi-time: constant (dt2/ds, dt3/ds), marched
    in `steps` equal RK4 steps of s, which are also its sample grid."""

    direction: np.ndarray
    duration: float
    steps: int

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (2,):
            raise ValueError("direction must have two components (dt2/ds, dt3/ds)")
        object.__setattr__(self, "direction", d)
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")

    def grid(self) -> np.ndarray:
        """The sample times s_i = i duration/steps, the start first: i = 0..steps, or i = 0 alone at zero
        duration, where the march takes no step. The march, Trajectory.times and exact.collides read it."""
        return np.arange(self.steps + 1 if self.duration > 0 else 1) * (self.duration / self.steps)


@dataclass(frozen=True)
class Trajectory:
    """A marched segment: its path and the positions x and momenta p, (T, N) arrays, one row at each
    time of the path's grid. One stacked collision check runs at construction; `samples` builds one
    PhaseState per row on first use."""

    path: PathSpec
    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x, p = np.array(self.x, dtype=float), np.array(self.p, dtype=float)
        if x.ndim != 2 or x.shape != p.shape:
            raise ValueError("x and p must be (samples, N) arrays of one shape")
        check_collision_free(x, "sample")
        for name, arr in (("x", x), ("p", p)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def samples(self) -> tuple[PhaseState, ...]:
        return tuple(map(PhaseState, self.x, self.p))

    def times(self) -> np.ndarray:
        """(s, t2, t3) of each sample, t = direction s; the start is (0, 0, 0), never -0.0."""
        t = self.path.grid()[:, None] * np.array([1.0, *self.path.direction])
        t[0] = 0.0
        return t

    def per_sample(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
        """fn(x, p) of every sample, fn taking row blocks of at most numerics.STACK_ENTRIES pair entries."""
        return np.concatenate([fn(self.x[rows], self.p[rows]) for rows in row_blocks(len(self.x), self.x.shape[1] ** 2)])


def _raw_field(direction: np.ndarray, n: int) -> Callable[[float, np.ndarray], np.ndarray]:
    """d2 times the t2 plus d3 times the t3 Hamilton field, on stacked (x, p) over leading axes."""
    d2, d3 = direction

    def fld(_s: float, y: np.ndarray) -> np.ndarray:
        x, p = y[..., :n], y[..., n:]
        gx, gp = weighted_gradient(d2, d3, x, p, inverse_gaps(x))
        out = np.empty_like(y)
        out[..., :n], out[..., n:] = gp, -gx
        return out

    return fld


def _check_in_flight(y: np.ndarray, order: np.ndarray, s: float, before=None, fld=None) -> None:
    """Abort on non-finite values, tight gaps or a particle-order flip (a step across a collision) in
    any row of the stack y (B, 2N); `order` holds the flat indices into y of each row's positions in its
    start order, so one pass of neighbour differences tests gaps and order. The first failing row k of
    several is named `in system k` and is the error's `system`. Given the field and the stack `before` of
    last accepted states, a non-finite row whose field is non-finite there is an overflowing field."""
    x = y.take(order)
    if np.isfinite(y).all() and (x[:, 1:] - x[:, :-1]).min(initial=np.inf) >= FLIGHT_GAP_TOL:
        return
    with np.errstate(all="ignore"):
        passed = np.isfinite(y).all(axis=1) & ((x[:, 1:] - x[:, :-1]).min(axis=1, initial=np.inf) >= FLIGHT_GAP_TOL)
        k = int(np.argmin(passed))
        system = k if len(y) > 1 else None
        where = f"s={s:.6g}" + ("" if system is None else f" in system {k}")
        if np.isfinite(y[k]).all():
            raise CollisionSingularity(f"gap below {FLIGHT_GAP_TOL:.1e} at {where}", s=s, system=system)
        if fld is not None and not np.isfinite(fld(s, before[k])).all():
            raise NumericsError(f"Hamilton field overflows on the step to {where}", s=s, system=system)
        raise CollisionSingularity(f"non-finite state at {where}", s=s, system=system)


def _float_field(direction: np.ndarray, n: int) -> Callable[[list], list]:
    """_raw_field on one system, a list y of 2N floats, below ORDERED_SUM_N particles: the same operations
    on the same values in the same order, so the same bits. Each pair i < j gives inv_ij, and inv_ji = -inv_ij
    exactly; taking the pairs in row-major order adds every row's terms in column order, as numpy does, and
    the zero diagonal terms leave the sums as they are. A zero gap divides to a signed inf, as in numpy."""
    d2, d3 = float(direction[0]), float(direction[1])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def fld(y: list) -> list:
        x, p = y[:n], y[n:]
        r3, r2, coupled = [0.0] * n, [0.0] * n, [0.0] * n
        for i, j in pairs:
            d = x[i] - x[j]
            inv = 1.0 / d if d else math.copysign(math.inf, d)
            inv2 = inv * inv
            inv3 = inv2 * inv
            r3[i] += inv3
            r3[j] -= inv3
            if d3:
                r2[i] += inv2
                r2[j] += inv2
                coupled[i] += inv3 * p[j]
                coupled[j] -= inv3 * p[i]
        dx, dp = [], []
        for i in range(n):
            gx, gp = (d2 * r3[i], d2 * p[i]) if d2 else (0.0, 0.0)
            if d3:
                gx = gx + d3 * (p[i] * r3[i] + coupled[i])
                gp = gp + d3 * (p[i] * p[i] - 4.0 * r2[i])
            dx.append(gp)
            dp.append(-(8.0 * gx))
        return dx + dp

    return fld


def _float_march(direction: np.ndarray, y0: np.ndarray, times: np.ndarray, dt: float, order: np.ndarray) -> np.ndarray:
    """rk4_march of _raw_field with _check_in_flight, for a stack y0 (B, 2N) below ORDERED_SUM_N particles,
    on Python floats: each system is marched alone with the stages of numerics.rk4_step, operation for
    operation, so every value equals the numpy march's bit for bit. A step that fails the same in-flight
    test goes to _check_in_flight with the stack at the first failing time, which words the abort."""
    n = y0.shape[1] // 2
    fld = _float_field(direction, n)
    half, sixth = 0.5 * dt, dt / 6.0
    end, failed = len(times) - 1, False
    marched = []
    for y, start_order in zip(y0.tolist(), (order % (2 * n)).tolist()):
        ys = array("d", y)
        neighbours = list(zip(start_order, start_order[1:]))
        for i in range(1, end + 1):  # up to the first failure of the systems before, which decides the abort
            k1 = fld(y)
            k2 = fld([a + half * b for a, b in zip(y, k1)])
            k3 = fld([a + half * b for a, b in zip(y, k2)])
            k4 = fld([a + dt * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            ys.extend(y)
            if not (all(map(math.isfinite, y)) and all(y[j] - y[k] >= FLIGHT_GAP_TOL for k, j in neighbours)):
                end, failed = i, True
                break
        marched.append(np.frombuffer(ys).reshape(-1, 2 * n))
    if failed:  # the numpy check fails on the same rows, so it raises
        with np.errstate(all="ignore"):  # as in rk4_march
            _check_in_flight(np.array([rows[end] for rows in marched]), order, times[end],
                             np.array([rows[end - 1] for rows in marched]), _raw_field(direction, n))
    return np.stack(marched, axis=1)


def _numpy_march(direction: np.ndarray, y0: np.ndarray, times: np.ndarray, dt: float, order: np.ndarray) -> np.ndarray:
    """numerics.rk4_march of _raw_field, every step checked by _check_in_flight."""
    fld = _raw_field(direction, y0.shape[1] // 2)
    return rk4_march(fld, y0, times, dt, lambda s, y, before: _check_in_flight(y, order, s, before, fld))


def _march(y0: np.ndarray, path: PathSpec) -> np.ndarray:
    """The stack y0 (B, 2N) of B systems at each time of the path's grid, shape (T, B, 2N), one RK4 step
    from each grid time to the next. Every step is checked in flight, so an overflow in the unchecked
    stages is reported there, not warned about. The stack's shape picks the kernel, and both give the same
    bits: below ORDERED_SUM_N particles, with B N at most FLOAT_MARCH_SIZE, it marches on Python floats,
    which skips numpy's per-call cost; any other stack marches with numpy."""
    b, n = y0.shape[0], y0.shape[1] // 2
    order = np.argsort(y0[:, :n], axis=1) + 2 * n * np.arange(b)[:, None]
    march = _float_march if n < ORDERED_SUM_N and b * n <= FLOAT_MARCH_SIZE else _numpy_march
    return march(path.direction, y0, path.grid(), path.duration / path.steps, order)


def _stack(states: Sequence[PhaseState]) -> np.ndarray:
    """(B, 2N) stacked (x, p) of states of one particle count."""
    return np.array([np.concatenate([st.x, st.p]) for st in states])


def _flow_path(k: int, duration: float, dt: float) -> PathSpec:
    """The single flow t_k over duration in round(duration / dt) steps, at least one."""
    check_flow_index(k)
    if dt <= 0:
        raise ValueError("dt must be positive")
    return PathSpec(FLOW_DIRECTIONS[k], duration, max(1, int(round(duration / dt))))


def evolve_paths(starts: Sequence[PhaseState], path: PathSpec) -> tuple[Trajectory, ...]:
    """One trajectory along the path from each of several states of one particle count, marched
    as one stack; each equals the trajectory of its start marched alone, bit for bit."""
    ys, n = _march(_stack(starts), path), starts[0].n
    return tuple(Trajectory(path, ys[:, b, :n], ys[:, b, n:]) for b in range(len(starts)))


def evolve_path(start: PhaseState, path: PathSpec) -> Trajectory:
    """Integrate the generalized Hamilton equations along a straight segment."""
    return evolve_paths((start,), path)[0]


def integrate_flow(k: int, start: PhaseState, duration: float, dt: float) -> Trajectory:
    """RK4 trajectory of the single flow t_k in round(duration / dt) steps, at least one."""
    return evolve_paths((start,), _flow_path(k, duration, dt))[0]


def commutator_defect(starts: Sequence[PhaseState], delta2: float, delta3: float, dt: float) -> np.ndarray:
    """Endpoint mismatch between t2-then-t3 and t3-then-t2 flow composition, one per state of a
    sequence of one particle count, marched as one stack per leg."""
    y = _stack(starts)

    def leg(y, k, duration):
        return _march(y, _flow_path(k, duration, dt))[-1]

    return np.abs(leg(leg(y, 2, delta2), 3, delta3) - leg(leg(y, 3, delta3), 2, delta2)).max(axis=1)


def poisson_bracket(f: Callable, g: Callable, states: Sequence[PhaseState]) -> np.ndarray:
    """{f, g} = sum_k (df/dp_k dg/dx_k - dg/dp_k df/dx_k) at each state of a sequence of one particle
    count. The observables map positions and momenta (..., N) to values (...); their gradients come
    from numerics.fd_gradient, step BRACKET_STEP in each coordinate of the stacked (x, p), so each
    observable is evaluated once, on all 4N perturbed points of every state."""
    y = _stack(states)
    n = y.shape[1] // 2
    df, dg = (fd_gradient(lambda u: fn(u[..., :n], u[..., n:]), y, BRACKET_STEP) for fn in (f, g))
    return np.sum(df[:, n:] * dg[:, :n] - dg[:, n:] * df[:, :n], axis=1)


def _flow_endpoint(k: int, state: PhaseState, eps: float) -> PhaseState:
    """Endpoint of the t_k flow after signed time eps; a negative eps marches the reversed flow, whose
    RK4 steps equal those of the flow with step eps / ENDPOINT_SUBSTEPS bit for bit (negation is exact)."""
    if eps == 0.0:
        return state
    y = _march(_stack([state]), PathSpec(np.sign(eps) * np.asarray(FLOW_DIRECTIONS[k]), abs(eps), ENDPOINT_SUBSTEPS))[-1, 0]
    return PhaseState(y[: state.n], y[state.n :])


def _along_flow(f: Callable[[PhaseState], float], k: int, state: PhaseState, eps: float) -> float:
    """Central difference of f along the t_k flow, step eps each way."""
    return (f(_flow_endpoint(k, state, eps)) - f(_flow_endpoint(k, state, -eps))) / (2 * eps)


def _fd_dds(series: np.ndarray, h: float) -> np.ndarray:
    """d/ds of a sampled series (n, N); 4th-order stencil when possible, NaN edges."""
    n = len(series)
    out = np.full_like(series, np.nan)
    if n >= 5:
        out[2:-2] = (-series[4:] + 8 * series[3:-1] - 8 * series[1:-3] + series[:-4]) / (12 * h)
    elif n >= 3:
        out[1:-1] = (series[2:] - series[:-2]) / (2 * h)
    return out


def _nonzero_direction(direction: Sequence[float]) -> tuple[float, float]:
    """(dt2/ds, dt3/ds) as floats; DegenerateDirection when both are zero."""
    d2, d3 = float(direction[0]), float(direction[1])
    if d2 == 0.0 and d3 == 0.0:
        raise DegenerateDirection("both direction components are zero")
    return d2, d3


def pluri_el_residual(traj: Trajectory) -> np.ndarray:
    """Residual of the generalized Euler-Lagrange equation along a trajectory.

    Returns an (n_samples, N) array, NaN-padded where the d/ds stencils do
    not fit. Velocities are read from the trajectory itself: the t2-velocity
    from differentiated positions when the t2 direction is active (this is
    what makes perturbed, non-solution trajectories detectable), from the
    stored momenta otherwise; a t3-velocity is extracted from the remaining
    s-velocity when both directions are active. Cross terms divide by the
    direction components and are dropped for single-flow directions, which
    reduces the expression to the usual single-time Euler-Lagrange equation
    of the active flow.
    """
    d2, d3 = _nonzero_direction(traj.path.direction)
    if len(traj.x) < 3:
        raise ValueError("need at least 3 samples for d/ds differencing")
    h = traj.path.duration / traj.path.steps
    X, P = traj.x, traj.p
    u = _fd_dds(X, h)
    mixed = d2 != 0.0 and d3 != 0.0
    v2 = u / d2 if d3 == 0.0 else P
    v3 = (u - v2 * d2) / d3 if mixed else None

    inv = inverse_gaps(X)
    # dL_(t2)/dv2 + dL_(t3)/dv3 = 2 v2, plus (d3/d2) dL_(t3)/dv2 = (d3/d2)(v3 + (3/4) v2^2 - 3 w) when
    # both flows are active; dL_(t2)/dv3 is zero
    bracket = v2 + v2
    if mixed:
        bracket = bracket + (d3 / d2) * (v3 + 0.75 * v2**2 - 3.0 * np.square(inv).sum(axis=-1))
    # sum_k d_k dL_(tk)/dx, as dL_(t2)/dx = -dH_(t2)/dx and dL_(t3)/dx = (3/4) dH_(t3)/dx at p = v2
    force = weighted_gradient(-d2, 0.75 * d3, X, v2, inv)[0]
    # the d/ds stencil of the bracket is NaN wherever a velocity is, so those rows stay NaN
    return force - 0.5 * _fd_dds(bracket, h)


def noether_charge(traj: Trajectory) -> np.ndarray:
    """Sampled series E(s) = sum_k H_(tk)(state(s)) dt_k/ds along the trajectory's path."""
    d2, d3 = (float(d) for d in traj.path.direction)
    return traj.per_sample(lambda x, p: weighted_hamiltonian(d2, d3, x, p))


VelocityMode = Literal["flow", "constraint"]


def lagrangian_closure_residual(state: PhaseState, eps: float, velocity_mode: VelocityMode = "flow") -> float:
    """dL_(t2)/dt3 - dL_(t3)/dt2 on the two-parameter solution sheet.

    The t2-velocity is the sheet derivative v2 = P. The t3-velocity is either
    the printed-Hamiltonian flow velocity dH_(t3)/dP (mode "flow") or the
    value forced by the transversal constraint (mode "constraint"). Reported
    as a diagnostic in both modes.
    """
    if velocity_mode not in ("flow", "constraint"):
        raise ValueError("velocity_mode must be 'flow' or 'constraint'")

    def velocity_state(ps: PhaseState) -> VelocityState:
        v3 = hamiltonian_grad(3, ps)[1] if velocity_mode == "flow" else constraint_velocity(ps.x, ps.p)
        return VelocityState(ps.x, ps.p, v3)

    dL2_dt3 = _along_flow(lambda ps: lagrangian(2, velocity_state(ps)), 3, state, eps)
    dL3_dt2 = _along_flow(lambda ps: lagrangian(3, velocity_state(ps)), 2, state, eps)
    return dL2_dt3 - dL3_dt2
