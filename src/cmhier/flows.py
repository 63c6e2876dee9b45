"""Multi-time evolution and continuous-time verification residuals.

Trajectories are generated by RK4 under the Hamiltonian vector fields of the
two hierarchy members, either one flow at a time or along straight-line
segments in the (t2, t3) plane. The residual evaluators quantify the
variational identities: commuting flows, Poisson involution, the Lagrangian
closure relation, the generalized Euler-Lagrange equation of the two-flow
family, and conservation of the parametrized-path energy.

Batch axis: the one march steps a stack (B, 2N) of B systems, a single state
being the stack of one; each system takes the steps it takes alone, bit for
bit. It calls numerics.march: below ORDERED_SUM_N particles, with B N at most
FLOAT_MARCH_SIZE, each system marches first on Python floats, as one leg of
the numerics.float_rk4_step whose Hamilton field, _field_source, is
straight-line source in numpy's operation order, and the stack goes to the
numpy march from the last step every system passed; any other stack marches on
numpy, one field evaluation per RK4 stage for all rows. The Poisson bracket
evaluates its observables once on the perturbed points of a stack of states.

Validation rule: RK4 stages are plain arithmetic on the stacked (x, p) array.
numerics.march tests every step in flight: each system's positions stay
FLIGHT_GAP_TOL apart in their start order, given as flat indices, and every
value is finite. _check_in_flight words a refused step. A Trajectory keeps the
steps as (T, N) arrays, checked once, and builds PhaseStates only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import CollisionSingularity, NumericsError
from .hierarchy import (
    FLOW_DIRECTIONS,
    ORDERED_SUM_N,
    PhaseState,
    check_collision_free,
    check_flow_index,
    constraint_velocity,
    inverse_gaps,
    lagrangian,
    min_gap,  # noqa: F401 -- benchmarks/tests wrap the flows.min_gap binding
    weighted_gradient,
    weighted_hamiltonian,
)
from .numerics import fd_gradient, float_rk4_step, march, row_blocks

FLIGHT_GAP_TOL = 1e-6
# a stack of B systems of N < ORDERED_SUM_N particles marches on Python floats when B N is at most this: a step
# of the float legs costs about 1.0 us per unit of B N at N = 1 to 3 and 1.6 us at N = 7 on the t2 flow, 1.1-1.7
# and 2.8 us in direction (1, 1), a numpy step 50-65 and 85-125 us for any such stack; the two meet near B N =
# 64-96 at N = 1 and 2, 63-70 at N = 3, 45-60 at N = 5 and 35-42 at N = 7, so at B N = 48 no N is more than
# a few per cent slower on floats (50-step marches, median of 5, one CPU, wall, in-process)
FLOAT_MARCH_SIZE = 48

BRACKET_STEP = 1e-5  # central-difference step of poisson_bracket in each coordinate of (x, p)
ENDPOINT_SUBSTEPS = 8  # RK4 steps of each flow endpoint in the closure residuals


@dataclass(frozen=True)
class PathSpec:
    """Straight-line segment in multi-time: a constant, finite and nonzero (dt2/ds, dt3/ds), where (-0.0, 0.0)
    is zero, marched in `steps` equal RK4 steps of s, which are also its sample grid."""

    direction: np.ndarray
    duration: float
    steps: int

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (2,):
            raise ValueError("direction must have two components (dt2/ds, dt3/ds)")
        if not np.isfinite(d).all() or not d.any():
            raise ValueError("direction must be finite and nonzero")
        object.__setattr__(self, "direction", d)
        if not math.isfinite(self.duration):
            raise ValueError("duration must be finite")
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


def _check_in_flight(y: np.ndarray, order: np.ndarray, s: float, before: np.ndarray, fld: Callable) -> None:
    """Word the abort of a step of the stack y (B, 2N) that numerics.march refused: non-finite values, a tight
    gap or a particle-order flip (a step across a collision) in the first failing row k, whose positions start
    in the order of the flat indices `order`. A stack of several names it `in system k`, the error's `system`.
    A non-finite row whose field fld is non-finite at its last accepted state, in the stack `before`, is an
    overflowing field."""
    with np.errstate(all="ignore"):
        x = y.take(order)
        passed = np.isfinite(y).all(axis=1) & ((x[:, 1:] - x[:, :-1]).min(axis=1, initial=np.inf) >= FLIGHT_GAP_TOL)
        k = int(np.argmin(passed))
        system = k if len(y) > 1 else None
        where = f"s={s:.6g}" + ("" if system is None else f" in system {k}")
        if np.isfinite(y[k]).all():
            raise CollisionSingularity(f"gap below {FLIGHT_GAP_TOL:.1e} at {where}", s=s, system=system)
        if not np.isfinite(fld(s, before[k])).all():
            raise NumericsError(f"Hamilton field overflows on the step to {where}", s=s, system=system)
        raise CollisionSingularity(f"non-finite state at {where}", s=s, system=system)


def _field_source(n: int, weights: tuple[bool, bool]) -> Callable[[list, list], list]:
    """_raw_field on one system below ORDERED_SUM_N particles as the straight-line source of
    numerics.float_rk4_step: the same operations on the same values in the same order, so the same bits, for
    the direction weights d2 and d3 named in the source, of which `weights` tells which are nonzero. Each pair
    i < j gives inv_ij, and inv_ji = -inv_ij exactly; each row sum starts from 0.0 and adds its terms in column
    order, as numpy does, and the zero diagonal terms leave it as it is. A zero gap divides to a signed inf,
    as in numpy."""
    def pair(i: int, k: int) -> str:
        return f"{min(i, k)}_{max(i, k)}"

    def row(i: int, term: Callable[[int], str], sign: str) -> str:
        """Row i's sum in the order the pairs come: 0.0, term(k) of each k < i joined by sign, then term(j)
        of each j > i added."""
        return "0.0" + "".join(f" {sign} {term(k)}" for k in range(i)) + "".join(f" + {term(j)}" for j in range(i + 1, n))

    def source(y: list, out: list) -> list:
        x, p = y[:n], y[n:]
        lines = []
        for i in range(n):
            for j in range(i + 1, n):
                lines += [f"d = {x[i]} - {x[j]}", "inv = 1.0 / d if d else copysign(inf, d)",
                          f"sq{i}_{j} = inv * inv", f"cu{i}_{j} = sq{i}_{j} * inv"]
        for i in range(n):
            lines.append(f"r3 = {row(i, lambda k: f'cu{pair(i, k)}', '-')}")
            gx, gp = ("d2 * r3", f"d2 * {p[i]}") if weights[0] else ("0.0", "0.0")
            if weights[1]:
                r2 = row(i, lambda k: f"sq{pair(i, k)}", "+")
                coupled = row(i, lambda k: f"cu{pair(i, k)} * {p[k]}", "-")
                gx = f"{gx} + d3 * ({p[i]} * r3 + ({coupled}))"
                gp = f"{gp} + d3 * ({p[i]} * {p[i]} - 4.0 * ({r2}))"
            lines += [f"{out[i]} = {gp}", f"{out[n + i]} = -(8.0 * ({gx}))"]
        return lines

    return source


def _march(y0: np.ndarray, path: PathSpec) -> np.ndarray:
    """The stack y0 (B, 2N) of B systems at each time of the path's grid, shape (T, B, 2N), one RK4 step
    from each grid time to the next, each checked in flight, so an overflow in the unchecked stages is
    reported there, not warned about. Below ORDERED_SUM_N particles, with B N at most FLOAT_MARCH_SIZE,
    numerics.march marches each system on Python floats first, with one leg runner per N and set of nonzero
    direction weights, tested on the N - 1 neighbour pairs of its start order; any other stack marches with
    numpy."""
    b, n = y0.shape[0], y0.shape[1] // 2
    order = np.argsort(y0[:, :n], axis=1) + 2 * n * np.arange(b)[:, None]
    fld, leg, dt = _raw_field(path.direction, n), None, path.duration / path.steps
    d2, d3 = float(path.direction[0]), float(path.direction[1])
    if n < ORDERED_SUM_N and b * n <= FLOAT_MARCH_SIZE:
        weights = (bool(d2), bool(d3))
        leg = float_rk4_step(("flows", n, weights), 2 * n, n - 1, _field_source(n, weights), dt, d2=d2, d3=d3)
    return march(fld, y0, path.grid(), dt, order, FLIGHT_GAP_TOL,
                 lambda s, y, before: _check_in_flight(y, order, s, before, fld), leg)


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


def _flow_ends(k: int, state: PhaseState, eps: float) -> np.ndarray:
    """Endpoints of the t_k flow after nonzero signed times eps and -eps, in that order, as x and p, a (2, 2, N)
    array. A negative time marches the reversed flow, whose RK4 steps equal those of the flow with step
    time / ENDPOINT_SUBSTEPS bit for bit (negation is exact)."""
    y, direction = _stack([state]), np.asarray(FLOW_DIRECTIONS[k])
    ends = np.array([_march(y, PathSpec(np.sign(t) * direction, abs(t), ENDPOINT_SUBSTEPS))[-1, 0] for t in (eps, -eps)])
    return ends.reshape(2, 2, state.n).swapaxes(0, 1)


def _along_flow(values: np.ndarray, eps: float) -> float:
    """Central difference along a flow of values (2,) at its endpoints _flow_ends(k, state, eps)."""
    return float((values[0] - values[1]) / (2 * eps))


def _fd_dds(series: np.ndarray, h: float) -> np.ndarray:
    """d/ds of a sampled series (n, N); 4th-order stencil when possible, NaN edges."""
    n = len(series)
    out = np.full_like(series, np.nan)
    if n >= 5:
        out[2:-2] = (-series[4:] + 8 * series[3:-1] - 8 * series[1:-3] + series[:-4]) / (12 * h)
    elif n >= 3:
        out[1:-1] = (series[2:] - series[:-2]) / (2 * h)
    return out


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
    d2, d3 = (float(d) for d in traj.path.direction)
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


# the t3-velocity (..., N) of each mode of the closure residual at positions and momenta (..., N)
_T3_VELOCITIES = {
    "flow": lambda x, p: weighted_gradient(*FLOW_DIRECTIONS[3], x, p, inverse_gaps(x))[1],
    "constraint": constraint_velocity,
}


def lagrangian_closure_residuals(state: PhaseState, eps: float) -> dict[str, float]:
    """dL_(t2)/dt3 - dL_(t3)/dt2 on the two-parameter solution sheet, by velocity mode.

    The t2-velocity is the sheet derivative v2 = P. The t3-velocity is either
    the printed-Hamiltonian flow velocity dH_(t3)/dP (mode "flow") or the
    value forced by the transversal constraint (mode "constraint"). Reported
    as a diagnostic in both modes. The four flow endpoints, t3 and t2 at +eps
    and -eps, are marched once for both modes, and L_(t2) does not read v3,
    so dL_(t2)/dt3 is one value for both.
    """
    (x3, p3), (x2, p2) = _flow_ends(3, state, eps), _flow_ends(2, state, eps)
    dL2_dt3 = _along_flow(lagrangian(2, x3, p3, p3), eps)  # reads no v3
    return {mode: dL2_dt3 - _along_flow(lagrangian(3, x2, p2, v3(x2, p2)), eps) for mode, v3 in _T3_VELOCITIES.items()}
