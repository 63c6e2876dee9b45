"""Multi-time evolution and continuous-time verification residuals.

Trajectories are generated by RK4 under the Hamiltonian vector fields of the
two hierarchy members, either one flow at a time or along straight-line
segments in the (t2, t3) plane. The residual evaluators quantify the
variational identities: commuting flows, Poisson involution, closure
relations, the generalized Euler-Lagrange equation of the two-flow family,
and conservation of the parametrized-path energy.

Validation rule: RK4 stages are plain arithmetic on the stacked (x, p) array.
The march checks each accepted step in flight; only accepted steps become
PhaseStates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .errors import CollisionSingularity, DegenerateDirection
from .hierarchy import (
    FLOW_DIRECTIONS,
    PhaseState,
    VelocityState,
    check_flow_index,
    constraint_velocity,
    hamiltonian,
    hamiltonian_grad,
    inverse_gaps,
    inverse_square_sums,
    lagrangian,
    min_gap,  # noqa: F401 -- benchmarks/tests wrap the flows.min_gap binding
    weighted_gradient,
)
from .numerics import fd_derivative, rk4_step

FLIGHT_GAP_TOL = 1e-6

DEFAULT_FLOW_EPS = 1e-4
DEFAULT_BRACKET_STEP = 1e-5


@dataclass(frozen=True)
class PathSpec:
    """Straight-line segment in multi-time: constant (dt2/ds, dt3/ds)."""

    direction: np.ndarray
    duration: float
    steps: int = 1

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (2,):
            raise ValueError("direction must have two components (dt2/ds, dt3/ds)")
        object.__setattr__(self, "direction", d)
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")


@dataclass(frozen=True)
class TrajectorySample:
    s: float
    t2: float
    t3: float
    state: PhaseState


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[TrajectorySample, ...] = field(default_factory=tuple)

    def __post_init__(self):
        svals = [smp.s for smp in self.samples]
        if any(b <= a for a, b in zip(svals, svals[1:])):
            raise ValueError("sample parameter s must be strictly increasing")

    def s_values(self) -> np.ndarray:
        return np.array([smp.s for smp in self.samples])

    def positions(self) -> np.ndarray:
        return np.array([smp.state.x for smp in self.samples])

    def momenta(self) -> np.ndarray:
        return np.array([smp.state.p for smp in self.samples])

    @property
    def final_state(self) -> PhaseState:
        return self.samples[-1].state


def vector_field(k: int, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton equations: xdot = dH_(tk)/dp, pdot = -dH_(tk)/dx."""
    dx, dp = hamiltonian_grad(k, state)
    return dp, -dx


def hamiltonian_observable(k: int) -> Callable[[PhaseState], float]:
    """H_(tk) as a phase-space observable carrying its analytic gradient."""
    check_flow_index(k)

    def observable(state: PhaseState) -> float:
        return hamiltonian(k, state)

    observable.gradient = lambda state: hamiltonian_grad(k, state)
    observable.__name__ = f"H_t{k}"
    return observable


def _raw_field(direction: np.ndarray, n: int) -> Callable[[float, np.ndarray], np.ndarray]:
    """d2 times the t2 plus d3 times the t3 Hamilton field, on stacked (x, p)."""
    d2, d3 = direction

    def fld(_s: float, y: np.ndarray) -> np.ndarray:
        x, p = y[:n], y[n:]
        gx, gp = weighted_gradient(d2, d3, x, p, inverse_gaps(x))
        out = np.empty(2 * n)
        out[:n], out[n:] = gp, -gx
        return out

    return fld


def _check_in_flight(y: np.ndarray, n: int, order: np.ndarray, s: float) -> None:
    """Abort on non-finite values, tight gaps or a particle-order flip (the exact dynamics cannot
    reorder particles, so a flip means a step across a collision); while the start's order holds,
    the smallest gap is the smallest neighbour difference, so one O(N) pass tests both."""
    if not np.all(np.isfinite(y)):
        raise CollisionSingularity(f"non-finite state at s={s:.6g}", s=s)
    if not np.diff(y[:n][order]).min(initial=np.inf) >= FLIGHT_GAP_TOL:
        raise CollisionSingularity(f"gap below {FLIGHT_GAP_TOL:.1e} at s={s:.6g}", s=s)


def _march(start: PhaseState, direction: np.ndarray, h: float, n_steps: int) -> list[np.ndarray]:
    """Stacked (x, p) after each of n_steps RK4 steps of signed size h along a
    straight segment, the start first; every step is checked in flight, so an
    overflow in the unchecked stages is reported there, not warned about."""
    n = start.n
    fld = _raw_field(direction, n)
    order = np.argsort(start.x)
    ys = [np.concatenate([start.x, start.p])]
    with np.errstate(all="ignore"):
        for i in range(1, n_steps + 1):
            ys.append(rk4_step(fld, (i - 1) * h, ys[-1], h))
            _check_in_flight(ys[-1], n, order, i * h)
    return ys


def _trajectory(start: PhaseState, direction, duration: float, dt: float | None, steps=1) -> Trajectory:
    """RK4 trajectory sampled at every step: round(duration / dt) steps, or
    `steps` steps when dt is None."""
    n_steps = (steps if dt is None else max(1, int(round(duration / dt)))) if duration > 0 else 0
    h = duration / n_steps if n_steps else 0.0
    d2, d3 = direction
    n = start.n
    samples = [TrajectorySample(0.0, 0.0, 0.0, start)]
    for i, y in enumerate(_march(start, direction, h, n_steps)[1:], 1):
        s = i * h
        samples.append(TrajectorySample(s, d2 * s, d3 * s, PhaseState(y[:n], y[n:])))
    return Trajectory(tuple(samples))


def integrate_flow(k: int, start: PhaseState, duration: float, dt: float) -> Trajectory:
    """RK4 trajectory of the single flow t_k, sampled at every step."""
    check_flow_index(k)
    if dt <= 0:
        raise ValueError("dt must be positive")
    return _trajectory(start, FLOW_DIRECTIONS[k], duration, dt)


def evolve_path(start: PhaseState, path: PathSpec, dt_s: float | None = None) -> Trajectory:
    """Integrate the generalized Hamilton equations along a straight segment."""
    if dt_s is not None and dt_s <= 0:
        raise ValueError("dt_s must be positive")
    return _trajectory(start, path.direction, path.duration, dt_s, path.steps)


def commutator_defect(start: PhaseState, delta2: float, delta3: float, dt: float) -> float:
    """Endpoint mismatch between t2-then-t3 and t3-then-t2 flow composition."""
    a = integrate_flow(3, integrate_flow(2, start, delta2, dt).final_state, delta3, dt).final_state
    b = integrate_flow(2, integrate_flow(3, start, delta3, dt).final_state, delta2, dt).final_state
    return float(max(np.max(np.abs(a.x - b.x)), np.max(np.abs(a.p - b.p))))


def poisson_bracket(
    f: Callable[[PhaseState], float],
    g: Callable[[PhaseState], float],
    state: PhaseState,
    h: float = DEFAULT_BRACKET_STEP,
) -> float:
    """{f, g} = sum_k (df/dp_k dg/dx_k - dg/dp_k df/dx_k).

    Gradients come from an observable's `gradient` attribute when present
    (the built-in Hamiltonians), otherwise from numerics.fd_derivative with
    step h in each coordinate of the stacked (x, p).
    """

    def gradients(fn) -> tuple[np.ndarray, np.ndarray]:
        if hasattr(fn, "gradient"):
            return fn.gradient(state)
        n, y = state.n, np.concatenate([state.x, state.p])
        grad = np.array([fd_derivative(lambda u: fn(PhaseState(u[:n], u[n:])), y, i, h) for i in range(2 * n)])
        return grad[:n], grad[n:]

    fx, fp = gradients(f)
    gx, gp = gradients(g)
    return float(np.sum(fp * gx - gp * fx))


def _flow_endpoint(k: int, state: PhaseState, eps: float, substeps: int = 8) -> PhaseState:
    """Endpoint of the t_k flow after signed time eps (RK4 with signed step)."""
    if eps == 0.0:
        return state
    y = _march(state, FLOW_DIRECTIONS[k], eps / substeps, substeps)[-1]
    return PhaseState(y[: state.n], y[state.n :])


def _along_flow(f: Callable[[PhaseState], float], k: int, state: PhaseState, eps: float) -> float:
    """Central difference of f along the t_k flow, step eps each way."""
    return (f(_flow_endpoint(k, state, eps)) - f(_flow_endpoint(k, state, -eps))) / (2 * eps)


def hamiltonian_closure_residual(state: PhaseState, eps: float = DEFAULT_FLOW_EPS) -> float:
    """dH_(t2)/dt3 - dH_(t3)/dt2 by central differences along the flows.

    Vanishing (to O(eps^2) plus integrator error) expresses the involution of
    the two Hamiltonians; the residual equals -2 {H_(t2), H_(t3)} by the
    chain rule.
    """
    d23 = _along_flow(lambda s: hamiltonian(2, s), 3, state, eps)
    d32 = _along_flow(lambda s: hamiltonian(3, s), 2, state, eps)
    return d23 - d32


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


def _d_lagrangian_dv(x: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> dict:
    """The four velocity-derivatives of the two Lagrangians."""
    return {
        (2, 2): v2,                                                    # dL_(t2)/dv2
        (2, 3): np.zeros_like(v2),                                     # dL_(t2)/dv3
        (3, 2): v3 + 0.75 * v2**2 - 3.0 * inverse_square_sums(x),      # dL_(t3)/dv2
        (3, 3): v2,                                                    # dL_(t3)/dv3
    }


def pluri_el_residual(traj: Trajectory, direction: Sequence[float]) -> np.ndarray:
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
    d2, d3 = _nonzero_direction(direction)
    if len(traj.samples) < 3:
        raise ValueError("need at least 3 samples for d/ds differencing")
    s = traj.s_values()
    h = s[1] - s[0]
    if not np.allclose(np.diff(s), h, rtol=1e-9, atol=1e-15):
        raise ValueError("samples must be uniformly spaced in s")
    X = traj.positions()
    P = traj.momenta()
    u = _fd_dds(X, h)

    if d2 != 0.0 and d3 == 0.0:
        v2 = u / d2
        v3 = np.zeros_like(v2)
    elif d2 == 0.0:
        v2 = P
        v3 = u / d3
    else:
        v2 = P
        v3 = (u - v2 * d2) / d3

    n_samples, n_particles = X.shape
    bracket = np.full((n_samples, n_particles), np.nan)
    force = np.full((n_samples, n_particles), np.nan)
    for i in range(n_samples):
        if np.any(np.isnan(v2[i])) or (d2 != 0.0 and d3 != 0.0 and np.any(np.isnan(v3[i]))):
            continue
        dv = _d_lagrangian_dv(X[i], v2[i], v3[i])
        b = dv[(2, 2)] + dv[(3, 3)]
        if d2 != 0.0 and d3 != 0.0:
            b = b + (d3 / d2) * dv[(3, 2)] + (d2 / d3) * dv[(2, 3)]
        bracket[i] = b
        # sum_k d_k dL_(tk)/dx, as dL_(t2)/dx = -dH_(t2)/dx and dL_(t3)/dx = (3/4) dH_(t3)/dx at p = v2
        force[i] = weighted_gradient(-d2, 0.75 * d3, X[i], v2[i], inverse_gaps(X[i]))[0]
    return force - 0.5 * _fd_dds(bracket, h)


def pluri_constraint_residual(sample: VelocityState, direction: Sequence[float]) -> float:
    """Transversal constraint of the two-flow family, max-norm over particles:
    (dL_(t3)/dv2) d3^2 + (dL_(t2)/dv2 - dL_(t3)/dv3) d2 d3 - (dL_(t2)/dv3) d2^2."""
    d2, d3 = _nonzero_direction(direction)
    dv = _d_lagrangian_dv(sample.x, sample.v2, sample.v3)
    r = dv[(3, 2)] * d3**2 + (dv[(2, 2)] - dv[(3, 3)]) * d2 * d3 - dv[(2, 3)] * d2**2
    return float(np.max(np.abs(r)))


def generalized_momentum(sample: VelocityState, direction: Sequence[float]) -> np.ndarray:
    """Momentum conjugate to a straight multi-time segment.

    P = (1/2)[dL_(t2)/dv2 + dL_(t3)/dv3 + (d2/d3) dL_(t2)/dv3
              + (d3/d2) dL_(t3)/dv2] when both components are active;
    with one component zero the cross terms are undefined and the reduced
    formula P = dL_(active)/dv_active applies.
    """
    d2, d3 = _nonzero_direction(direction)
    dv = _d_lagrangian_dv(sample.x, sample.v2, sample.v3)
    if d2 == 0.0 or d3 == 0.0:
        return dv[(2, 2)].copy() if d3 == 0.0 else dv[(3, 3)].copy()
    return 0.5 * (dv[(2, 2)] + dv[(3, 3)] + (d2 / d3) * dv[(2, 3)] + (d3 / d2) * dv[(3, 2)])


def noether_charge(traj: Trajectory, direction: Sequence[float]) -> np.ndarray:
    """Sampled series E(s) = sum_k H_(tk)(state(s)) dt_k/ds along a path."""
    d2, d3 = float(direction[0]), float(direction[1])
    states = [smp.state for smp in traj.samples]
    ws = [inverse_square_sums(st.x) for st in states]
    return np.array([d2 * hamiltonian(2, st, w) + d3 * hamiltonian(3, st, w) for st, w in zip(states, ws)])


VelocityMode = Literal["flow", "constraint"]


def lagrangian_closure_residual(
    state: PhaseState, eps: float = DEFAULT_FLOW_EPS, velocity_mode: VelocityMode = "flow"
) -> float:
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
