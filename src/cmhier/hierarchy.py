"""Continuous-time rational Calogero-Moser hierarchy.

Implements the first two members (flows labelled k=2 and k=3): Lagrangians,
Hamiltonians with analytic gradients, the velocity constraint linking the two
flows, Legendre-transform checks, and the Lax pair with its trace invariants.

Coupling convention: the off-diagonal Lax coefficient is a single real
parameter gamma (default -2), fixed so that (1/2)Tr L^2 and (1/3)Tr L^3
reproduce the two Hamiltonians exactly.

Validation rule: a PhaseState or VelocityState checks its positions once,
when it is built, and keeps read-only copies of its arrays, so it stays
collision-free while it exists. Functions that take such a state do not check
it again, and the array kernels check nothing.

Pair matrices are multiplied, never raised with `**`: numpy computes inv**3
through libm `pow`, 40 times slower than inv * inv * inv at N = 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionSingularity

COLLISION_TOL = 1e-12

FLOW_INDICES = (2, 3)
# (dt2/ds, dt3/ds) of the single flows t2 and t3
FLOW_DIRECTIONS = {2: (1.0, 0.0), 3: (0.0, 1.0)}


def _as_vector(v) -> np.ndarray:
    arr = np.array(v, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a non-empty 1-D array")
    arr.flags.writeable = False
    return arr


def min_gap(x: np.ndarray) -> float:
    """Smallest pairwise distance; inf for a single particle, NaN when a
    position is not finite. Float subtraction is monotone, so the smallest
    neighbour difference of the sorted positions is the smallest pairwise one."""
    s = np.sort(x)
    # NaN sorts last and -inf first, so the two ends tell whether all are finite
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        return float("nan")
    return float(np.diff(s).min(initial=np.inf))


def check_collision_free(x: np.ndarray, row: str = "system") -> None:
    """Raise CollisionSingularity on a non-finite position or a gap below COLLISION_TOL. A stack
    (m, ..., n) is checked per row along axis 0, over its inner configurations, with one sort;
    the first failing row k is named `at {row} k` and set as the error's `system`."""
    if x.ndim == 1:
        g, k = min_gap(x), None
    else:
        s = np.sort(x).reshape(len(x), -1, x.shape[-1])
        with np.errstate(invalid="ignore"):  # inf - inf; such rows are non-finite, as in min_gap
            gaps = np.diff(s).min(axis=(1, 2), initial=np.inf)
        gaps[~np.isfinite(s[..., [0, -1]]).all(axis=(1, 2))] = np.nan
        k = int(np.argmin(gaps >= COLLISION_TOL))  # the first failing row, else row 0
        g = gaps[k]
    if not g >= COLLISION_TOL:
        message = "non-finite position" if np.isnan(g) else f"minimum gap {g:.3e} below {COLLISION_TOL:.1e}"
        raise CollisionSingularity(message + ("" if k is None else f" at {row} {k}"), system=k)


def cross_gap(a: np.ndarray, b: np.ndarray):
    """Smallest |a_i - b_j| between two configurations, or per row of two (m, n) stacks;
    NaN when a position is NaN."""
    return np.abs(a[..., :, None] - b[..., None, :]).min(axis=(-2, -1))


def check_cross_gap(a: np.ndarray, b: np.ndarray, what: str = "cross gap", row: str = "system") -> None:
    """Raise CollisionSingularity when a and b share a coordinate, their cross_gap below COLLISION_TOL
    or NaN; two (m, n) stacks are checked per row, the first failing row k named `at {row} k` and set
    as the error's `system`. Check both for finite positions first."""
    gaps = np.atleast_1d(cross_gap(a, b))
    k = int(np.argmin(gaps >= COLLISION_TOL))  # the first failing row, else row 0
    if not gaps[k] >= COLLISION_TOL:
        system = k if np.ndim(a) > 1 else None
        message = f"{what} {gaps[k]:.3e} below {COLLISION_TOL:.1e}"
        raise CollisionSingularity(message + ("" if system is None else f" at {row} {k}"), system=system)


def check_flow_index(k: int) -> None:
    if k not in FLOW_INDICES:
        raise ValueError(f"flow index must be one of {FLOW_INDICES}, got {k}")


class _State:
    """Construction check: read-only float fields of one length, collision-free x."""

    def __post_init__(self):
        names = tuple(self.__dataclass_fields__)
        for name in names:
            object.__setattr__(self, name, _as_vector(getattr(self, name)))
        if len({len(getattr(self, name)) for name in names}) > 1:
            raise ValueError(f"{', '.join(names)} must have equal length")
        check_collision_free(self.x)

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class PhaseState(_State):
    """Positions and momenta of N particles on the line."""

    x: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class VelocityState(_State):
    """Positions plus the two hierarchy velocities dX/dt2 and dX/dt3."""

    x: np.ndarray
    v2: np.ndarray
    v3: np.ndarray


@dataclass(frozen=True)
class CouplingConvention:
    """Off-diagonal Lax coefficient; gamma**2 = 4 matches the Hamiltonians."""

    gamma: float = -2.0

    def __post_init__(self):
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")


DEFAULT_COUPLING = CouplingConvention()


def inverse_gaps(x: np.ndarray) -> np.ndarray:
    """Matrix 1/(x_i - x_j) with zero diagonal."""
    d = x[:, None] - x[None, :]
    d.flat[:: len(x) + 1] = np.inf
    return 1.0 / d


def inverse_square_sums(x: np.ndarray) -> np.ndarray:
    """Per-particle interaction sums sum_{j != i} 1/(x_i - x_j)^2."""
    return np.square(inverse_gaps(x)).sum(axis=1)


def hamiltonian(k: int, state: PhaseState, w: np.ndarray | None = None) -> float:
    """H_(t2) = sum p^2/2 - sum' 2/(x_i-x_j)^2, H_(t3) = sum p^3/3 - sum' 4 p_i/(x_i-x_j)^2;
    w = inverse_square_sums(state.x) when not given."""
    check_flow_index(k)
    w = inverse_square_sums(state.x) if w is None else w
    if k == 2:
        return float(0.5 * np.sum(state.p**2) - 2.0 * np.sum(w))
    return float(np.sum(state.p**3) / 3.0 - 4.0 * np.sum(state.p * w))


def weighted_gradient(d2: float, d3: float, x: np.ndarray, p: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k d_k dH_(tk)/dx, sum_k d_k dH_(tk)/dp), inv = inverse_gaps(x), skipping zero weights. Members
    share r3 = sum_j inv_ij^3 (sum_j (p_i + p_j) inv_ij^3 = p_i r3_i + (inv^3 @ p)_i); 8 scales exactly."""
    inv2 = inv * inv
    inv3 = inv2 * inv
    r3 = inv3.sum(axis=1)
    gx, gp = (d2 * r3, d2 * p) if d2 else (0.0, 0.0)
    if d3:
        gx = gx + d3 * (p * r3 + inv3 @ p)
        gp = gp + d3 * (p * p - 4.0 * inv2.sum(axis=1))
    return 8.0 * gx, gp


def hamiltonian_grad(k: int, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dH/dx, dH/dp) for either flow."""
    check_flow_index(k)
    return weighted_gradient(*FLOW_DIRECTIONS[k], state.x, state.p, inverse_gaps(state.x))


def lagrangian(k: int, state: VelocityState) -> float:
    """L_(t2) = sum v2^2/2 + sum' 2/(x_i-x_j)^2,
    L_(t3) = sum (v2 v3 + v2^3/4) - sum' 3 v2_i/(x_i-x_j)^2."""
    check_flow_index(k)
    w = inverse_square_sums(state.x)
    if k == 2:
        return float(0.5 * np.sum(state.v2**2) + 2.0 * np.sum(w))
    return float(np.sum(state.v2 * state.v3 + 0.25 * state.v2**3) - 3.0 * np.sum(state.v2 * w))


def constraint_residual(state: VelocityState) -> np.ndarray:
    """Per-particle residual of the transversal constraint tying v3 to v2:
    v2^2/4 + v3/3 - sum_{j != i} 1/(x_i - x_j)^2."""
    return 0.25 * state.v2**2 + state.v3 / 3.0 - inverse_square_sums(state.x)


def constraint_velocity(x: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The v3 value that zeroes constraint_residual at given (x, v2)."""
    return 3.0 * inverse_square_sums(x) - 0.75 * v2**2


def legendre_check(k: int, state: VelocityState) -> float:
    """H_(tk)(x, P=v2) - (sum P_i v_k,i - L_(tk)).

    Vanishes identically for k=2. For k=3 the value is generally nonzero with
    the momentum identification P=v2; it is reported as a diagnostic.
    """
    phase = PhaseState(state.x, state.v2)
    vk = state.v2 if k == 2 else state.v3
    return hamiltonian(k, phase) - (float(np.sum(state.v2 * vk)) - lagrangian(k, state))


def build_lax_pair(state: PhaseState, conv: CouplingConvention = DEFAULT_COUPLING) -> tuple[np.ndarray, np.ndarray]:
    """Lax pair for the t2 flow.

    L has the momenta on the diagonal and gamma/(x_i - x_j) off it. M carries
    gamma/(x_i - x_j)^2 off-diagonal and minus the row interaction sum on the
    diagonal, which makes every row of M sum to zero and zeroes the Lax
    residual pointwise.
    """
    inv = inverse_gaps(state.x)
    L = conv.gamma * inv
    np.fill_diagonal(L, state.p)
    inv2 = inv * inv
    M = conv.gamma * inv2
    np.fill_diagonal(M, -conv.gamma * inv2.sum(axis=1))
    return L, M


def trace_powers(L: np.ndarray, kmax: int) -> np.ndarray:
    """Tr(L^l) for l = 1..kmax, as Tr(L^a L^b) = sum(L^a * (L^b)^T) with
    a = ceil(l/2) and b = floor(l/2), so only powers up to ceil(kmax/2) are
    formed: one matrix product for kmax = 3."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    powers = [L]
    while len(powers) < (kmax + 1) // 2:
        powers.append(powers[-1] @ L)
    out = np.empty(kmax)
    out[0] = np.trace(L)
    for l in range(2, kmax + 1):
        out[l - 1] = np.sum(powers[l - l // 2 - 1] * powers[l // 2 - 1].T)
    return out


def invariants(state: PhaseState, conv: CouplingConvention = DEFAULT_COUPLING, kmax: int = 3) -> np.ndarray:
    """Trace invariants I_l = Tr(L^l)/l for l = 1..kmax.

    With gamma = -2, I_2 and I_3 coincide with the two Hamiltonians.
    """
    L, _ = build_lax_pair(state, conv)
    return trace_powers(L, kmax) / np.arange(1, kmax + 1)


def lax_residual(state: PhaseState, conv: CouplingConvention = DEFAULT_COUPLING) -> float:
    """Max-norm of dL/dt2 + [L, M] along the t2 flow; zero in exact arithmetic."""
    L, M = build_lax_pair(state, conv)
    inv = inverse_gaps(state.x)
    dx_h, xdot = weighted_gradient(1.0, 0.0, state.x, state.p, inv)
    dL = -conv.gamma * (xdot[:, None] - xdot[None, :]) * (inv * inv)
    np.fill_diagonal(dL, -dx_h)
    return float(np.max(np.abs(dL + (L @ M - M @ L))))
