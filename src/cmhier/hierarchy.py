"""Continuous-time rational Calogero-Moser hierarchy.

Implements the first two members (flows labelled k=2 and k=3): Lagrangians,
Hamiltonians with analytic gradients, the velocity constraint linking the two
flows, Legendre-transform checks, and the Lax pair with its trace invariants.

The off-diagonal Lax coefficient is the constant GAMMA = -2: (1/2)Tr L^2 and
(1/3)Tr L^3 reproduce the two Hamiltonians only when GAMMA^2 = 4
(Olshanetsky-Perelomov, Phys. Rep. 71 (1981)), and its sign is a convention.

Validation rule: a PhaseState checks its positions once, when it is built,
and keeps read-only copies of its arrays, so it stays collision-free while it
exists. Functions that take one do not check it again, and the array kernels,
the Lagrangians and the Legendre check among them, check nothing.

Pair matrices are multiplied, never raised with `**`: numpy computes inv**3
through libm `pow`, 40 times slower than inv * inv * inv at N = 64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionSingularity

COLLISION_TOL = 1e-12

# numpy adds fewer than this many terms along an axis one after another, in index order, and more
# than that pairwise in unrolled blocks; a Python loop repeats the first rounding, not the second
ORDERED_SUM_N = 8

GAMMA = -2.0  # the off-diagonal Lax coefficient; see the module docstring

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
        if np.isfinite(s).all() and (s[..., 1:] - s[..., :-1]).min(initial=np.inf) >= COLLISION_TOL:
            return  # the common case, without per-row bookkeeping
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
    """Raise CollisionSingularity when a and b share a coordinate, their cross_gap below COLLISION_TOL or NaN;
    two stacks (m, ..., n) are checked per row along axis 0, the first failing row k named `at {row} k` and
    set as the error's `system`. Check both for finite positions first."""
    gaps = np.atleast_1d(cross_gap(a, b))
    gaps = gaps.reshape(len(gaps), -1).min(axis=1)
    k = int(np.argmin(gaps >= COLLISION_TOL))  # the first failing row, else row 0
    if not gaps[k] >= COLLISION_TOL:
        system = k if np.ndim(a) > 1 else None
        message = f"{what} {gaps[k]:.3e} below {COLLISION_TOL:.1e}"
        raise CollisionSingularity(message + ("" if system is None else f" at {row} {k}"), system=system)


def check_flow_index(k: int) -> None:
    if k not in FLOW_INDICES:
        raise ValueError(f"flow index must be one of {FLOW_INDICES}, got {k}")


@dataclass(frozen=True)
class PhaseState:
    """Positions and momenta of N particles on the line: read-only float copies of one length, collision-free x."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _as_vector(self.x))
        object.__setattr__(self, "p", _as_vector(self.p))
        if len(self.x) != len(self.p):
            raise ValueError("x, p must have equal length")
        check_collision_free(self.x)

    @property
    def n(self) -> int:
        return len(self.x)


def _set_diagonal(a: np.ndarray, values: np.ndarray) -> None:
    """Write values (..., N) onto the diagonals of the fresh stack a (..., N, N), as inverse_gaps does."""
    a.reshape(-1, a.shape[-1] ** 2)[:, :: a.shape[-1] + 1] = np.reshape(values, (-1, a.shape[-1]))


def inverse_gaps(x: np.ndarray) -> np.ndarray:
    """Matrix 1/(x_i - x_j) with zero diagonal, over leading axes: (..., N) to (..., N, N)."""
    n = x.shape[-1]
    d = x[..., :, None] - x[..., None, :]
    d.reshape(-1, n * n)[:, :: n + 1] = np.inf
    return 1.0 / d


def inverse_square_sums(x: np.ndarray) -> np.ndarray:
    """Per-particle interaction sums sum_{j != i} 1/(x_i - x_j)^2, over leading axes."""
    return np.square(inverse_gaps(x)).sum(axis=-1)


def weighted_hamiltonian(d2: float, d3: float, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d2 H_(t2) + d3 H_(t3) over leading axes, (..., N) to (...), skipping zero weights;
    H_(t2) = sum p^2/2 - sum' 2/(x_i-x_j)^2, H_(t3) = sum p^3/3 - sum' 4 p_i/(x_i-x_j)^2."""
    w = inverse_square_sums(x)
    h = d2 * (0.5 * np.sum(p**2, axis=-1) - 2.0 * np.sum(w, axis=-1)) if d2 else 0.0
    if d3:
        h = h + d3 * (np.sum(p**3, axis=-1) / 3.0 - 4.0 * np.sum(p * w, axis=-1))
    return h


def weighted_gradient(d2: float, d3: float, x: np.ndarray, p: np.ndarray, inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum_k d_k dH_(tk)/dx, sum_k d_k dH_(tk)/dp) over leading axes, inv = inverse_gaps(x), skipping zero
    weights. Members share r3 = sum_j inv_ij^3 (sum_j (p_i + p_j) inv_ij^3 = p_i r3_i + (inv^3 p)_i);
    8 scales exactly. Below ORDERED_SUM_N particles every row sum, (inv^3 p)_i too, adds its terms in
    order, so the plain-float march of flows repeats the bits; from there inv^3 p is a matrix product."""
    inv2 = inv * inv
    inv3 = inv2 * inv
    r3 = inv3.sum(axis=-1)
    gx, gp = (d2 * r3, d2 * p) if d2 else (0.0, 0.0)
    if d3:
        if x.shape[-1] < ORDERED_SUM_N:
            coupled = (inv3 * p[..., None, :]).sum(axis=-1)
        else:
            coupled = (inv3 @ p[..., None])[..., 0]
        gx = gx + d3 * (p * r3 + coupled)
        gp = gp + d3 * (p * p - 4.0 * inv2.sum(axis=-1))
    return 8.0 * gx, gp


def hamiltonian_grad(k: int, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dH/dx, dH/dp) for either flow."""
    check_flow_index(k)
    return weighted_gradient(*FLOW_DIRECTIONS[k], state.x, state.p, inverse_gaps(state.x))


def lagrangian(k: int, x: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """L_(tk) over leading axes, (..., N) to (...); L_(t2) = sum v2^2/2 + sum' 2/(x_i-x_j)^2,
    L_(t3) = sum (v2 v3 + v2^3/4) - sum' 3 v2_i/(x_i-x_j)^2."""
    check_flow_index(k)
    w = inverse_square_sums(x)
    if k == 2:
        return 0.5 * np.sum(v2**2, axis=-1) + 2.0 * np.sum(w, axis=-1)
    return np.sum(v2 * v3 + 0.25 * v2**3, axis=-1) - 3.0 * np.sum(v2 * w, axis=-1)


def constraint_velocity(x: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """The v3 that zeroes the transversal constraint tying v3 to v2 at given (x, v2),
    per particle v2^2/4 + v3/3 - sum_{j != i} 1/(x_i - x_j)^2."""
    return 3.0 * inverse_square_sums(x) - 0.75 * v2**2


def legendre_check(k: int, x: np.ndarray, v2: np.ndarray, v3: np.ndarray) -> np.ndarray:
    """H_(tk)(x, P=v2) - (sum P_i v_k,i - L_(tk)) over leading axes, (..., N) to (...).

    Vanishes identically for k=2. For k=3 the value is generally nonzero with
    the momentum identification P=v2; it is reported as a diagnostic.
    """
    check_flow_index(k)
    vk = v2 if k == 2 else v3
    return weighted_hamiltonian(*FLOW_DIRECTIONS[k], x, v2) - (np.sum(v2 * vk, axis=-1) - lagrangian(k, x, v2, v3))


def lax_matrix(p: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The L of lax_pair from the momenta and inv = inverse_gaps(x), over leading axes, (..., N) and
    (..., N, N) to (..., N, N): p on the diagonal and GAMMA/(x_i - x_j) off it."""
    L = GAMMA * inv
    _set_diagonal(L, p)
    return L


def _lax_m(inv2: np.ndarray) -> np.ndarray:
    """The M of lax_pair from inv2 = inverse_gaps(x)^2."""
    M = GAMMA * inv2
    _set_diagonal(M, -GAMMA * inv2.sum(axis=-1))
    return M


def lax_pair(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lax pair for the t2 flow, over leading axes: (..., N) to two (..., N, N).

    L has the momenta on the diagonal and GAMMA/(x_i - x_j) off it. M carries
    GAMMA/(x_i - x_j)^2 off-diagonal and minus the row interaction sum on the
    diagonal, which makes every row of M sum to zero and zeroes the Lax
    residual pointwise.
    """
    inv = inverse_gaps(x)
    return lax_matrix(p, inv), _lax_m(inv * inv)


def build_lax_pair(state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """The Lax pair of one state."""
    return lax_pair(state.x, state.p)


def trace_powers(L: np.ndarray) -> np.ndarray:
    """(Tr L, Tr L^2, Tr L^3) over leading axes, (..., N, N) to (..., 3), as
    Tr(L^a L^b) = sum(L^a * (L^b)^T): one matrix product."""
    Lt = L.swapaxes(-1, -2)
    traces = (np.trace(L, axis1=-2, axis2=-1), np.sum(L * Lt, axis=(-2, -1)), np.sum((L @ L) * Lt, axis=(-2, -1)))
    return np.stack(traces, axis=-1)


def lax_invariants(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Trace invariants I_l = Tr(L^l)/l for l = 1, 2, 3 over leading axes, (..., N) to (..., 3);
    I_2 and I_3 are the two Hamiltonians."""
    return trace_powers(lax_matrix(p, inverse_gaps(x))) / np.arange(1, 4)


def lax_residual(x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Max-norm of dL/dt2 + [L, M] along the t2 flow over leading axes, (..., N) to (...); zero in exact
    arithmetic."""
    inv = inverse_gaps(x)
    inv2 = inv * inv
    L, M = lax_matrix(p, inv), _lax_m(inv2)
    dx_h, xdot = weighted_gradient(1.0, 0.0, x, p, inv)
    dL = -GAMMA * (xdot[..., :, None] - xdot[..., None, :]) * inv2
    _set_diagonal(dL, -dx_h)
    return np.max(np.abs(dL + (L @ M - M @ L)), axis=(-2, -1))
