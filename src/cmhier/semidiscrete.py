"""Semi-discrete Calogero-Moser dynamics: discrete shifts evolving in tau.

A chain holds consecutive shift images y(0)..y(K) of one configuration. The
tau-velocities are not free data: each lattice edge imposes one linear
constraint per particle on the velocity of each of its endpoints, so interior
sites are determined twice. The agreement of the two determinations is the
semi-discrete compatibility claim and is tracked as a diagnostic while the
chain is integrated.

Validation rule: a Chain checks its sites once, when it is built. RK4 stages
are plain arithmetic on the stacked (K+1, N) sites; only accepted steps
become Chains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import LatticeParams, discrete_lagrangian
from .errors import SingularMatrix, located
from .hierarchy import check_collision_free, check_cross_gap, inverse_gaps
from .numerics import linear_solve, rk4_step

# matrix entries (64 KiB) of one stacked velocity solve over many chains, so
# that memory does not grow with the number of chains
STACK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class Chain:
    """Ordered shift images y(0)..y(K) at a common time tau."""

    sites: tuple
    tau: float = 0.0

    def __post_init__(self):
        sites = [np.asarray(s, dtype=float) for s in self.sites]
        if len(sites) < 2:
            raise ValueError("a chain needs at least two sites")
        n = len(sites[0])
        if any(len(s) != n for s in sites):
            raise ValueError("all chain sites must have the same particle count")
        y = np.stack(sites)
        check_collision_free(y, "site")
        check_cross_gap(y[:-1], y[1:], "gap between adjacent chain sites", "edge")
        object.__setattr__(self, "sites", tuple(y))

    @property
    def length(self) -> int:
        return len(self.sites) - 1

    @property
    def n(self) -> int:
        return len(self.sites[0])


@dataclass(frozen=True)
class ChainVelocities:
    """Per-site tau-velocities with both edge determinations kept."""

    velocities: tuple           # averaged on interior sites
    from_prev_edge: tuple       # constraint on edge (k-1, k); None at site 0
    from_next_edge: tuple       # constraint on edge (k, k+1); None at site K
    max_discrepancy: float      # worst interior disagreement, max-norm


def _site_velocities(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-constraint velocities of the stacked sites y, shape (K+1, N), or
    of a stack of such chains, shape (S, K+1, N).

    On edge (a, b) = (y(k), y(k+1)) the velocity v of b solves
    sum_l v_l / (a_m - b_l)^2 = -1 per m (the forward system), and the
    velocity of a solves the transposed system (the backward one). All 2K
    systems of every chain are solved in one stacked call. Returns the site
    velocities, averaged on interior sites, and the forward and backward
    solutions.
    """
    k_len, n = y.shape[-2] - 1, y.shape[-1]
    forward = 1.0 / (y[..., :-1, :, None] - y[..., 1:, None, :]) ** 2
    systems = np.concatenate((forward, forward.swapaxes(-1, -2)), axis=-3)
    try:
        solved = linear_solve(systems.reshape(-1, n, n), -np.ones((systems.size // n**2, n)))
    except SingularMatrix as exc:
        edge = exc.system % (2 * k_len)
        side = "forward" if edge < k_len else "backward"
        raise SingularMatrix(f"edge {edge % k_len} {side} velocity: {exc}", system=exc.system) from exc
    solved = solved.reshape(systems.shape[:-1])
    from_prev, from_next = solved[..., :k_len, :], solved[..., k_len:, :]
    velocities = np.concatenate((from_next[..., :1, :], 0.5 * (from_prev[..., :-1, :] + from_next[..., 1:, :]),
                                 from_prev[..., -1:, :]), axis=-2)
    return velocities, from_prev, from_next


def tau_velocities(chain):
    """Solve the edge constraints for every site velocity; interior sites get
    the average of both edges' values, and their worst disagreement is kept.
    A sequence of chains of one shape gives an iterator with one
    ChainVelocities per chain, from stacked solves of at most STACK_ENTRIES
    matrix entries."""
    y = np.array([c.sites for c in ([chain] if isinstance(chain, Chain) else chain)])
    per_solve = max(1, STACK_ENTRIES // (2 * (y.shape[1] - 1) * y.shape[2] ** 2))
    found = (
        ChainVelocities(tuple(v), (None, *fp), (*fn, None), float(np.max(np.abs(fp[:-1] - fn[1:]), initial=0)))
        for start in range(0, len(y), per_solve)
        for v, fp, fn in zip(*_site_velocities(y[start:start + per_solve]))
    )
    return next(found) if isinstance(chain, Chain) else found


def evolve_chain(chain: Chain, d_tau: float, steps: int) -> list[Chain]:
    """RK4 on the stacked (K+1, N) site array; returns all snapshots incl. start."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")

    def field(stage_tau: float, y: np.ndarray) -> np.ndarray:
        with located(tau=stage_tau):
            return _site_velocities(y)[0]

    y = np.stack(chain.sites)
    tau = chain.tau
    out = [chain]
    with np.errstate(all="ignore"):  # a non-finite stage fails its edge solve instead
        for _ in range(steps):
            y = rk4_step(field, tau, y, d_tau)
            tau = tau + d_tau
            with located(tau=tau):
                out.append(Chain(tuple(y), tau))
    return out


def semi_eom_residual(chain: Chain, velocities) -> np.ndarray:
    """Equation of motion along tau at each interior site, shape (K-1, N):
    sum_l [v(k+1)_l/(y(k)_m - y(k+1)_l)^2 - v(k-1)_l/(y(k)_m - y(k-1)_l)^2].

    Accepts either a ChainVelocities (the edge-appropriate determinations are
    used, making the residual vanish by construction) or a plain sequence of
    per-site velocity vectors.
    """
    if isinstance(velocities, ChainVelocities):
        # site k+1 as seen from edge (k, k+1), site k-1 as seen from edge (k-1, k)
        v_next, v_prev = velocities.from_prev_edge, velocities.from_next_edge
    else:
        v_next = v_prev = [np.asarray(v, dtype=float) for v in velocities]

    rows = []
    for k in range(1, chain.length):
        y = chain.sites[k]
        up = 1.0 / (y[:, None] - chain.sites[k + 1][None, :]) ** 2
        down = 1.0 / (y[:, None] - chain.sites[k - 1][None, :]) ** 2
        rows.append(up @ v_next[k + 1] - down @ v_prev[k - 1])
    return np.array(rows)


def semi_lagrangian(x: np.ndarray, tx: np.ndarray, v_tx: np.ndarray) -> float:
    """Edge Lagrangian mixing the shift and its tau-velocity:
    -sum_{m,l} v_l/(x_m - tx_l) - (1/2) sum' (v_m - v_l)/(tx_m - tx_l)
    + sum (x_m - tx_m + v_m)."""
    x = np.asarray(x, dtype=float)
    tx = np.asarray(tx, dtype=float)
    v = np.asarray(v_tx, dtype=float)
    check_collision_free(tx)
    check_cross_gap(x, tx, "coinciding coordinates between site and shift: cross gap")
    total = -float(np.sum(v[None, :] / (x[:, None] - tx[None, :])))
    total -= 0.5 * float(np.sum((v[:, None] - v[None, :]) * inverse_gaps(tx)))
    return total + float(np.sum(x - tx + v))


def _chain_semi_lagrangians(chain: Chain) -> tuple[float, float]:
    """L_tau on the first two edges with edge-matched shift velocities."""
    vel = tau_velocities(chain)
    first = semi_lagrangian(chain.sites[0], chain.sites[1], vel.from_prev_edge[1])
    second = semi_lagrangian(chain.sites[1], chain.sites[2], vel.from_prev_edge[2])
    return first, second


def semi_closure_values(snapshots: list[Chain], params: LatticeParams, direction: int = 1) -> tuple[float, float]:
    """Semi-discrete closure residual at the middle snapshot, both discrete
    Lagrangian sign conventions: d/dtau L_(k) - (T_k L_tau - L_tau)."""
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots for central differencing")
    if any(ch.length < 2 for ch in snapshots):
        raise ValueError("chains must have at least two edges (K >= 2)")
    mid = len(snapshots) // 2
    before, middle, after = snapshots[mid - 1], snapshots[mid], snapshots[mid + 1]
    d_tau_back = middle.tau - before.tau
    d_tau_fwd = after.tau - middle.tau
    if not np.isclose(d_tau_back, d_tau_fwd):
        raise ValueError("snapshots must be uniformly spaced in tau")
    p_k = params.p1 if direction == 1 else params.p2
    dlag = (
        discrete_lagrangian(after.sites[0], after.sites[1], p_k)
        - discrete_lagrangian(before.sites[0], before.sites[1], p_k)
    ) / (d_tau_back + d_tau_fwd)
    first, second = _chain_semi_lagrangians(middle)
    shift_difference = second - first
    return dlag - shift_difference, -dlag - shift_difference


def semi_closure_residual(snapshots: list[Chain], params: LatticeParams, direction: int = 1) -> float:
    """Smaller-magnitude semi-discrete closure residual of the two conventions."""
    printed, negated = semi_closure_values(snapshots, params, direction)
    return min(abs(printed), abs(negated))
