"""Semi-discrete Calogero-Moser dynamics: discrete shifts evolving in tau.

A chain holds consecutive shift images y(0)..y(K) of one configuration. The
tau-velocities are not free data: each lattice edge imposes one linear
constraint per particle on the velocity of each of its endpoints, so interior
sites are determined twice. The agreement of the two determinations is the
semi-discrete compatibility claim and is tracked as a diagnostic while the
chain is integrated.

Validation rule: one site check, _check_sites, runs when a Chain is built and
on every step the march accepts. A Chain may stack chains over leading axes,
so an evolution is one Chain of shape (steps + 1, K+1, N); RK4 stages are
plain arithmetic on the stacked (K+1, N) sites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discrete import LatticeParams, discrete_lagrangian
from .errors import SingularMatrix, located
from .hierarchy import check_collision_free, check_cross_gap, inverse_gaps
from .numerics import linear_solve, rk4_march, row_blocks


def _check_sites(y: np.ndarray) -> None:
    """Raise CollisionSingularity on a non-finite position or a gap below COLLISION_TOL in the sites y
    (..., K+1, N), `at site k`, or on a coordinate adjacent sites share, `at edge k`; row blocks bound memory."""
    sites = np.moveaxis(y.reshape(-1, *y.shape[-2:]), 0, 1)
    for rows in row_blocks(sites.shape[1], y.shape[-2] * y.shape[-1] ** 2):
        check_collision_free(sites[:, rows], "site")
        check_cross_gap(sites[:-1, rows], sites[1:, rows], "gap between adjacent chain sites", "edge")


@dataclass(frozen=True)
class Chain:
    """Ordered shift images y(0)..y(K) at a common time tau, or a stack of such chains over leading
    axes: sites of shape (..., K+1, N) and tau of shape (...). The read-only sites are checked once,
    when the chain is built."""

    sites: np.ndarray
    tau: np.ndarray = 0.0

    def __post_init__(self):
        y = np.array(self.sites, dtype=float)  # ragged sites raise ValueError
        tau = np.array(self.tau, dtype=float)
        if y.ndim < 2 or y.shape[-2] < 2:
            raise ValueError("a chain needs at least two sites")
        if tau.shape != y.shape[:-2]:
            raise ValueError(f"tau of shape {tau.shape} does not match sites of shape {y.shape}")
        _check_sites(y)
        for name, arr in (("sites", y), ("tau", tau)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def length(self) -> int:
        return self.sites.shape[-2] - 1

    @property
    def n(self) -> int:
        return self.sites.shape[-1]


@dataclass(frozen=True)
class ChainVelocities:
    """Tau-velocities of a chain over its leading axes; edge k joins sites k and k+1."""

    velocities: np.ndarray      # (..., K+1, N); averaged on interior sites
    from_prev_edge: np.ndarray  # (..., K, N); site k+1 from edge (k, k+1)
    from_next_edge: np.ndarray  # (..., K, N); site k from edge (k, k+1)
    max_discrepancy: np.ndarray  # (...); worst interior disagreement, max-norm


def _site_velocities(y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-constraint velocities of the stacked sites y (..., K+1, N) of a chain or a stack of chains.

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


def tau_velocities(chain: Chain) -> ChainVelocities:
    """Solve the edge constraints for every site velocity of the chain, over its leading axes, in
    stacked solves of at most numerics.STACK_ENTRIES matrix entries; interior sites get the average
    of both edges' values, and their worst disagreement is kept."""
    y = chain.sites.reshape(-1, chain.length + 1, chain.n)
    blocks = [_site_velocities(y[rows]) for rows in row_blocks(len(y), 2 * chain.length * chain.n**2)]
    v, fp, fn = (np.concatenate(part).reshape(*chain.tau.shape, *part[0].shape[1:]) for part in zip(*blocks))
    return ChainVelocities(v, fp, fn, np.abs(fp[..., :-1, :] - fn[..., 1:, :]).max(axis=(-2, -1), initial=0.0))


def evolve_chain(chain: Chain, d_tau: float, steps: int) -> Chain:
    """The chain at the start and after each of `steps` RK4 steps of d_tau on its stacked sites: one
    Chain of shape (steps + 1, K+1, N), whose tau is the running sum of the steps. Each accepted step
    is checked in flight, and a failure names the tau of its step or stage."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if chain.tau.ndim:
        raise ValueError("evolve_chain marches one chain, not a stack")

    def field(stage_tau: float, y: np.ndarray) -> np.ndarray:
        with located(tau=stage_tau):
            return _site_velocities(y)[0]

    def check(tau: float, y: np.ndarray, _before: np.ndarray) -> None:
        with located(tau=tau):
            _check_sites(y)

    taus = np.add.accumulate(np.r_[chain.tau, np.full(steps, d_tau)])
    return Chain(rk4_march(field, chain.sites, taus, d_tau, check), taus)


def semi_eom_residual(sites: np.ndarray, forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
    """Equation of motion along tau at each interior site k of the sites (..., K+1, N), shape
    (..., K-1, N): sum_l [v(k+1)_l/(y(k)_m - y(k+1)_l)^2 - v(k-1)_l/(y(k)_m - y(k-1)_l)^2]. Edge j,
    joining sites j and j+1, gives the velocity forward[..., j, :] of site j+1 and backward[..., j, :]
    of site j, both (..., K, N).

    Fed tau_velocities' from_prev_edge and from_next_edge, each term is the left side of the system
    its velocity was solved from, so the residual holds by construction and measures linear_solve's
    backward error: 4.4e-16 on an N = K = 8 chain that is no orbit (edge discrepancy 0.052), where
    the averaged site velocities give 0.46.
    """
    mid = sites[..., 1:-1, :, None]
    up = 1.0 / (mid - sites[..., 2:, None, :]) ** 2
    down = 1.0 / (mid - sites[..., :-2, None, :]) ** 2
    return (up @ forward[..., 1:, :, None] - down @ backward[..., :-1, :, None])[..., 0]


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


def semi_closure_values(chain: Chain, params: LatticeParams) -> tuple[float, float]:
    """Semi-discrete closure residual at the middle snapshot of an evolved chain (T, K+1, N), both
    discrete Lagrangian sign conventions: d/dtau L_(1) - (T_1 L_tau - L_tau), with L_tau on the
    first two edges and edge-matched shift velocities. The middle snapshot of a two-step evolution
    sits at tau = d_tau, so the value moves with d_tau at first order; on a weakly interacting
    chain such as verify's, its change under halving d_tau is rounding noise."""
    if chain.tau.ndim != 1 or len(chain.tau) < 3:
        raise ValueError("need at least 3 snapshots for central differencing")
    if chain.length < 2:
        raise ValueError("chains must have at least two edges (K >= 2)")
    mid = len(chain.tau) // 2
    d_tau_back, d_tau_fwd = np.diff(chain.tau[mid - 1:mid + 2])
    if not np.isclose(d_tau_back, d_tau_fwd):
        raise ValueError("snapshots must be uniformly spaced in tau")
    before, middle, after = chain.sites[mid - 1:mid + 2]
    dlag = (discrete_lagrangian(after[0], after[1], params.p1)
            - discrete_lagrangian(before[0], before[1], params.p1)) / (d_tau_back + d_tau_fwd)
    shifted = tau_velocities(chain).from_prev_edge[mid]
    first, second = (semi_lagrangian(middle[k], middle[k + 1], shifted[k]) for k in (0, 1))
    return dlag - (second - first), -dlag - (second - first)
