"""Fully discrete Calogero-Moser dynamics on a 2-D lattice.

One lattice direction advances by the implicit three-point equation of
motion; the second direction is reached through the four corner constraints
that couple neighbouring sites with lattice parameters p1, p2. On top of the
stepping live the verification quantities: the two-point Lagrangian, the
momentum routes, the plaquette closure and log-det identities, the discrete
Lax pair with its trace invariants, and the discrete Hamilton equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionSingularity, LogSingularity, NumericsError, SingularMatrix, located
from .hierarchy import (
    COLLISION_TOL, check_collision_free, check_cross_gap, cross_gap, inverse_gaps, min_gap, trace_powers)
from .numerics import DEFAULT_NEWTON, NewtonSettings, newton_solve

# (sgn, sign of p1 - p2, weight of the pair sums) of each corner variant; see _corner_system
_CORNER_TERMS = {
    "a": (-1.0, -1.0, 0.0),  # known T1 x, solve T2 x
    "b": (-1.0, 1.0, 0.0),   # known T1^-1 x, solve T2^-1 x
    "c": (1.0, 1.0, 2.0),    # known T1^-1 x, solve T2 x
    "d": (1.0, -1.0, 2.0),   # known T2^-1 x, solve T1 x
    "eom": (1.0, 0.0, 2.0),  # private, the equation of motion: known T1^-1 x, solve T1 x
}
CORNER_VARIANTS = tuple(_CORNER_TERMS)[:4]


@dataclass(frozen=True)
class LatticeParams:
    """Lattice parameters of the two discrete directions plus solver controls."""

    p1: float
    p2: float
    n: int
    newton: NewtonSettings = field(default_factory=lambda: DEFAULT_NEWTON)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("particle count must be at least 1")


@dataclass(frozen=True)
class Plaquette:
    """Elementary lattice square: site, both single shifts, double shift."""

    x00: np.ndarray
    x10: np.ndarray
    x01: np.ndarray
    x11: np.ndarray

    def __post_init__(self):
        names = ("x00", "x10", "x01", "x11")
        corners = np.array([getattr(self, name) for name in names], dtype=float)
        check_collision_free(corners, "corner")
        # edges 0-3: x00-x10, x00-x01, x10-x11 and x01-x11
        what = "coinciding coordinates across plaquette corners: cross gap"
        check_cross_gap(corners[[0, 0, 1, 2]], corners[[1, 2, 3, 3]], what, "edge")
        for name, corner in zip(names, corners):
            object.__setattr__(self, name, corner)


@dataclass(frozen=True)
class LatticeSheet:
    """Map from lattice sites (n1, n2) to particle configurations."""

    sites: dict
    params: LatticeParams


def _cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix 1/(x_m - y_l), or a stack of them; infinite entries flagged by the caller's checks."""
    return 1.0 / (x[..., :, None] - y[..., None, :])


def _pair_sums(x: np.ndarray) -> np.ndarray:
    """Per-particle sums sum_{l != m} 1/(x_m - x_l)."""
    return inverse_gaps(x).sum(axis=1)


def _keeps_order(x: np.ndarray, tx: np.ndarray) -> bool:
    """Whether tx keeps the particle order of x: tx sorted by the argsort of x increases."""
    return np.diff(tx[np.argsort(x)]).min(initial=np.inf) > 0


def _eom_system(x_prev, x_cur):
    """The equation of motion, sum_l [1/(x_m - x_next_l) + 1/(x_m - x_prev_l)]
    - sum_{l != m} 2/(x_m - x_l) = 0, as the corner system "eom" at x_cur."""
    x_prev, x_cur = np.asarray(x_prev, dtype=float), np.asarray(x_cur, dtype=float)
    check_collision_free(x_prev)
    check_collision_free(x_cur)
    check_cross_gap(x_cur, x_prev)
    return _corner_system("eom", x_cur[None], x_prev[None], 0.0)


def discrete_el_residual(x_prev: np.ndarray, x_cur: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    """Three-point equation of motion, per particle (see _eom_system)."""
    x_cur, x_next = np.asarray(x_cur, dtype=float), np.asarray(x_next, dtype=float)
    residual = _eom_system(x_prev, x_cur)[0]
    check_collision_free(x_next)
    check_cross_gap(x_cur, x_next)
    return residual(x_next[None])[0]


def discrete_step(x_prev: np.ndarray, x_cur: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Advance one lattice step by Newton on the implicit equation of motion, from the
    uniform-motion guess 2 x_cur - x_prev. The exact orbit never reorders particles,
    so a solution that does crossed a collision and raises CollisionSingularity."""
    x_prev, x_cur = np.asarray(x_prev, dtype=float), np.asarray(x_cur, dtype=float)
    residual, jacobian, _, _ = _eom_system(x_prev, x_cur)
    x_next = newton_solve(residual, [2.0 * x_cur - x_prev], jacobian_fn=jacobian, settings=params.newton)[0]
    if not _keeps_order(x_cur, x_next):
        raise CollisionSingularity("particle order changed across the step")
    return x_next


def discrete_orbit(x_prev: np.ndarray, x_cur: np.ndarray, params: LatticeParams, count: int) -> list[np.ndarray]:
    """The seed pair extended by discrete_step to `count` sites; a NumericsError names the site
    it was solving for."""
    sites = [np.asarray(x_prev, dtype=float), np.asarray(x_cur, dtype=float)]
    while len(sites) < count:
        with located(site=len(sites)):
            sites.append(discrete_step(sites[-2], sites[-1], params))
    return sites


def _corner_system(variant, x: np.ndarray, known: np.ndarray, dp: float):
    """Residual of the printed corner constraint as const_m + sgn * sum_l 1/(x_m - u_l) for a
    stack: x and known of shape (m, n), one variant letter for all systems or one per system,
    and dp = p1 - p2."""
    letters = [variant] if isinstance(variant, str) else variant
    if not set(letters) <= set(_CORNER_TERMS):
        raise ValueError(f"variant must be one of {CORNER_VARIANTS}")
    sgn, d_sign, weight = np.array([_CORNER_TERMS[v] for v in letters]).T[:, :, None]
    pairs = np.array([_pair_sums(site) for site in x])
    const = _cross(x, known).sum(axis=-1) - weight * pairs + d_sign * dp

    def residual(u):
        return const + sgn * _cross(x, u).sum(axis=-1)

    def jacobian(u):
        return sgn[..., None] * _cross(x, u) ** 2

    return residual, jacobian, const, sgn


def _mean_field_guess(x: np.ndarray, const: np.ndarray, sgn: np.ndarray) -> np.ndarray:
    """Solve each particle's own pole with cross terms frozen, per system of a (m, n) stack,
    each until its next sweep is non-finite or moves it less than 1e-10; exact for N=1."""
    u = x + 1e-3
    active = np.ones(len(x), dtype=bool)
    # frozen systems are swept along with the rest, and their sweeps discarded
    with np.errstate(divide="ignore"):
        for _ in range(8):
            cross = _cross(x, u)
            cross.reshape(len(x), -1)[:, :: x.shape[1] + 1] = 0.0
            u_new = x - 1.0 / (-sgn * (const + sgn * cross.sum(axis=-1)))
            keep = active & np.isfinite(u_new).all(axis=1)
            active = keep & (np.abs(u_new - u).max(axis=1) >= 1e-10)
            u[keep] = u_new[keep]
            if not active.any():
                break
    return u


def corner_solve(variant, known1: np.ndarray, known2: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Solve the printed corner constraint for the missing neighbour.

    known1 is the corner site itself, known2 its already-known neighbour:
    variant a solves the second-direction shift from (x, T1 x), b the inverse
    shifts, c the second-direction shift from (x, T1^-1 x), d the
    first-direction shift from (x, T2^-1 x). Sites of shape (m, n) are m
    systems, with one letter for all or per system, solved by one stacked
    Newton iteration; a system that exhausts it gets a damped retry alone.
    """
    single = np.ndim(known1) == 1
    x, known = np.array(known1, dtype=float, ndmin=2), np.array(known2, dtype=float, ndmin=2)
    check_collision_free(np.stack([x, known], axis=1))
    check_cross_gap(x, known)
    residual, jacobian, const, sgn = _corner_system(variant, x, known, params.p1 - params.p2)
    retry = NewtonSettings(params.newton.tolerance, 4 * params.newton.max_iterations, damping=0.5)
    guess = _mean_field_guess(x, const, sgn)
    solved = newton_solve(residual, guess, jacobian_fn=jacobian, settings=params.newton, retry=retry)
    return solved[0] if single else solved


def corner_residual(variant, x: np.ndarray, known: np.ndarray, solved: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Left-minus-right of the printed corner constraint, per particle; for
    one system or a stack, as in corner_solve."""
    single = np.ndim(x) == 1
    x, known, solved = (np.array(a, dtype=float, ndmin=2) for a in (x, known, solved))
    residual, _, _, _ = _corner_system(variant, x, known, params.p1 - params.p2)
    return residual(solved)[0] if single else residual(solved)


def build_plaquette(x00: np.ndarray, x10: np.ndarray, params: LatticeParams) -> tuple[Plaquette, float]:
    """Complete a plaquette from its base edge and measure route consistency.

    x01 comes from variant (a) at x00; the double shift is solved twice,
    through variant (c) at x10 and variant (d) at x01, and the max-norm gap
    between the two routes is the consistency defect. Route 1 is stored.
    x01 and route 1 are solved together, then route 2.
    """
    x01, x11_route1 = corner_solve(("a", "c"), (x00, x10), (x10, x00), params)
    x11_route2 = corner_solve("d", x01, x00, params)
    defect = float(np.max(np.abs(x11_route1 - x11_route2)))
    return Plaquette(x00, x10, x01, x11_route1), defect


def _check_log_args(x: np.ndarray, tx: np.ndarray) -> None:
    if not cross_gap(x, tx) >= COLLISION_TOL:
        raise LogSingularity("vanishing cross-gap between a site and its shift")
    if not (min_gap(x) >= COLLISION_TOL and min_gap(tx) >= COLLISION_TOL):
        raise LogSingularity("vanishing within-site gap")
    if not _keeps_order(x, tx):
        raise LogSingularity("particle ordering changed across the step")


def discrete_lagrangian(x: np.ndarray, tx: np.ndarray, p: float) -> float:
    """Two-point lattice Lagrangian:
    sum log|x_m - tx_l| - (1/2) sum' [log|x_m - x_l| + log|tx_m - tx_l|]
    - p sum (x_m - tx_m)."""
    x, tx = np.asarray(x, dtype=float), np.asarray(tx, dtype=float)
    _check_log_args(x, tx)
    n = len(x)
    total = float(np.sum(np.log(np.abs(x[:, None] - tx[None, :]))))
    if n > 1:
        iu = np.triu_indices(n, 1)
        total -= float(
            np.sum(np.log(np.abs((x[:, None] - x[None, :])[iu])))
            + np.sum(np.log(np.abs((tx[:, None] - tx[None, :])[iu])))
        )
    return total - p * float(np.sum(x - tx))


MOMENTUM_ROUTES = ("outgoing-1", "outgoing-2", "incoming-1", "incoming-2")


def discrete_momentum(route: str, x: np.ndarray, neighbor: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Per-particle momentum by one of the four routes.

    The outgoing routes differentiate the Lagrangian of the edge leaving the
    site in lattice direction 1 or 2 (neighbor = T1 x or T2 x); the incoming
    routes use the edge arriving at the site (neighbor = T1^-1 x or T2^-1 x).
    On corner-consistent data the routes agree pairwise exactly as the corner
    constraints equate them.
    """
    if route not in MOMENTUM_ROUTES:
        raise ValueError(f"route must be one of {MOMENTUM_ROUTES}")
    x, neighbor = np.asarray(x, dtype=float), np.asarray(neighbor, dtype=float)
    check_collision_free(x)
    check_cross_gap(x, neighbor)
    sign = 1.0 if route.startswith("outgoing") else -1.0
    p = params.p1 if route.endswith("1") else params.p2
    return sign * (_cross(x, neighbor).sum(axis=1) - _pair_sums(x)) - p


def discrete_closure_sum(pl: Plaquette, params: LatticeParams) -> float:
    """Signed plaquette closure sum of the printed Lagrangian; the negated
    Lagrangian gives its negation, so both conventions share one magnitude."""
    return (
        discrete_lagrangian(pl.x00, pl.x01, params.p2)
        - discrete_lagrangian(pl.x00, pl.x10, params.p1)
        - discrete_lagrangian(pl.x10, pl.x11, params.p2)
        + discrete_lagrangian(pl.x01, pl.x11, params.p1)
    )


def discrete_closure_residual(pl: Plaquette, params: LatticeParams) -> float:
    """Magnitude of the plaquette closure sum, the same in either sign convention."""
    return abs(discrete_closure_sum(pl, params))


def center_of_mass_term(pl: Plaquette) -> float:
    """sum (x00 + x11 - x10 - x01); separates the closure sum from the
    log-det identity and vanishes on consistent plaquettes."""
    return float(np.sum(pl.x00 + pl.x11 - pl.x10 - pl.x01))


def _edge_logdet(a: np.ndarray, b: np.ndarray) -> float:
    m = -_cross(b, a)  # M_ij = -1/(b_i - a_j) for the edge a -> b
    sign, logdet = np.linalg.slogdet(m)
    if sign == 0 or not np.isfinite(logdet):
        raise SingularMatrix("edge matrix determinant underflow")
    return float(logdet)


def logdet_identity_residual(pl: Plaquette) -> float:
    """|ln|det M| combination around the plaquette|; the temporal Lax
    compatibility makes it vanish on consistent plaquettes."""
    return abs(
        _edge_logdet(pl.x01, pl.x11)
        + _edge_logdet(pl.x00, pl.x01)
        - _edge_logdet(pl.x10, pl.x11)
        - _edge_logdet(pl.x00, pl.x10)
    )


def edge_logdet_values(x: np.ndarray, tx: np.ndarray, p: float) -> tuple[float, float]:
    """Per-edge residual of the Lagrangian/log-det relation, both conventions.

    Returns (printed, negated) residuals of
    L = +/- (ln|det M| + p sum(x - tx)). The Cauchy-determinant expansion
    validates the negated convention exactly.
    """
    lag = discrete_lagrangian(x, tx, p)
    x, tx = np.asarray(x, dtype=float), np.asarray(tx, dtype=float)
    rhs = _edge_logdet(x, tx) + p * float(np.sum(x - tx))
    return lag - rhs, lag + rhs


def build_discrete_lax(x: np.ndarray, tx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Lax pair on the edge x -> tx.

    L = diag(p) - [1/(x_i - x_j)] with p_i = sum_j 1/(x_i - tx_j)
    - sum_{j != i} 1/(x_i - x_j); M = -[1/(tx_i - x_j)] in full.
    """
    x, tx = np.asarray(x, dtype=float), np.asarray(tx, dtype=float)
    check_collision_free(x)
    check_collision_free(tx)
    check_cross_gap(x, tx, "site and shifted site share a coordinate: cross gap")
    inv = inverse_gaps(x)
    L = -inv
    np.fill_diagonal(L, _cross(x, tx).sum(axis=1) - inv.sum(axis=1))
    M = -_cross(tx, x)
    return L, M


def discrete_lax_residual(x_prev: np.ndarray, x_cur: np.ndarray, x_next: np.ndarray) -> float:
    """Max-norm of (T L) M - M L across the edge pair of an orbit triple.

    L lives on the incoming edge (x_prev, x_cur), its shift on the outgoing
    edge (x_cur, x_next), and M connects x_prev to x_cur; the combination
    vanishes on solutions of the discrete equation of motion.
    """
    L, M = build_discrete_lax(x_prev, x_cur)
    TL, _ = build_discrete_lax(x_cur, x_next)
    return float(np.max(np.abs(TL @ M - M @ L)))


def discrete_invariants(x: np.ndarray, tx: np.ndarray, kmax: int) -> np.ndarray:
    """Traces of powers 1..kmax of the discrete L; conserved along orbits."""
    L, _ = build_discrete_lax(x, tx)
    return trace_powers(L, kmax)


def discrete_hamiltonian_diag(
    x: np.ndarray,
    tx: np.ndarray,
    params: LatticeParams,
    direction: int = 1,
    x_prev: np.ndarray | None = None,
) -> dict:
    """Discrete Legendre/Hamilton diagnostics on the edge x -> tx.

    The Legendre transform defines P_ml = 1/(x_m - tx_l) and
    rho_ml = -1/(tx_m - tx_l), so two of the three discrete Hamilton equations
    hold by definition and the edge Hamiltonian is minus the two-point
    Lagrangian. The position equation needs the incoming edge (x_prev) and is
    the three-point equation of motion; without x_prev it is None.
    """
    if direction not in (1, 2):
        raise ValueError("direction must be 1 or 2")
    p_lattice = params.p1 if direction == 1 else params.p2
    return {
        "lattice_parameter": p_lattice,
        "hamiltonian": -discrete_lagrangian(x, tx, p_lattice),
        "position_residual": None if x_prev is None else discrete_el_residual(x_prev, x, tx),
    }


def build_lattice_sheet(
    x00: np.ndarray, x10: np.ndarray, params: LatticeParams, n1: int, n2: int
) -> LatticeSheet:
    """Grow an (n1+1) x (n2+1) sheet from a base edge.

    Row 0 extends by the equation of motion in direction 1. Each next row
    depends on the row below alone: site (0, j+1) by variant (a) at (0, j),
    site (i, j+1) by variant (c) at (i, j), all in one stacked corner_solve.
    A NumericsError names the site it was solving for.
    """
    if n1 < 1 or n2 < 0:
        raise ValueError("need n1 >= 1 and n2 >= 0")
    sites = {(0, 0): np.asarray(x00, dtype=float), (1, 0): np.asarray(x10, dtype=float)}
    for i in range(1, n1):
        with located(site=(i + 1, 0)):
            sites[(i + 1, 0)] = discrete_step(sites[(i - 1, 0)], sites[(i, 0)], params)
    variants = ("a",) + ("c",) * n1
    for j in range(n2):
        row = [sites[(i, j)] for i in range(n1 + 1)]
        try:
            solved = corner_solve(variants, row, [row[1]] + row[:-1], params)
        except NumericsError as exc:
            # system i of the row's stack solves site (i, j + 1)
            with located(site=(exc.system, j + 1)):
                raise
        sites.update(((i, j + 1), site) for i, site in enumerate(solved))
    return LatticeSheet(sites, params)


def sheet_corner_residuals(sheet: LatticeSheet) -> float:
    """Max-norm over all four corner constraints at every interior site, one
    stacked residual per constraint; NaN if any residual is NaN."""
    sites = sheet.sites
    n1 = max(i for i, _ in sites)
    n2 = max(j for _, j in sites)
    interior = [(i, j) for i, j in sites if 0 < i < n1 and 0 < j < n2]
    if not interior:
        return 0.0

    def shifted(di, dj):
        return np.array([sites[(i + di, j + dj)] for i, j in interior])

    x = shifted(0, 0)
    checks = (("a", (1, 0), (0, 1)), ("b", (-1, 0), (0, -1)), ("c", (-1, 0), (0, 1)), ("d", (0, -1), (1, 0)))
    residuals = [corner_residual(v, x, shifted(*known), shifted(*solved), sheet.params) for v, known, solved in checks]
    return float(np.max(np.abs(residuals)))
