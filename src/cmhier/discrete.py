"""Fully discrete Calogero-Moser dynamics on a 2-D lattice.

One lattice direction advances by the implicit three-point equation of
motion; the second direction is reached through the four corner constraints
that couple neighbouring sites with lattice parameters p1, p2. Each corner
constraint equates two routes to a site's momentum (outgoing or incoming
along either direction), so the corner table is the momentum-route identity.
On top of the stepping live the verification quantities: the two-point
Lagrangian, the plaquette closure and log-det identities, and the discrete
Lax pair with its Lax equation and trace invariants. The discrete Hamilton
equations need no evaluator of their own: the edge Hamiltonian is minus the
two-point Lagrangian and the position equation is discrete_el_residual.

Leading axes: build_plaquette, discrete_el_residual and the evaluators from
discrete_lagrangian on evaluate a stack (..., N) row by row as each row alone,
bit for bit. Each check runs over the whole stack, in the order one
configuration runs them; the first failing row k along axis 0 is named
`at system k` and is `system`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CollisionSingularity, LogSingularity, NumericsError, SingularMatrix, located
from .hierarchy import (
    COLLISION_TOL, _set_diagonal, check_collision_free, check_cross_gap, cross_gap, inverse_gaps, trace_powers)
from .hierarchy import min_gap  # noqa: F401 -- benchmarks/tests wrap the discrete.min_gap binding
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


def _keeps_order(x: np.ndarray, tx: np.ndarray):
    """Whether tx keeps the particle order of x, over leading axes: tx sorted by the argsort of x increases."""
    return np.diff(np.take_along_axis(tx, np.argsort(x), axis=-1)).min(axis=-1, initial=np.inf) > 0


def _raise_first(error, failed, message: str) -> None:
    """Raise error(message) where `failed`, one flag or one per configuration of a stack, is set; a stack
    names its first failing row k along axis 0, as hierarchy's checks do, `at system k`, set as `system`."""
    if np.any(failed):
        k = int(np.argmax(failed.reshape(len(failed), -1).any(axis=1))) if np.ndim(failed) else None
        raise error(message + ("" if k is None else f" at system {k}"), system=k)


def _eom_system(x_prev, x_cur):
    """The equation of motion, sum_l [1/(x_m - x_next_l) + 1/(x_m - x_prev_l)]
    - sum_{l != m} 2/(x_m - x_l) = 0, as the corner system "eom" at x_cur; configurations
    (..., N) over leading axes are the rows of one (m, N) stack."""
    x_prev, x_cur = np.asarray(x_prev, dtype=float), np.asarray(x_cur, dtype=float)
    check_collision_free(x_prev)
    check_collision_free(x_cur)
    check_cross_gap(x_cur, x_prev)
    n = x_cur.shape[-1]
    return _corner_system("eom", x_cur.reshape(-1, n), x_prev.reshape(-1, n), 0.0)


def discrete_el_residual(x_prev: np.ndarray, x_cur: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    """Three-point equation of motion, per particle (see _eom_system), over leading axes."""
    x_cur, x_next = np.asarray(x_cur, dtype=float), np.asarray(x_next, dtype=float)
    residual = _eom_system(x_prev, x_cur)[0]
    check_collision_free(x_next)
    check_cross_gap(x_cur, x_next)
    return residual(x_next.reshape(-1, x_next.shape[-1])).reshape(x_next.shape)


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
    const = _cross(x, known).sum(axis=-1) - weight * inverse_gaps(x).sum(axis=-1) + d_sign * dp

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
    x, known = np.array(known1, dtype=float, ndmin=2), np.array(known2, dtype=float, ndmin=2)
    check_collision_free(np.stack([x, known], axis=1))
    check_cross_gap(x, known)
    residual, jacobian, const, sgn = _corner_system(variant, x, known, params.p1 - params.p2)
    retry = NewtonSettings(params.newton.tolerance, 4 * params.newton.max_iterations, damping=0.5)
    guess = _mean_field_guess(x, const, sgn)
    return newton_solve(residual, guess, jacobian_fn=jacobian, settings=params.newton, retry=retry).reshape(np.shape(known1))


def corner_residual(variant, x: np.ndarray, known: np.ndarray, solved: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Left-minus-right of the printed corner constraint, per particle; for
    one system or a stack, as in corner_solve."""
    x, known, solved = (np.asarray(a, dtype=float) for a in (x, known, solved))
    residual = _corner_system(variant, x, known, params.p1 - params.p2)[0]
    return residual(solved).reshape(x.shape)


def build_plaquette(x00: np.ndarray, x10: np.ndarray, params: LatticeParams) -> tuple[Plaquette, float | np.ndarray]:
    """Complete a plaquette from its base edge and measure route consistency.

    x01 comes from variant (a) at x00; the double shift is solved twice,
    through variant (c) at x10 and variant (d) at x01, and the max-norm gap
    between the two routes is the consistency defect. Route 1 is stored.
    Base edges (m, N) are m plaquettes with one defect each: x01 and route 1
    of all of them are one corner_solve of 2m systems (system k < m is x01 of
    plaquette k, system m + k its route 1), then route 2 is one of m.
    """
    x00, x10 = np.asarray(x00, dtype=float), np.asarray(x10, dtype=float)
    m, n = x00.size // x00.shape[-1], x00.shape[-1]  # one base edge is m = 1
    x01, x11_route1 = corner_solve(("a",) * m + ("c",) * m, np.stack([x00, x10]).reshape(-1, n),
                                   np.stack([x10, x00]).reshape(-1, n), params).reshape(2, *x00.shape)
    x11_route2 = corner_solve("d", x01, x00, params)
    return Plaquette(x00, x10, x01, x11_route1), np.abs(x11_route1 - x11_route2).max(axis=-1)


def _check_log_args(x: np.ndarray, tx: np.ndarray) -> None:
    s = np.sort(np.stack([x, tx]))  # NaN sorts last and -inf first, so the two ends tell finiteness, as in min_gap
    with np.errstate(invalid="ignore"):  # inf - inf; NaN fails every test below
        cross, within = cross_gap(x, tx), np.diff(s).min(axis=(0, -1), initial=np.inf)
    finite = np.isfinite(s[..., [0, -1]]).all(axis=(0, -1))
    _raise_first(LogSingularity, ~(cross >= COLLISION_TOL), "vanishing cross-gap between a site and its shift")
    _raise_first(LogSingularity, ~(finite & (within >= COLLISION_TOL)), "vanishing within-site gap")
    _raise_first(LogSingularity, ~_keeps_order(x, tx), "particle ordering changed across the step")


def discrete_lagrangian(x: np.ndarray, tx: np.ndarray, p):
    """Two-point lattice Lagrangian, over leading axes (p a float or broadcast against them):
    sum log|x_m - tx_l| - (1/2) sum' [log|x_m - x_l| + log|tx_m - tx_l|]
    - p sum (x_m - tx_m)."""
    x, tx = np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(tx, dtype=float)
    _check_log_args(x, tx)
    n = x.shape[-1]
    total = np.log(np.abs(x[..., :, None] - tx[..., None, :])).reshape(*x.shape[:-1], n * n).sum(axis=-1)
    if n > 1:
        # np.take keeps the pairs contiguous per row, so each row sums them in the order one configuration does
        i, j = np.triu_indices(n, 1)
        total = total - (np.log(np.abs(np.take(x, i, axis=-1) - np.take(x, j, axis=-1))).sum(axis=-1)
                         + np.log(np.abs(np.take(tx, i, axis=-1) - np.take(tx, j, axis=-1))).sum(axis=-1))
    return total - p * np.sum(x - tx, axis=-1)


def discrete_closure_sum(pl: Plaquette, params: LatticeParams):
    """Signed plaquette closure sum of the printed Lagrangian; the negated
    Lagrangian gives its negation, so both conventions share one magnitude."""
    return (
        discrete_lagrangian(pl.x00, pl.x01, params.p2)
        - discrete_lagrangian(pl.x00, pl.x10, params.p1)
        - discrete_lagrangian(pl.x10, pl.x11, params.p2)
        + discrete_lagrangian(pl.x01, pl.x11, params.p1)
    )


def center_of_mass_term(pl: Plaquette):
    """sum (x00 + x11 - x10 - x01); separates the closure sum from the
    log-det identity and vanishes on consistent plaquettes."""
    return np.sum(pl.x00 + pl.x11 - pl.x10 - pl.x01, axis=-1)


def _edge_logdet(a: np.ndarray, b: np.ndarray):
    m = -_cross(b, a)  # M_ij = -1/(b_i - a_j) for the edge a -> b
    sign, logdet = np.linalg.slogdet(m)
    _raise_first(SingularMatrix, (sign == 0) | ~np.isfinite(logdet), "edge matrix determinant underflow")
    return logdet


def logdet_identity_residual(pl: Plaquette):
    """|ln|det M| combination around the plaquette|; the temporal Lax
    compatibility makes it vanish on consistent plaquettes."""
    return abs(
        _edge_logdet(pl.x01, pl.x11)
        + _edge_logdet(pl.x00, pl.x01)
        - _edge_logdet(pl.x10, pl.x11)
        - _edge_logdet(pl.x00, pl.x10)
    )


def edge_logdet_values(x: np.ndarray, tx: np.ndarray, p):
    """Per-edge residual of the Lagrangian/log-det relation, both conventions.

    Returns (printed, negated) residuals of
    L = +/- (ln|det M| + p sum(x - tx)), p as in discrete_lagrangian. The
    Cauchy-determinant expansion validates the negated convention exactly.
    """
    lag = discrete_lagrangian(x, tx, p)
    x, tx = np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(tx, dtype=float)
    rhs = _edge_logdet(x, tx) + p * np.sum(x - tx, axis=-1)
    return lag - rhs, lag + rhs


def build_discrete_lax(x: np.ndarray, tx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Discrete Lax pair on the edge x -> tx, over leading axes.

    L = diag(p) - [1/(x_i - x_j)] with p_i = sum_j 1/(x_i - tx_j)
    - sum_{j != i} 1/(x_i - x_j); M = -[1/(tx_i - x_j)] in full.
    """
    x, tx = np.ascontiguousarray(x, dtype=float), np.ascontiguousarray(tx, dtype=float)
    check_collision_free(x)
    check_collision_free(tx)
    check_cross_gap(x, tx, "site and shifted site share a coordinate: cross gap")
    inv = inverse_gaps(x)
    L = -inv
    _set_diagonal(L, _cross(x, tx).sum(axis=-1) - inv.sum(axis=-1))
    M = -_cross(tx, x)
    return L, M


def discrete_lax_residual(x_prev: np.ndarray, x_cur: np.ndarray, x_next: np.ndarray):
    """Max-norm of (T L) M - M L across the edge pair of an orbit triple, over leading axes.

    L lives on the incoming edge (x_prev, x_cur), its shift on the outgoing
    edge (x_cur, x_next), and M connects x_prev to x_cur; the combination
    vanishes on solutions of the discrete equation of motion.
    """
    L, M = build_discrete_lax(x_prev, x_cur)
    TL, _ = build_discrete_lax(x_cur, x_next)
    return np.max(np.abs(TL @ M - M @ L), axis=(-2, -1))


def discrete_invariants(x: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """(Tr L, Tr L^2, Tr L^3) of the discrete L over leading axes, (..., N) to (..., 3); conserved along orbits."""
    L, _ = build_discrete_lax(x, tx)
    return trace_powers(L)


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
