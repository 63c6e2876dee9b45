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

discrete_orbit steps an orbit of at most FLOAT_ORBIT_SIZE particles on Python
floats first, with discrete_step's operations in its order and each Newton
solve handed to numerics.float_solve, linear_solve's own LAPACK call, so with
its bits; from the first step the float kernel refuses, discrete_step takes
the orbit, where that step passes or raises with its type, message and site.

Leading axes: build_plaquette, discrete_el_residual and the evaluators from
discrete_lagrangian on evaluate a stack (..., N) row by row as each row alone,
bit for bit. Each check runs over the whole stack, in the order one
configuration runs them; the first failing row k along axis 0 is named
`at system k` and is `system`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import exact
from .errors import CollisionSingularity, LogSingularity, NonConvergence, NumericsError, SingularMatrix, located
from .hierarchy import (
    COLLISION_TOL, _set_diagonal, check_collision_free, check_cross_gap, cross_gap, inverse_gaps, trace_powers)
from .hierarchy import min_gap  # noqa: F401 -- benchmarks/tests wrap the discrete.min_gap binding
from .numerics import NEWTON_ITERATIONS, dominance_threshold, float_solve, newton_solve

# an orbit of at most this many particles steps on Python floats first: a float step takes 11-111 us at
# N = 1-7 and a numpy step 110-440 us (30-step orbits, median of 7, one CPU, wall, in-process), so the bound
# is not the crossover but hierarchy.ORDERED_SUM_N, below which numpy adds a row's terms in column order
FLOAT_ORBIT_SIZE = 7

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
    """Lattice parameters of the two discrete directions plus the Newton tolerance, a max-norm residual bound."""

    p1: float
    p2: float
    n: int
    newton_tolerance: float = 1e-12

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("particle count must be at least 1")
        if not self.newton_tolerance > 0:  # false for NaN
            raise ValueError("Newton tolerance must be positive")


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
    t = np.take_along_axis(tx, np.argsort(x), axis=-1)
    return (t[..., 1:] - t[..., :-1]).min(axis=-1, initial=np.inf) > 0


def _raise_first(error, failed, message: str) -> None:
    """Raise error(message) where `failed`, one flag or one per configuration of a stack, is set; a stack
    names its first failing row k along axis 0, as hierarchy's checks do, `at system k`, set as `system`."""
    if np.any(failed):
        k = int(np.argmax(failed.reshape(len(failed), -1).any(axis=1))) if np.ndim(failed) else None
        raise error(message + ("" if k is None else f" at system {k}"), system=k)


def _checked_cross_sums(x: np.ndarray, known: np.ndarray) -> np.ndarray:
    """sum_l 1/(x_m - known_l) with configurations (..., n) over leading axes as the rows of one (m, n)
    stack, after check_cross_gap(x, known): one difference matrix x_m - known_l gives both, its smallest
    |entry| the gap test, and check_cross_gap runs only to word a failure."""
    n = x.shape[-1]
    d = x.reshape(-1, n)[:, :, None] - known.reshape(-1, n)[:, None, :]
    if not (d.size and np.abs(d).min() >= COLLISION_TOL):  # false for NaN
        check_cross_gap(x, known)
    return (1.0 / d).sum(axis=-1)


def _eom_system(x_prev, x_cur):
    """The equation of motion, sum_l [1/(x_m - x_next_l) + 1/(x_m - x_prev_l)]
    - sum_{l != m} 2/(x_m - x_l) = 0, as the corner system "eom" at x_cur; configurations
    (..., N) over leading axes are the rows of one (m, N) stack."""
    x_prev, x_cur = np.asarray(x_prev, dtype=float), np.asarray(x_cur, dtype=float)
    check_collision_free(x_prev)
    check_collision_free(x_cur)
    cross_sums, x = _checked_cross_sums(x_cur, x_prev), x_cur.reshape(-1, x_cur.shape[-1])
    return _corner_system("eom", x, cross_sums, inverse_gaps(x).sum(axis=-1), 0.0)


def discrete_el_residual(x_prev: np.ndarray, x_cur: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    """Three-point equation of motion, per particle (see _eom_system), over leading axes."""
    x_cur, x_next = np.asarray(x_cur, dtype=float), np.asarray(x_next, dtype=float)
    system = _eom_system(x_prev, x_cur)[0]
    check_collision_free(x_next)
    check_cross_gap(x_cur, x_next)
    return system(x_next.reshape(-1, x_next.shape[-1]))[0].reshape(x_next.shape)


def discrete_step(x_prev: np.ndarray, x_cur: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Advance one lattice step by Newton on the implicit equation of motion, from the
    uniform-motion guess 2 x_cur - x_prev. The exact orbit never reorders particles,
    so a solution that does crossed a collision and raises CollisionSingularity."""
    x_prev, x_cur = np.asarray(x_prev, dtype=float), np.asarray(x_cur, dtype=float)
    system = _eom_system(x_prev, x_cur)[0]
    x_next = newton_solve(system, [2.0 * x_cur - x_prev], params.newton_tolerance)[0]
    if not _keeps_order(x_cur, x_next):
        raise CollisionSingularity("particle order changed across the step")
    return x_next


def _float_collision_free(x: list) -> bool:
    """Whether check_collision_free passes the configuration x of Python floats."""
    s = sorted(x)
    return all(map(math.isfinite, x)) and all(b - a >= COLLISION_TOL for a, b in zip(s, s[1:]))


def _float_step(x_prev: list, x_cur: list, tol: float) -> list | None:
    """discrete_step on one configuration of fewer than ORDERED_SUM_N Python floats, with its operations in its
    order, so its bits: each row sum from 0.0 in column order, and each Newton solve handed to
    numerics.float_solve, linear_solve's own LAPACK call. None where discrete_step raises or takes another
    route: a failed check of _eom_system, a Jacobian that linear_solve does not certify dominant, a
    non-finite residual, Newton out of iterations, or a solution that reorders the particles."""
    if not (_float_collision_free(x_prev) and _float_collision_free(x_cur)
            and all(abs(a - b) >= COLLISION_TOL for a in x_cur for b in x_prev)):
        return None
    n = len(x_cur)
    try:
        const = []  # the "eom" row of _corner_system; numpy's diagonal 1/inf adds +0.0, which changes no sum
        for m, xm in enumerate(x_cur):
            prev_sum = gap_sum = 0.0
            for u in x_prev:
                prev_sum += 1.0 / (xm - u)
            for j, xj in enumerate(x_cur):
                if j != m:
                    gap_sum += 1.0 / (xm - xj)
            const.append(prev_sum - 2.0 * gap_sum + 0.0)
        x = [2.0 * c - p for c, p in zip(x_cur, x_prev)]
        for iteration in range(NEWTON_ITERATIONS + 1):
            cross = [[1.0 / (xm - u) for u in x] for xm in x_cur]
            f = []
            for k, row in zip(const, cross):
                total = 0.0
                for c in row:
                    total += c
                f.append(k + total)
            if not all(map(math.isfinite, f)):
                return None
            if max(map(abs, f)) <= tol:
                break
            if iteration == NEWTON_ITERATIONS:
                return None
            jacobian = [c * c for row in cross for c in row]
            cut = dominance_threshold(n) * max(jacobian)
            for m in range(n):
                total = 0.0
                for a in jacobian[m * n:m * n + n]:
                    total += a
                if not 2.0 * jacobian[m * n + m] - total > cut:
                    return None
            x = [a - s for a, s in zip(x, float_solve(n, jacobian, f))]
    except ZeroDivisionError:
        return None
    order = sorted(range(n), key=x_cur.__getitem__)
    return x if all(x[j] - x[i] > 0 for i, j in zip(order, order[1:])) else None


def discrete_orbit(x_prev: np.ndarray, x_cur: np.ndarray, params: LatticeParams, count: int) -> list[np.ndarray]:
    """The seed pair extended by discrete_step to `count` sites; a NumericsError names the site
    it was solving for. An orbit of at most FLOAT_ORBIT_SIZE particles steps on Python floats, with
    discrete_step's bits, up to the first step the float kernel refuses; discrete_step takes that step
    again, where it passes or raises, and the rest."""
    sites = [np.asarray(x_prev, dtype=float), np.asarray(x_cur, dtype=float)]
    if sites[0].ndim == 1 and sites[0].shape == sites[1].shape and 0 < len(sites[1]) <= FLOAT_ORBIT_SIZE:
        before, last = sites[0].tolist(), sites[1].tolist()
        while len(sites) < count:
            after = _float_step(before, last, params.newton_tolerance)
            if after is None:
                break
            sites.append(np.array(after))
            before, last = last, after
    while len(sites) < count:
        try:
            with located(site=len(sites)):
                sites.append(discrete_step(sites[-2], sites[-1], params))
        except (NonConvergence, SingularMatrix) as exc:
            end = _orbit_end(sites[0], sites[1], params, len(sites))
            if end is None:
                raise
            with located(site=end[0]):
                raise CollisionSingularity(end[1]) from exc
    return sites


def lattice_spectrum(x00, x10, params: LatticeParams, n1, n2) -> np.ndarray:
    """Site (n1, n2) of the sheet grown from the edge (x00, x10): exact.spectrum of the terms (-n1, L^-1) and
    (-n2, (L + (p2 - p1) I)^-1), L the discrete Lax matrix of the edge; n2 = 0 is the discrete orbit. Edges (..., N)
    stack, one row per broadcast of their leading axes with n1 and n2: sites (k,) of edges (m, 1, N) are (m, k, N)."""
    L, _ = build_discrete_lax(x00, x10)
    shifted = L + (params.p2 - params.p1) * np.eye(L.shape[-1])
    terms = [(-np.asarray(n, dtype=float), a) for n, a in ((n1, L), (n2, shifted))]
    # a term whose coefficient is zero throughout is not inverted, so the orbit (n2 = 0) reads any seed edge
    return exact.spectrum(x00, [(c, np.linalg.inv(a)) for c, a in terms if c.any()])


def _orbit_end(x_prev: np.ndarray, x_cur: np.ndarray, params: LatticeParams, site: int):
    """Where the exact orbit through the seed edge ends, if it does at `site` or site + 1: the first of them
    whose lattice_spectrum exact.ends with COLLISION_TOL, with the wording of its end; None when neither
    ends, or when the spectrum cannot be computed."""
    try:
        spectra = lattice_spectrum(x_prev, x_cur, params, [site, site + 1], 0)
    except np.linalg.LinAlgError:  # a singular Lax matrix of the seed edge, or a non-finite spectrum matrix
        return None
    for k, spectrum, end in zip((site, site + 1), spectra, exact.ends(spectra, COLLISION_TOL)):
        if end:
            if spectrum.imag.any():
                return k, "the exact orbit leaves the real line: complex pair in the lattice spectrum"
            gap = np.diff(np.sort(spectrum.real)).min()
            return k, f"the exact orbit collides: lattice spectrum gap {gap:.3e} below {COLLISION_TOL:.1e}"
    return None


@functools.lru_cache(maxsize=256)
def _corner_terms(letters: tuple) -> np.ndarray:
    """The read-only (sgn, d_sign, weight) of _CORNER_TERMS for a tuple of variant letters, one per system,
    each term of shape (len(letters), 1), built once per letters."""
    if not set(letters) <= set(_CORNER_TERMS):
        raise ValueError(f"variant must be one of {CORNER_VARIANTS}")
    terms = np.array([_CORNER_TERMS[v] for v in letters]).reshape(len(letters), 3).T[:, :, None]
    terms.flags.writeable = False
    return terms


def _corner_system(variant, x: np.ndarray, cross_sums: np.ndarray, pair_sums: np.ndarray, dp: float):
    """The printed corner constraint as newton_solve's system, with its const and sgn: system(u)
    gives the residual const_m + sgn * sum_l 1/(x_m - u_l) for a stack and a function that gives
    its Jacobian sgn / (x_m - u_l)^2 by squaring the residual's cross matrix, so a Newton iterate
    forms one. const_m = cross_sums_m - weight pair_sums_m + d_sign dp from the caller's sums
    sum_l 1/(x_m - known_l) and sum_(l != m) 1/(x_m - x_l), dp = p1 - p2, and one variant letter
    for all systems or one per system."""
    sgn, d_sign, weight = _corner_terms((variant,) if isinstance(variant, str) else tuple(variant))
    const = cross_sums - weight * pair_sums + d_sign * dp

    def system(u):
        cross = _cross(x, u)
        return const + sgn * cross.sum(axis=-1), lambda: sgn[..., None] * cross ** 2

    return system, const, sgn


def _mean_field_guess(x: np.ndarray, const: np.ndarray, sgn: np.ndarray) -> np.ndarray:
    """Solve each particle's own pole with cross terms frozen, per system of a (m, n) stack,
    each until its next sweep is non-finite or moves it less than 1e-10; exact for N=1.
    A sweep sets u_m = x_m - 1/(-sgn (const_m + sgn s_m)), s_m the cross sum without l = m;
    since sgn = +-1, the pole term is (-sgn const_m) - s_m, formed once, with the same bits
    but for the sign of a zero, whose inverse is infinite either way and discards the sweep.
    Each sweep forms its step sizes max_m |u_new - u| once: where all are finite, every u and
    u_new is, so the sweep keeps the active systems without testing u_new itself."""
    u = x + 1e-3
    pole = -sgn * const
    active = np.ones(len(x), dtype=bool)
    # frozen systems are swept along with the rest, and their sweeps discarded
    with np.errstate(divide="ignore"):
        for _ in range(8):
            cross = _cross(x, u)
            cross.reshape(len(x), x.shape[1] ** 2)[:, :: x.shape[1] + 1] = 0.0
            u_new = x - 1.0 / (pole - cross.sum(axis=-1))
            step = np.abs(u_new - u).max(axis=1)  # NaN or inf in a row where u or u_new is not finite
            keep = active if np.isfinite(step).all() else active & np.isfinite(u_new).all(axis=1)
            active = keep & (step >= 1e-10)
            u = u_new if keep.all() else np.where(keep[:, None], u_new, u)
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
    Newton iteration; an empty stack (0, n) gives (0, n), and sites of no
    particles raise ValueError.
    """
    x, known = np.array(known1, dtype=float, ndmin=2), np.array(known2, dtype=float, ndmin=2)
    check_collision_free(np.stack([x, known], axis=1))
    cross_sums, pair_sums = _checked_cross_sums(x, known), inverse_gaps(x).sum(axis=-1)
    system, const, sgn = _corner_system(variant, x, cross_sums, pair_sums, params.p1 - params.p2)
    guess = _mean_field_guess(x, const, sgn)
    return newton_solve(system, guess, params.newton_tolerance).reshape(np.shape(known1))


def corner_residual(variant, x: np.ndarray, known: np.ndarray, solved: np.ndarray, params: LatticeParams) -> np.ndarray:
    """Left-minus-right of the printed corner constraint, per particle; for
    one system or a stack, as in corner_solve. known and solved may hold
    one more leading axis than x: constraints at the same sites x, one
    variant each, which share x's pair sums and are evaluated in turn."""
    x, known, solved = (np.asarray(a, dtype=float) for a in (x, known, solved))
    dp, pair_sums = params.p1 - params.p2, inverse_gaps(x).sum(axis=-1)

    def residual(letters, neighbours, u):
        return _corner_system(letters, x, _cross(x, neighbours).sum(axis=-1), pair_sums, dp)[0](u)[0].reshape(x.shape)

    if known.ndim > x.ndim:
        return np.array([residual(*constraint) for constraint in zip(variant, known, solved)])
    return residual(variant, known, solved)


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
    m, n = math.prod(x00.shape[:-1]), x00.shape[-1]  # one base edge is m = 1
    x01, x11_route1 = corner_solve(("a",) * m + ("c",) * m, np.stack([x00, x10]).reshape(2 * m, n),
                                   np.stack([x10, x00]).reshape(2 * m, n), params).reshape(2, *x00.shape)
    x11_route2 = corner_solve("d", x01.reshape(m, n), x00.reshape(m, n), params).reshape(x00.shape)
    return Plaquette(x00, x10, x01, x11_route1), np.abs(x11_route1 - x11_route2).max(axis=-1)


def _check_log_args(x: np.ndarray, tx: np.ndarray) -> None:
    s = np.sort(np.stack([x, tx]))  # NaN sorts last and -inf first, so the two ends tell finiteness, as in min_gap
    with np.errstate(invalid="ignore"):  # inf - inf; NaN fails every test below
        cross, within = cross_gap(x, tx), (s[..., 1:] - s[..., :-1]).min(axis=(0, -1), initial=np.inf)
    finite = np.isfinite(s[..., [0, -1]]).all(axis=(0, -1))
    _raise_first(LogSingularity, ~(cross >= COLLISION_TOL), "vanishing cross-gap between a site and its shift")
    _raise_first(LogSingularity, ~(finite & (within >= COLLISION_TOL)), "vanishing within-site gap")
    _raise_first(LogSingularity, ~_keeps_order(x, tx), "particle ordering changed across the step")


@functools.cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), built once per n: the pairs (i, j), i < j, in row-major order."""
    return np.triu_indices(n, 1)


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
        i, j = _upper_pairs(n)
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

    checks = (("a", (1, 0), (0, 1)), ("b", (-1, 0), (0, -1)), ("c", (-1, 0), (0, 1)), ("d", (0, -1), (1, 0)))
    variants, known, solved = zip(*checks)
    # the four constraints at the interior sites share those sites' pair sums
    residuals = corner_residual(variants, shifted(0, 0), np.array([shifted(*k) for k in known]),
                                np.array([shifted(*s) for s in solved]), sheet.params)
    return float(np.max(np.abs(residuals)))
