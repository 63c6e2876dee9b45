"""The full verification suite behind `cmhier verify`.

Every gated identity of the hierarchy gets one report entry: residual,
tolerance, pass flag and enough metadata to reproduce the number. Items the
printed equations leave ambiguous (sheet closure with either velocity
convention, the cubic-member Legendre value, the semi-discrete closure, the
per-edge Lagrangian/log-det relation) are reported as non-gated diagnostics
with convergence evidence instead of a pass tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, discrete, exact, flows, hierarchy, semidiscrete
from .errors import CollisionSingularity, NumericsError
from .hierarchy import GAMMA, PhaseState
from .numerics import NewtonSettings, row_blocks
from .sampling import plaquette_seed, random_phase_state
from .scenario import Scenario


@dataclass(frozen=True)
class CheckEntry:
    name: str
    residual: float
    tolerance: float | None
    passed: bool
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple
    version: str = __version__

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def n_passed(self) -> int:
        return sum(1 for e in self.entries if e.passed)

    @property
    def all_passed(self) -> bool:
        return self.n_passed == self.total

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "entries": [asdict(e) for e in self.entries],
            "summary": {
                "total": self.total,
                "passed": self.n_passed,
                "failed": self.total - self.n_passed,
            },
        }


def _require_finite(name: str, what: str, value: float) -> None:
    """A non-finite value would pass a floor or print as bare NaN; it fails the run instead, naming the check."""
    if not np.isfinite(value):
        raise NumericsError(f"{name}: non-finite {what} {value}")


class Collector:
    """Accumulates report entries; every gated tolerance is multiplied by tolerance_scale."""

    def __init__(self, tolerance_scale: float):
        self.scale = tolerance_scale
        self.entries: list[CheckEntry] = []

    def gated(self, name: str, residual: float, tolerance: float, **metadata):
        _require_finite(name, "residual", residual)
        tol = tolerance * self.scale
        self.entries.append(
            CheckEntry(name, float(residual), float(tol), bool(residual <= tol), _clean(metadata))
        )

    def floor(self, name: str, observed: float, required_min: float, **metadata):
        """Negative control: the observed value must EXCEED required_min."""
        _require_finite(name, "observed value", observed)
        shortfall = max(0.0, required_min - observed)
        metadata = dict(metadata, observed=observed, required_min=required_min)
        self.entries.append(CheckEntry(name, float(shortfall), 0.0, shortfall <= 0.0, _clean(metadata)))

    def diagnostic(self, name: str, value: float, **metadata):
        _require_finite(name, "value", value)
        metadata = dict(metadata, diagnostic=True)
        self.entries.append(CheckEntry(name, float(value), None, True, _clean(metadata)))


def _clean(metadata: dict) -> dict:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, (bool, np.bool_)):
            out[key] = bool(value)
        elif isinstance(value, (np.floating, float)):
            out[key] = float(value)
        elif isinstance(value, (np.integer, int)):
            out[key] = int(value)
        elif isinstance(value, np.ndarray):
            out[key] = [float(v) for v in value]
        else:
            out[key] = value
    return out


def relative_drift(values: np.ndarray) -> float:
    """Worst drift of (samples, k) values from the first sample, relative to 1 + |first value|."""
    return float(np.max(np.abs(values - values[0]) / (1.0 + np.abs(values[0]))))


def energy_drift(traj: flows.Trajectory) -> float:
    """Worst drift of the path energy (the Noether charge) from its first sample."""
    series = flows.noether_charge(traj)
    return float(np.max(np.abs(series - series[0])))


def orbit_invariant_drift(orbit: list) -> float:
    """Worst max-norm drift of the discrete trace invariants over an orbit's edges, taken in row blocks
    of at most numerics.STACK_ENTRIES matrix entries."""
    sites = np.asarray(orbit)
    values = np.concatenate([discrete.discrete_invariants(sites[:-1][rows], sites[1:][rows])
                             for rows in row_blocks(len(sites) - 1, sites.shape[1] ** 2)])
    return float(np.max(np.abs(values - values[0])))


def chain_residuals(chain: semidiscrete.Chain) -> tuple[float, float | None, float | None]:
    """Worst velocity discrepancy, tau equation-of-motion residual (None below two edges) and one-particle
    gap drift (None for N > 1) over the snapshots of an evolved chain (T, K+1, N), all taken in row blocks
    of at most numerics.STACK_ENTRIES matrix entries."""
    y, vel = chain.sites, semidiscrete.tau_velocities(chain)
    worst_eom = gap_drift = None
    if chain.length >= 2:
        fp, fn = vel.from_prev_edge, vel.from_next_edge
        worst_eom = max(float(np.max(np.abs(semidiscrete.semi_eom_residual(y[rows], fp[rows], fn[rows]))))
                        for rows in row_blocks(len(y), 2 * chain.length * chain.n**2))
    if chain.n == 1:
        gaps = y[:, 1, 0] - y[:, 0, 0]
        gap_drift = float(np.max(np.abs(gaps - gaps[0])))
    return float(np.max(vel.max_discrepancy)), worst_eom, gap_drift


def _surviving_state(rng, n, min_gap, legs, run, attempts=50):
    """Draw seeded states until `run` finishes without a collision; returns
    the state, run's result and the draw counts for the report metadata.

    The gated criteria presume collision-free trajectories; the attractive
    inverse-cube dynamics makes some draws collide inside the test horizon.
    The exact solution screens each draw on every leg (a PathSpec) that `run`
    marches, and only the draws it passes are marched.
    Screened-out draws count against `attempts`.
    """
    last, screened_out = None, 0
    for draw in range(1, attempts + 1):
        state = random_phase_state(rng, n, min_gap=min_gap)
        if any(exact.collides(state, leg) for leg in legs):
            screened_out += 1
            continue
        try:
            return state, run(state), {"draws": draw, "screened_out": screened_out}
        except CollisionSingularity as exc:
            last = exc
    raise last or CollisionSingularity(f"all {attempts} draws collide within the horizon")


def _involution(col, rng):
    # plain closures, so the bracket really is finite-differenced
    h2 = lambda x, p: hierarchy.weighted_hamiltonian(1.0, 0.0, x, p)
    h3 = lambda x, p: hierarchy.weighted_hamiltonian(0.0, 1.0, x, p)
    states = [random_phase_state(rng, 3, min_gap=0.5) for _ in range(100)]
    worst = float(np.max(np.abs(flows.poisson_bracket(h2, h3, states))))
    col.gated("involution-bracket", worst, 1e-6, states=100, n=3, bracket_step=flows.BRACKET_STEP)


def _commuting_flows(col, rng):
    states = [random_phase_state(rng, 3, min_gap=0.8) for _ in range(20)]
    worst = float(np.max(flows.commutator_defect(states, 0.01, 0.01, 1e-3)))
    col.gated("commuting-flows", worst, 1e-6, states=20, deltas=0.01, dt=1e-3)


# the t2 and the t3 leg; the run and the collision screen both read them
_DRIFT_LEGS = {2: flows.PathSpec((1.0, 0.0), 1.0, 1000), 3: flows.PathSpec((0.0, 1.0), 0.3, 300)}


def _drift_run(state):
    return {k: relative_drift(flows.evolve_path(state, path).per_sample(hierarchy.lax_invariants))
            for k, path in _DRIFT_LEGS.items()}


def _invariant_drift(col, rng):
    _, drifts, draws = _surviving_state(rng, 3, 1.0, _DRIFT_LEGS.values(), _drift_run)
    for k, path in _DRIFT_LEGS.items():
        dt = path.duration / path.steps
        col.gated(f"invariant-drift-t{k}", drifts[k], 1e-8, n=3, duration=path.duration, dt=dt, **draws)


def _lax_checks(col, rng):
    """The Lax identity and the trace-Hamiltonian matches on 100 seeded states, evaluated as one stack
    per particle count."""
    lax, h2, h3 = [], [], []
    for n, count in zip((2, 3, 4), (34, 33, 33)):
        states = [random_phase_state(rng, n, min_gap=0.5) for _ in range(count)]
        x, p = np.array([st.x for st in states]), np.array([st.p for st in states])
        vals = hierarchy.lax_invariants(x, p)
        lax.append(hierarchy.lax_residual(x, p))
        h2.append(np.abs(vals[:, 1] - hierarchy.weighted_hamiltonian(*hierarchy.FLOW_DIRECTIONS[2], x, p)))
        h3.append(np.abs(vals[:, 2] - hierarchy.weighted_hamiltonian(*hierarchy.FLOW_DIRECTIONS[3], x, p)))
    for name, values, tol in (("lax-identity", lax, 1e-10), ("trace-hamiltonian-match-2", h2, 1e-11),
                              ("trace-hamiltonian-match-3", h3, 1e-11)):
        col.gated(name, float(np.max(np.concatenate(values))), tol, states=100, gamma=GAMMA)


def _two_body_gap_law(col):
    start = PhaseState([-2.0, 2.0], [0.0, 0.0])
    traj = flows.integrate_flow(2, start, 0.5, 1e-3)
    e_rel = -0.5
    worst = float(np.max(np.abs((traj.x[:, 1] - traj.x[:, 0]) ** 2 - (16.0 + 2.0 * e_rel * traj.times()[:, 1] ** 2))))
    col.gated("two-body-gap-law", worst, 1e-6, relative_energy=e_rel, duration=0.5, dt=1e-3)


def _discrete_orbit(col, rng):
    """Gates the invariant drift of a 52-site orbit and returns the orbit."""
    params = discrete.LatticeParams(p1=1.0, p2=2.0, n=3, newton=NewtonSettings(tolerance=1e-13))
    x_prev = np.array([-4.0, 0.0, 4.0])
    orbit = discrete.discrete_orbit(x_prev, x_prev + 0.3 * rng.uniform(0.95, 1.05, 3), params, 52)
    col.gated("discrete-invariant-drift", orbit_invariant_drift(orbit), 1e-10, steps=50, n=3)
    return orbit


def _plaquettes(col, rng):
    """Closure, log-det and per-edge identities on 20 seeded plaquettes, one stack per particle count."""
    counts = {1: 7, 2: 7, 3: 6}
    per_n, worst_scalar = [], 0.0
    for n, count in counts.items():
        params = discrete.LatticeParams(p1=1.0, p2=2.0, n=n)
        x00, x10 = map(np.array, zip(*(plaquette_seed(rng, n, 1.0, 2.0) for _ in range(count))))
        pl, defect = discrete.build_plaquette(x00, x10, params)
        if n == 1:  # against the sites (0, 1) and (1, 1) of the exact sheet
            for k in range(count):
                x01, x11 = exact.lattice_spectrum(x00[k], x10[k], params, [0, 1], [1, 1])
                worst_scalar = max(worst_scalar, abs(pl.x01[k, 0] - x01[0]), abs(pl.x11[k, 0] - x11[0]), defect[k])
        # the edges x00-x10, x00-x01, x10-x11 and x01-x11, as one stack (4, count)
        printed, negated = discrete.edge_logdet_values(np.stack([pl.x00, pl.x00, pl.x10, pl.x01]),
                                                       np.stack([pl.x10, pl.x01, pl.x11, pl.x11]),
                                                       np.array([[params.p1], [params.p2], [params.p2], [params.p1]]))
        per_n.append((defect, discrete.discrete_closure_sum(pl, params), discrete.logdet_identity_residual(pl),
                      np.abs(discrete.center_of_mass_term(pl)), printed.ravel(), negated.ravel()))
    defects, closure_sums, logdets, coms, printed, negated = map(np.concatenate, zip(*per_n))
    worst_closure_sum = closure_sums[np.argmax(np.abs(closure_sums))]  # the first of largest magnitude
    col.gated("plaquette-consistency", float(np.max(defects)), 1e-9, plaquettes=20, p1=1.0, p2=2.0)
    col.gated("plaquette-consistency-scalar", worst_scalar, 1e-12, plaquettes=counts[1])
    col.gated(
        "discrete-closure",
        abs(worst_closure_sum),
        1e-8,
        plaquettes=20,
        value_printed=worst_closure_sum,
        value_negated=-worst_closure_sum,
        convention="sign-symmetric (|printed| = |negated|)",
        center_of_mass_term_max=np.max(coms),
    )
    col.gated("logdet-identity", float(np.max(logdets)), 1e-8, plaquettes=20)
    col.gated(
        "edge-lagrangian-logdet",
        float(np.max(np.abs(negated))),
        1e-8,
        edges=80,
        convention="negated",
        identical_across_edges=True,
    )
    col.diagnostic(
        "edge-lagrangian-logdet-printed",
        float(np.max(np.abs(printed))),
        convention="printed",
        note="printed orientation fails; the negated one is the Cauchy-determinant identity",
    )


# the one leg; the run and the collision screen both read it
_NOETHER_LEGS = (flows.PathSpec((1.0, 1.0), 0.5, 500),)


def _noether_run(state):
    return energy_drift(flows.evolve_path(state, _NOETHER_LEGS[0]))


def _noether(col, rng):
    _, drift, draws = _surviving_state(rng, 3, 1.0, _NOETHER_LEGS, _noether_run)
    (path,) = _NOETHER_LEGS
    col.gated("noether-conservation", drift, 1e-8, n=3, direction=path.direction, span=path.duration, **draws)


def _generalized_el(col, rng):
    states = [random_phase_state(rng, 3, min_gap=1.2) for _ in range(5)]
    trajs = flows.evolve_paths(states, flows.PathSpec(hierarchy.FLOW_DIRECTIONS[2], 12e-3, 12))
    shift = 0.1 * trajs[0].times()[:, :1] ** 2
    worst = max(float(np.nanmax(np.abs(flows.pluri_el_residual(traj)))) for traj in trajs)
    weakest_control = min(
        float(np.nanmax(np.abs(flows.pluri_el_residual(flows.Trajectory(traj.path, traj.x + shift, traj.p)))))
        for traj in trajs
    )
    col.gated("generalized-el-solution", worst, 1e-6, trajectories=5, flow=2, dt=1e-3)
    col.floor("generalized-el-negative-control", weakest_control, 1e-2, perturbation="0.1*s^2")


def _semidiscrete_checks(col, rng):
    results = []
    for x0 in (np.array([0.0]), np.array([-2.0, 2.0])):
        params = discrete.LatticeParams(p1=1.0, p2=2.0, n=len(x0))
        sites = discrete.discrete_orbit(x0, x0 + 0.3 * rng.uniform(1.0, 1.2, len(x0)), params, 3)
        results.append(chain_residuals(semidiscrete.evolve_chain(semidiscrete.Chain(sites), 1e-3, 100)))
    (disc1, eom1, gap_drift), (disc2, eom2, _) = results
    col.gated("semi-velocity-consistency", max(disc1, disc2), 1e-8, n_values=[1, 2], tau_span=0.1)
    col.gated("semi-eom", max(eom1, eom2), 1e-10, n_values=[1, 2], tau_span=0.1)
    col.gated("semi-gap-conservation", gap_drift, 1e-10, n=1, tau_span=0.1)


def _closure_diagnostics(col, rng):
    state = random_phase_state(rng, 3, min_gap=1.0)
    by_eps = {eps: flows.lagrangian_closure_residuals(state, eps) for eps in (2e-3, 1e-3, 5e-4)}
    for mode in ("flow", "constraint"):
        values = {eps: residuals[mode] for eps, residuals in by_eps.items()}
        d1 = abs(values[2e-3] - values[1e-3])
        d2 = abs(values[1e-3] - values[5e-4])
        ratio = d1 / d2 if d2 > 0 else float("inf")
        col.diagnostic(
            f"closure-sheet-{mode}-velocity",
            values[5e-4],
            eps=5e-4,
            value_at_2eps=values[1e-3],
            halving_ratio=ratio,
            note="second-order differencing: ratio near 4 means converged",
        )

    col.diagnostic(
        "legendre-transform-t3",
        hierarchy.legendre_check(3, state.x, state.p, hierarchy.constraint_velocity(state.x, state.p)),
        note="nonzero with P = v2 and the printed cubic pair",
    )

    params = discrete.LatticeParams(p1=1.0, p2=2.0, n=2)
    x0 = np.array([-4.0, 4.0])
    sites = discrete.discrete_orbit(x0, x0 + 0.3 * rng.uniform(1.0, 1.2, 2), params, 3)
    chain = semidiscrete.Chain(sites)
    values = {}
    for d_tau in (1e-3, 5e-4):
        snaps = semidiscrete.evolve_chain(chain, d_tau, 2)
        values[d_tau] = semidiscrete.semi_closure_values(snaps, params)
    col.diagnostic(
        "semi-closure",
        min(abs(v) for v in values[5e-4]),
        printed=values[5e-4][0],
        negated=values[5e-4][1],
        halving_change=abs(values[1e-3][0] - values[5e-4][0]),
        note="tau-differenced; halving_change ~ O(d_tau^2) means converged",
    )


def _discrete_lax(col, orbit):
    """The discrete Lax equation (T L) M = M L on every consecutive triple of the orbit; the
    control moves each x_next by 0.05 off the orbit."""
    sites = np.asarray(orbit)
    worst = float(np.max(discrete.discrete_lax_residual(sites[:-2], sites[1:-1], sites[2:])))
    weakest = float(np.min(discrete.discrete_lax_residual(sites[:-2], sites[1:-1], sites[2:] + 0.05)))
    col.gated("discrete-lax-identity", worst, 1e-11, triples=len(sites) - 2, n=3)
    col.floor("discrete-lax-negative-control", weakest, 1e-2, perturbation="x_next + 0.05")


def verify_all(sc: Scenario) -> VerificationReport:
    """Run every gated acceptance identity plus the reported diagnostics. Sections are
    called through their module-level names, so a wrapper bound to one of them is used."""
    col = Collector(sc.tolerance_scale)
    rng = np.random.default_rng(sc.seed)
    _involution(col, rng)
    _commuting_flows(col, rng)
    _invariant_drift(col, rng)
    _lax_checks(col, rng)
    _two_body_gap_law(col)
    orbit = _discrete_orbit(col, rng)
    _plaquettes(col, rng)
    _noether(col, rng)
    _generalized_el(col, rng)
    _semidiscrete_checks(col, rng)
    _closure_diagnostics(col, rng)
    _discrete_lax(col, orbit)
    return VerificationReport(tuple(col.entries))
