import numpy as np
import pytest

from cmhier.errors import CollisionSingularity, DegenerateDirection
from cmhier.exact import projection_spectrum
from cmhier.flows import (
    PathSpec,
    Trajectory,
    TrajectorySample,
    _check_in_flight,
    _raw_field,
    commutator_defect,
    evolve_path,
    generalized_momentum,
    hamiltonian_closure_residual,
    hamiltonian_observable,
    integrate_flow,
    lagrangian_closure_residual,
    noether_charge,
    pluri_constraint_residual,
    pluri_el_residual,
    poisson_bracket,
    vector_field,
)
from cmhier.hierarchy import (
    PhaseState,
    VelocityState,
    hamiltonian,
    invariants,
    lagrangian,
)
from cmhier.numerics import fd_derivative
from cmhier.sampling import random_phase_state

RNG = np.random.default_rng(77)

WELL_SEPARATED = PhaseState([-2.2, 0.1, 2.4], [0.3, -0.2, 0.1])


def perturb_positions(traj, scale=0.1, per_particle=False):
    """Shift sampled positions by scale*s^2 (optionally ramped per particle)."""
    samples = []
    for smp in traj.samples:
        shift = scale * smp.s**2
        if per_particle:
            shift = shift * (1.0 + np.arange(smp.state.n))
        samples.append(
            TrajectorySample(smp.s, smp.t2, smp.t3, PhaseState(smp.state.x + shift, smp.state.p))
        )
    return Trajectory(tuple(samples))


def spread_state(seed: int, n: int) -> PhaseState:
    """Seeded state of n particles with neighbour gaps in [0.5, 1.5]."""
    rng = np.random.default_rng(seed)
    return PhaseState(np.cumsum(rng.uniform(0.5, 1.5, n)), rng.uniform(-1.0, 1.0, n))


def power_reference_field(direction, x, p):
    """The Hamilton field as the kernel wrote it before it used products:
    inv**3 and a (p_i + p_j) pair matrix for each member. Also returns the
    same sums over absolute values, which bound the rounding error of any
    summation order."""
    d = x[:, None] - x[None, :]
    np.fill_diagonal(d, np.inf)
    inv = 1.0 / d
    inv3 = inv**3
    pair = p[:, None] + p[None, :]
    # member k -> (dH/dp, dH/dx) and their absolute-value counterparts
    grads = {
        2: (p, 8.0 * inv3.sum(axis=1)),
        3: (p**2 - 4.0 * (inv**2).sum(axis=1), 8.0 * (pair * inv3).sum(axis=1)),
    }
    bounds = {
        2: (np.abs(p), 8.0 * np.abs(inv3).sum(axis=1)),
        3: (p**2 + 4.0 * (inv**2).sum(axis=1), 8.0 * np.abs(pair * inv3).sum(axis=1)),
    }
    field = sum(dk * np.concatenate([grads[k][0], -grads[k][1]]) for k, dk in zip((2, 3), direction))
    scale = sum(abs(dk) * np.concatenate(bounds[k]) for k, dk in zip((2, 3), direction))
    return field, scale


class TestVectorField:
    def test_free_particle_t2(self):
        xdot, pdot = vector_field(2, PhaseState([0.0], [0.8]))
        assert xdot[0] == pytest.approx(0.8)
        assert pdot[0] == 0.0

    def test_free_particle_t3(self):
        xdot, pdot = vector_field(3, PhaseState([0.0], [0.8]))
        assert xdot[0] == pytest.approx(0.64)
        assert pdot[0] == 0.0

    def test_two_particle_forces(self):
        xdot, pdot = vector_field(2, PhaseState([-1.0, 1.0], [0.0, 0.0]))
        assert np.allclose(xdot, 0.0)
        assert np.allclose(pdot, [1.0, -1.0])

    def test_mixed_direction_field_is_the_weighted_sum(self):
        d2, d3 = 0.7, -0.4
        y = np.concatenate([WELL_SEPARATED.x, WELL_SEPARATED.p])
        x2, p2 = vector_field(2, WELL_SEPARATED)
        x3, p3 = vector_field(3, WELL_SEPARATED)
        expected = np.concatenate([d2 * x2 + d3 * x3, d2 * p2 + d3 * p3])
        assert np.array_equal(_raw_field(np.array([d2, d3]), 3)(0.0, y), expected)

    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.7, -0.4), (-1.0, -1.0)])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 128])
    def test_field_matches_the_power_reference(self, n, direction):
        state = spread_state(n, n)
        expected, scale = power_reference_field(direction, state.x, state.p)
        got = _raw_field(np.array(direction), n)(0.0, np.concatenate([state.x, state.p]))
        # relative to the absolute-value sums: a component that nearly cancels
        # magnifies any rounding difference relative to itself
        assert np.all(np.abs(got - expected) <= 1e-13 * scale)


class TestInFlightCheck:
    ORDER = np.array([0, 1, 2])
    GAP = "gap below 1.0e-06 at s=0.25"
    NON_FINITE = "non-finite state at s=0.25"

    @pytest.mark.parametrize(
        "x, p, message",
        [
            ([0.0, 2.0, 1.0], [0.0, 0.0, 0.0], GAP),           # order flip with wide gaps
            ([0.0, 5e-7, 1.0], [0.0, 0.0, 0.0], GAP),          # order kept, gap too small
            ([0.0, 1.0, 2.0], [0.0, np.inf, 0.0], NON_FINITE),  # overflowed momentum
            ([0.0, np.nan, 2.0], [0.0, 0.0, 0.0], NON_FINITE),
        ],
    )
    def test_abort(self, x, p, message):
        with pytest.raises(CollisionSingularity) as info:
            _check_in_flight(np.array(x + p), 3, self.ORDER, 0.25)
        assert str(info.value) == message and info.value.s == 0.25

    def test_accepts_an_ordered_state_at_the_gap(self):
        _check_in_flight(np.array([0.0, 1e-6, 1.0, 0.0, 0.0, 0.0]), 3, self.ORDER, 0.25)

    def test_single_particle(self):
        _check_in_flight(np.array([3.0, -1.0]), 1, np.array([0]), 0.25)
        with pytest.raises(CollisionSingularity, match=f"^{self.NON_FINITE}$"):
            _check_in_flight(np.array([np.inf, -1.0]), 1, np.array([0]), 0.25)


class TestIntegrateFlow:
    def test_builds_one_state_per_accepted_step(self, count_builds):
        builds = count_builds(PhaseState)
        traj = integrate_flow(2, WELL_SEPARATED, 10e-3, 1e-3)
        assert len(traj.samples) == 11 and len(builds) == 10

    def test_free_motion(self):
        traj = integrate_flow(2, PhaseState([0.0], [1.0]), 1.0, 1e-2)
        assert traj.final_state.x[0] == pytest.approx(1.0, abs=1e-12)
        assert traj.final_state.p[0] == pytest.approx(1.0)

    def test_two_body_gap_law(self):
        # conserved relative energy E = r'(0)^2/2 - 8/r0^2 makes (r^2)'' = 4E,
        # so r^2(t) = r0^2 + 2 E t^2 for a symmetric start at rest
        start = PhaseState([-2.0, 2.0], [0.0, 0.0])
        traj = integrate_flow(2, start, 0.5, 1e-3)
        e_rel = -8.0 / 16.0
        for smp in traj.samples:
            r2 = (smp.state.x[1] - smp.state.x[0]) ** 2
            assert r2 == pytest.approx(16.0 + 2.0 * e_rel * smp.t2**2, abs=1e-6)

    def test_invariant_drift(self):
        base = invariants(WELL_SEPARATED, kmax=3)
        traj = integrate_flow(2, WELL_SEPARATED, 1.0, 1e-3)
        drift = max(
            np.max(np.abs(invariants(s.state, kmax=3) - base)) for s in traj.samples
        )
        assert drift <= 1e-8

    def test_collision_aborts_with_location(self):
        # head-on momenta large enough to collide well before duration ends
        with pytest.raises(CollisionSingularity) as info:
            integrate_flow(2, PhaseState([-0.4, 0.4], [6.0, -6.0]), 1.0, 1e-3)
        assert info.value.s is not None


class TestEvolvePath:
    def test_single_direction_reduces_to_flow(self):
        path = PathSpec(np.array([1.0, 0.0]), 0.3, steps=300)
        a = evolve_path(WELL_SEPARATED, path)
        b = integrate_flow(2, WELL_SEPARATED, 0.3, 1e-3)
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.state.x, sb.state.x)
            assert np.array_equal(sa.state.p, sb.state.p)

    def test_wide_path_matches_the_projection_solution(self):
        # x(s) = eig(diag x0 + s (d2 L0 + d3 L0^2)) solves the rational CM
        # flows (Olshanetsky-Perelomov); gamma = -2 matches the Hamiltonians
        rng = np.random.default_rng(64)
        x0 = 3.0 * np.arange(64) + rng.uniform(-0.3, 0.3, 64)
        start = PhaseState(x0, np.sort(rng.uniform(-0.5, 0.5, 64)))
        end = evolve_path(start, PathSpec(np.array([1.0, 1.0]), 0.05, steps=50)).final_state
        exact = np.sort(projection_spectrum(start, (1.0, 1.0), 0.05).real)
        assert np.max(np.abs(np.sort(end.x) - exact)) <= 1e-9

    def test_free_particle_closed_form(self):
        c2, c3 = 0.4, 0.3
        p0 = 0.7
        path = PathSpec(np.array([c2, c3]), 1.0, steps=100)
        end = evolve_path(PhaseState([0.2], [p0]), path).final_state
        assert end.x[0] == pytest.approx(0.2 + p0 * c2 + p0**2 * c3, abs=1e-12)
        assert end.p[0] == pytest.approx(p0)

    def test_energy_conserved_along_path(self):
        direction = np.array([1.0, 0.5])
        traj = evolve_path(WELL_SEPARATED, PathSpec(direction, 0.5, steps=500))
        series = noether_charge(traj, direction)
        assert np.max(np.abs(series - series[0])) <= 1e-8


class TestPathIndependence:
    def test_two_leg_paths_reach_same_endpoint(self):
        d2, d3 = 0.05, 0.05
        first = evolve_path(
            evolve_path(WELL_SEPARATED, PathSpec(np.array([1.0, 0.0]), d2, 1), dt_s=1e-3).final_state,
            PathSpec(np.array([0.0, 1.0]), d3, 1),
            dt_s=1e-3,
        ).final_state
        second = evolve_path(
            evolve_path(WELL_SEPARATED, PathSpec(np.array([0.0, 1.0]), d3, 1), dt_s=1e-3).final_state,
            PathSpec(np.array([1.0, 0.0]), d2, 1),
            dt_s=1e-3,
        ).final_state
        gap = max(np.max(np.abs(first.x - second.x)), np.max(np.abs(first.p - second.p)))
        assert gap <= 1e-6

    def test_invariants_conserved_on_mixed_segment(self):
        base = invariants(WELL_SEPARATED, kmax=3)
        traj = evolve_path(WELL_SEPARATED, PathSpec(np.array([0.7, 0.4]), 0.3, 1), dt_s=1e-3)
        drift = max(np.max(np.abs(invariants(s.state, kmax=3) - base)) for s in traj.samples)
        assert drift <= 1e-8


class TestCommutatorDefect:
    def test_zero_delta_exact(self):
        assert commutator_defect(WELL_SEPARATED, 0.0, 0.02, 1e-3) == 0.0

    def test_single_particle_flows_commute(self):
        assert commutator_defect(PhaseState([0.1], [0.9]), 0.05, 0.05, 1e-3) <= 1e-12

    def test_three_particles(self):
        assert commutator_defect(WELL_SEPARATED, 0.01, 0.01, 1e-3) <= 1e-6

    def test_integrator_order_scaling(self):
        coarse = commutator_defect(WELL_SEPARATED, 0.2, 0.2, 0.02)
        fine = commutator_defect(WELL_SEPARATED, 0.2, 0.2, 0.01)
        assert coarse / fine == pytest.approx(16.0, rel=0.5)


class TestPoissonBracket:
    def test_self_bracket(self):
        h2 = hamiltonian_observable(2)
        assert poisson_bracket(h2, h2, WELL_SEPARATED) == 0.0

    def test_canonical_pair_sign(self):
        # printed convention {f,g} = sum df/dp dg/dx - dg/dp df/dx gives {x1,p1} = -1
        f = lambda s: s.x[0]
        g = lambda s: s.p[0]
        assert poisson_bracket(f, g, WELL_SEPARATED) == pytest.approx(-1.0, abs=1e-9)

    def test_hierarchy_involution(self):
        h2, h3 = hamiltonian_observable(2), hamiltonian_observable(3)
        for _ in range(100):
            state = random_phase_state(RNG, 3, min_gap=0.5)
            assert abs(poisson_bracket(h2, h3, state)) <= 1e-6

    def test_antisymmetry_fd_observables(self):
        f = lambda s: float(np.sum(s.x**2) + s.p[0] * s.x[1])
        g = lambda s: float(np.sum(s.p**2) * 0.5 + np.sin(s.x[0]))
        for _ in range(10):
            state = random_phase_state(RNG, 3, min_gap=0.5)
            fg = poisson_bracket(f, g, state)
            gf = poisson_bracket(g, f, state)
            assert abs(fg + gf) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_finite_differences_match_analytic_gradients(self, k, n):
        def cubic(s):
            return float(np.sum(s.x**2 * s.p) + np.sum(s.x * s.p**2))

        cubic_analytic = lambda s: cubic(s)
        cubic_analytic.gradient = lambda s: (2 * s.x * s.p + s.p**2, s.x**2 + 2 * s.x * s.p)
        state = random_phase_state(np.random.default_rng(10 * k + n), n, min_gap=0.5)
        analytic = poisson_bracket(hamiltonian_observable(k), cubic_analytic, state)
        differenced = poisson_bracket(lambda s: hamiltonian(k, s), cubic, state)
        assert abs(analytic) > 1e-2
        assert differenced == pytest.approx(analytic, rel=1e-7)


class TestHamiltonianClosure:
    def test_single_particle(self):
        assert abs(hamiltonian_closure_residual(PhaseState([0.3], [0.8]), 1e-4)) <= 1e-8

    def test_matches_bracket_identity(self):
        h2, h3 = hamiltonian_observable(2), hamiltonian_observable(3)
        for _ in range(5):
            state = random_phase_state(RNG, 3, min_gap=0.8)
            residual = hamiltonian_closure_residual(state, 1e-4)
            bracket = poisson_bracket(h2, h3, state)
            assert abs(residual - (-2.0) * bracket) <= 1e-6

    def test_three_particles_small(self):
        for _ in range(10):
            state = random_phase_state(RNG, 3, min_gap=0.6)
            assert abs(hamiltonian_closure_residual(state, 1e-4)) <= 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    def test_signed_step_endpoint_returns(self, k):
        from cmhier.flows import _flow_endpoint

        there = _flow_endpoint(k, WELL_SEPARATED, 0.05)
        back = _flow_endpoint(k, there, -0.05)
        assert np.max(np.abs(there.x - WELL_SEPARATED.x)) > 1e-3
        assert np.max(np.abs(back.x - WELL_SEPARATED.x)) <= 1e-12
        assert np.max(np.abs(back.p - WELL_SEPARATED.p)) <= 1e-12


class TestPluriEl:
    def test_pure_t2_solution(self):
        traj = integrate_flow(2, WELL_SEPARATED, 12e-3, 1e-3)
        res = pluri_el_residual(traj, (1.0, 0.0))
        assert np.nanmax(np.abs(res)) <= 1e-6

    def test_free_particle_any_direction(self):
        traj = evolve_path(PhaseState([0.0], [0.9]), PathSpec(np.array([0.7, 0.4]), 0.01, steps=12))
        res = pluri_el_residual(traj, (0.7, 0.4))
        assert np.nanmax(np.abs(res)) <= 1e-8

    def test_perturbed_trajectory_detected(self):
        traj = integrate_flow(2, WELL_SEPARATED, 12e-3, 1e-3)
        res = pluri_el_residual(perturb_positions(traj), (1.0, 0.0))
        assert np.nanmax(np.abs(res)) >= 1e-2

    def test_t3_lagrangian_flow(self):
        # The t3 member of the Lagrangian family generates the flow of
        # -(3/4) H_(t3); along that flow the generalized EL residual vanishes,
        # while the printed-Hamiltonian t3 flow leaves a finite mismatch.
        state = WELL_SEPARATED
        h = 1e-3
        samples = []
        y = state
        for i in range(13):
            if i > 0:
                from cmhier.flows import _raw_field
                from cmhier.numerics import rk4_step

                fld = _raw_field(np.array([0.0, -0.75]), y.n)
                z = rk4_step(fld, (i - 1) * h, np.concatenate([y.x, y.p]), h)
                y = PhaseState(z[: y.n], z[y.n :])
            samples.append(TrajectorySample(i * h, 0.0, i * h, y))
        lagrangian_flow = Trajectory(tuple(samples))
        res = pluri_el_residual(lagrangian_flow, (0.0, 1.0))
        assert np.nanmax(np.abs(res)) <= 1e-6

        printed_flow = integrate_flow(3, state, 13e-3, h)
        res_printed = pluri_el_residual(printed_flow, (0.0, 1.0))
        assert np.nanmax(np.abs(res_printed)) >= 1e-2

    def test_degenerate_direction(self):
        traj = integrate_flow(2, WELL_SEPARATED, 5e-3, 1e-3)
        with pytest.raises(DegenerateDirection):
            pluri_el_residual(traj, (0.0, 0.0))


class TestPluriConstraint:
    def test_inactive_t3_direction(self):
        v = VelocityState([-1.0, 1.0], [0.4, -0.4], [0.2, 0.2])
        assert pluri_constraint_residual(v, (1.0, 0.0)) == 0.0

    def test_pure_t3_is_scaled_constraint(self):
        from cmhier.hierarchy import constraint_residual

        for _ in range(10):
            state = random_phase_state(RNG, 3, min_gap=0.6)
            v = VelocityState(state.x, state.p, RNG.uniform(-1, 1, 3))
            expected = 3.0 * np.max(np.abs(constraint_residual(v)))
            assert pluri_constraint_residual(v, (0.0, 1.0)) == pytest.approx(expected, rel=1e-12)

    def test_pinned_single_particle_values(self):
        # v3 = -3 v2^2/4 satisfies the constraint, anything else misses by the gap
        assert pluri_constraint_residual(VelocityState([0.0], [2.0], [-3.0]), (1.0, 1.0)) == pytest.approx(0.0)
        assert pluri_constraint_residual(VelocityState([0.0], [2.0], [1.0]), (1.0, 1.0)) == pytest.approx(4.0)

    def test_matches_fd_oracle(self):
        # rebuild the constraint combination from finite differences of the
        # Lagrangians with respect to the velocity components
        d2, d3 = 0.8, 0.6
        for _ in range(5):
            state = random_phase_state(RNG, 3, min_gap=0.8)
            v2 = RNG.uniform(-1, 1, 3)
            v3 = RNG.uniform(-1, 1, 3)
            sample = VelocityState(state.x, v2, v3)

            def dl_dv(k, wrt, i):
                def f(vec):
                    vs = VelocityState(
                        state.x,
                        vec if wrt == 2 else v2,
                        vec if wrt == 3 else v3,
                    )
                    return lagrangian(k, vs)

                return fd_derivative(f, v2 if wrt == 2 else v3, i, 1e-6)

            expected = np.array(
                [
                    dl_dv(3, 2, i) * d3**2 + (dl_dv(2, 2, i) - dl_dv(3, 3, i)) * d2 * d3 - dl_dv(2, 3, i) * d2**2
                    for i in range(3)
                ]
            )
            got = pluri_constraint_residual(sample, (d2, d3))
            assert got == pytest.approx(np.max(np.abs(expected)), abs=1e-6)


class TestGeneralizedMomentum:
    def test_reduced_single_direction(self):
        v = VelocityState([-1.0, 1.0], [0.4, -0.4], [0.9, 0.9])
        assert np.allclose(generalized_momentum(v, (1.0, 0.0)), v.v2)

    def test_pinned_single_particle_mixed(self):
        # P = (1/2)[2 v2 + v3 + (3/4) v2^2] for one particle on direction (1,1)
        v = VelocityState([0.0], [2.0], [5.0])
        assert generalized_momentum(v, (1.0, 1.0))[0] == pytest.approx(0.5 * (4.0 + 5.0 + 3.0))

    def test_matches_fd_oracle(self):
        d2, d3 = 1.0, 0.7
        state = random_phase_state(RNG, 3, min_gap=0.8)
        v2 = RNG.uniform(-1, 1, 3)
        v3 = RNG.uniform(-1, 1, 3)
        sample = VelocityState(state.x, v2, v3)

        def dl_dv(k, wrt, i):
            def f(vec):
                vs = VelocityState(state.x, vec if wrt == 2 else v2, vec if wrt == 3 else v3)
                return lagrangian(k, vs)

            return fd_derivative(f, v2 if wrt == 2 else v3, i, 1e-6)

        expected = 0.5 * np.array(
            [
                dl_dv(2, 2, i) + dl_dv(3, 3, i) + (d2 / d3) * dl_dv(2, 3, i) + (d3 / d2) * dl_dv(3, 2, i)
                for i in range(3)
            ]
        )
        assert np.allclose(generalized_momentum(sample, (d2, d3)), expected, atol=1e-6)

    def test_boundary_term_oracle_free_particle(self):
        # one free particle, pure t2 segment: dS/dx_end equals the momentum
        x0, t_end = 0.2, 0.5

        def action(x_end):
            v = (x_end[0] - x0) / t_end
            return 0.5 * v**2 * t_end

        for v in (0.4, 1.3):
            x_end = np.array([x0 + v * t_end])
            dS = fd_derivative(action, x_end, 0, 1e-6)
            sample = VelocityState(x_end, [v], [0.0])
            assert generalized_momentum(sample, (1.0, 0.0))[0] == pytest.approx(dS, abs=1e-8)

    def test_degenerate_direction(self):
        v = VelocityState([0.0], [1.0], [1.0])
        with pytest.raises(DegenerateDirection):
            generalized_momentum(v, (0.0, 0.0))


class TestNoetherCharge:
    def test_single_flow_reduction(self):
        traj = integrate_flow(2, WELL_SEPARATED, 0.2, 1e-3)
        series = noether_charge(traj, (1.0, 0.0))
        expected = hamiltonian(2, WELL_SEPARATED)
        assert np.max(np.abs(series - expected)) <= 1e-9

    def test_free_particle_closed_form(self):
        c2, c3, p0 = 0.6, 0.4, 0.9
        traj = evolve_path(PhaseState([0.0], [p0]), PathSpec(np.array([c2, c3]), 1.0, steps=50))
        series = noether_charge(traj, (c2, c3))
        assert np.allclose(series, c2 * p0**2 / 2 + c3 * p0**3 / 3, atol=1e-12)

    def test_conserved_on_mixed_path(self):
        direction = np.array([1.0, 1.0])
        traj = evolve_path(WELL_SEPARATED, PathSpec(direction, 0.5, steps=500))
        series = noether_charge(traj, direction)
        assert np.max(np.abs(series - series[0])) <= 1e-8

    def test_perturbed_path_not_conserved(self):
        direction = np.array([1.0, 1.0])
        traj = evolve_path(WELL_SEPARATED, PathSpec(direction, 0.5, steps=500))
        series = noether_charge(perturb_positions(traj, per_particle=True), direction)
        assert np.max(np.abs(series - series[0])) >= 1e-3


class TestLagrangianClosure:
    def test_single_particle_pinned(self):
        # both Lagrangians depend only on flow constants for N=1, so the
        # sheet derivative vanishes in either velocity mode
        state = PhaseState([0.3], [0.8])
        for mode in ("flow", "constraint"):
            assert abs(lagrangian_closure_residual(state, 1e-4, mode)) <= 1e-9

    def test_free_limit(self):
        state = PhaseState([0.0, 1e3, 2e3], [0.3, -0.2, 0.6])
        for mode in ("flow", "constraint"):
            assert abs(lagrangian_closure_residual(state, 1e-4, mode)) <= 1e-6

    def test_eps_halving_converges(self):
        state = WELL_SEPARATED
        for mode in ("flow", "constraint"):
            r1 = lagrangian_closure_residual(state, 2e-3, mode)
            r2 = lagrangian_closure_residual(state, 1e-3, mode)
            r4 = lagrangian_closure_residual(state, 5e-4, mode)
            # second-order differencing: increments shrink about fourfold
            assert abs(r2 - r4) <= 0.35 * abs(r1 - r2) + 1e-12

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            lagrangian_closure_residual(WELL_SEPARATED, 1e-4, "other")
