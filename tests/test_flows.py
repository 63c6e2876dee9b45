import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmhier.errors import CollisionSingularity, NumericsError
from cmhier import flows, numerics
from cmhier.exact import projection_spectrum
from cmhier.flows import (
    PathSpec,
    Trajectory,
    _along_flow,
    _check_in_flight,
    _flow_ends,
    _raw_field,
    commutator_defect,
    evolve_path,
    evolve_paths,
    integrate_flow,
    lagrangian_closure_residuals,
    noether_charge,
    pluri_el_residual,
    poisson_bracket,
)
from cmhier.hierarchy import (
    FLOW_DIRECTIONS,
    PhaseState,
    constraint_velocity,
    hamiltonian_grad,
    lagrangian,
    lax_invariants,
    weighted_hamiltonian,
)
from cmhier.numerics import fd_gradient
from cmhier.sampling import random_phase_state

RNG = np.random.default_rng(77)

WELL_SEPARATED = PhaseState([-2.2, 0.1, 2.4], [0.3, -0.2, 0.1])


def perturb_positions(traj, scale=0.1, per_particle=False):
    """Shift sampled positions by scale*s^2 (optionally ramped per particle)."""
    shift = scale * traj.times()[:, :1] ** 2
    if per_particle:
        shift = shift * (1.0 + np.arange(traj.x.shape[1]))
    return Trajectory(traj.path, traj.x + shift, traj.p)


def h_observable(k):
    """H_(tk) as a bracket observable on positions and momenta over leading axes."""
    return lambda x, p: weighted_hamiltonian(*FLOW_DIRECTIONS[k], x, p)


def hamilton_field(k: int, state: PhaseState) -> tuple[np.ndarray, np.ndarray]:
    """Hamilton equations of the flow t_k: xdot = dH_(tk)/dp, pdot = -dH_(tk)/dx."""
    dx, dp = hamiltonian_grad(k, state)
    return dp, -dx


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
        xdot, pdot = hamilton_field(2, PhaseState([0.0], [0.8]))
        assert xdot[0] == pytest.approx(0.8)
        assert pdot[0] == 0.0

    def test_free_particle_t3(self):
        xdot, pdot = hamilton_field(3, PhaseState([0.0], [0.8]))
        assert xdot[0] == pytest.approx(0.64)
        assert pdot[0] == 0.0

    def test_two_particle_forces(self):
        xdot, pdot = hamilton_field(2, PhaseState([-1.0, 1.0], [0.0, 0.0]))
        assert np.allclose(xdot, 0.0)
        assert np.allclose(pdot, [1.0, -1.0])

    def test_mixed_direction_field_is_the_weighted_sum(self):
        d2, d3 = 0.7, -0.4
        y = np.concatenate([WELL_SEPARATED.x, WELL_SEPARATED.p])
        x2, p2 = hamilton_field(2, WELL_SEPARATED)
        x3, p3 = hamilton_field(3, WELL_SEPARATED)
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
    """The wording of a step that numerics.march refused; tests/test_numerics.py::TestMarch holds which it refuses."""

    ORDER = np.array([[0, 1, 2]])
    GAP = "gap below 1.0e-06 at s=0.25"
    NON_FINITE = "non-finite state at s=0.25"

    @staticmethod
    def check(y, order, s):
        """_check_in_flight of the stack y after a step from states spread 2 apart, where the t2 field is finite."""
        n = len(order[0])
        before = np.concatenate([np.tile(2.0 * np.arange(n), (len(y), 1)), np.zeros((len(y), n))], axis=1)
        _check_in_flight(y, order, s, before, _raw_field(np.array([1.0, 0.0]), n))

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
            self.check(np.array([x + p]), self.ORDER, 0.25)
        assert str(info.value) == message and info.value.s == 0.25

    def test_single_particle(self):
        with pytest.raises(CollisionSingularity, match=f"^{self.NON_FINITE}$"):
            self.check(np.array([[np.inf, -1.0]]), np.array([[0]]), 0.25)

    @pytest.mark.parametrize("k", [0, 2])
    def test_each_row_in_its_own_start_order(self, k):
        # row 1 starts in the order (1, 0, 2), so its positions are in order; row k is flipped
        y = np.array([[0.0, 1.0, 2.0, 0.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 0.0, 0.0, 0.0]])
        order = np.array([[0, 1, 2], [1, 0, 2], [0, 1, 2]]) + 6 * np.arange(3)[:, None]
        y[k, :2] = y[k, 1::-1]
        with pytest.raises(CollisionSingularity) as info:
            self.check(y, order, 0.25)
        assert str(info.value) == f"{self.GAP} in system {k}" and info.value.system == k

    def test_overflowing_field_is_named(self):
        # the field at the last accepted state is already infinite, so the step overflows, not collides
        before = np.array([[-2.0, 0.0, 2.0, 0.0, 0.0, 0.0], [-2.0, 0.0, 2.0, 1.0, 0.0, 0.0]])
        fld = _raw_field(np.array([1e308, 1e308]), 3)
        y = before.copy()
        y[1, 4] = np.inf
        with pytest.raises(NumericsError) as info:
            _check_in_flight(y, np.array([[0, 1, 2], [6, 7, 8]]), 0.25, before, fld)
        assert str(info.value) == "Hamilton field overflows on the step to s=0.25 in system 1"
        assert info.value.s == 0.25 and info.value.system == 1
        with pytest.raises(CollisionSingularity, match=f"^{self.NON_FINITE} in system 1$"):
            _check_in_flight(y, np.array([[0, 1, 2], [6, 7, 8]]), 0.25, before, _raw_field(np.array([1.0, 0.0]), 3))


class TestIntegrateFlow:
    def test_builds_no_state_until_samples_are_read(self, count_builds):
        builds = count_builds(PhaseState)
        traj = integrate_flow(2, WELL_SEPARATED, 10e-3, 1e-3)
        assert traj.x.shape == traj.p.shape == (11, 3) and len(builds) == 0
        assert len(traj.samples) == 11 and len(builds) == 11
        assert traj.samples is traj.samples and len(builds) == 11

    def test_free_motion(self):
        traj = integrate_flow(2, PhaseState([0.0], [1.0]), 1.0, 1e-2)
        assert traj.samples[-1].x[0] == pytest.approx(1.0, abs=1e-12)
        assert traj.samples[-1].p[0] == pytest.approx(1.0)

    def test_two_body_gap_law(self):
        # conserved relative energy E = r'(0)^2/2 - 8/r0^2 makes (r^2)'' = 4E,
        # so r^2(t) = r0^2 + 2 E t^2 for a symmetric start at rest
        start = PhaseState([-2.0, 2.0], [0.0, 0.0])
        traj = integrate_flow(2, start, 0.5, 1e-3)
        e_rel = -8.0 / 16.0
        for t2, state in zip(traj.times()[:, 1], traj.samples):
            r2 = (state.x[1] - state.x[0]) ** 2
            assert r2 == pytest.approx(16.0 + 2.0 * e_rel * t2**2, abs=1e-6)

    def test_invariant_drift(self):
        base = lax_invariants(WELL_SEPARATED.x, WELL_SEPARATED.p)
        traj = integrate_flow(2, WELL_SEPARATED, 1.0, 1e-3)
        drift = max(
            np.max(np.abs(lax_invariants(s.x, s.p) - base)) for s in traj.samples
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
            assert np.array_equal(sa.x, sb.x)
            assert np.array_equal(sa.p, sb.p)

    def test_wide_path_matches_the_projection_solution(self):
        # x(s) = eig(diag x0 + s (d2 L0 + d3 L0^2)) solves the rational CM
        # flows (Olshanetsky-Perelomov); gamma = -2 matches the Hamiltonians
        rng = np.random.default_rng(64)
        x0 = 3.0 * np.arange(64) + rng.uniform(-0.3, 0.3, 64)
        start = PhaseState(x0, np.sort(rng.uniform(-0.5, 0.5, 64)))
        end = evolve_path(start, PathSpec(np.array([1.0, 1.0]), 0.05, steps=50)).samples[-1]
        exact = np.sort(projection_spectrum(start, (1.0, 1.0), 0.05).real)
        assert np.max(np.abs(np.sort(end.x) - exact)) <= 1e-9

    def test_free_particle_closed_form(self):
        c2, c3 = 0.4, 0.3
        p0 = 0.7
        path = PathSpec(np.array([c2, c3]), 1.0, steps=100)
        end = evolve_path(PhaseState([0.2], [p0]), path).samples[-1]
        assert end.x[0] == pytest.approx(0.2 + p0 * c2 + p0**2 * c3, abs=1e-12)
        assert end.p[0] == pytest.approx(p0)

    def test_energy_conserved_along_path(self):
        direction = np.array([1.0, 0.5])
        traj = evolve_path(WELL_SEPARATED, PathSpec(direction, 0.5, steps=500))
        series = noether_charge(traj)
        assert np.max(np.abs(series - series[0])) <= 1e-8


class TestPathSpec:
    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
    def test_non_finite_duration_is_refused(self, duration):
        with pytest.raises(ValueError, match="^duration must be finite$"):
            PathSpec(np.array([1.0, 0.0]), duration, 10)

    def test_negative_duration_is_refused(self):
        with pytest.raises(ValueError, match="^duration must be nonnegative$"):
            PathSpec(np.array([1.0, 0.0]), -0.1, 10)


class TestStackedMarch:
    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_each_system_ends_as_if_marched_alone(self, n, direction):
        starts = [spread_state(10 * n + b, n) for b in range(5)]
        path = PathSpec(np.array(direction), 0.02, steps=40)
        stacked = evolve_paths(starts, path)
        assert len(stacked) == 5
        for start, traj in zip(starts, stacked, strict=True):
            alone = evolve_path(start, path)
            assert np.array_equal(traj.x, alone.x) and np.array_equal(traj.p, alone.p)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_failure_names_the_system_and_s(self, k):
        # a head-on pair collides near s = 0.033; every other system stays well separated
        starts = [spread_state(b, 2) for b in range(4)]
        starts[k] = PhaseState([-0.4, 0.4], [6.0, -6.0])
        with pytest.raises(CollisionSingularity, match=rf" at s=\S+ in system {k}$") as info:
            evolve_paths(starts, PathSpec(np.array([1.0, 0.0]), 1.0, steps=1000))
        assert info.value.system == k and 0.0 < info.value.s < 0.1
        with pytest.raises(CollisionSingularity, match=r" at s=\S+$") as alone:
            evolve_path(starts[k], PathSpec(np.array([1.0, 0.0]), 1.0, steps=1000))
        assert alone.value.s == info.value.s and alone.value.system is None

    def test_trajectory_rejects_a_colliding_sample(self):
        x = np.array([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 2.0, 2.0], [0.0, 1.0, 2.0]])
        with pytest.raises(CollisionSingularity, match=r"^minimum gap 0\.000e\+00 below 1\.0e-12 at sample 2$") as info:
            Trajectory(PathSpec(np.array([1.0, 0.0]), 0.3, 3), x, np.zeros_like(x))
        assert info.value.system == 2

    def test_trajectory_arrays_are_read_only_copies(self):
        x, p = np.array([[0.0, 1.0], [0.1, 1.1]]), np.zeros((2, 2))
        traj = Trajectory(PathSpec(np.array([1.0, 0.0]), 0.1, 1), x, p)
        x[0, 0] = 5.0
        assert traj.x[0, 0] == 0.0 and not traj.x.flags.writeable and not traj.p.flags.writeable
        with pytest.raises(ValueError, match="one shape"):
            Trajectory(traj.path, x, p[:1])

    def test_commutator_defect_of_a_stack(self):
        states = [spread_state(b, 3) for b in range(4)]
        defects = commutator_defect(states, 0.01, 0.01, 1e-3)
        assert [commutator_defect([st], 0.01, 0.01, 1e-3)[0] for st in states] == list(defects)


def march_outcome(float_size, y0, path):
    """flows._march of the stack y0 along the path with FLOAT_MARCH_SIZE = float_size: its (T, B, 2N) states,
    or the abort it raises as (type, message, s, system), and whether any system marched on floats."""
    floats = []
    real = flows.float_rk4_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flows, "FLOAT_MARCH_SIZE", float_size)
        patch.setattr(flows, "float_rk4_step", lambda *args, **params: floats.append(True) or real(*args, **params))
        try:
            return flows._march(y0, path), bool(floats)
        except NumericsError as exc:
            return (type(exc), str(exc), exc.s, exc.system), bool(floats)


def assert_same_outcome(y0, path):
    """The float kernel, on every system of any stack below ORDERED_SUM_N particles, ends as the numpy
    kernel does, every value to the bit, and returns the outcome."""
    expected, on_floats = march_outcome(0, y0, path)
    assert not on_floats
    got, on_floats = march_outcome(np.inf, y0, path)
    assert on_floats
    if isinstance(expected, tuple):
        assert got == expected
    else:  # tobytes also tells 0.0 from -0.0
        assert isinstance(got, np.ndarray) and got.shape == expected.shape and got.tobytes() == expected.tobytes()
    return expected


class TestFloatMarch:
    """The float kernel of numerics.march, which flows._march picks for small stacks, against the numpy
    march it stands in for."""

    # (-1.0, -0.0) and (-0.0, -1.0) are the reversed flows of _flow_ends; a weight of -0.0 counts as zero
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 7),
        b=st.sampled_from([1, 2, 5]),
        direction=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.7, -0.4), (-1.0, -1.0), (-1.0, -0.0),
                                   (-0.0, -1.0), (1 / 3, 2 / 3)]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 20),
        duration=st.sampled_from([0.0, 0.05, 0.3, 0.5]),
    )
    @example(n=3, b=1, direction=(1 / 3, 2 / 3), seed=0, steps=7, duration=0.3)  # dt = 0.3/7, not a binary fraction
    @example(n=7, b=2, direction=(-1.0, -0.0), seed=1, steps=8, duration=0.05)
    @example(n=4, b=1, direction=(-0.0, -1.0), seed=2, steps=8, duration=0.05)
    def test_every_step_equals_the_numpy_march(self, n, b, direction, seed, steps, duration):
        # gaps from 0.05 and momenta up to 3 in any start order: some stacks collide, flip or overflow
        rng = np.random.default_rng(seed)
        x = rng.permuted(np.cumsum(rng.uniform(0.05, 1.5, (b, n)), axis=1), axis=1)
        y0 = np.concatenate([x, rng.uniform(-3.0, 3.0, (b, n))], axis=1)
        assert_same_outcome(y0, PathSpec(np.array(direction), duration, steps))

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_head_on_pair_aborts_alike(self, k):
        # the stack of TestStackedMarch.test_failure_names_the_system_and_s
        starts = [spread_state(b, 2) for b in range(4)]
        starts[k] = PhaseState([-0.4, 0.4], [6.0, -6.0])
        y0 = np.array([np.concatenate([state.x, state.p]) for state in starts])
        outcome = assert_same_outcome(y0, PathSpec(np.array([1.0, 0.0]), 1.0, steps=1000))
        assert outcome[0] is CollisionSingularity and outcome[3] == k

    @pytest.mark.parametrize(
        "y0, direction, duration, steps, message",
        [
            # free particles pass each other within one step: finite, in the wrong order
            ([[-1.0, 1.0, 5.0, -5.0]], (1.0, 0.0), 1.0, 1, "gap below 1.0e-06 at s=1"),
            # the second stage puts both particles at 0: 1 / 0 is inf, where Python would raise
            ([[-1.0, 1.0, 2.0, -2.0], [-3.0, 3.0, 0.0, 0.0]], (1.0, 0.0), 1.0, 1, "non-finite state at s=1 in system 0"),
            # the overflow scenarios of test_cli.py
            ([[-2.0, 2.0, 0.0, 0.0]], (1e308, 1e308), 0.01, 10, "non-finite state at s=0.001"),
            ([[-2.0, 0.0, 2.0, 0.0, 0.0, 0.0]], (1e308, 1e308), 0.01, 10, "Hamilton field overflows on the step to s=0.001"),
        ],
    )
    def test_failing_step_aborts_alike(self, y0, direction, duration, steps, message):
        outcome = assert_same_outcome(np.array(y0), PathSpec(np.array(direction), duration, steps))
        assert outcome[1] == message

    # "_float_march" and "_numpy_march" label the float and numpy kernels, and keep the test ids stable
    @pytest.mark.parametrize("b, n, kernel", [(1, 2, "_float_march"), (6, 2, "_float_march"), (4, 3, "_float_march"),
                                              (8, 3, "_float_march"), (16, 3, "_float_march"), (17, 3, "_numpy_march"),
                                              (1, 8, "_numpy_march"), (3, 7, "_float_march"), (6, 7, "_float_march"),
                                              (7, 7, "_numpy_march")])
    def test_the_stack_shape_picks_the_kernel(self, monkeypatch, b, n, kernel):
        picked = []
        monkeypatch.setattr(flows, "march", lambda field, y0, times, dt, order, tol, refused, step: picked.append(
            "_numpy_march" if step is None else "_float_march") or np.zeros((1, b, 2 * n)))
        flows._march(np.zeros((b, 2 * n)), PathSpec(np.array([1.0, 0.0]), 0.1, 1))
        assert picked == [kernel]


class TestPerSample:
    @pytest.mark.parametrize("entries", [1, 50, numerics.STACK_ENTRIES])
    def test_row_blocks_give_the_unblocked_values(self, monkeypatch, entries):
        # 1 entry: one sample per block; 50: five samples per block at N = 3, the last block short
        traj = evolve_path(WELL_SEPARATED, PathSpec(np.array([1.0, 1.0]), 0.05, steps=48))
        whole = lax_invariants(traj.x, traj.p)
        energy = weighted_hamiltonian(1.0, 1.0, traj.x, traj.p)
        blocks = []
        monkeypatch.setattr(numerics, "STACK_ENTRIES", entries)
        got = traj.per_sample(lambda x, p: blocks.append(len(x)) or lax_invariants(x, p))
        assert np.array_equal(got, whole) and np.array_equal(noether_charge(traj), energy)
        assert sum(blocks) == 49 and max(blocks) == min(49, max(1, entries // 9))


class TestPathIndependence:
    def test_two_leg_paths_reach_same_endpoint(self):
        d2, d3 = 0.05, 0.05
        first = evolve_path(
            evolve_path(WELL_SEPARATED, PathSpec(np.array([1.0, 0.0]), d2, 50)).samples[-1],
            PathSpec(np.array([0.0, 1.0]), d3, 50),
        ).samples[-1]
        second = evolve_path(
            evolve_path(WELL_SEPARATED, PathSpec(np.array([0.0, 1.0]), d3, 50)).samples[-1],
            PathSpec(np.array([1.0, 0.0]), d2, 50),
        ).samples[-1]
        gap = max(np.max(np.abs(first.x - second.x)), np.max(np.abs(first.p - second.p)))
        assert gap <= 1e-6

    def test_invariants_conserved_on_mixed_segment(self):
        base = lax_invariants(WELL_SEPARATED.x, WELL_SEPARATED.p)
        traj = evolve_path(WELL_SEPARATED, PathSpec(np.array([0.7, 0.4]), 0.3, 300))
        drift = max(np.max(np.abs(lax_invariants(s.x, s.p) - base)) for s in traj.samples)
        assert drift <= 1e-8


class TestCommutatorDefect:
    def test_zero_delta_exact(self):
        assert commutator_defect([WELL_SEPARATED], 0.0, 0.02, 1e-3)[0] == 0.0

    def test_single_particle_flows_commute(self):
        assert commutator_defect([PhaseState([0.1], [0.9])], 0.05, 0.05, 1e-3)[0] <= 1e-12

    def test_three_particles(self):
        assert commutator_defect([WELL_SEPARATED], 0.01, 0.01, 1e-3)[0] <= 1e-6

    def test_integrator_order_scaling(self):
        coarse = commutator_defect([WELL_SEPARATED], 0.2, 0.2, 0.02)[0]
        fine = commutator_defect([WELL_SEPARATED], 0.2, 0.2, 0.01)[0]
        assert coarse / fine == pytest.approx(16.0, rel=0.5)


class TestPoissonBracket:
    def test_self_bracket(self):
        h2 = h_observable(2)
        assert poisson_bracket(h2, h2, [WELL_SEPARATED])[0] == 0.0

    def test_canonical_pair_sign(self):
        # printed convention {f,g} = sum df/dp dg/dx - dg/dp df/dx gives {x1,p1} = -1
        f = lambda x, p: x[..., 0]
        g = lambda x, p: p[..., 0]
        assert poisson_bracket(f, g, [WELL_SEPARATED])[0] == pytest.approx(-1.0, abs=1e-9)

    def test_hierarchy_involution(self):
        h2, h3 = h_observable(2), h_observable(3)
        for _ in range(100):
            state = random_phase_state(RNG, 3, min_gap=0.5)
            assert abs(poisson_bracket(h2, h3, [state])[0]) <= 1e-6

    def test_antisymmetry_fd_observables(self):
        f = lambda x, p: np.sum(x**2, axis=-1) + p[..., 0] * x[..., 1]
        g = lambda x, p: np.sum(p**2, axis=-1) * 0.5 + np.sin(x[..., 0])
        for _ in range(10):
            state = random_phase_state(RNG, 3, min_gap=0.5)
            fg = poisson_bracket(f, g, [state])[0]
            gf = poisson_bracket(g, f, [state])[0]
            assert abs(fg + gf) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [2, 3])
    def test_finite_differences_match_analytic_gradients(self, k, n):
        def cubic(x, p):
            return np.sum(x**2 * p, axis=-1) + np.sum(x * p**2, axis=-1)

        state = random_phase_state(np.random.default_rng(10 * k + n), n, min_gap=0.5)
        hx, hp = hamiltonian_grad(k, state)
        cx, cp = 2 * state.x * state.p + state.p**2, state.x**2 + 2 * state.x * state.p
        analytic = float(np.sum(hp * cx - cp * hx))
        differenced = poisson_bracket(h_observable(k), cubic, [state])[0]
        assert abs(analytic) > 1e-2
        assert differenced == pytest.approx(analytic, rel=1e-7)

    def test_stacked_bracket_equals_each_state_alone(self):
        states = [random_phase_state(np.random.default_rng(seed), 3, min_gap=0.5) for seed in range(7)]
        stacked = poisson_bracket(h_observable(2), h_observable(3), states)
        assert stacked.shape == (7,)
        for state, value in zip(states, stacked, strict=True):
            assert value == poisson_bracket(h_observable(2), h_observable(3), [state])[0]


class TestHamiltonianClosure:
    def test_matches_bracket_identity(self):
        # d f/dt_k = {H_(tk), f}, so dH_(t2)/dt3 - dH_(t3)/dt2 = -2 {H_(t2), H_(t3)}
        for _ in range(5):
            state = random_phase_state(RNG, 3, min_gap=0.8)
            t3_ends, t2_ends = _flow_ends(3, state, 1e-4), _flow_ends(2, state, 1e-4)
            residual = _along_flow(h_observable(2)(*t3_ends), 1e-4) - _along_flow(h_observable(3)(*t2_ends), 1e-4)
            bracket = poisson_bracket(h_observable(2), h_observable(3), [state])[0]
            assert abs(residual - (-2.0) * bracket) <= 1e-6

    @pytest.mark.parametrize("k", [2, 3])
    def test_signed_step_endpoint_returns(self, k):
        # the -eps end of _flow_ends marches the reversed flow, so from the +eps end it returns to the start
        x, p = _flow_ends(k, WELL_SEPARATED, 0.05)
        back_x, back_p = _flow_ends(k, PhaseState(x[0], p[0]), 0.05)[:, 1]
        assert np.max(np.abs(x[0] - WELL_SEPARATED.x)) > 1e-3
        assert np.max(np.abs(back_x - WELL_SEPARATED.x)) <= 1e-12
        assert np.max(np.abs(back_p - WELL_SEPARATED.p)) <= 1e-12


class TestPluriEl:
    def test_pure_t2_solution(self):
        traj = integrate_flow(2, WELL_SEPARATED, 12e-3, 1e-3)
        res = pluri_el_residual(traj)
        assert np.nanmax(np.abs(res)) <= 1e-6

    def test_free_particle_any_direction(self):
        traj = evolve_path(PhaseState([0.0], [0.9]), PathSpec(np.array([0.7, 0.4]), 0.01, steps=12))
        res = pluri_el_residual(traj)
        assert np.nanmax(np.abs(res)) <= 1e-8

    def test_perturbed_trajectory_detected(self):
        traj = integrate_flow(2, WELL_SEPARATED, 12e-3, 1e-3)
        res = pluri_el_residual(perturb_positions(traj))
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
            samples.append(y)
        x, p = np.array([st.x for st in samples]), np.array([st.p for st in samples])
        lagrangian_flow = Trajectory(PathSpec(np.array([0.0, 1.0]), 12 * h, 12), x, p)
        res = pluri_el_residual(lagrangian_flow)
        assert np.nanmax(np.abs(res)) <= 1e-6

        printed_flow = integrate_flow(3, state, 13e-3, h)
        res_printed = pluri_el_residual(printed_flow)
        assert np.nanmax(np.abs(res_printed)) >= 1e-2

    def test_degenerate_direction(self):
        # no path, and so no trajectory for the residual, has a zero or non-finite direction
        for direction in [(0.0, 0.0), (-0.0, 0.0), (np.nan, 1.0), (1.0, np.inf)]:
            with pytest.raises(ValueError, match="direction must be finite and nonzero"):
                PathSpec(np.array(direction), 5e-3, 5)


class TestPluriConstraint:
    def test_matches_fd_oracle(self):
        # constraint_velocity zeroes the transversal constraint of the two-flow family,
        # (dL_(t3)/dv2) d3^2 + (dL_(t2)/dv2 - dL_(t3)/dv3) d2 d3 - (dL_(t2)/dv3) d2^2,
        # rebuilt here from finite differences of the Lagrangians in the velocities
        d2, d3 = 0.8, 0.6
        for _ in range(5):
            state = random_phase_state(RNG, 3, min_gap=0.8)
            v2 = RNG.uniform(-1, 1, 3)

            def constraint(v3):
                def dl_dv(k, wrt, i):
                    def f(vecs):
                        # one (x, v2, v3) row per perturbed point, also where L_(tk) does not read vecs
                        return lagrangian(k, *np.broadcast_arrays(state.x, vecs if wrt == 2 else v2, vecs if wrt == 3 else v3))

                    return fd_gradient(f, v2 if wrt == 2 else v3, 1e-6)[i]

                return np.array(
                    [
                        dl_dv(3, 2, i) * d3**2 + (dl_dv(2, 2, i) - dl_dv(3, 3, i)) * d2 * d3 - dl_dv(2, 3, i) * d2**2
                        for i in range(3)
                    ]
                )

            v3 = constraint_velocity(state.x, v2)
            assert np.max(np.abs(constraint(v3))) <= 1e-6
            # moving v3 by 0.1 moves dL_(t3)/dv2 by 0.1, so the combination by 0.1 d3^2
            assert np.allclose(constraint(v3 + 0.1), 0.1 * d3**2, atol=1e-6)


class TestNoetherCharge:
    def test_single_flow_reduction(self):
        traj = integrate_flow(2, WELL_SEPARATED, 0.2, 1e-3)
        series = noether_charge(traj)
        expected = h_observable(2)(WELL_SEPARATED.x, WELL_SEPARATED.p)
        assert np.max(np.abs(series - expected)) <= 1e-9

    def test_free_particle_closed_form(self):
        c2, c3, p0 = 0.6, 0.4, 0.9
        traj = evolve_path(PhaseState([0.0], [p0]), PathSpec(np.array([c2, c3]), 1.0, steps=50))
        series = noether_charge(traj)
        assert np.allclose(series, c2 * p0**2 / 2 + c3 * p0**3 / 3, atol=1e-12)

    def test_conserved_on_mixed_path(self):
        direction = np.array([1.0, 1.0])
        traj = evolve_path(WELL_SEPARATED, PathSpec(direction, 0.5, steps=500))
        series = noether_charge(traj)
        assert np.max(np.abs(series - series[0])) <= 1e-8

    def test_perturbed_path_not_conserved(self):
        direction = np.array([1.0, 1.0])
        traj = evolve_path(WELL_SEPARATED, PathSpec(direction, 0.5, steps=500))
        series = noether_charge(perturb_positions(traj, per_particle=True))
        assert np.max(np.abs(series - series[0])) >= 1e-3


class TestLagrangianClosure:
    def test_single_particle_pinned(self):
        # both Lagrangians depend only on flow constants for N=1, so the
        # sheet derivative vanishes in either velocity mode
        residuals = lagrangian_closure_residuals(PhaseState([0.3], [0.8]), 1e-4)
        assert list(residuals) == ["flow", "constraint"]
        for mode in ("flow", "constraint"):
            assert abs(residuals[mode]) <= 1e-9

    def test_free_limit(self):
        residuals = lagrangian_closure_residuals(PhaseState([0.0, 1e3, 2e3], [0.3, -0.2, 0.6]), 1e-4)
        for mode in ("flow", "constraint"):
            assert abs(residuals[mode]) <= 1e-6

    def test_eps_halving_converges(self):
        r1, r2, r4 = (lagrangian_closure_residuals(WELL_SEPARATED, eps) for eps in (2e-3, 1e-3, 5e-4))
        for mode in ("flow", "constraint"):
            # second-order differencing: increments shrink about fourfold
            assert abs(r2[mode] - r4[mode]) <= 0.35 * abs(r1[mode] - r2[mode]) + 1e-12

    def test_verify_marches_each_endpoint_once(self, monkeypatch):
        # three steps eps, each with the t2 and t3 endpoints at +eps and -eps, shared by both modes
        from cmhier import verify

        marches, real = [], flows._march
        monkeypatch.setattr(flows, "_march", lambda y0, path: marches.append(path) or real(y0, path))
        verify._closure_diagnostics(verify.Collector(1.0), np.random.default_rng(0))
        assert len(marches) == 12
        assert len({(tuple(path.direction), path.duration) for path in marches}) == 12
