import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhier import discrete, exact, flows
from cmhier.errors import CollisionSingularity, LogSingularity
from cmhier.hierarchy import (
    COLLISION_TOL,
    FLOW_DIRECTIONS,
    GAMMA,
    PhaseState,
    build_lax_pair,
    check_collision_free,
    check_cross_gap,
    constraint_velocity,
    cross_gap,
    inverse_gaps,
    inverse_square_sums,
    hamiltonian_grad,
    lagrangian,
    lax_invariants,
    lax_matrix,
    lax_pair,
    lax_residual,
    legendre_check,
    min_gap,
    trace_powers,
    weighted_gradient,
    weighted_hamiltonian,
)
from cmhier.numerics import fd_gradient
from cmhier.sampling import random_phase_state

RNG = np.random.default_rng(2024)


def hamiltonian_at(k, state):
    """H_(tk) of one state."""
    return weighted_hamiltonian(*FLOW_DIRECTIONS[k], state.x, state.p)


class TestLeadingAxes:
    """Each array kernel evaluates a stack row by row as it evaluates that row alone, bit for bit."""

    @pytest.mark.parametrize("n", [1, 3, 8, 64])
    def test_stack_rows_equal_single_states(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(0.5, 1.5, (2, 3, n)), axis=-1)
        p = rng.uniform(-1.0, 1.0, (2, 3, n))
        v3 = rng.uniform(-1.0, 1.0, (2, 3, n))
        stacked = {
            "inverse_gaps": inverse_gaps(x),
            "gradient": weighted_gradient(0.7, -0.4, x, p, inverse_gaps(x)),
            "hamiltonian": weighted_hamiltonian(0.7, -0.4, x, p),
            "lax_pair": lax_pair(x, p),
            "invariants": lax_invariants(x, p),
            "lax_residual": lax_residual(x, p),
            **{f"lagrangian-{k}": lagrangian(k, x, p, v3) for k in (2, 3)},
            **{f"legendre-{k}": legendre_check(k, x, p, v3) for k in (2, 3)},
        }
        for i in range(2):
            for j in range(3):
                xi, pi, v3i = x[i, j], p[i, j], v3[i, j]
                alone = {
                    "inverse_gaps": inverse_gaps(xi),
                    "gradient": weighted_gradient(0.7, -0.4, xi, pi, inverse_gaps(xi)),
                    "hamiltonian": weighted_hamiltonian(0.7, -0.4, xi, pi),
                    "lax_pair": build_lax_pair(PhaseState(xi, pi)),
                    "invariants": lax_invariants(xi, pi),
                    "lax_residual": lax_residual(xi, pi),
                    **{f"lagrangian-{k}": lagrangian(k, xi, pi, v3i) for k in (2, 3)},
                    **{f"legendre-{k}": legendre_check(k, xi, pi, v3i) for k in (2, 3)},
                }
                for name, value in alone.items():
                    got = stacked[name]
                    pairs = zip(got, value) if isinstance(value, tuple) else [(got, value)]
                    assert all(np.array_equal(g[i, j], v) for g, v in pairs), name

    def test_trace_powers_of_a_stack(self):
        L = np.random.default_rng(9).uniform(-1, 1, (5, 4, 4))
        got = trace_powers(L)
        for row, matrix in zip(got, L, strict=True):
            assert np.array_equal(row, trace_powers(matrix))
            assert np.allclose(row, [np.trace(np.linalg.matrix_power(matrix, l)) for l in range(1, 4)], atol=1e-12)


class TestHamiltonian:
    def test_single_particle_no_interaction(self):
        assert hamiltonian_at(2, PhaseState([0.0], [2.0])) == pytest.approx(2.0)

    def test_two_particles_at_rest(self):
        s = PhaseState([-1.0, 1.0], [0.0, 0.0])
        assert hamiltonian_at(2, s) == pytest.approx(-1.0)

    def test_cubic_member(self):
        s = PhaseState([-1.0, 1.0], [1.0, 1.0])
        assert hamiltonian_at(3, s) == pytest.approx(2.0 / 3.0 - 2.0)

    def test_collision_raises(self):
        with pytest.raises(CollisionSingularity):
            PhaseState([0.0, 0.0], [1.0, -1.0])

    @pytest.mark.parametrize("x", [[np.nan, 1.0], [np.nan], [np.inf], [0.0, -np.inf, 3.0]])
    def test_non_finite_position_raises(self, x):
        with pytest.raises(CollisionSingularity, match="non-finite position"):
            PhaseState(x, np.zeros(len(x)))

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_min_gap_is_the_smallest_pairwise_distance(self, n):
        for _ in range(20):
            x = RNG.uniform(-3.0, 3.0, n) * 10.0 ** RNG.uniform(-5, 5)
            d = np.abs(x[:, None] - x[None, :]) + np.diag(np.full(n, np.inf))
            assert min_gap(x) == d.min()

    def test_bad_flow_index(self):
        x = np.array([0.0])
        for evaluate in (lambda: hamiltonian_grad(4, PhaseState(x, [1.0])), lambda: lagrangian(4, x, x, x),
                         lambda: legendre_check(4, x, x, x)):
            with pytest.raises(ValueError, match="flow index must be one of"):
                evaluate()


class TestCollisionCheck:
    @pytest.mark.parametrize("x, message", [([0.0, np.nan], "non-finite position"),
                                            ([0.0, 1e-13], "minimum gap 1.000e-13 below 1.0e-12")])
    def test_one_configuration_error_names_no_row(self, x, message):
        with pytest.raises(CollisionSingularity, match=f"^{message}$") as info:
            check_collision_free(np.array(x))
        assert info.value.system is None

    @pytest.mark.parametrize(
        "row, value, message",
        [(1, 1e-13, "minimum gap 1.000e-13 below 1.0e-12 at site 1"), (2, np.inf, "non-finite position at site 2")],
    )
    def test_stack_error_names_the_first_failing_row(self, row, value, message):
        x = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0], [0.0, 1e-13]])  # row 3 fails as well
        x[row, 1] = value
        with pytest.raises(CollisionSingularity, match=f"^{message}$") as info:
            check_collision_free(x, "site")
        assert info.value.system == row

    @pytest.mark.parametrize("shape", [(0, 3), (0, 2, 3), (2, 0, 3)])
    def test_empty_stack_passes(self, shape):
        check_collision_free(np.empty(shape))
        check_cross_gap(np.empty(shape), np.empty(shape))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 0)])
    def test_no_particles_is_refused(self, shape):
        with pytest.raises(ValueError, match="^a configuration must hold at least one particle$"):
            check_collision_free(np.empty(shape))

    def test_stack_rows_are_checked_over_their_inner_configurations(self):
        # row 0 is two configurations, each collision-free; row 1's second one collides
        x = np.array([[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [5.0, 5.0]]])
        check_collision_free(x[:1])
        with pytest.raises(CollisionSingularity, match="minimum gap 0.000e[+]00 below 1.0e-12 at system 1$") as info:
            check_collision_free(x)
        assert info.value.system == 1


class TestStateArrays:
    def test_phase_state_is_a_read_only_copy(self):
        x, p = np.array([-1.0, 1.0]), np.array([0.5, -0.5])
        state = PhaseState(x, p)
        x[1] = -1.0
        p[0] = 9.0
        assert state.x.tolist() == [-1.0, 1.0] and state.p.tolist() == [0.5, -0.5]
        for arr in (state.x, state.p):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("x, p, message", [([0.0, 1.0], [0.0], "x, p must have equal length"),
                                                ([], [], "expected a non-empty 1-D array"),
                                                ([[0.0]], [[0.0]], "expected a non-empty 1-D array")])
    def test_phase_state_refuses_arrays_of_other_shapes(self, x, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PhaseState(x, p)


class TestHamiltonianGrad:
    def test_single_particle(self):
        dx, dp = hamiltonian_grad(2, PhaseState([0.0], [0.7]))
        assert dx[0] == 0.0
        assert dp[0] == pytest.approx(0.7)

    def test_two_particle_hand_value(self):
        dx, _ = hamiltonian_grad(2, PhaseState([-1.0, 1.0], [0.0, 0.0]))
        assert np.allclose(dx, [-1.0, 1.0])

    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_finite_differences(self, k):
        for _ in range(100):
            n = int(RNG.integers(2, 5))
            state = random_phase_state(RNG, n, min_gap=0.5)
            dx, dp = hamiltonian_grad(k, state)
            fd_x = fd_gradient(lambda x: weighted_hamiltonian(*FLOW_DIRECTIONS[k], x, state.p), state.x, 1e-6)
            fd_p = fd_gradient(lambda p: weighted_hamiltonian(*FLOW_DIRECTIONS[k], state.x, p), state.p, 1e-6)
            for i in range(n):
                assert fd_x[i] == pytest.approx(dx[i], abs=1e-6)
                assert fd_p[i] == pytest.approx(dp[i], abs=1e-6)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [8, 64])
    def test_matches_finite_differences_when_wide(self, n, k):
        rng = np.random.default_rng(n)
        state = PhaseState(np.cumsum(rng.uniform(0.5, 1.5, n)), rng.uniform(-1.0, 1.0, n))
        dx, dp = hamiltonian_grad(k, state)
        fd_x = list(fd_gradient(lambda x: weighted_hamiltonian(*FLOW_DIRECTIONS[k], x, state.p), state.x, 1e-6))
        fd_p = list(fd_gradient(lambda p: weighted_hamiltonian(*FLOW_DIRECTIONS[k], state.x, p), state.p, 1e-6))
        assert fd_x == pytest.approx(dx, rel=1e-6, abs=1e-6)
        assert fd_p == pytest.approx(dp, rel=1e-6, abs=1e-6)


class TestLagrangian:
    def test_single_particle(self):
        assert lagrangian(2, np.array([0.0]), np.array([2.0]), np.array([0.0])) == pytest.approx(2.0)

    def test_two_particles_at_rest(self):
        assert lagrangian(2, np.array([-1.0, 1.0]), np.zeros(2), np.zeros(2)) == pytest.approx(1.0)

    def test_cubic_member(self):
        assert lagrangian(3, np.array([0.0]), np.array([2.0]), np.array([1.0])) == pytest.approx(4.0)


class TestConstraint:
    """The transversal constraint v2^2/4 + v3/3 - sum_{j != i} 1/(x_i - x_j)^2 = 0 fixes v3."""

    def test_trivial_zero(self):
        assert constraint_velocity(np.array([0.0]), np.array([0.0]))[0] == 0.0

    def test_closed_form_velocity(self):
        # for one particle the constraint forces v3 = -3 v2^2 / 4
        assert constraint_velocity(np.array([0.0]), np.array([2.0]))[0] == pytest.approx(-3.0)

    def test_two_particle_value(self):
        # at rest, v3/3 = 1/(x_1 - x_2)^2 = 1/4
        assert np.allclose(constraint_velocity(np.array([-1.0, 1.0]), np.array([0.0, 0.0])), 0.75)

    def test_constraint_velocity_zeroes_residual(self):
        for _ in range(20):
            state = random_phase_state(RNG, 3, min_gap=0.6)
            v3 = constraint_velocity(state.x, state.p)
            r = 0.25 * state.p**2 + v3 / 3.0 - inverse_square_sums(state.x)
            assert np.max(np.abs(r)) < 1e-14


class TestLegendre:
    def test_quadratic_member_trivial(self):
        assert legendre_check(2, np.array([0.0]), np.array([2.0]), np.array([0.0])) == pytest.approx(0.0)

    def test_quadratic_member_random(self):
        for _ in range(20):
            state = random_phase_state(RNG, 3, min_gap=0.6)
            assert abs(legendre_check(2, state.x, state.p, RNG.uniform(-1, 1, 3))) <= 1e-12

    def test_cubic_member_diagnostic_value(self):
        # H3(x, P=2) - (P*v3 - L3) = 8/3 - (0 - 2) = 14/3 for one free particle
        assert legendre_check(3, np.array([0.0]), np.array([2.0]), np.array([0.0])) == pytest.approx(14.0 / 3.0)


class TestLaxPair:
    def test_single_particle(self):
        L, M = build_lax_pair(PhaseState([0.3], [1.2]))
        assert L[0, 0] == pytest.approx(1.2)
        assert M[0, 0] == 0.0

    def test_two_particle_entries(self):
        L, _ = build_lax_pair(PhaseState([-1.0, 1.0], [0.0, 0.0]))
        assert np.allclose(L, [[0.0, 1.0], [-1.0, 0.0]])

    def test_half_trace_square_matches_hamiltonian(self):
        s = PhaseState([-1.0, 1.0], [0.0, 0.0])
        L, _ = build_lax_pair(s)
        assert 0.5 * np.trace(L @ L) == pytest.approx(hamiltonian_at(2, s))

    def test_row_sums_of_m_vanish(self):
        state = random_phase_state(RNG, 4, min_gap=0.5)
        _, M = build_lax_pair(state)
        assert np.max(np.abs(M.sum(axis=1))) < 1e-12


class TestInvariants:
    def test_single_particle(self):
        vals = lax_invariants(np.array([0.0]), np.array([2.0]))
        assert np.allclose(vals, [2.0, 2.0, 8.0 / 3.0])

    def test_two_particle(self):
        vals = lax_invariants(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        assert vals[0] == pytest.approx(0.0)
        assert vals[1] == pytest.approx(-1.0)

    def test_match_hamiltonians_at_random_states(self):
        for _ in range(50):
            state = random_phase_state(RNG, 3, min_gap=0.5)
            vals = lax_invariants(state.x, state.p)
            assert abs(vals[1] - hamiltonian_at(2, state)) <= 1e-12
            assert abs(vals[2] - hamiltonian_at(3, state)) <= 1e-12

    def test_a_sequence_of_states_gives_each_state_its_row(self):
        states = [random_phase_state(RNG, 4, min_gap=0.5) for _ in range(5)]
        got = lax_invariants(np.array([st.x for st in states]), np.array([st.p for st in states]))
        assert got.shape == (5, 3)
        assert all(np.array_equal(row, lax_invariants(state.x, state.p)) for row, state in zip(got, states))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
    def test_trace_powers_match_matrix_powers(self, n):
        L = RNG.standard_normal((n, n))
        ref = [np.trace(np.linalg.matrix_power(L, l)) for l in range(1, 4)]
        got = trace_powers(L)
        assert got.shape == (3,)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))


class TestLaxMatrix:
    """lax_invariants and lax_residual read L and M from one inverse_gaps call, with the bits of lax_pair's."""

    @pytest.mark.parametrize("n", [1, 3, 7, 8, 64])
    def test_invariants_read_the_l_of_lax_pair(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(0.5, 1.5, (4, n)), axis=-1)
        p = rng.uniform(-1.0, 1.0, (4, n))
        assert np.array_equal(lax_invariants(x, p), trace_powers(lax_pair(x, p)[0]) / (1, 2, 3))
        assert np.array_equal(lax_matrix(p, inverse_gaps(x)), lax_pair(x, p)[0])

    @pytest.mark.parametrize("n", [1, 3, 7, 8, 64])
    def test_residual_equals_the_two_call_form(self, n):
        rng = np.random.default_rng(n)
        x = np.cumsum(rng.uniform(0.5, 1.5, (4, n)), axis=-1)
        p = rng.uniform(-1.0, 1.0, (4, n))
        L, M = lax_pair(x, p)
        inv = inverse_gaps(x)
        dx_h, xdot = weighted_gradient(1.0, 0.0, x, p, inv)
        dL = -GAMMA * (xdot[..., :, None] - xdot[..., None, :]) * (inv * inv)
        dL[..., np.arange(n), np.arange(n)] = -dx_h
        assert np.array_equal(lax_residual(x, p), np.max(np.abs(dL + (L @ M - M @ L)), axis=(-2, -1)))


class TestLaxResidual:
    def test_single_particle(self):
        assert lax_residual(np.array([0.0]), np.array([0.4])) == 0.0

    def test_two_particle(self):
        assert lax_residual(np.array([-1.0, 1.0]), np.array([0.3, -0.7])) <= 1e-12

    def test_random_states(self):
        for n in (2, 3, 4):
            for _ in range(20):
                state = random_phase_state(RNG, n, min_gap=0.5)
                assert lax_residual(state.x, state.p) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(shift=st.floats(-10, 10, allow_nan=False), k=st.sampled_from([2, 3]))
def test_translation_invariance(shift, k):
    x = np.array([-1.4, 0.2, 1.7])
    p = np.array([0.5, -0.3, 0.1])
    base = hamiltonian_at(k, PhaseState(x, p))
    moved = hamiltonian_at(k, PhaseState(x + shift, p))
    assert moved == pytest.approx(base, abs=1e-9, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.1, 2.0, allow_nan=False))
def test_momentum_parity(scale):
    x = np.array([-1.4, 0.2, 1.7])
    p = scale * np.array([0.5, -0.3, 0.1])
    even = hamiltonian_at(2, PhaseState(x, p)) - hamiltonian_at(2, PhaseState(x, -p))
    assert even == pytest.approx(0.0, abs=1e-12)
    odd = hamiltonian_at(3, PhaseState(x, p)) + hamiltonian_at(3, PhaseState(x, -p))
    assert odd == pytest.approx(0.0, abs=1e-12)


def reference_min_gap(x):
    """min_gap as numpy's wrappers wrote it, the reference for the wrapper-free kernel."""
    s = np.sort(x)
    if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
        return float("nan")
    return float(np.diff(s).min(initial=np.inf))


def reference_check_collision_free(x, row="system"):
    """check_collision_free with np.diff and reference_min_gap."""
    if x.ndim == 1:
        g, k = reference_min_gap(x), None
    else:
        s = np.sort(x).reshape(len(x), -1, x.shape[-1])
        if np.isfinite(s).all() and np.diff(s).min(initial=np.inf) >= COLLISION_TOL:
            return
        with np.errstate(invalid="ignore"):
            gaps = np.diff(s).min(axis=(1, 2), initial=np.inf)
        gaps[~np.isfinite(s[..., [0, -1]]).all(axis=(1, 2))] = np.nan
        k = int(np.argmin(gaps >= COLLISION_TOL))
        g = gaps[k]
    if not g >= COLLISION_TOL:
        message = "non-finite position" if np.isnan(g) else f"minimum gap {g:.3e} below {COLLISION_TOL:.1e}"
        raise CollisionSingularity(message + ("" if k is None else f" at {row} {k}"), system=k)


def reference_keeps_order(x, tx):
    return np.diff(np.take_along_axis(tx, np.argsort(x), axis=-1)).min(axis=-1, initial=np.inf) > 0


def reference_check_log_args(x, tx):
    s = np.sort(np.stack([x, tx]))
    with np.errstate(invalid="ignore"):
        cross, within = cross_gap(x, tx), np.diff(s).min(axis=(0, -1), initial=np.inf)
    finite = np.isfinite(s[..., [0, -1]]).all(axis=(0, -1))
    discrete._raise_first(LogSingularity, ~(cross >= COLLISION_TOL), "vanishing cross-gap between a site and its shift")
    discrete._raise_first(LogSingularity, ~(finite & (within >= COLLISION_TOL)), "vanishing within-site gap")
    discrete._raise_first(LogSingularity, ~reference_keeps_order(x, tx), "particle ordering changed across the step")


def reference_collides(start, path):
    s = path.grid()[1:]
    coarse = np.zeros(len(s), dtype=bool)
    coarse[exact.COARSE_STRIDE - 1::exact.COARSE_STRIDE] = True
    for times in (s[coarse], s[~coarse]):
        spectrum = exact.projection_spectrum(start, path.direction, times)
        gaps = np.diff(np.sort(spectrum.real, axis=-1), axis=-1)
        if np.any(spectrum.imag != 0.0) or not np.all(gaps >= flows.FLIGHT_GAP_TOL):
            return True
    return False


def outcome(fn, *args):
    """What fn(*args) gives, with warnings raised: its value's dtype and bytes (so NaN and -0.0 count),
    or the type, message and `system` of what it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = np.asarray(fn(*args))
        except Exception as exc:  # noqa: BLE001 -- the reference and the kernel must raise alike
            return type(exc), str(exc), getattr(exc, "system", None)
    return value.dtype, value.shape, value.tobytes()


SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 1.0 + 1e-13, -1e308, 1e308])
POSITIONS = st.one_of(SPECIAL, st.floats(-10.0, 10.0), st.floats(allow_nan=False))
CONFIGURATIONS = st.one_of(st.lists(POSITIONS, min_size=1, max_size=9),
                           st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0]), min_size=1, max_size=5))


class TestGapKernels:
    """min_gap and the stacked gap checks, written without numpy's Python wrappers, against the
    np.sort, np.isfinite, np.diff and ndarray.min expressions they replace."""

    @settings(max_examples=300, deadline=None)
    @given(CONFIGURATIONS)
    def test_min_gap_matches_the_numpy_expression(self, x):
        x = np.array(x)
        assert outcome(min_gap, x) == outcome(reference_min_gap, x)
        assert outcome(check_collision_free, x) == outcome(reference_check_collision_free, x)

    @pytest.mark.parametrize("x", [[3], [0, 2, -5], [1, 1], [np.iinfo(np.int64).max, 0]])
    def test_integer_input_matches_the_numpy_expression(self, x):
        x = np.array(x)
        assert outcome(min_gap, x) == outcome(reference_min_gap, x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.data())
    def test_stacked_checks_match_the_numpy_expressions(self, m, k, n, data):
        x = np.array(data.draw(st.lists(POSITIONS, min_size=m * k * n, max_size=m * k * n))).reshape(m, k, n)
        tx = np.array(data.draw(st.lists(POSITIONS, min_size=m * k * n, max_size=m * k * n))).reshape(m, k, n)
        for stack in (x, x[:, 0]):
            assert outcome(check_collision_free, stack, "site") == outcome(reference_check_collision_free, stack, "site")
        for a, b in ((x, tx), (x[:, 0], tx[:, 0]), (x[0, 0], tx[0, 0])):
            assert outcome(discrete._keeps_order, a, b) == outcome(reference_keeps_order, a, b)
            assert outcome(discrete._check_log_args, a, b) == outcome(reference_check_log_args, a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_collides_matches_the_numpy_expression(self, seed):
        start = random_phase_state(np.random.default_rng(seed), 3, min_gap=0.3)
        for direction, duration in (((1.0, 0.0), 2.0), ((1.0, 1.0), 1.0), ((0.0, -1.0), 3.0)):
            path = flows.PathSpec(direction, duration, 40)
            assert exact.collides(start, path) == reference_collides(start, path)
