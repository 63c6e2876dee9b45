import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhier import numerics
from cmhier.errors import CollisionSingularity, NonConvergence, SingularJacobian, SingularMatrix
from cmhier.numerics import (
    CERTIFY_MARGIN,
    PIVOT_RTOL,
    NewtonSettings,
    _eliminate,
    fd_gradient,
    linear_solve,
    newton_solve,
    rk4_step,
)


def diagonal(v):
    """The stack of diagonal matrices with the rows of the stack v (m, n) on their diagonals."""
    return v[..., None] * np.eye(v.shape[-1])


class TestNewton:
    """One system, as the stack of one."""

    def test_quadratic_known_root(self):
        root = newton_solve(lambda u: u**2 - 4.0, np.array([[3.0]]), jacobian_fn=lambda u: diagonal(2.0 * u))
        assert root.shape == (1, 1) and root[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_linear(self):
        root = newton_solve(lambda u: u.copy(), np.array([[5.0]]), jacobian_fn=lambda u: np.eye(1)[None])
        assert root[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_one_particle_discrete_step_residual(self):
        # closed form: uniform motion gives x_next = 2*x_cur - x_prev = 2
        def residual(y):
            return 1.0 / (1.0 - y) + 1.0 / (1.0 - 0.0)

        def jacobian(y):
            return diagonal(1.0 / (1.0 - y) ** 2)

        root = newton_solve(residual, np.array([[1.5]]), jacobian_fn=jacobian)
        assert root[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_analytic_jacobian_used(self):
        calls = {"jac": 0}

        def jac(u):
            calls["jac"] += 1
            return np.array([[[2.0 * u[0, 0]]]])

        newton_solve(lambda u: u**2 - 4.0, np.array([[3.0]]), jacobian_fn=jac)
        assert calls["jac"] > 0

    def test_multidimensional_analytic_jacobian(self):
        def residual(v):
            return np.array([[v[0, 0] ** 2 + v[0, 1] - 3.0, v[0, 0] - v[0, 1]]])

        def jacobian(v):
            return np.array([[[2.0 * v[0, 0], 1.0], [1.0, -1.0]]])

        root = newton_solve(residual, np.array([[2.0, 0.5]]), jacobian_fn=jacobian)
        assert np.max(np.abs(residual(root))) <= 1e-12

    def test_nonconvergence(self):
        settings = NewtonSettings(max_iterations=5)
        with pytest.raises(NonConvergence):
            newton_solve(lambda u: u**2 + 1.0, np.array([[0.7]]), jacobian_fn=lambda u: diagonal(2.0 * u),
                         settings=settings)

    def test_no_residual_evaluation_after_convergence(self):
        calls = []

        def residual(u):
            calls.append(u.copy())
            return u - 1.0

        newton_solve(residual, np.array([[3.0]]), jacobian_fn=lambda u: np.eye(1)[None])
        # the guess and the one exact step
        assert len(calls) == 2

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton_solve(lambda u: np.ones_like(u), np.array([[0.0]]), jacobian_fn=lambda u: np.zeros((1, 1, 1)))

    def test_guess_must_be_a_stack(self):
        with pytest.raises(ValueError, match="stack"):
            newton_solve(lambda u: u, np.array([1.0]), jacobian_fn=lambda u: np.eye(1)[None])

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            NewtonSettings(tolerance=0.0)
        with pytest.raises(ValueError):
            NewtonSettings(max_iterations=0)
        with pytest.raises(ValueError):
            NewtonSettings(damping=1.5)


def bent_residual(v, a, b):
    """v0^2 + v1 = a, v0 = b v1, for one system or row-wise for a stack."""
    return np.stack([v[..., 0] ** 2 + v[..., 1] - a, v[..., 0] - b * v[..., 1]], axis=-1)


def bent_jacobian(v, a, b):
    one = np.ones_like(v[..., 0])
    return np.stack([np.stack([2.0 * v[..., 0], one], axis=-1),
                     np.stack([one, -b * one], axis=-1)], axis=-2)


class TestStackedNewton:
    A = np.array([3.0, 5.0, 2.0, 7.0])
    B = np.array([1.0, 2.0, 0.5, 3.0])
    GUESS = np.array([[2.0, 0.5], [1.0, 1.0], [9.0, -4.0], [2.0, 2.0]])

    def solve_alone(self, k, **kwargs):
        """System k as the stack of one: its root and the Jacobian evaluations it took."""
        calls = []

        def jacobian(v):
            calls.append(1)
            return bent_jacobian(v, self.A[k], self.B[k])

        root = newton_solve(lambda v: bent_residual(v, self.A[k], self.B[k]), self.GUESS[k:k + 1],
                            jacobian_fn=jacobian, **kwargs)
        return root[0], len(calls)

    def test_each_system_follows_its_own_iterates(self):
        alone = [self.solve_alone(k) for k in range(4)]
        assert len({iterations for _, iterations in alone}) > 1
        stacked = newton_solve(lambda v: bent_residual(v, self.A, self.B), self.GUESS,
                               jacobian_fn=lambda v: bent_jacobian(v, self.A, self.B))
        assert stacked.shape == self.GUESS.shape
        for row, (root, _) in zip(stacked, alone):
            assert np.array_equal(row, root)

    def test_converged_systems_are_not_solved_again(self):
        solves = []

        def jacobian(v):
            solves.append(1)
            return bent_jacobian(v, self.A, self.B)

        newton_solve(lambda v: bent_residual(v, self.A, self.B), self.GUESS, jacobian_fn=jacobian)
        assert len(solves) == max(self.solve_alone(k)[1] for k in range(4))

    def test_only_the_failing_system_is_retried(self):
        # full Newton steps on arctan diverge from 1.5 but converge from 0.5;
        # half steps converge from 1.5
        settings = NewtonSettings(max_iterations=10)
        retry = NewtonSettings(max_iterations=40, damping=0.5)
        guess = np.array([[1.5], [0.5]])

        def jacobian(u):
            return 1.0 / (1.0 + u[..., None] ** 2)

        with pytest.raises(NonConvergence):
            newton_solve(np.arctan, guess[:1], jacobian_fn=jacobian, settings=settings)
        first = newton_solve(np.arctan, guess[:1], jacobian_fn=jacobian, settings=retry)[0]
        second = newton_solve(np.arctan, guess[1:], jacobian_fn=jacobian, settings=settings)[0]
        assert not np.array_equal(second, newton_solve(np.arctan, guess[1:], jacobian_fn=jacobian, settings=retry)[0])
        stacked = newton_solve(np.arctan, guess, jacobian_fn=jacobian, settings=settings, retry=retry)
        assert np.array_equal(stacked[0], first) and np.array_equal(stacked[1], second)

    def test_only_the_system_that_hits_a_pole_halves_its_step(self):
        # the residual is infinite below 0: the full step of system 0 lands
        # there and is halved, the full step of system 1 is kept
        def residual(u):
            return np.where(u > 0.0, np.arctan(u - 1.0), np.inf)

        def jacobian(u):
            return 1.0 / (1.0 + (u[..., None] - 1.0) ** 2)

        # a loose tolerance stops each system at a point that depends on its path
        settings = NewtonSettings(tolerance=1e-4)
        guess = np.array([[3.0], [1.5]])
        stacked = newton_solve(residual, guess, jacobian_fn=jacobian, settings=settings)
        for row, g in zip(stacked, guess):
            assert np.array_equal(row, newton_solve(residual, g[None], jacobian_fn=jacobian, settings=settings)[0])
        assert stacked[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_nonconvergence_names_the_system(self):
        settings = NewtonSettings(max_iterations=10)
        with pytest.raises(NonConvergence, match="system 1: residual") as info:
            newton_solve(np.arctan, np.array([[0.5], [1.5], [0.2], [1.6]]),
                         jacobian_fn=lambda u: 1.0 / (1.0 + u[..., None] ** 2), settings=settings)
        assert info.value.system == 1

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_singular_jacobian_names_the_system(self, bad):
        # system 0 starts on its root, so the stack solved in the first step
        # lacks it and linear_solve's own index is one less than the system's
        slope = np.ones(3)
        slope[bad] = 0.0
        guess = np.array([[1.0], [3.0], [4.0]])
        with pytest.raises(SingularJacobian, match=f"system {bad}: pivot") as info:
            newton_solve(lambda u: u - 1.0 - (slope[:, None] == 0.0), guess,
                         jacobian_fn=lambda u: slope[:, None, None] * np.ones((3, 1, 1)))
        assert info.value.system == bad


class TestLinearSolve:
    """One system, as the stack of one."""

    def test_identity(self):
        b = np.array([[3.0, -1.0, 2.0]])
        assert np.allclose(linear_solve(np.eye(3)[None], b), b)

    def test_diagonal(self):
        v = linear_solve(np.diag([2.0, 4.0])[None], np.array([[2.0, 8.0]]))
        assert v.shape == (1, 2) and np.allclose(v, [[1.0, 2.0]])

    def test_scalar_semi_discrete_constraint(self):
        # A = 1/4 from an N=1 gap of 2; A v = -1 gives v = -4
        v = linear_solve(np.array([[[0.25]]]), np.array([[-1.0]]))
        assert v[0, 0] == pytest.approx(-4.0)

    def test_backward_error_random_systems(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.uniform(-1, 1, (5, 5)) + 5.0 * np.eye(5)
            b = rng.uniform(-1, 1, 5)
            v = linear_solve(a[None], b[None])[0]
            assert np.max(np.abs(a @ v - b)) <= 1e-10 * (1.0 + np.max(np.abs(b)))

    def test_singular(self):
        with pytest.raises(SingularMatrix, match="system 0: .* column 1"):
            linear_solve(np.array([[[1.0, 1.0], [1.0, 1.0]]]), np.array([[1.0, 2.0]]))

    @pytest.mark.parametrize("a", [
        [[np.nan, 1.0], [1.0, 2.0]],
        [[np.inf, np.inf], [10.0, 20.0]],
        [[1.0, -np.inf], [1.0, 2.0]],
    ])
    def test_non_finite_matrix(self, a):
        with pytest.raises(SingularMatrix, match="system 0: non-finite") as info:
            linear_solve([a], [[1.0, 2.0]])
        assert info.value.system == 0

    def test_non_finite_member_of_stack(self):
        a = np.stack([np.eye(2)] * 3)
        a[1, 0, 1] = np.inf
        with pytest.raises(SingularMatrix, match="system 1: non-finite") as info:
            linear_solve(a, np.ones((3, 2)))
        assert info.value.system == 1

    @pytest.mark.parametrize("a, b", [
        (np.ones((2, 3)), np.ones(2)),
        (np.ones((2, 2)), np.ones(3)),
        (np.ones((3, 2, 2)), np.ones(2)),
        (np.ones((3, 2, 2)), np.ones((2, 2))),
        (np.ones(2), np.ones(2)),
        (np.ones((2, 2)), np.ones(2)),  # one system is the stack of one
    ])
    def test_shape_mismatch(self, a, b):
        with pytest.raises(ValueError):
            linear_solve(a, b)


def dominant_stack(m, n, seed, shuffled=True):
    """m strictly diagonally dominant systems, each with its rows shuffled, when `shuffled`,
    so that the pivot search has to exchange rows."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n, n)) + (n + 1.0) * np.eye(n)
    if shuffled:
        a = np.stack([ai[rng.permutation(n)] for ai in a])
    return a, rng.uniform(-1, 1, (m, n))


STACKS = st.tuples(st.integers(1, 20), st.integers(1, 12), st.integers(0, 2**32 - 1))


class TestStackedSolve:
    @settings(max_examples=60, deadline=None)
    @given(STACKS)
    def test_matches_solving_each_alone(self, shape):
        a, b = dominant_stack(*shape)
        v = linear_solve(a, b)
        assert v.shape == b.shape
        for ai, bi, vi in zip(a, b, v):
            tol = 1e-10 * (1.0 + np.max(np.abs(bi)))
            assert np.max(np.abs(ai @ vi - bi)) <= tol
            assert np.max(np.abs(ai @ (vi - linear_solve(ai[None], bi[None])[0]))) <= tol

    @settings(max_examples=40, deadline=None)
    @given(STACKS, st.data())
    def test_singular_member_is_named(self, shape, data):
        m, n, _ = shape
        a, b = dominant_stack(*shape)
        bad = data.draw(st.integers(0, m - 1))
        a[bad, data.draw(st.integers(0, n - 1))] = 0.0
        with pytest.raises(SingularMatrix, match=f"system {bad}: pivot") as info:
            linear_solve(a, b)
        assert info.value.system == bad


def spread_pivot(n, pivot):
    """An (n, n) matrix with largest |entry| 1 whose first pivot is `pivot`: its first column is
    pivot in every row, and column k is e_k - e_(k-1). Row 0 of its inverse is 1/(n pivot) in every
    entry, so the inverse's largest row sum is about 1/pivot and its largest column sum only
    about 1/(n pivot)."""
    a = np.eye(n) - np.eye(n, k=1)
    a[:, 0] = pivot
    return a


# rows 0 and 1 differ by 1e-15 in one entry: the elimination's pivot in column 1 is about 1e-15
NEAR_SINGULAR = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]])


class TestCertifiedSolve:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_near_singular_member_is_named_by_the_elimination(self, bad, seed):
        a, b = dominant_stack(6, 3, seed)
        a[bad] = 7.0 * NEAR_SINGULAR[np.random.default_rng(seed).permutation(3)]
        a[5] = 7.0 * NEAR_SINGULAR  # a later failing system is not the one named
        np.linalg.solve(a, b[:, :, None])  # not exactly singular, so LAPACK raises nothing
        with pytest.raises(SingularMatrix, match=f"^system {bad}: .* in column 1$") as alone:
            _eliminate(a[bad:bad + 1], b[bad:bad + 1], np.array([bad]))
        with pytest.raises(SingularMatrix) as stacked:
            linear_solve(a, b)
        assert stacked.value.system == bad and str(stacked.value) == str(alone.value)

    def test_uncertified_system_that_passes_takes_the_elimination(self, monkeypatch):
        a, b = dominant_stack(4, 16, 3)
        a[2] = spread_pivot(16, 1e-13)
        inverse = np.abs(np.linalg.inv(a[2]))
        # the certificate reads row sums; column sums would clear this system
        assert inverse.sum(axis=1).max() > CERTIFY_MARGIN / PIVOT_RTOL > inverse.sum(axis=0).max()
        eliminated = []

        def spy(a_rows, b_rows, in_stack):
            eliminated.append(in_stack.copy())
            return _eliminate(a_rows, b_rows, in_stack)

        monkeypatch.setattr(numerics, "_eliminate", spy)
        v = linear_solve(a, b)
        assert len(eliminated) == 1 and eliminated[0].tolist() == [2]
        assert np.array_equal(v[2], _eliminate(a[2:3], b[2:3], np.array([2]))[0])
        for ai, bi, vi in zip(a, b, v):
            assert np.max(np.abs(ai @ vi - bi)) <= 1e-10

    @pytest.mark.parametrize("bad", [0, 3])
    def test_exactly_singular_member_is_named_by_the_elimination(self, bad):
        a, b = dominant_stack(5, 4, 11)
        a[bad, 2] = a[bad, 0]  # two equal rows stay equal through LU and end in a zero pivot
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b[:, :, None])
        with pytest.raises(SingularMatrix, match=f"^system {bad}: pivot ") as alone:
            _eliminate(a[bad:bad + 1], b[bad:bad + 1], np.array([bad]))
        with pytest.raises(SingularMatrix) as stacked:
            linear_solve(a, b)
        assert stacked.value.system == bad and str(stacked.value) == str(alone.value)

    @settings(max_examples=60, deadline=None)
    @given(STACKS, st.data())
    def test_each_system_gets_the_same_bits_stacked_as_alone(self, shape, data):
        m, n, _ = shape
        a, b = dominant_stack(*shape)
        if n > 1 and data.draw(st.booleans()):  # one member goes to the elimination
            a[data.draw(st.integers(0, m - 1))] = spread_pivot(n, 1e-13)
        v = linear_solve(a, b)
        for ai, bi, vi in zip(a, b, v, strict=True):
            assert np.array_equal(vi, linear_solve(ai[None], bi[None])[0])


def watch_solvers(mp):
    """Record the stack indices of every _eliminate call and the right-hand side shape of every
    np.linalg.solve call while the MonkeyPatch mp is active."""
    eliminated, lapack = [], []
    solve = np.linalg.solve

    def spy(a_rows, b_rows, in_stack):
        eliminated.append(in_stack.tolist())
        return _eliminate(a_rows, b_rows, in_stack)

    mp.setattr(numerics, "_eliminate", spy)
    mp.setattr(np.linalg, "solve", lambda a, b: lapack.append(b.shape) or solve(a, b))
    return eliminated, lapack


def near_threshold(n, level, laplacian, seed):
    """An (n, n) matrix whose rows are dominant by level times the certificate's threshold:
    |a_ii| = sum_(j != i) |a_ij| + level tau s, with s the largest off-diagonal row sum. Off-diagonal
    entries are all negative when `laplacian`, so that level 0 is a matrix of zero row sums."""
    rng = np.random.default_rng(seed)
    a = -rng.uniform(0, 1, (n, n)) if laplacian else rng.uniform(-1, 1, (n, n))
    np.fill_diagonal(a, 0.0)
    off = np.abs(a).sum(axis=1)
    tau = PIVOT_RTOL / CERTIFY_MARGIN + n * n * np.finfo(float).eps
    np.fill_diagonal(a, (off + level * tau * off.max()) * (1.0 if laplacian else rng.choice([-1.0, 1.0], n)))
    return a, rng.uniform(-1, 1, n)


def with_inverse(b):
    """The right-hand side [b | I] of a stack b (m, n)."""
    m, n = b.shape
    return np.concatenate([b[:, :, None], np.broadcast_to(np.eye(n), (m, n, n))], axis=2)


class TestDominanceCertificate:
    @pytest.mark.parametrize("a", [
        np.zeros((1, 1)),
        np.zeros((4, 4)),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
        np.array([[2.0, 1.0], [4.0, 2.0]]),
        np.array([[3.0, -1.0, -2.0], [-1.0, 3.0, -2.0], [-1.0, -2.0, 3.0]]),  # zero row sums
    ])
    def test_zero_and_singular_matrices_are_not_certified(self, a):
        with pytest.MonkeyPatch.context() as mp:
            eliminated, lapack = watch_solvers(mp)
            with pytest.raises(SingularMatrix, match="^system 0: pivot "):
                linear_solve(a[None], np.ones((1, len(a))))
        assert eliminated == [[0]] and lapack == [(1, len(a), len(a) + 1)]

    def test_singular_newton_jacobian_is_not_certified(self):
        with pytest.MonkeyPatch.context() as mp:
            eliminated, _ = watch_solvers(mp)
            with pytest.raises(SingularJacobian, match="^system 0: pivot "):
                newton_solve(lambda u: np.ones_like(u), np.array([[0.0]]), jacobian_fn=lambda u: np.zeros((1, 1, 1)))
        assert eliminated == [[0]]

    @settings(max_examples=40, deadline=None)
    @given(STACKS, st.booleans())
    def test_dominant_rows_take_the_single_right_hand_side(self, shape, shuffled):
        m, n, _ = shape
        a, b = dominant_stack(*shape, shuffled=shuffled)
        # a shuffled system whose permutation is the identity is still dominant
        dominant = np.array([np.array_equal(np.abs(ai).argmax(axis=1), np.arange(n)) for ai in a])
        assert dominant.all() or shuffled
        with pytest.MonkeyPatch.context() as mp:
            eliminated, lapack = watch_solvers(mp)
            v = linear_solve(a, b)
        calls = [(int(dominant.sum()), n, 1), (int((~dominant).sum()), n, n + 1)]
        assert eliminated == [] and lapack == [c for c in calls if c[0]]
        assert np.array_equal(v[dominant], np.linalg.solve(a[dominant], b[dominant, :, None])[:, :, 0])
        assert np.array_equal(v[~dominant], np.linalg.solve(a[~dominant], with_inverse(b[~dominant]))[:, :, 0])

    def test_systems_not_dominant_are_certified_by_their_inverses(self):
        a, b = dominant_stack(6, 16, 5, shuffled=False)
        a[1] = spread_pivot(16, 1e-13)
        a[4] = np.linalg.qr(np.random.default_rng(5).normal(size=(16, 16)))[0]  # orthogonal: ‖a‖‖a⁻¹‖ ≤ 16
        assert np.linalg.cond(a[4], p=np.inf) < 16.0 + 1e-9
        with pytest.MonkeyPatch.context() as mp:
            eliminated, lapack = watch_solvers(mp)
            v = linear_solve(a, b)
        assert lapack == [(4, 16, 1), (2, 16, 17)] and eliminated == [[1]]
        assert np.array_equal(v[4], np.linalg.solve(a[4], with_inverse(b[4:5])[0])[:, 0])
        assert np.array_equal(v[1], _eliminate(a[1:2], b[1:2], np.array([1]))[0])
        for k in range(6):
            assert np.array_equal(v[k], linear_solve(a[k:k + 1], b[k:k + 1])[0])
            assert np.max(np.abs(a[k] @ v[k] - b[k])) <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 128), st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e3]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_a_certified_system_passes_the_elimination(self, n, level, laplacian, seed):
        a, b = near_threshold(n, level, laplacian, seed)
        with pytest.MonkeyPatch.context() as mp:
            _, lapack = watch_solvers(mp)
            try:
                linear_solve(a[None], b[None])
            except SingularMatrix:
                pass
        dominant = lapack[0] == (1, n, 1)
        if n > 1 and level >= 2.0:
            assert dominant
        if n == 1 or level <= 0.5:
            assert not dominant
        if dominant:
            _eliminate(a[None], b[None], np.array([0]))


class TestFiniteDifference:
    def test_square(self):
        d = fd_gradient(lambda u: u[..., 0] ** 2, np.array([3.0]), 1e-5)[0]
        assert d == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        assert fd_gradient(lambda u: np.full(u.shape[:-1], 7.0), np.array([1.0, 2.0]), 1e-5)[1] == 0.0

    def test_momentum_gradient_of_quadratic_hamiltonian(self):
        from cmhier.hierarchy import hamiltonian_grad, weighted_hamiltonian
        from cmhier.sampling import random_phase_state

        state = random_phase_state(np.random.default_rng(11), 3, min_gap=0.5)
        _, dp = hamiltonian_grad(2, state)
        fd = fd_gradient(lambda p: weighted_hamiltonian(1.0, 0.0, state.x, p), state.p, 1e-5)
        for i in range(3):
            assert fd[i] == pytest.approx(dp[i], abs=1e-7)

    def test_quadratics_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b, c = rng.uniform(-2, 2, 3)
            x0 = rng.uniform(-2, 2)
            d = fd_gradient(lambda u: a * u[..., 0] ** 2 + b * u[..., 0] + c, np.array([x0]), 1e-4)[0]
            assert d == pytest.approx(2 * a * x0 + b, abs=1e-9)

    def test_one_call_on_the_stacked_points(self):
        calls = []

        def f(u):
            calls.append(u.shape)
            return np.sin(u[..., 0]) * u[..., 1] + u[..., 2] ** 3

        stack = np.random.default_rng(3).uniform(-1, 1, (4, 3))
        grads = fd_gradient(f, stack, 1e-5)
        assert calls == [(4, 6, 3)] and grads.shape == (4, 3)
        for point, grad in zip(stack, grads, strict=True):
            assert np.array_equal(grad, fd_gradient(f, point, 1e-5))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError, match="step must be positive"):
            fd_gradient(lambda u: u[..., 0], np.array([1.0]), 0.0)


class TestRK4:
    def test_free_particle_exact(self):
        # xdot = p, pdot = 0: state polynomial of degree 1, RK4 exact
        out = rk4_step(lambda t, y: np.array([y[1], 0.0]), 0.0, np.array([0.5, 2.0]), 0.3)
        assert np.allclose(out, [0.5 + 2.0 * 0.3, 2.0])

    def test_zero_field_identity(self):
        y = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(rk4_step(lambda t, _: np.zeros(3), 0.0, y, 0.7), y)

    def test_harmonic_single_step(self):
        out = rk4_step(lambda t, y: np.array([y[1], -y[0]]), 0.0, np.array([1.0, 0.0]), 0.1)
        assert out[0] == pytest.approx(np.cos(0.1), abs=1e-7)
        assert out[1] == pytest.approx(-np.sin(0.1), abs=1e-7)

    def test_step_halving_ratio(self):
        def integrate(h, t_end=1.0):
            y = np.array([1.0, 0.0])
            for _ in range(int(round(t_end / h))):
                y = rk4_step(lambda t, z: np.array([z[1], -z[0]]), 0.0, y, h)
            return y

        exact = np.array([np.cos(1.0), -np.sin(1.0)])
        err_h = np.max(np.abs(integrate(0.02) - exact))
        err_h2 = np.max(np.abs(integrate(0.01) - exact))
        assert err_h / err_h2 == pytest.approx(16.0, rel=0.15)

    def test_field_failure_propagates(self):
        def bad(t, _):
            raise FloatingPointError("pole")

        with pytest.raises(FloatingPointError):
            rk4_step(bad, 0.0, np.array([0.0]), 0.1)

    def test_stage_times(self):
        times = []

        def field(t, y):
            times.append(t)
            return np.zeros_like(y)

        rk4_step(field, 0.25, np.array([1.0]), -0.5)
        assert times == [0.25, 0.0, 0.0, -0.25]


class TestMarch:
    """numerics.march, the float-first driver, against rk4_march, on a harmonic field whose float and numpy
    forms give the same bits."""

    DT = 0.1
    TIMES = np.arange(11) * DT
    Y0 = np.array([[0.0, 1.0], [0.0, 1.1], [0.0, 1.2]])  # row r: x = (1 + r/10) sin t
    # row r is refused once x reaches LIMITS[r]: row 1 first at step 4 (x 0.325, then 0.428), row 2 at
    # step 2 (x 0.120, then 0.238), row 0 never
    LIMITS = (np.inf, 0.38, 0.2)

    @staticmethod
    def field(_t, y):
        out = np.empty_like(y)
        out[:, 0], out[:, 1] = y[:, 1], -y[:, 0]
        return out

    def run(self, monkeypatch, floats, raises):
        """The march's states, or its abort as (message, s), and the (start time, start state) of every
        rk4_march call it makes. With `raises`, the numpy check raises where the float accept refuses."""
        handed, real = [], numerics.rk4_march
        monkeypatch.setattr(numerics, "rk4_march", lambda field, y0, times, dt, check:
                            handed.append((times[0], y0.tobytes())) or real(field, y0, times, dt, check))

        def check(t, y, _before):
            failed = y[:, 0] >= np.array(self.LIMITS)
            if raises and failed.any():
                raise CollisionSingularity(f"row {int(failed.argmax())} at t={t:.6g}", s=t)

        try:
            return numerics.march(self.field, self.Y0, self.TIMES, self.DT, check, floats), handed
        except CollisionSingularity as exc:
            return (str(exc), exc.s), handed

    def floats(self, limits):
        return [(lambda y: [y[1], -y[0]], lambda y, limit=limit: y[0] < limit) for limit in limits]

    @pytest.mark.parametrize("raises", [False, True])
    def test_numpy_takes_the_stack_from_the_last_step_every_row_accepted(self, monkeypatch, raises):
        expected, handed = self.run(monkeypatch, None, raises)
        assert [start for start, _ in handed] == [0.0]
        got, handed = self.run(monkeypatch, self.floats(self.LIMITS), raises)
        if raises:  # the refused step of row 2 is taken again on numpy, which raises
            assert got == expected == ("row 2 at t=0.2", 0.2)
        else:  # tobytes also tells 0.0 from -0.0
            assert got.shape == expected.shape == (11, 3, 2) and got.tobytes() == expected.tobytes()
        # from step 1, the last step that every row accepted, with the state the numpy march has there
        assert handed == [(self.TIMES[1], rk4_step(self.field, 0.0, self.Y0, self.DT).tobytes())]

    def test_a_march_that_no_row_refuses_stays_on_floats(self, monkeypatch):
        expected, _ = self.run(monkeypatch, None, False)
        got, handed = self.run(monkeypatch, self.floats([np.inf] * 3), False)
        assert handed == [] and got.tobytes() == expected.tobytes()
