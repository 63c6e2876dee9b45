import os
import subprocess
import sys
import warnings
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhier import discrete, flows, numerics, semidiscrete
from cmhier.errors import CollisionSingularity, NonConvergence, SingularJacobian, SingularMatrix
from cmhier.flows import PathSpec
from cmhier.hierarchy import ORDERED_SUM_N
from cmhier.numerics import (
    BACKWARD_ERROR_FACTOR,
    CERTIFY_MARGIN,
    PIVOT_RTOL,
    fd_gradient,
    linear_solve,
    newton_solve,
    rk4_step,
)
from cmhier.scenario import scenario_from_dict
from cmhier.semidiscrete import FLOAT_CHAIN_SIZE, Chain, evolve_chain
from cmhier.verify import verify_all


def diagonal(v):
    """The stack of diagonal matrices with the rows of the stack v (m, n) on their diagonals."""
    return v[..., None] * np.eye(v.shape[-1])


def paired(residual_fn, jacobian_fn):
    """newton_solve's system from a residual and a Jacobian of the point: the residual at u and the Jacobian
    at u, formed when asked."""
    return lambda u: (residual_fn(u), lambda: jacobian_fn(u))


TOL = 1e-12


class TestNewton:
    """One system, as the stack of one."""

    def test_quadratic_known_root(self):
        root = newton_solve(paired(lambda u: u**2 - 4.0, lambda u: diagonal(2.0 * u)), np.array([[3.0]]), TOL)
        assert root.shape == (1, 1) and root[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_linear(self):
        root = newton_solve(paired(lambda u: u.copy(), lambda u: np.eye(1)[None]), np.array([[5.0]]), TOL)
        assert root[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_one_particle_discrete_step_residual(self):
        # closed form: uniform motion gives x_next = 2*x_cur - x_prev = 2
        def residual(y):
            return 1.0 / (1.0 - y) + 1.0 / (1.0 - 0.0)

        def jacobian(y):
            return diagonal(1.0 / (1.0 - y) ** 2)

        root = newton_solve(paired(residual, jacobian), np.array([[1.5]]), TOL)
        assert root[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_analytic_jacobian_used(self):
        calls = {"jac": 0}

        def jac(u):
            calls["jac"] += 1
            return np.array([[[2.0 * u[0, 0]]]])

        newton_solve(paired(lambda u: u**2 - 4.0, jac), np.array([[3.0]]), TOL)
        assert calls["jac"] > 0

    def test_multidimensional_analytic_jacobian(self):
        def residual(v):
            return np.array([[v[0, 0] ** 2 + v[0, 1] - 3.0, v[0, 0] - v[0, 1]]])

        def jacobian(v):
            return np.array([[[2.0 * v[0, 0], 1.0], [1.0, -1.0]]])

        root = newton_solve(paired(residual, jacobian), np.array([[2.0, 0.5]]), TOL)
        assert np.max(np.abs(residual(root))) <= 1e-12

    def test_nonconvergence(self):
        with pytest.raises(NonConvergence):
            newton_solve(paired(lambda u: u**2 + 1.0, lambda u: diagonal(2.0 * u)), np.array([[0.7]]), TOL)

    def test_no_residual_evaluation_after_convergence(self):
        calls = []

        def residual(u):
            calls.append(u.copy())
            return u - 1.0

        newton_solve(paired(residual, lambda u: np.eye(1)[None]), np.array([[3.0]]), TOL)
        # the guess and the one exact step
        assert len(calls) == 2

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton_solve(paired(lambda u: np.ones_like(u), lambda u: np.zeros((1, 1, 1))), np.array([[0.0]]), TOL)

    @pytest.mark.parametrize("jacobian", [[[4.0, 1.0], [1.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]])  # dominant or not
    def test_non_finite_start_does_not_blame_the_jacobian(self, jacobian):
        with pytest.raises(NonConvergence, match="^system 0: could not find a finite residual "):
            newton_solve(paired(lambda u: np.full_like(u, np.nan), lambda u: np.array([jacobian])),
                         np.zeros((1, 2)), TOL)

    @pytest.mark.parametrize("guess", [np.array([1.0]), np.empty((2, 0)), np.empty((0, 0))])
    def test_guess_must_be_a_stack(self, guess):
        with pytest.raises(ValueError, match=r"^guess must be a stack \(m, n\) with n >= 1$"):
            newton_solve(paired(lambda u: u, lambda u: np.eye(1)[None]), guess, TOL)

    def test_empty_stack(self):
        assert newton_solve(paired(lambda u: u, lambda u: np.eye(3)[None]), np.empty((0, 3)), TOL).shape == (0, 3)


def bent_residual(v, a, b):
    """v0^2 + v1 = a, v0 = b v1, for one system or row-wise for a stack."""
    return np.stack([v[..., 0] ** 2 + v[..., 1] - a, v[..., 0] - b * v[..., 1]], axis=-1)


def bent_jacobian(v, a, b):
    one = np.ones_like(v[..., 0])
    return np.stack([np.stack([2.0 * v[..., 0], one], axis=-1),
                     np.stack([one, -b * one], axis=-1)], axis=-2)


def pole_residual(u):
    """arctan(u - 1), infinite below 0: a full step from 3 lands there and is halved, one from 1.5 is kept."""
    return np.where(u > 0.0, np.arctan(u - 1.0), np.inf)


def pole_jacobian(u):
    return 1.0 / (1.0 + (u[..., None] - 1.0) ** 2)


class TestStackedNewton:
    A = np.array([3.0, 5.0, 2.0, 7.0])
    B = np.array([1.0, 2.0, 0.5, 3.0])
    GUESS = np.array([[2.0, 0.5], [1.0, 1.0], [9.0, -4.0], [2.0, 2.0]])

    def solve_alone(self, k):
        """System k as the stack of one: its root and the Jacobian evaluations it took."""
        calls = []

        def jacobian(v):
            calls.append(1)
            return bent_jacobian(v, self.A[k], self.B[k])

        root = newton_solve(paired(lambda v: bent_residual(v, self.A[k], self.B[k]), jacobian),
                            self.GUESS[k:k + 1], TOL)
        return root[0], len(calls)

    def test_each_system_follows_its_own_iterates(self):
        alone = [self.solve_alone(k) for k in range(4)]
        assert len({iterations for _, iterations in alone}) > 1
        stacked = newton_solve(paired(lambda v: bent_residual(v, self.A, self.B),
                                      lambda v: bent_jacobian(v, self.A, self.B)), self.GUESS, TOL)
        assert stacked.shape == self.GUESS.shape
        for row, (root, _) in zip(stacked, alone):
            assert np.array_equal(row, root)

    def test_converged_systems_are_not_solved_again(self):
        solves = []

        def jacobian(v):
            solves.append(1)
            return bent_jacobian(v, self.A, self.B)

        newton_solve(paired(lambda v: bent_residual(v, self.A, self.B), jacobian), self.GUESS, TOL)
        assert len(solves) == max(self.solve_alone(k)[1] for k in range(4))

    def test_only_the_system_that_hits_a_pole_halves_its_step(self):
        # the full step of system 0 lands below 0 and is halved, the full step of system 1 is kept;
        # a loose tolerance stops each system at a point that depends on its path
        guess = np.array([[3.0], [1.5]])
        stacked = newton_solve(paired(pole_residual, pole_jacobian), guess, 1e-4)
        for row, g in zip(stacked, guess):
            assert np.array_equal(row, newton_solve(paired(pole_residual, pole_jacobian), g[None], 1e-4)[0])
        assert stacked[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_one_jacobian_per_linear_solve_from_an_accepted_pair(self, monkeypatch):
        # on the stack of the halving test: pairs[i] is the i-th residual and whether its Jacobian was asked;
        # only a pair whose point Newton steps from may be asked, once, right before its linear solve
        pairs, events, real_solve = [], [], numerics.linear_solve

        def system(u):
            pair = {"point": u.copy(), "asked": 0}
            pairs.append(pair)

            def jacobian():
                pair["asked"] += 1
                events.append(("jacobian", len(pairs) - 1))
                return pole_jacobian(u)

            return pole_residual(u), jacobian

        monkeypatch.setattr(numerics, "linear_solve", lambda a, b: events.append(("solve",)) or real_solve(a, b))
        root = newton_solve(system, np.array([[3.0], [1.5]]), 1e-4)
        asked = [i for i, pair in enumerate(pairs) if pair["asked"]]
        rejected = [i for i, pair in enumerate(pairs) if not np.isfinite(pole_residual(pair["point"])).all()]
        assert rejected and not set(rejected) & set(asked)  # a halving trial was rejected and never asked
        assert all(pairs[i]["asked"] == 1 for i in asked)
        assert events == [event for i in asked for event in (("jacobian", i), ("solve",))]
        # each accepted pair is asked but the last, the converged point; the guess is the first
        accepted = [i for i in range(len(pairs)) if i not in rejected]
        assert asked == accepted[:-1] and asked[0] == 0
        assert np.array_equal(pairs[accepted[-1]]["point"], root)

    def test_nonconvergence_names_the_system(self):
        # u^2 - 1 in rows 0 and 2 converges; u^2 + 1 in rows 1 and 3 has no real root
        shift = np.array([[-1.0], [1.0], [-1.0], [1.0]])
        with pytest.raises(NonConvergence, match="^system 1: residual .* after 50 iterations$") as info:
            newton_solve(paired(lambda u: u**2 + shift, lambda u: diagonal(2.0 * u)),
                         np.array([[0.5], [0.7], [2.0], [0.3]]), TOL)
        assert info.value.system == 1

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_singular_jacobian_names_the_system(self, bad):
        # system 0 starts on its root, so the stack solved in the first step
        # lacks it and linear_solve's own index is one less than the system's
        slope = np.ones(3)
        slope[bad] = 0.0
        guess = np.array([[1.0], [3.0], [4.0]])
        with pytest.raises(SingularJacobian, match=f"system {bad}: inverse bound inf") as info:
            newton_solve(paired(lambda u: u - 1.0 - (slope[:, None] == 0.0),
                                lambda u: slope[:, None, None] * np.ones((3, 1, 1))), guess, TOL)
        assert info.value.system == bad


def reference_newton_solve(residual_fn, guess, jacobian_fn, tol):
    """newton_solve as it was before its all-active stacks went ungathered and before it took one system
    callback: every step gathers the active systems, asks jacobian_fn at the point it steps from, the step
    scale is an array from the start, a residual is frozen by a separate finiteness test, and a step that finds
    no finite residual writes the old point back into the new arrays."""
    x = np.array(guess, dtype=float)
    f = residual_fn(x)
    active, failed = np.ones(len(x), dtype=bool), {}
    for iteration in range(numerics.NEWTON_ITERATIONS + 1):
        active &= ~(np.isfinite(f).all(axis=1) & (np.abs(f).max(axis=1) <= tol))
        if not active.any() or iteration == numerics.NEWTON_ITERATIONS:
            break
        steps = np.zeros_like(x)
        try:
            steps[active] = linear_solve(jacobian_fn(x)[active], f[active])
        except SingularMatrix as exc:
            system = int(np.flatnonzero(active)[exc.system])
            raise SingularJacobian(f"system {system}: {str(exc).partition(': ')[2]}", system=system) from exc
        scale = np.ones((len(x), 1))
        for _ in range(60):
            x_new = x - scale * steps
            f_new = residual_fn(x_new)
            poles = active & ~np.isfinite(f_new).all(axis=1)
            if not poles.any():
                break
            scale[poles] *= 0.5
        else:
            reason = "could not find a finite residual along the Newton step"
            failed.update((int(k), reason) for k in np.flatnonzero(poles))
            x_new[poles], f_new[poles] = x[poles], f[poles]
            active &= ~poles
        x, f = x_new, f_new
    failed.update(
        (int(k), f"residual {np.max(np.abs(f[k])):.3e} above tolerance {tol:.1e} "
                 f"after {numerics.NEWTON_ITERATIONS} iterations")
        for k in np.flatnonzero(active)
    )
    if failed:
        system = min(failed)
        raise NonConvergence(f"system {system}: {failed[system]}", system=system)
    return x


def outcome(solve, *args, **kwargs):
    """The root's bytes, or the error's type, message and system."""
    try:
        return solve(*args, **kwargs).tobytes()
    except (NonConvergence, SingularJacobian) as exc:
        return type(exc), str(exc), exc.system


def paired_newton_solve(residual_fn, guess, jacobian_fn, tol):
    """newton_solve called as reference_newton_solve is, on the system paired from its two callbacks."""
    return newton_solve(paired(residual_fn, jacobian_fn), guess, tol)


# per-system residuals, each a function of its own row: a root to converge on, no real root (u^2 + 1), a pole
# below 0 that a full step lands on and halves, a residual finite at the guess alone, and a zero Jacobian
NEWTON_KINDS = ("root", "no-root", "pole", "wall", "singular")


def kinds_system(kinds, shift):
    """Residual and Jacobian of a stack whose system k is of kinds[k], with shift[k] in its residual."""
    kind = np.array([NEWTON_KINDS.index(k) for k in kinds])[:, None]
    calls = []

    def residual(u):
        calls.append(1)
        pole = np.where(u > 0.0, np.arctan(u - shift), np.inf)
        wall = u - shift if len(calls) == 1 else np.full_like(u, np.inf)
        with np.errstate(over="ignore"):  # the iterates of u^2 + 1 can pass close to 0 and far out
            return np.choose(kind, [u * u - shift, u * u + shift, pole, wall, u - shift])

    def jacobian(u):
        with np.errstate(over="ignore"):
            slope = np.choose(kind, [2.0 * u, 2.0 * u, 1.0 / (1.0 + (u - shift) ** 2), np.ones_like(u), 0.0 * u])
        return slope[..., None] * np.eye(u.shape[-1])

    return residual, jacobian


class TestNewtonMatchesTheLoopReference:
    """newton_solve gives the bits and the errors of reference_newton_solve."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from(NEWTON_KINDS[:3]) | st.sampled_from(NEWTON_KINDS), min_size=m, max_size=m),
        st.sampled_from([1, 2, 3, 8, 32]), st.integers(0, 2**32 - 1), st.sampled_from([1e-12, 1e-4]))))
    def test_kinds(self, case):
        kinds, n, seed, tolerance = case
        rng = np.random.default_rng(seed)
        shift = rng.uniform(0.5, 4.0, (len(kinds), 1))
        guess = rng.uniform(0.2, 6.0, (len(kinds), n))
        sides = []
        for solve in (paired_newton_solve, reference_newton_solve):
            residual, jacobian = kinds_system(kinds, shift)
            sides.append(outcome(solve, residual, guess, jacobian, tolerance))
        assert sides[0] == sides[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda m: st.tuples(
        st.lists(st.sampled_from(discrete.CORNER_VARIANTS), min_size=m, max_size=m),
        st.sampled_from([1, 2, 3, 8, 32]), st.integers(0, 2**32 - 1), st.sampled_from([3.0, 30.0]))))
    def test_corner_systems(self, case):
        # the corner system's Jacobian squares its residual's cross matrix; the reference forms its own
        variants, n, seed, spacing = case
        rng = np.random.default_rng(seed)
        x = spacing * np.arange(n) + rng.uniform(-0.3, 0.3, (len(variants), n))
        known = x + rng.uniform(0.9, 1.1, x.shape) / 3.0
        system, const, sgn = discrete._corner_system(variants, x, discrete._cross(x, known).sum(axis=-1),
                                                     discrete.inverse_gaps(x).sum(axis=-1), -1.0)
        guess = discrete._mean_field_guess(x, const, sgn)
        changed = outcome(newton_solve, system, guess, TOL)
        assert changed == outcome(reference_newton_solve, lambda u: const + sgn * discrete._cross(x, u).sum(axis=-1),
                                  guess, lambda u: sgn[..., None] * discrete._cross(x, u) ** 2, TOL)

    @pytest.mark.parametrize("kinds, shift, halvings", [
        (("root", "pole", "root"), [2.0, 0.1, 3.0], 2),  # system 1's full step and half step land below 0
        (("wall", "pole"), [3.0, 0.1], 2),  # and system 0, frozen at its guess, has no finite residual after it
        (("wall", "root"), [3.0, 2.0], 0),  # a frozen system's non-finite residual halves nothing
    ])
    def test_pole_halving(self, kinds, shift, halvings):
        sides, moving = [], np.array(kinds) != "wall"
        for solve in (paired_newton_solve, reference_newton_solve):
            residual, jacobian = kinds_system(kinds, np.array(shift)[:, None])
            finite = []

            def recorded(u, residual=residual, finite=finite):
                f = residual(u)
                finite.append((bool(np.isfinite(f[moving]).all()), bool(np.isfinite(f).all())))
                return f

            sides.append(outcome(solve, recorded, np.full((len(kinds), 3), 3.0), jacobian, TOL))
            assert isinstance(sides[-1], bytes) and [f[0] for f in finite].count(False) == halvings
            # a frozen wall makes a residual non-finite where every moving system's row is finite
            assert any(rows and not whole for rows, whole in finite) == (not moving.all())
        assert sides[0] == sides[1]

    @pytest.mark.parametrize("kinds, shift, error", [
        (("root", "pole", "root"), [2.0, 1.0, 3.0], None),  # system 1's first full step lands below 0
        (("no-root", "root"), [1.0, 2.0], ("after 50 iterations", 0)),
        (("root", "wall", "root"), [1.0, 2.0, 3.0], ("could not find a finite residual", 1)),
        (("root", "singular"), [1.0, 2.0], ("inverse bound inf", 1)),
        (("wall", "pole", "no-root"), [2.0, 1.0, 1.0], ("could not find a finite residual", 0)),
    ])
    def test_each_kind_takes_its_branch(self, kinds, shift, error):
        sides = []
        for solve in (paired_newton_solve, reference_newton_solve):
            residual, jacobian = kinds_system(kinds, np.array(shift)[:, None])
            sides.append(outcome(solve, residual, np.full((len(kinds), 3), 3.0), jacobian, TOL))
        assert sides[0] == sides[1]
        if error is None:
            assert isinstance(sides[0], bytes)
        else:
            assert error[0] in sides[0][1] and sides[0][2] == error[1]


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
        with pytest.raises(SingularMatrix, match="^system 0: inverse bound inf above 1.0e[+]12$"):
            linear_solve(np.array([[[1.0, 1.0], [1.0, 1.0]]]), np.array([[1.0, 2.0]]))

    def test_overflowing_lu_is_refused_by_its_backward_error(self):
        # LU overflows to an infinite second pivot and gives a finite inverse with a zero row, whose bound of
        # about 1 clears it; its answer [1e-308, 0] is wrong, the solution being [0, 1e-308]
        a = np.array([[1e308, 1e308], [-1e308, 1e308]])
        inverse = np.linalg.solve(a, np.eye(2))
        assert np.isfinite(inverse).all() and 1e308 * np.abs(inverse).sum(axis=1).max() <= 1.0 + 1e-15
        with pytest.raises(SingularMatrix, match="^system 0: backward error ") as info:
            linear_solve(a[None], [[1.0, 1.0]])
        assert info.value.system == 0

    def test_overflowing_member_of_a_stack_is_named(self):
        a, b = dominant_stack(4, 2, 8)
        alone = [linear_solve(a[k:k + 1], b[k:k + 1])[0] for k in (0, 1, 3)]
        assert np.array_equal(linear_solve(a[[0, 1, 3]], b[[0, 1, 3]]), alone)
        a[2], b[2] = [[1e308, 1e308], [-1e308, 1e308]], [1.0, 1.0]
        with pytest.raises(SingularMatrix, match="^system 2: backward error ") as info:
            linear_solve(a, b)
        assert info.value.system == 2

    def test_small_component_passes_the_normwise_test(self):
        # cond 4, not dominant: LU with partial pivoting returns [0, 1], whose row-1 residual 1e-20 is as large as
        # that row's |a||v| + |b|, so the componentwise test would refuse it; the normwise test takes it
        a, b = np.array([[[1.0, 1.0], [1.0, 0.0]]]), np.array([[1.0, 1e-20]])
        v = linear_solve(a, b)
        assert v.tolist() == [[0.0, 1.0]] and np.array_equal(v, np.linalg.solve(a, b[:, :, None])[:, :, 0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    @pytest.mark.parametrize("a", [[[4.0, 1.0], [1.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]])  # dominant or not
    def test_non_finite_right_hand_side_is_solved_on_both_routes(self, a, entry):
        v = linear_solve([a], [[entry, 2.0]])
        assert v.shape == (1, 2) and not np.isfinite(v).all()

    def test_rescaled_system_passes_both_tests(self):
        # the overflowing system divided by 1e308 is not dominant; its inverse bound is 1 and its backward error 0
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            v = linear_solve([[[1.0, 1.0], [-1.0, 1.0]]], [[1e-308, 1e-308]])
        assert lapack == [(1, 2, 3)] and v.tolist() == [[0.0, 1e-308]]

    def test_empty_stack(self):
        assert linear_solve(np.empty((0, 3, 3)), np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("m", [0, 3])
    def test_no_unknowns_is_refused(self, m):
        with pytest.raises(ValueError, match="^matrices must be a stack [(]m, n, n[)] with n >= 1$"):
            linear_solve(np.empty((m, 0, 0)), np.empty((m, 0)))

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
        with pytest.raises(SingularMatrix, match=f"system {bad}: inverse bound inf") as info:
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


# rows 0 and 1 differ by 1e-15 in one entry: LU's pivot in column 1 is about 1e-15, its inverse bound about 1e15
NEAR_SINGULAR = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-15, 0.0], [0.0, 0.0, 1.0]])


def reason(error):
    """A SingularMatrix's message without its "system k: " prefix."""
    return str(error).partition(": ")[2]


class TestCertifiedSolve:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bad", [0, 2, 4])
    def test_near_singular_member_is_named_by_the_certificate(self, bad, seed):
        a, b = dominant_stack(6, 3, seed)
        a[bad] = 7.0 * NEAR_SINGULAR[np.random.default_rng(seed).permutation(3)]
        a[5] = 7.0 * NEAR_SINGULAR  # a later failing system is not the one named
        np.linalg.solve(a, b[:, :, None])  # not exactly singular, so LAPACK raises nothing
        with pytest.raises(SingularMatrix, match="^system 0: inverse bound ") as alone:
            linear_solve(a[bad:bad + 1], b[bad:bad + 1])
        with pytest.raises(SingularMatrix, match=f"^system {bad}: inverse bound ") as stacked:
            linear_solve(a, b)
        assert stacked.value.system == bad and reason(stacked.value) == reason(alone.value)

    def test_uncertified_system_raises(self):
        a, b = dominant_stack(4, 16, 3)
        a[2] = spread_pivot(16, 1e-13)
        inverse = np.abs(np.linalg.inv(a[2]))
        # the certificate reads row sums; column sums would clear this system
        assert inverse.sum(axis=1).max() > CERTIFY_MARGIN / PIVOT_RTOL > inverse.sum(axis=0).max()
        with pytest.raises(SingularMatrix, match="^system 2: inverse bound ") as info:
            linear_solve(a, b)
        assert info.value.system == 2

    @pytest.mark.parametrize("bad", [0, 3])
    def test_exactly_singular_member_is_named_by_the_certificate(self, bad):
        a, b = dominant_stack(5, 4, 11)
        a[bad, 2] = a[bad, 0]  # two equal rows stay equal through LU and end in a zero pivot
        a[4, 3] = a[4, 1]  # a later singular system is not the one named
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(a, b[:, :, None])
        # np.linalg.solve rejects the stack; the dgesv call of [b | I] leaves the singular systems NaN instead
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            with pytest.raises(SingularMatrix, match=f"^system {bad}: inverse bound inf ") as stacked:
                linear_solve(a, b)
        assert stacked.value.system == bad and lapack == [(5, 4, 5)]  # shuffled, so none is dominant

    @settings(max_examples=60, deadline=None)
    @given(STACKS, st.data())
    def test_each_system_gets_the_same_bits_stacked_as_alone(self, shape, data):
        m, n, _ = shape
        a, b = dominant_stack(*shape)
        member, kind = data.draw(st.integers(0, m - 1)), data.draw(st.sampled_from(["none", "spread", "orthogonal"]))
        if n > 1 and kind == "spread":  # not certified: the member raises, stacked as alone
            a[member] = spread_pivot(n, 1e-13)
            with pytest.raises(SingularMatrix, match="^system 0: inverse bound ") as alone:
                linear_solve(a[member:member + 1], b[member:member + 1])
            with pytest.raises(SingularMatrix, match=f"^system {member}: ") as stacked:
                linear_solve(a, b)
            assert reason(stacked.value) == reason(alone.value)
            return
        if kind == "orthogonal":  # not dominant for n > 1, and certified by its inverse
            a[member] = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))[0]
        v = linear_solve(a, b)
        for ai, bi, vi in zip(a, b, v, strict=True):
            assert np.array_equal(vi, linear_solve(ai[None], bi[None])[0])


def watch_solvers(mp):
    """Record the right-hand side shape of every LAPACK call while the MonkeyPatch mp is active: (m, n, 1)
    for the dgesv kernel's one right-hand side each, as np.linalg.solve would see it, and (m, n, n + 1) for
    the dgesv call of [b | I]."""
    lapack = []
    solve, kernel = numerics._SOLVE, numerics._lapack_solve
    mp.setattr(numerics, "_lapack_solve", lambda a, b: lapack.append((*b.shape, 1)) or kernel(a, b))
    mp.setattr(numerics, "_SOLVE", lambda a, b, **kw: lapack.append(b.shape) or solve(a, b, **kw))
    return lapack


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
        n = len(a)
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            with pytest.raises(SingularMatrix, match="^system 0: inverse bound "):
                linear_solve(a[None], np.ones((1, n)))
        assert lapack == [(1, n, n + 1)]

    def test_singular_newton_jacobian_is_not_certified(self):
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            with pytest.raises(SingularJacobian, match="^system 0: inverse bound inf "):
                newton_solve(paired(lambda u: np.ones_like(u), lambda u: np.zeros((1, 1, 1))), np.array([[0.0]]), TOL)
        assert lapack == [(1, 1, 2)]

    @settings(max_examples=40, deadline=None)
    @given(STACKS, st.booleans())
    def test_dominant_rows_take_the_single_right_hand_side(self, shape, shuffled):
        m, n, _ = shape
        a, b = dominant_stack(*shape, shuffled=shuffled)
        # a shuffled system whose permutation is the identity is still dominant
        dominant = np.array([np.array_equal(np.abs(ai).argmax(axis=1), np.arange(n)) for ai in a])
        assert dominant.all() or shuffled
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            v = linear_solve(a, b)
        calls = [(int(dominant.sum()), n, 1), (int((~dominant).sum()), n, n + 1)]
        assert lapack == [c for c in calls if c[0]]
        assert np.array_equal(v[dominant], np.linalg.solve(a[dominant], b[dominant, :, None])[:, :, 0])
        assert np.array_equal(v[~dominant], np.linalg.solve(a[~dominant], with_inverse(b[~dominant]))[:, :, 0])

    def test_systems_not_dominant_are_certified_by_their_inverses(self):
        a, b = dominant_stack(6, 16, 5, shuffled=False)
        a[1] = spread_pivot(16, 0.5)  # an inverse bound of 8
        a[4] = np.linalg.qr(np.random.default_rng(5).normal(size=(16, 16)))[0]  # orthogonal: ‖a‖‖a⁻¹‖ ≤ 16
        assert np.linalg.cond(a[4], p=np.inf) < 16.0 + 1e-9
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            v = linear_solve(a, b)
        assert lapack == [(4, 16, 1), (2, 16, 17)]
        for k in (1, 4):
            assert np.array_equal(v[k], np.linalg.solve(a[k], with_inverse(b[k:k + 1])[0])[:, 0])
        for k in range(6):
            assert np.array_equal(v[k], linear_solve(a[k:k + 1], b[k:k + 1])[0])
            assert np.max(np.abs(a[k] @ v[k] - b[k])) <= 1e-10

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 128), st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e3]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_a_certified_system_passes_the_backward_error_test(self, n, level, laplacian, seed):
        # the dominant route skips the backward-error test that the [b | I] route applies; its solutions pass
        # even the componentwise form of it
        a, b = near_threshold(n, level, laplacian, seed)
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            try:
                v = linear_solve(a[None], b[None])[0]
            except SingularMatrix:
                v = None
        dominant = lapack[0] == (1, n, 1)
        if n > 1 and level >= 2.0:
            assert dominant
        if n == 1 or level <= 0.5:
            assert not dominant
        if dominant:
            residual, size = np.abs(b - a @ v), np.abs(a) @ np.abs(v) + np.abs(b)
            assert (residual <= BACKWARD_ERROR_FACTOR * n * 2.0**-52 * size).all()


def reference_dominant(a):
    """linear_solve's dominance certificate as it was before it read its scale off the diagonal: each system's
    margin against the scale s = max|a_ij|, its largest |entry|."""
    n = a.shape[-1]
    magnitude = np.abs(a)
    with np.errstate(over="ignore", invalid="ignore"):
        margin = 2.0 * magnitude.diagonal(axis1=1, axis2=2) - magnitude.sum(axis=2)
        return margin.min(axis=1) > (PIVOT_RTOL / CERTIFY_MARGIN + n * n * 2.0**-52) * magnitude.max(axis=(1, 2))


def certified_route(a):
    """The LAPACK calls linear_solve makes on the stack a, recorded by watch_solvers, and the calls that
    reference_dominant's decision gives: the dgesv kernel for the dominant systems, [b | I] for the rest."""
    m, n, _ = a.shape
    dominant = reference_dominant(a)
    with pytest.MonkeyPatch.context() as mp:
        lapack = watch_solvers(mp)
        # a system with entries near the overflow threshold may overflow, and a NaN or singular one raises; only
        # the route is compared here, and it is decided before either
        with np.errstate(all="ignore"):
            try:
                linear_solve(a, np.ones((m, n)))
            except SingularMatrix:
                pass
    calls = [(int(dominant.sum()), n, 1), (int((~dominant).sum()), n, n + 1)]
    return lapack, [c for c in calls if c[0]]


SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
ROW_KINDS = ("random", "dominant", "margin", "threshold", "above")


def certificate_row(rng, n, i, kind, k):
    """Row i of an (n, n) matrix: uniform entries in (-1, 1) off the diagonal and a diagonal of a random
    sign whose magnitude is, by kind, uniform ("random"), twice the off-diagonal sum plus one ("dominant"),
    that sum times 1 + k ε, the margin's boundary ("margin"), that sum plus k / 4 times the certificate's
    threshold at the row's own scale ("threshold"), or twice the sum plus one with one off-diagonal entry
    (1 + k ε) times the diagonal, above it for k > 0 ("above")."""
    row = rng.uniform(-1, 1, n)
    off = np.abs(row).sum() - abs(row[i])
    tau = PIVOT_RTOL / CERTIFY_MARGIN + n * n * 2.0**-52
    diagonal = {"random": abs(row[i]), "dominant": 2.0 * off + 1.0, "margin": off * (1.0 + k * 2.0**-52),
                "threshold": off + 0.25 * k * tau * max(off, 1.0), "above": 2.0 * off + 1.0}[kind]
    row[i] = diagonal * rng.choice([-1.0, 1.0])
    if kind == "above" and n > 1:
        row[(i + 1 + int(rng.integers(n - 1))) % n] = -diagonal * (1.0 + k * 2.0**-52)
    return row


class TestDiagonalScale:
    """linear_solve's certificate reads its scale off the diagonal, max_i |a_ii|, and takes the route that the
    largest |entry| max_ij |a_ij| gives, on every input."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_same_route_as_the_full_scale(self, n, m, seed, data):
        rng = np.random.default_rng(seed)
        a = np.empty((m, n, n))
        for system in a:
            for i in range(n):
                kind, k = data.draw(st.sampled_from(ROW_KINDS)), data.draw(st.integers(-2, 8))
                system[i] = certificate_row(rng, n, i, kind, k) * data.draw(st.sampled_from([1.0, 1e-300, 1e300]))
        for _ in range(data.draw(st.integers(0, 3))):
            k, i, j = (data.draw(st.integers(0, size - 1)) for size in (m, n, n))
            a[k, i, j] = data.draw(st.sampled_from(SPECIALS))
        lapack, expected = certified_route(a)
        assert lapack == expected

    @pytest.mark.parametrize("a, dominant", [
        ([[1.0, 0.5], [0.5, 1.0]], True),
        ([[1e308, 0.0], [0.0, 1e308]], True),  # 2|a_ii| overflows to inf, a margin of inf
        ([[1e308, 0.0], [0.0, 1.0]], False),  # row 1's margin is below the threshold at scale 1e308
        ([[1e308, 1e308], [0.0, 1.0]], False),  # inf - inf
        ([[-1e308, 0.9e308], [0.0, 1e308]], False),  # a row sum that overflows
        ([[1.0, -(1.0 + 2.0**-52)], [0.0, 1.0]], False),  # an off-diagonal entry above its diagonal
        ([[1.0, 1.0 - 2.0**-52], [0.0, 1.0]], False),  # a margin of one ulp, under the threshold
        ([[5e-324, 0.0], [0.0, 5e-324]], True),  # the threshold rounds to zero
        ([[5e-324, 5e-324], [0.0, 1.0]], False),
        ([[-0.0, 0.0], [0.0, 1.0]], False),
        ([[1.0, np.nan], [0.0, 1.0]], False),
        ([[np.inf, 0.0], [0.0, 1.0]], False),
        ([[1.0, 0.0], [-np.inf, 1.0]], False),
        ([[2.0, 0.0, 0.0], [0.0, 1e-300, 0.0], [0.0, 0.0, 3.0]], False),
        ([[2.0, -1.0, 0.0], [0.5, 1.0, 0.0], [0.0, 1.0, 3.0]], True),
    ])
    def test_boundary_matrices(self, a, dominant):
        a = np.array(a)[None]
        assert reference_dominant(a)[0] == dominant
        lapack, expected = certified_route(a)
        assert lapack == expected


class TestLapackKernel:
    """_lapack_solve calls the dgesv gufunc that np.linalg.solve wraps, on stacks the caller certifies."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([0, 1, 2, 16]), st.sampled_from([1, 2, 3, 8, 32]), st.integers(0, 2**32 - 1),
           st.booleans(), st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=4), st.data())
    def test_equals_np_linalg_solve_bit_for_bit(self, m, n, seed, transposed, specials, data):
        a, b = dominant_stack(m, n, seed, shuffled=False)  # dominant by rows and by columns
        if transposed:
            a = a.transpose(0, 2, 1)
        if m:
            for value in specials:
                b[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))] = value
        with pytest.MonkeyPatch.context() as mp:
            lapack = watch_solvers(mp)
            linear_solve(a, b)
        assert lapack == [(m, n, 1)]  # certified, so linear_solve takes the kernel alone
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = numerics._lapack_solve(a, b)
            reference = np.linalg.solve(a, b[:, :, None])[:, :, 0]
        assert v.dtype == reference.dtype and v.shape == reference.shape == (m, n)
        assert v.tobytes() == reference.tobytes()

    def test_float_solve_is_the_kernel_on_python_floats(self):
        a, b = dominant_stack(3, 2, 7, shuffled=False)
        solved = numerics.float_solve(2, a.ravel().tolist(), b.ravel().tolist())
        assert solved == np.linalg.solve(a, b[:, :, None]).ravel().tolist()


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


def march_arguments(module, run):
    """The order and tolerance that module passes to numerics.march while run() runs."""
    given = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "march", lambda field, y0, times, dt, order, tol, *rest: given.append((order, tol)) or y0[None])
        run()
    return given[0]


def flows_step_cases():
    """A flows stack (2, 6) of two systems of three particles in different start orders, the order and tolerance
    flows._march gives numerics.march, and states a step could reach, each with whether the march accepts it."""
    start = np.array([[0.0, 1.0, 2.0, 0.0, 0.0, 0.0], [2.0, 0.0, 1.0, 0.0, 0.0, 0.0]])
    order, tol = march_arguments(flows, lambda: flows._march(start, PathSpec(np.array([1.0, 0.0]), 0.1, 1)))
    cases = [(start, True)]
    for x, accepted in (([0.0, 2.0, 1.0], False),  # an order flip with wide gaps
                        ([0.0, np.nextafter(tol, 0.0), 1.0], False),  # a gap just under the tolerance
                        ([0.0, tol, 1.0], True),  # a gap exactly at it
                        ([0.0, np.nan, 2.0], False)):
        cases.append((start.copy(), accepted))
        cases[-1][0][0, :3] = x
    for k, value in ((0, np.inf), (4, np.nan)):  # +inf on the highest particle of system 1, NaN in its momenta
        cases.append((start.copy(), False))
        cases[-1][0][1, k] = value
    return start, order, tol, cases


def single_particle_step_cases():
    """A flows stack (2, 2) of two single particles, as flows_step_cases."""
    start = np.array([[3.0, -1.0], [0.5, 0.0]])
    order, tol = march_arguments(flows, lambda: flows._march(start, PathSpec(np.array([1.0, 0.0]), 0.1, 1)))
    return start, order, tol, [(start, True), (np.array([[3.0, -1.0], [np.inf, 0.0]]), False),
                               (np.array([[3.0, np.nan], [0.5, 0.0]]), False)]


def chain_step_cases():
    """A chain stack (1, 3, 2) of three sites of two particles, the order and tolerance evolve_chain gives
    numerics.march, and states a step could reach, each with whether the march accepts it."""
    base = np.array([[0.0, 1.0], [0.3, 1.3], [0.6, 1.6]])
    order, tol = march_arguments(semidiscrete, lambda: evolve_chain(Chain(base), 1e-3, 0))
    cases = [(base, True)]
    for site, i, value, accepted in ((1, 0, -0.1, False),  # an order flip across edge 0 with wide gaps
                                     (1, 0, np.nextafter(tol, 0.0), False),  # a cross gap just under the tolerance
                                     (1, 0, tol, True),  # a cross gap exactly at it
                                     (2, 0, np.nan, False),
                                     (2, 1, np.inf, False)):  # +inf on the highest particle
        cases.append((base.copy(), accepted))
        cases[-1][0][site, i] = value
    cases.append((base.copy(), False))  # site 1 reversed, wide apart
    cases[-1][0][1] = cases[-1][0][1, ::-1]
    return base[None], order, tol, [(y[None], accepted) for y, accepted in cases]


class TestMarch:
    """numerics.march, the float-first driver, against rk4_march, on a harmonic field whose float and numpy
    forms give the same bits, and the step test both kernels apply."""

    DT, TOL = 0.1, 1e-6
    TIMES = np.arange(11) * DT
    # row r: x = (1 + r/10) sin t and a wall at LIMITS[r] that the field leaves where it is; x passes the wall
    # of row 1 first at step 4 (x 0.325, then 0.428), that of row 2 at step 2 (x 0.120, then 0.238), never
    # that of row 0
    LIMITS = (1e300, 0.38, 0.2)
    Y0 = np.array([[0.0, 1.0, LIMITS[0]], [0.0, 1.1, LIMITS[1]], [0.0, 1.2, LIMITS[2]]])
    WALLS = np.array([[0, 2], [3, 5], [6, 8]])  # each row's x below its wall, as flat indices into Y0

    @staticmethod
    def field(_t, y):
        out = np.empty_like(y)
        out[..., 0], out[..., 1], out[..., 2] = y[..., 1], -y[..., 0], 0.0
        return out

    @staticmethod
    def run(monkeypatch, y0, times, order, refused, leg):
        """The march's states, or its abort as (message, s), and the (start time, start state) of every
        rk4_march call it makes."""
        handed, real = [], numerics.rk4_march
        monkeypatch.setattr(numerics, "rk4_march", lambda field, y0, times, dt, *test:
                            handed.append((times[0], y0.tobytes())) or real(field, y0, times, dt, *test))
        try:
            return numerics.march(TestMarch.field, y0, times, TestMarch.DT, order, TestMarch.TOL, refused, leg), handed
        except CollisionSingularity as exc:
            return (str(exc), exc.s), handed

    def refused(self, t, y, _before):
        """Name the first row whose x is not TOL below its wall."""
        raise CollisionSingularity(f"row {int(np.argmax(y[:, 2] - y[:, 0] < self.TOL))} at t={t:.6g}", s=t)

    @staticmethod
    def leg(legs, pairs, gives_up):
        """A float_rk4_step of the field that appends to `legs` (x amplitude, count given, steps passed) of each
        leg it marches, for systems with `pairs` neighbour pairs; with gives_up, its field gives NaN at a stage
        state whose x is past the wall, as the chain's float field does on an edge system it does not certify."""
        def source(y, k):
            wall = f" if {y[0]} <= {y[2]} else nan" if gives_up else ""
            return [f"{k[0]} = {y[1]}{wall}", f"{k[1]} = -{y[0]}", f"{k[2]} = 0.0"]

        leg = numerics.float_rk4_step(("harmonic test field with a wall", pairs, gives_up), 3, pairs, source,
                                      TestMarch.DT)

        def counted(out, count, tol, *args):
            passed = leg(out, count, tol, *args)
            legs.append((args[-2], count, passed))
            return passed

        return counted

    @pytest.mark.parametrize("raises", [False, True])
    def test_numpy_takes_the_stack_from_the_last_step_every_row_accepted(self, monkeypatch, raises):
        # with raises, the walls are in the order, so both kernels refuse the step where x passes a wall; else
        # only the float field fails there, and the numpy march takes it
        order = self.WALLS if raises else self.WALLS[:, :1]
        expected, handed = self.run(monkeypatch, self.Y0, self.TIMES, order, self.refused, None)
        assert [start for start, _ in handed] == [0.0]
        legs = []
        got, handed = self.run(monkeypatch, self.Y0, self.TIMES, order, self.refused,
                               self.leg(legs, order.shape[1] - 1, gives_up=not raises))
        # each row marches its leg alone, up to the steps the rows before it passed: row 2 fails at step 2
        assert legs == [(1.0, 10, 10), (1.1, 10, 3), (1.2, 3, 1)]
        if raises:  # the refused step of row 2 is taken again on numpy, which raises
            assert got == expected == ("row 2 at t=0.2", 0.2)
        else:  # tobytes also tells 0.0 from -0.0
            assert got.shape == expected.shape == (11, 3, 3) and got.tobytes() == expected.tobytes()
        # from step 1, the last step that every row passed, with the state the numpy march has there
        assert handed == [(self.TIMES[1], rk4_step(self.field, 0.0, self.Y0, self.DT).tobytes())]

    def test_a_march_that_no_row_refuses_stays_on_floats(self, monkeypatch):
        order, legs = self.WALLS[:, :1], []
        expected, _ = self.run(monkeypatch, self.Y0, self.TIMES, order, self.refused, None)
        got, handed = self.run(monkeypatch, self.Y0, self.TIMES, order, self.refused, self.leg(legs, 0, False))
        assert handed == [] and got.tobytes() == expected.tobytes()
        assert legs == [(1.0, 10, 10), (1.1, 10, 10), (1.2, 10, 10)]

    @settings(max_examples=60, deadline=None)
    @given(b=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 20))
    def test_a_stack_hands_off_at_the_last_step_every_system_passed(self, b, seed, steps):
        # b systems whose float fields give up at random steps, or never: x = a sin t with a wall at 0-1.6
        rng = np.random.default_rng(seed)
        y0 = np.stack([np.zeros(b), rng.uniform(0.5, 1.5, b), rng.uniform(0.0, 1.6, b)], axis=1)
        times, order, legs = np.arange(steps + 1) * self.DT, 3 * np.arange(b)[:, None], []
        leg = self.leg(legs, 0, gives_up=True)
        alone = []  # the steps each system's leg passes alone
        for row in y0.tolist():
            alone.append(leg(array("d", row), steps, self.TOL, *row))
        legs.clear()
        with pytest.MonkeyPatch.context() as patch:
            expected, _ = self.run(patch, y0, times, order, None, None)
        with pytest.MonkeyPatch.context() as patch:
            got, handed = self.run(patch, y0, times, order, None, leg)
        # system r gets the fewest steps the systems before it passed, and passes as many of them as it passes alone
        given = [min([steps, *alone[:r]]) for r in range(b)]
        assert legs == [(a, count, min(count, own)) for a, count, own in zip(y0[:, 1].tolist(), given, alone)]
        last = min([steps, *alone])
        assert got.tobytes() == expected.tobytes()
        assert handed == ([] if last == steps else [(times[last], expected[last].tobytes())])

    @pytest.mark.parametrize("cases", [flows_step_cases, single_particle_step_cases, chain_step_cases],
                             ids=["flows", "single-particle", "chain"])
    def test_both_kernels_accept_the_same_steps(self, cases):
        # a step from start lands on each state y: rk4_march's numpy test gives a failing one to refused, and
        # march hands one that its float leg refuses to rk4_march; the leg, of dt 0 and a zero field, starts at y
        # and lands on it, tested on the pairs of the start order
        start, order, tol, states = cases()
        times, real = np.array([0.0, 1.0]), numerics.rk4_march
        size, pairs = start[0].size, (order.size - len(order)) // len(start)
        leg = numerics.float_rk4_step(("a zero step", size, pairs), size, pairs,
                                      lambda y, k: [f"{a} = 0.0" for a in k], 0.0)
        for y, accepted in states:
            handed, refused = [], []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(numerics, "rk4_step", lambda field, t, before, dt: y)
                real(None, start, times, 1.0, order, tol, lambda *step: refused.append(step))
                patch.setattr(numerics, "rk4_march", lambda field, y0, *rest: handed.append(y0) or np.stack([y0, y]))
                numerics.march(None, y, times, 0.0, order, tol, None, leg)
            assert (not handed) is (not refused) is accepted, y


@pytest.fixture
def compiled(monkeypatch):
    """The key of every step maker numerics compiles while the test runs, from an empty cache."""
    built, real = [], numerics._compile_float_step
    monkeypatch.setattr(numerics, "_FLOAT_STEPS", {})
    monkeypatch.setattr(numerics, "_compile_float_step", lambda key, *args: built.append(key) or real(key, *args))
    return built


class TestFloatStep:
    def test_dt_and_params_are_arguments_of_one_compiled_source(self, compiled):
        source = lambda y, k: [f"{k[0]} = {y[1]}", f"{k[1]} = -(w * {y[0]})"]  # noqa: E731
        for dt, w in ((0.1, 1.0), (0.3 / 7, 2.5), (1e-3, -0.5)):
            leg, out = numerics.float_rk4_step(("oscillator",), 2, 0, source, dt, w=w), array("d")
            y = expected = np.array([0.3, -1.2])
            assert leg(out, 3, 0.0, *y.tolist()) == 3
            for got in np.frombuffer(out).reshape(3, 2):
                expected = rk4_step(lambda _t, u: np.array([u[1], -(w * u[0])]), 0.0, expected, dt)
                assert got.tobytes() == expected.tobytes()
        assert compiled == [("oscillator",)]

    def test_importing_cmhier_compiles_nothing(self):
        code = "import cmhier, cmhier.cli; from cmhier import numerics; print(len(numerics._FLOAT_STEPS))"
        env = {**os.environ, "PYTHONPATH": str(Path(numerics.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert run.returncode == 0 and run.stdout == "0\n", run.stderr

    def test_two_verify_runs_build_each_step_once(self, compiled):
        for _ in range(2):
            verify_all(scenario_from_dict({"kind": "verify-all", "n": 3, "seed": 0}))
        assert len(compiled) == len(set(compiled)) == len(numerics._FLOAT_STEPS)
        # bounded by construction: flows compiles one step per N < ORDERED_SUM_N and set of nonzero weights,
        # semidiscrete one per chain of K edges and N <= 2 particles, which FLOAT_CHAIN_SIZE bounds
        flows_keys = {key for key in compiled if key[0] == "flows"}
        assert flows_keys and all(n < ORDERED_SUM_N and weights in {(True, False), (False, True), (True, True)}
                                  for _, n, weights in flows_keys)
        chain_keys = set(compiled) - flows_keys
        assert chain_keys and all(kind == "semidiscrete" and n <= 2 and k_len * n * n <= FLOAT_CHAIN_SIZE
                                  for kind, k_len, n in chain_keys)
