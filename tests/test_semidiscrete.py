from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhier import cli, numerics, semidiscrete, verify
from cmhier.discrete import LatticeParams, discrete_step
from cmhier.errors import CollisionSingularity, NumericsError, SingularMatrix, located
from cmhier.scenario import scenario_from_dict
from cmhier.semidiscrete import (
    Chain,
    evolve_chain,
    semi_closure_values,
    semi_eom_residual,
    semi_lagrangian,
    tau_velocities,
)

PARAMS = LatticeParams(p1=1.0, p2=2.0, n=2)


def orbit_chain(x0, shift, params, edges=2):
    """Chain seeded as a segment of a discrete orbit."""
    sites = [np.asarray(x0, float), np.asarray(x0, float) + np.asarray(shift, float)]
    for _ in range(edges - 1):
        sites.append(discrete_step(sites[-2], sites[-1], params))
    return Chain(tuple(sites))


CHAIN_N1 = orbit_chain([0.0], [0.35], LatticeParams(p1=1.0, p2=2.0, n=1))
CHAIN_N2 = orbit_chain([-2.0, 2.0], [0.3, 0.36], PARAMS)
CHAIN_N3 = orbit_chain([-4.0, 0.0, 4.0], [0.3, 0.36, 0.33], LatticeParams(p1=1.0, p2=2.0, n=3))


def drifting_chain(n, k_len, seed=0):
    """Sites on a grid of spacing 4, each site the previous one moved by about 0.3."""
    rng = np.random.default_rng(seed)
    sites = [4.0 * np.arange(n) + rng.uniform(-0.4, 0.4, n)]
    for _ in range(k_len):
        sites.append(sites[-1] + rng.uniform(0.25, 0.35, n))
    return sites


def counted_step_checks(monkeypatch):
    """Lists that collect the shape of the sites of every _check_sites call and of every numpy step that
    evolve_chain's in-flight check tests, while the test runs."""
    checked, tested = [], []
    real_check, real_march = semidiscrete._check_sites, semidiscrete.march
    monkeypatch.setattr(semidiscrete, "_check_sites", lambda y: checked.append(y.shape) or real_check(y))
    monkeypatch.setattr(semidiscrete, "march", lambda field, y0, times, dt, check, floats: real_march(
        field, y0, times, dt, lambda tau, y, before: tested.append(y.shape) or check(tau, y, before), floats))
    return checked, tested


def numpy_step_check(start):
    """evolve_chain's in-flight check of a numpy march step, check(tau, y, before), for the chain of sites start."""
    checks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semidiscrete, "march", lambda field, y0, times, dt, check, floats: checks.append(check) or y0[None])
        evolve_chain(Chain(start), 1e-3, 0)
    return checks[0]


def site_test_cases(base):
    """base (K+1, N) and states a step from it could reach: NaN and +-inf at each particle, particles of a site
    or of adjacent sites 5e-13 and 2e-12 apart, order flips across an edge and reversed sites."""
    k_len, n = base.shape[0] - 1, base.shape[1]
    cases = [base]
    for k in range(k_len + 1):
        for i in range(n):
            for value in (np.nan, np.inf, -np.inf):
                cases.append(base.copy())
                cases[-1][k, i] = value
            if n > 1:  # particles i and i + 1 (cyclically) of site k 5e-13 and 2e-12 apart
                for gap in (5e-13, 2e-12):
                    cases.append(base.copy())
                    cases[-1][k, (i + 1) % n] = cases[-1][k, i] + gap
            for j in range(n):
                if k < k_len:  # particle i of site k and particle j of site k + 1, 5e-13 and 2e-12 apart,
                    # and particle j of site k + 1 moved 0.1 below particle i of site k: an order flip
                    for gap in (5e-13, 2e-12, -0.1):
                        cases.append(base.copy())
                        cases[-1][k + 1, j] = cases[-1][k, i] + gap
        if n > 1:  # the particles of site k reversed, wide apart
            cases.append(base.copy())
            cases[-1][k] = cases[-1][k, ::-1]
    return cases


class TestChain:
    def test_collision_names_site(self):
        sites = drifting_chain(3, 4)
        sites[2][1] = sites[2][0] + 1e-13
        with pytest.raises(CollisionSingularity, match="minimum gap .* at site 2"):
            Chain(tuple(sites))

    def test_cross_gap_names_edge(self):
        sites = drifting_chain(3, 4)
        sites[2][0] = sites[1][0]
        with pytest.raises(CollisionSingularity, match="adjacent chain sites .* at edge 1"):
            Chain(tuple(sites))

    @pytest.mark.parametrize(
        "sites, site", [(([np.nan, 1.0], [0.5, 2.0]), 0), (([0.0], [1.0], [np.inf]), 2)]
    )
    def test_non_finite_position_names_site(self, sites, site):
        with pytest.raises(CollisionSingularity, match=f"non-finite position at site {site}"):
            Chain(tuple(np.array(s) for s in sites))

    def test_stacked_chain_names_site_and_edge(self):
        stack = np.array([drifting_chain(3, 4, seed) for seed in range(3)])
        Chain(stack, np.zeros(3))
        with pytest.raises(ValueError, match=r"tau of shape \(\) does not match"):
            Chain(stack)
        collided, crossed = stack.copy(), stack.copy()
        collided[1, 2, 1] = collided[1, 2, 0] + 1e-13
        with pytest.raises(CollisionSingularity, match="minimum gap .* at site 2"):
            Chain(collided, np.zeros(3))
        crossed[2, 2, 0] = crossed[2, 1, 0]
        with pytest.raises(CollisionSingularity, match="adjacent chain sites .* at edge 1"):
            Chain(crossed, np.zeros(3))

    def test_ragged_sites_rejected(self):
        with pytest.raises(ValueError):
            Chain((np.array([0.0, 1.0]), np.array([2.0])))


class TestTauVelocities:
    def test_scalar_two_site_chain(self):
        chain = Chain((np.array([0.0]), np.array([2.0])))
        vel = tau_velocities(chain)
        assert vel.velocities[1][0] == pytest.approx(-4.0)
        assert vel.velocities[0][0] == pytest.approx(-4.0)

    def test_scalar_interior_determinations_agree(self):
        vel = tau_velocities(CHAIN_N1)
        assert vel.max_discrepancy <= 1e-14

    def test_orbit_seeded_chain_is_compatible(self):
        vel = tau_velocities(CHAIN_N2)
        assert vel.max_discrepancy <= 1e-12

    def test_velocities_satisfy_equation_of_motion(self):
        vel = tau_velocities(CHAIN_N2)
        res = semi_eom_residual(CHAIN_N2.sites, vel.from_prev_edge, vel.from_next_edge)
        assert np.max(np.abs(res)) <= 1e-10


    def test_random_chain_matches_per_edge_reference(self):
        chain = Chain(tuple(drifting_chain(8, 8, seed=4)))
        vel = tau_velocities(chain)
        for k in range(chain.length):
            a, b = chain.sites[k], chain.sites[k + 1]
            mat = 1.0 / (a[:, None] - b[None, :]) ** 2
            forward = np.linalg.solve(mat, -np.ones(8))
            backward = np.linalg.solve(mat.T, -np.ones(8))
            for got, ref in ((vel.from_prev_edge[k], forward), (vel.from_next_edge[k], backward)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("edge", [0, 3, 5])
    def test_singular_edge_is_named(self, edge):
        # a cross pair 1e-8 apart makes one edge matrix numerically singular
        sites = drifting_chain(2, 6)
        sites[edge + 1][0] = sites[edge][0] + 1e-8
        if edge + 2 < len(sites):
            sites[edge + 2][0] = sites[edge + 1][0] + 0.3
        with pytest.raises(SingularMatrix, match=f"edge {edge} forward velocity") as info:
            tau_velocities(Chain(tuple(sites)))
        assert info.value.system == edge


    @pytest.mark.parametrize("entries", [1, 300, numerics.STACK_ENTRIES])
    def test_sequence_of_chains_equals_each_alone(self, monkeypatch, entries):
        # 1 entry: one chain per solve; 300: several chains per solve, the last one short
        monkeypatch.setattr(numerics, "STACK_ENTRIES", entries)
        snaps = evolve_chain(Chain(tuple(drifting_chain(3, 4))), 1e-3, 6)
        vel = tau_velocities(snaps)
        for t, tau in enumerate(snaps.tau):
            alone = tau_velocities(Chain(snaps.sites[t], tau))
            assert vel.max_discrepancy[t] == alone.max_discrepancy
            for got, ref in ((vel.velocities, alone.velocities), (vel.from_prev_edge, alone.from_prev_edge),
                             (vel.from_next_edge, alone.from_next_edge)):
                assert np.array_equal(got[t], ref)


class TestEvolveChain:
    def test_failure_carries_stage_tau(self, monkeypatch):
        real = semidiscrete._site_velocities
        calls = []

        def failing_on_sixth_call(y):
            calls.append(y)
            if len(calls) == 6:
                raise SingularMatrix("system 0: pivot 0.000e+00 below threshold in column 0", system=0)
            return real(y)

        monkeypatch.setattr(semidiscrete, "_site_velocities", failing_on_sixth_call)
        start = Chain(CHAIN_N3.sites, tau=0.5)  # N = 3 takes the numpy kernel
        with pytest.raises(SingularMatrix, match=r"at tau=0\.5015: system 0") as info:
            evolve_chain(start, 1e-3, 3)
        # the sixth field evaluation is the second stage of the second step
        assert info.value.tau == pytest.approx(0.5 + 1e-3 + 0.5e-3)

    def test_float_kernel_hands_off_at_the_start_of_the_step(self, monkeypatch):
        # the float field gives up on its sixth evaluation, the second stage of the second step: the numpy
        # kernel takes that step again from its start, so its first stage is the first one it evaluates
        real_field, real = semidiscrete._float_site_velocities, semidiscrete._site_velocities
        calls, numpy_calls = [], []

        def giving_up_on_sixth_call(k_len, n):
            field = real_field(k_len, n)
            return lambda y: calls.append(y) or ([np.nan] * len(y) if len(calls) == 6 else field(y))

        def failing(y):
            numpy_calls.append(y.shape)
            raise SingularMatrix("system 0: pivot 0.000e+00 below threshold in column 0", system=0)

        monkeypatch.setattr(semidiscrete, "_float_site_velocities", giving_up_on_sixth_call)
        monkeypatch.setattr(semidiscrete, "_site_velocities", failing)
        with pytest.raises(SingularMatrix, match=r"at tau=0\.501: system 0") as info:
            evolve_chain(Chain(CHAIN_N2.sites, tau=0.5), 1e-3, 3)
        assert info.value.tau == 0.5 + 1e-3 and len(calls) == 8 and numpy_calls == [(3, 2)]

    def test_builds_one_chain_per_call(self, count_builds, monkeypatch):
        checked, tested = counted_step_checks(monkeypatch)
        builds = count_builds(Chain)
        chain = evolve_chain(CHAIN_N3, 1e-3, 10)  # N = 3 takes the numpy kernel
        assert chain.sites.shape == (11, 3, 3) and chain.tau.shape == (11,) and len(builds) == 1
        # each accepted step passes the one-pass test in flight, so _check_sites checks only the whole
        # evolution, once, when it is built
        assert tested == [(3, 3)] * 10 and checked == [(11, 3, 3)]

    def test_a_numpy_step_across_a_collision_aborts(self, monkeypatch):
        # the chain of test_sites_that_cross_abort_alike with two far particles added to each site: the
        # third step takes edge 0 across its crossing, and only that step runs _check_sites
        checked, tested = counted_step_checks(monkeypatch)
        chain = Chain(([0.0, 10.0, 20.0], [0.5, 10.3, 20.3], [2.0, 10.6, 20.6]))
        with pytest.raises(CollisionSingularity) as info:
            evolve_chain(chain, 0.25, 5)
        assert (str(info.value), info.value.tau, info.value.system) == (
            "at tau=0.75: particle order changed across the step at edge 0", 0.75, 0)
        # the start chain is checked when built, then the failing step
        assert tested == [(3, 3)] * 3 and checked == [(3, 3), (3, 3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_the_one_pass_step_test_passes_what_check_sites_and_check_order_pass(self, n, monkeypatch):
        # the numpy kernel's check of a step from base to y accepts it without calling _check_sites or
        # _check_order exactly when both pass, and otherwise raises their error at the step's tau
        base = np.array(drifting_chain(n, 3))
        check, called = numpy_step_check(base), []
        real_sites, real_order = semidiscrete._check_sites, semidiscrete._check_order
        monkeypatch.setattr(semidiscrete, "_check_sites", lambda y: called.append(y) or real_sites(y))
        monkeypatch.setattr(semidiscrete, "_check_order", lambda y, before: called.append(y) or real_order(y, before))
        outcomes = set()
        for y in site_test_cases(base):
            expected = got = None
            try:
                with located(tau=0.25):
                    real_sites(y)
                    real_order(y, base)
            except CollisionSingularity as exc:
                expected = (str(exc), exc.tau, exc.system)
            called.clear()
            try:
                check(0.25, y, base)
            except CollisionSingularity as exc:
                got = (str(exc), exc.tau, exc.system)
            assert got == expected and (called == []) is (expected is None)
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_float_kernel_builds_one_chain_and_checks_it_once(self, count_builds, monkeypatch):
        checked, solved = [], []
        real_check, real_solve = semidiscrete._check_sites, semidiscrete._site_velocities
        monkeypatch.setattr(semidiscrete, "_check_sites", lambda y: checked.append(y.shape) or real_check(y))
        monkeypatch.setattr(semidiscrete, "_site_velocities", lambda y: solved.append(y.shape) or real_solve(y))
        builds = count_builds(Chain)
        chain = evolve_chain(CHAIN_N2, 1e-3, 10)
        assert chain.sites.shape == (11, 3, 2) and chain.tau.shape == (11,) and len(builds) == 1
        # the float kernel tests each step itself; the whole evolution is checked once when built
        assert checked == [(11, 3, 2)] and solved == []

    def test_tau_is_the_running_sum_of_the_steps(self):
        tau, taus = 0.5, [0.5]
        for _ in range(40):
            tau = tau + 1e-3
            taus.append(tau)
        assert evolve_chain(Chain(CHAIN_N2.sites, 0.5), 1e-3, 40).tau.tolist() == taus

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            evolve_chain(CHAIN_N2, 1e-3, -1)

    def test_stack_is_rejected(self):
        snaps = evolve_chain(CHAIN_N2, 1e-3, 2)
        with pytest.raises(ValueError, match="one chain, not a stack"):
            evolve_chain(snaps, 1e-3, 2)

    def test_scalar_gap_constant(self):
        chain = Chain((np.array([0.0]), np.array([2.0])))
        snaps = evolve_chain(chain, 1e-3, 100)
        gaps = snaps.sites[:, 1, 0] - snaps.sites[:, 0, 0]
        assert np.max(np.abs(gaps - gaps[0])) <= 1e-10

    def test_step_halving_order(self):
        # a deliberately non-uniform chain, so the velocity field actually
        # varies along the evolution and truncation error is visible
        chain = Chain((np.array([0.0]), np.array([1.0]), np.array([2.5])))
        ref = evolve_chain(chain, 1e-4, 800).sites[-1]
        coarse = evolve_chain(chain, 8e-2, 1).sites[-1]
        fine = evolve_chain(chain, 4e-2, 2).sites[-1]
        err_coarse = np.max(np.abs(coarse - ref))
        err_fine = np.max(np.abs(fine - ref))
        assert err_coarse / err_fine == pytest.approx(16.0, rel=0.4)

    def test_compatibility_persists(self):
        snaps = evolve_chain(CHAIN_N2, 1e-3, 100)
        worst = np.max(tau_velocities(snaps).max_discrepancy)
        assert worst <= 1e-8


def chain_outcome(chain, d_tau, steps, float_size):
    """evolve_chain with FLOAT_CHAIN_SIZE = float_size: the evolved sites and the number of steps the numpy
    kernel marched, or the abort as (type, message, tau, system) and that number."""
    marched = []
    real = numerics.rk4_march
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semidiscrete, "FLOAT_CHAIN_SIZE", float_size)
        patch.setattr(numerics, "rk4_march",
                      lambda field, y0, times, dt, check: marched.append(len(times) - 1) or real(field, y0, times, dt, check))
        try:
            return evolve_chain(chain, d_tau, steps).sites, sum(marched)
        except NumericsError as exc:
            return (type(exc), str(exc), exc.tau, exc.system), sum(marched)


def assert_same_chain_outcome(chain, d_tau, steps):
    """The float kernel ends as the numpy kernel does, every value to the bit; returns its outcome and the
    number of steps it handed to the numpy kernel."""
    expected, numpy_steps = chain_outcome(chain, d_tau, steps, 0)
    assert numpy_steps == steps
    got, handed_off = chain_outcome(chain, d_tau, steps, semidiscrete.FLOAT_CHAIN_SIZE)
    if isinstance(expected, tuple):
        assert got == expected
    else:  # tobytes also tells 0.0 from -0.0
        assert isinstance(got, np.ndarray) and got.shape == expected.shape and got.tobytes() == expected.tobytes()
    return got, handed_off


class TestFloatChainKernel:
    """The float kernel of evolve_chain, for N <= 2 and K N^2 up to FLOAT_CHAIN_SIZE, against the numpy
    kernel it stands in for."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([1, 2]),
        k_len=st.integers(1, semidiscrete.FLOAT_CHAIN_SIZE),
        d_tau=st.sampled_from([1e-3, 1e-2]),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(1, 40),
        spacing=st.sampled_from([0.6, 1.5, 4.0]),
    )
    def test_every_step_equals_the_numpy_march(self, n, k_len, d_tau, seed, steps, spacing):
        # shifts of 0.05-1 at particle spacings of 0.6-4: some edges are not dominant at the start or turn so
        k_len = max(1, k_len // n**2)
        rng = np.random.default_rng(seed)
        sites = np.cumsum(np.concatenate([spacing * np.arange(n) + rng.uniform(-0.1, 0.1, (1, n)),
                                          rng.uniform(0.05, 1.0, (k_len, n))]), axis=0)
        try:
            chain = Chain(sites)
        except CollisionSingularity:
            return
        assert_same_chain_outcome(chain, d_tau, steps)

    @pytest.mark.parametrize("chain", [CHAIN_N1, CHAIN_N2, Chain(tuple(drifting_chain(1, 64))),
                                       Chain(tuple(drifting_chain(2, 16, seed=3)))])
    @pytest.mark.parametrize("d_tau", [1e-3, 1e-2])
    def test_float_kernel_takes_every_step(self, chain, d_tau):
        assert assert_same_chain_outcome(chain, d_tau, 20)[1] == 0

    def test_adjacent_sites_meet_alike(self):
        # the gap of edge 0 is -1/2 + exp(-tau); this step, found by bisection, takes it below COLLISION_TOL
        # at the third step
        chain = Chain((np.array([0.0]), np.array([0.5]), np.array([2.0])))
        outcome, handed_off = assert_same_chain_outcome(chain, 0.2310557167464719, 5)
        assert outcome[0] is CollisionSingularity and outcome[2:] == (3 * 0.2310557167464719, 0)
        assert outcome[1].startswith("at tau=0.693167: gap between adjacent chain sites 1.318e-16 below")
        assert outcome[1].endswith("at edge 0") and handed_off == 3

    def test_sites_that_cross_abort_alike(self):
        # the chain of test_adjacent_sites_meet_alike: the gap of edge 0, -1/2 + exp(-tau), turns negative at
        # tau = log 2, and the step to tau = 0.75 lands 0.028 past the crossing, wide of COLLISION_TOL; the
        # float kernel refuses the step, and the numpy kernel takes it again and raises
        chain = Chain((np.array([0.0]), np.array([0.5]), np.array([2.0])))
        outcome, handed_off = assert_same_chain_outcome(chain, 0.25, 5)
        assert outcome == (CollisionSingularity, "at tau=0.75: particle order changed across the step at edge 0",
                           0.75, 0)
        assert handed_off == 3

    def test_edge_turning_non_dominant_hands_off_with_the_same_bits(self):
        # the second particle of site 1 sits near the middle of those of sites 0 and 2: after 30 steps an
        # edge system is no longer diagonally dominant, and the numpy kernel solves it through [b | I]
        chain = Chain((np.array([0.0, 1.0]), np.array([0.35, 1.55]), np.array([0.65, 2.0])))
        sites, handed_off = assert_same_chain_outcome(chain, 1e-2, 40)
        assert handed_off == 10 and sites.shape == (41, 3, 2)

    def test_singular_edge_is_named_alike(self):
        sites = drifting_chain(2, 6)  # TestTauVelocities.test_singular_edge_is_named at edge 3
        sites[4][0] = sites[3][0] + 1e-8
        sites[5][0] = sites[4][0] + 0.3
        outcome, handed_off = assert_same_chain_outcome(Chain(tuple(sites)), 1e-3, 5)
        assert outcome[0] is SingularMatrix and outcome[1].startswith("at tau=0: edge 3 forward velocity: system 3")
        assert outcome[2:] == (0.0, 3) and handed_off == 5

    def test_the_chain_shape_picks_the_kernel(self, monkeypatch, tmp_path):
        marched, numpy_steps = [], []  # (sites of the start, steps the numpy kernel marched) of every evolution
        real_march, real = semidiscrete.march, numerics.rk4_march
        monkeypatch.setattr(numerics, "rk4_march", lambda field, y0, times, dt, check:
                            numpy_steps.append(len(times) - 1) or real(field, y0, times, dt, check))

        def counted(field, y0, times, dt, check, floats):
            numpy_steps.clear()
            evolved = real_march(field, y0, times, dt, check, floats)
            marched.append((y0.shape, sum(numpy_steps)))
            return evolved

        monkeypatch.setattr(semidiscrete, "march", counted)
        rng = np.random.default_rng(0)
        verify._semidiscrete_checks(verify.Collector(1.0), rng)
        verify._closure_diagnostics(verify.Collector(1.0), rng)
        cli.run_scenario(scenario_from_dict({**cli.DEMOS["semidiscrete"], "out_dir": str(tmp_path)}))
        assert marched == [((3, 1), 0), ((3, 2), 0), ((3, 2), 0), ((3, 2), 0), ((3, 2), 0)]
        marched.clear()
        evolve_chain(Chain(tuple(drifting_chain(8, 8))), 1e-3, 3)  # the chain of the semidiscrete-chain benchmark
        evolve_chain(Chain(tuple(drifting_chain(1, semidiscrete.FLOAT_CHAIN_SIZE + 1))), 1e-3, 3)
        evolve_chain(Chain(tuple(drifting_chain(2, semidiscrete.FLOAT_CHAIN_SIZE // 4 + 1))), 1e-3, 3)
        assert [steps for _, steps in marched] == [3, 3, 3]


class TestFloatKernelParts:
    """The solves, certificate and site test of the float kernel against the numpy code they repeat."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.05, 5.0), min_size=4, max_size=4), st.booleans())
    def test_two_by_two_equals_lapack(self, gaps, transposed):
        # entries 1/d^2 as in an edge system, for gaps d of 0.05-5
        a = 1.0 / np.square(np.array(gaps).reshape(2, 2))
        a = a.T.copy() if transposed else a
        magnitude = np.abs(a)
        bound = numerics.PIVOT_RTOL / numerics.CERTIFY_MARGIN + 4 * 2.0**-52
        if not (2.0 * magnitude.diagonal() - magnitude.sum(axis=1)).min() > bound * magnitude.max():
            return  # not dominant: linear_solve takes another route, and the float kernel hands off
        expected = np.linalg.solve(a[None], -np.ones((1, 2, 1)))[0, :, 0]
        assert np.array(semidiscrete._solve_minus_ones(*a.ravel().tolist())).tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 1e6))
    def test_one_by_one_is_one_division(self, entry):
        assert np.linalg.solve(np.array([[[entry]]]), -np.ones((1, 1, 1)))[0, 0, 0] == -1.0 / entry

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e250, 1e250), st.floats(-1e250, 1e250))
    def test_fused_multiply_add_rounds_once(self, a, b):
        got = semidiscrete._fma_minus_one(a, b)
        if abs(a * b) > 2.0**900:
            assert np.isnan(got)
        else:
            assert got == float(Fraction(a) * Fraction(b) - 1)

    @pytest.mark.parametrize("sites, certified", [
        # the margin of forward row 0 just above 1e-12 s, inside the n^2 eps rounding term of the certificate
        ([[0.0, 1.5], [-1.0, 1.000000000002001]], False),
        ([[0.0, 1.5], [-1.0, 1.000000000002002]], True),  # just above that term
        ([[0.0, 1.0], [0.6, 1.1]], False),  # the forward system is dominant, the backward one not
        ([[0.6, 1.1], [0.0, 1.0]], False),  # the backward system is dominant, the forward one not
    ])
    def test_the_float_field_certifies_what_linear_solve_certifies(self, sites, certified):
        y = np.array(sites)
        got = np.array(semidiscrete._float_site_velocities(1, 2)(y.ravel().tolist()))
        expected = semidiscrete._site_velocities(y)[0]  # linear_solve solves the others through [b | I]
        assert np.isfinite(expected).all()
        if certified:
            assert got.tobytes() == expected.ravel().tobytes()
        else:
            assert np.isnan(got).all()

    @pytest.mark.parametrize("n", [1, 2])
    def test_the_float_site_test_passes_what_check_sites_passes(self, n):
        # and what the order check passes, for a step from base
        base = np.array(drifting_chain(n, 3))
        outcomes = set()
        for y in site_test_cases(base):
            try:  # the numpy kernel's check of a step from base to y
                semidiscrete._check_sites(y)
                semidiscrete._check_order(y, base)
                passes = True
            except CollisionSingularity:
                passes = False
            outcomes.add(passes)
            assert semidiscrete._float_sites_pass(base)(y.ravel().tolist()) is passes
        assert outcomes == {True, False}

    @pytest.mark.parametrize("row, k", [("site", 2), ("edge", 1)])
    def test_an_order_flip_is_named(self, row, k):
        before = np.array(drifting_chain(2, 3))
        y = before.copy()
        if row == "site":
            y[k] = y[k, ::-1]
        else:  # particle 0 of site 2 moved 0.1 below particle 0 of site 1
            y[k + 1, 0] = y[k, 0] - 0.1
        semidiscrete._check_sites(y)  # every gap is wide
        with pytest.raises(CollisionSingularity) as info:
            semidiscrete._check_order(y, before)
        assert str(info.value) == f"particle order changed across the step at {row} {k}" and info.value.system == k


class TestSemiEom:
    def test_consistent_scalar_chain(self):
        vel = tau_velocities(CHAIN_N1)
        assert np.max(np.abs(semi_eom_residual(CHAIN_N1.sites, vel.from_prev_edge, vel.from_next_edge))) <= 1e-12

    def test_random_velocities_nonzero(self):
        vel = np.array([[0.3, -0.2], [0.1, 0.4], [-0.5, 0.2]])
        assert np.max(np.abs(semi_eom_residual(CHAIN_N2.sites, vel[1:], vel[:-1]))) > 1e-3

    def test_edge_matched_velocities_hold_it_on_any_chain(self):
        # each term is the left side of the system its velocity solves, so only the averaged
        # velocities of a chain that is no orbit show its edge discrepancy
        chain = Chain(tuple(drifting_chain(8, 8, seed=4)))
        vel = tau_velocities(chain)
        assert vel.max_discrepancy > 0.05
        assert np.max(np.abs(semi_eom_residual(chain.sites, vel.from_prev_edge, vel.from_next_edge))) <= 1e-14
        assert np.max(np.abs(semi_eom_residual(chain.sites, vel.velocities[1:], vel.velocities[:-1]))) > 0.4


class TestSemiLagrangian:
    def test_shared_coordinate_is_rejected(self):
        with pytest.raises(CollisionSingularity, match="coinciding coordinates between site and shift"):
            semi_lagrangian(np.array([0.0, 2.0]), np.array([1.0, 2.0]), np.zeros(2))

    def test_pinned_scalar_value(self):
        got = semi_lagrangian(np.array([0.0]), np.array([1.0]), np.array([-1.0]))
        assert got == pytest.approx(-3.0)

    def test_zero_velocity(self):
        got = semi_lagrangian(np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert got == pytest.approx(-1.0)

    def test_pair_term_absent_for_one_particle(self):
        # first and third terms only: -v/(x-tx) + (x - tx + v)
        x, tx, v = 0.4, 1.7, 0.6
        got = semi_lagrangian(np.array([x]), np.array([tx]), np.array([v]))
        assert got == pytest.approx(-v / (x - tx) + (x - tx + v))


class TestSemiClosure:
    def test_scalar_chain_value(self):
        # a uniform N=1 chain makes both sides of the closure vanish
        snaps = evolve_chain(CHAIN_N1, 5e-4, 2)
        printed, negated = semi_closure_values(snaps, LatticeParams(p1=1.0, p2=2.0, n=1))
        assert printed == pytest.approx(0.0, abs=1e-10)
        assert negated == pytest.approx(0.0, abs=1e-10)

    def test_tau_step_insensitive(self):
        vals = []
        for d_tau in (1e-3, 5e-4):
            snaps = evolve_chain(CHAIN_N2, d_tau, 2)
            vals.append(min(abs(v) for v in semi_closure_values(snaps, PARAMS)))
        assert vals[0] == pytest.approx(vals[1], abs=1e-7)

    def test_diagnostic_reported_for_two_particles(self):
        snaps = evolve_chain(CHAIN_N2, 5e-4, 2)
        value = min(abs(v) for v in semi_closure_values(snaps, PARAMS))
        assert np.isfinite(value)
        assert value <= 1e-3

    def test_strongly_interacting_chain_converges_to_a_nonzero_value(self):
        # the relation does not close: on this chain the printed value converges in d_tau to about
        # -6.2e-3, most of d/dtau L_(1) itself (about -7.5e-3), while halving d_tau moves it by 5.6e-7
        chain = orbit_chain([-1.0, 1.0], [0.5, 0.55], PARAMS)
        coarse, fine = (semi_closure_values(evolve_chain(chain, d_tau, 2), PARAMS)[0] for d_tau in (1e-3, 5e-4))
        assert abs(fine - coarse) <= 1e-6
        assert fine == pytest.approx(-6.2e-3, abs=5e-5)

    def test_needs_three_snapshots(self):
        with pytest.raises(ValueError, match="need at least 3 snapshots"):
            semi_closure_values(evolve_chain(CHAIN_N2, 1e-3, 1), PARAMS)
        with pytest.raises(ValueError, match="need at least 3 snapshots"):
            semi_closure_values(CHAIN_N2, PARAMS)

    def test_needs_two_edges(self):
        chain = Chain((np.array([0.0, 3.0]), np.array([0.3, 3.4])))
        with pytest.raises(ValueError, match="at least two edges"):
            semi_closure_values(evolve_chain(chain, 1e-3, 2), PARAMS)

    def test_needs_uniform_tau_spacing(self):
        snaps = evolve_chain(CHAIN_N2, 1e-3, 2)
        with pytest.raises(ValueError, match="uniformly spaced"):
            semi_closure_values(Chain(snaps.sites, np.array([0.0, 1e-3, 3e-3])), PARAMS)


def test_chain_residuals_match_the_per_snapshot_loop(monkeypatch):
    from cmhier import verify

    chain = evolve_chain(Chain(tuple(drifting_chain(3, 4))), 1e-3, 20)
    snaps = [Chain(sites, tau) for sites, tau in zip(chain.sites, chain.tau)]
    vels = [tau_velocities(s) for s in snaps]
    disc = max(float(v.max_discrepancy) for v in vels)
    eom = max(float(np.max(np.abs(semi_eom_residual(s.sites, v.from_prev_edge, v.from_next_edge))))
              for s, v in zip(snaps, vels))
    # 300 entries: the residual is taken in several row blocks, the last one short
    for entries in (numerics.STACK_ENTRIES, 300):
        monkeypatch.setattr(numerics, "STACK_ENTRIES", entries)
        assert verify.chain_residuals(chain) == (disc, eom, None)
