import copy

import numpy as np
import pytest

from cmhier import discrete, exact, flows, semidiscrete, verify
from cmhier.errors import CollisionSingularity
from cmhier.hierarchy import PhaseState
from cmhier.sampling import random_phase_state

# Draw 18 (counted from 0) of random_phase_state(default_rng(12345), 3, min_gap=1.0).
# Along [1, 1] its exact spectrum turns complex at s ~ 0.116, yet RK4 steps
# across the collision: the pair is thrown out to x ~ 3e4 in order and apart,
# so the march never aborts.
BOUNCE_RNG_SEED, BOUNCE_DRAW = 12345, 18
BOUNCE = PhaseState(
    [-2.7927628399555955, -0.43024483458272966, 0.5821875623493478],
    [0.483918549052784, 0.9575077595769019, 0.10831989625154925],
)


def _rng_before_bounce():
    rng = np.random.default_rng(BOUNCE_RNG_SEED)
    for _ in range(BOUNCE_DRAW):
        random_phase_state(rng, 3, min_gap=1.0)
    return rng


class TestSpectrum:
    """exact.spectrum, the one oracle of every regime, and exact.ends, its one end test."""

    def test_a_stack_of_s_equals_each_s_alone(self):
        start = PhaseState([-4.0, 0.0, 4.0], [0.1, 0.0, -0.1])
        s = np.linspace(0.0, 3.0, 7).reshape(7, 1) * [1.0, 0.5]  # (7, 2) values of s
        stacked = exact.projection_spectrum(start, (1.0, -0.5), s)
        assert stacked.shape == (7, 2, 3)
        for index in np.ndindex(s.shape):
            assert stacked[index].tobytes() == exact.projection_spectrum(start, (1.0, -0.5), s[index]).tobytes()

    def test_ends_reads_a_complex_pair_or_a_close_gap(self):
        spectra = np.array([[0.0, 1.0, 3.0], [1.0 + 1e-9j, 1.0 - 1e-9j, 3.0], [0.0, 1.0, 1.0 + 1e-9]])
        assert exact.ends(spectra, 1e-6).tolist() == [False, True, True]
        assert exact.ends(spectra, 1e-10).tolist() == [False, True, False]
        assert exact.ends(spectra.real[:1], 1.0).tolist() == [False] and exact.ends(spectra.real[:1], 1.5)[0]


class TestProjectionSpectrum:
    @pytest.mark.parametrize("direction", [(1.0, 0.0), (0.0, 1.0), (0.4, 0.3), (-1.0, 0.5)])
    def test_one_particle_closed_form(self, direction):
        d2, d3 = direction
        x, p = 0.2, 0.7
        s = np.linspace(0.0, 2.0, 9)
        spectrum = exact.projection_spectrum(PhaseState([x], [p]), direction, s)
        assert spectrum.shape == (9, 1)
        np.testing.assert_allclose(spectrum[:, 0], x + d2 * p * s + d3 * p * p * s, rtol=0, atol=1e-14)

    def test_two_body_gap_law(self):
        # at rest at -2 and 2 the relative energy is -1/2, so r^2 = 16 - t^2 along t2
        t = np.linspace(0.0, 3.9, 40)
        spectrum = exact.projection_spectrum(PhaseState([-2.0, 2.0], [0.0, 0.0]), (1.0, 0.0), t)
        assert np.all(spectrum.imag == 0.0)
        gap = np.diff(np.sort(spectrum.real, axis=-1), axis=-1)[:, 0]
        np.testing.assert_allclose(gap**2, 16.0 - t**2, rtol=0, atol=1e-12)


class TestCollides:
    def test_two_body_collision_at_t_four(self):
        start = PhaseState([-2.0, 2.0], [0.0, 0.0])
        assert not exact.collides(start, flows.PathSpec((1.0, 0.0), 3.9, 39))
        assert exact.collides(start, flows.PathSpec((1.0, 0.0), 4.5, 45))

    def test_a_collision_at_a_coarse_time_skips_the_other_times(self, monkeypatch):
        # the pair meets at t = 4: of 50 steps to t = 8, the coarse times 16 and 32 fall on both sides
        screened, real = [], exact.projection_spectrum
        monkeypatch.setattr(exact, "projection_spectrum", lambda *args: screened.append(args[2]) or real(*args))
        assert exact.collides(PhaseState([-2.0, 2.0], [0.0, 0.0]), flows.PathSpec((1.0, 0.0), 8.0, 50))
        assert len(screened) == 1 and np.array_equal(screened[0], [16 * 0.16, 32 * 0.16, 48 * 0.16])

    def test_gap_below_the_flight_tolerance_collides(self):
        # r(t) = sqrt(16 - t^2) falls below FLIGHT_GAP_TOL just before t = 4
        start = PhaseState([-2.0, 2.0], [0.0, 0.0])
        t_close = np.sqrt(16.0 - (0.5 * flows.FLIGHT_GAP_TOL) ** 2)
        assert exact.collides(start, flows.PathSpec((1.0, 0.0), t_close, 1))
        assert not exact.collides(start, flows.PathSpec((1.0, 0.0), np.sqrt(16.0 - (2.0 * flows.FLIGHT_GAP_TOL) ** 2), 1))

    @pytest.mark.parametrize("duration, steps", [(0.0, 1), (0.0, 7), (0.3, 3), (0.1, 7), (1.0, 1000), (0.5, 500)])
    def test_march_samples_and_screen_read_one_grid(self, monkeypatch, duration, steps):
        path = flows.PathSpec((1.0, -0.5), duration, steps)
        grid = path.grid()
        # the march's own expression, bit for bit; the screen's s = i duration/steps, i = 1..steps, where
        # the march takes steps: a zero-duration march takes none, and the screen then checks nothing
        assert np.array_equal(grid, np.arange((steps if duration > 0 else 0) + 1) * (duration / steps))
        assert np.array_equal(grid[1:], np.arange(1, steps + 1) * (duration / steps) if duration > 0 else [])
        seen = {}

        def march(field, y0, times, dt, order, tol, refused, step):
            seen["march"], seen["floats"] = times, step is not None
            return real_march(field, y0, times, dt, order, tol, refused, step)

        def spectrum(start, direction, s):
            seen.setdefault("screen", []).append(s)
            return exact_spectrum(start, direction, s)

        exact_spectrum, real_march = exact.projection_spectrum, flows.march
        monkeypatch.setattr(flows, "march", march)
        monkeypatch.setattr(exact, "projection_spectrum", spectrum)
        start = PhaseState([-4.0, 0.0, 4.0], [0.1, 0.0, -0.1])
        assert not exact.collides(start, path)
        traj = flows.evolve_path(start, path)
        # the screen reads every time of grid[1:] once, the grid times 16, 32, ... first
        screened = np.concatenate(seen["screen"])
        assert np.array_equal(np.sort(screened), grid[1:]) and np.array_equal(seen["screen"][0], grid[16::16])
        assert np.array_equal(seen["march"], grid) and seen["floats"]  # a single N = 3 state marches on floats
        assert np.array_equal(traj.times()[:, 0], grid) and len(traj.x) == len(grid)

    def test_bounce_state_passes_the_march_but_not_the_screen(self):
        state = random_phase_state(_rng_before_bounce(), 3, min_gap=1.0)
        assert np.array_equal(state.x, BOUNCE.x) and np.array_equal(state.p, BOUNCE.p)
        (path,) = verify._NOETHER_LEGS
        traj = flows.evolve_path(BOUNCE, path)
        assert np.max(np.abs(traj.x[-1])) > 1e3
        assert verify.energy_drift(traj) > 1.0
        assert exact.collides(BOUNCE, path)

    def test_bounce_state_ends_at_the_same_bits_on_both_march_kernels(self, monkeypatch):
        (path,) = verify._NOETHER_LEGS
        y0 = np.concatenate([BOUNCE.x, BOUNCE.p])[None]
        ends = []
        for float_size in (flows.FLOAT_MARCH_SIZE, 0):  # the float kernel, then the numpy one
            monkeypatch.setattr(flows, "FLOAT_MARCH_SIZE", float_size)
            ends.append(flows._march(y0, path)[-1])
        assert np.max(np.abs(ends[0][0, :3])) > 1e3 and ends[0].tobytes() == ends[1].tobytes()


class TestSurvivingState:
    @pytest.fixture
    def marched(self, monkeypatch):
        """Start states of every flows.evolve_path call made while the test runs."""
        starts = []
        real = flows.evolve_path

        def counted(start, *args, **kwargs):
            starts.append(start)
            return real(start, *args, **kwargs)

        monkeypatch.setattr(flows, "evolve_path", counted)
        return starts

    def test_screened_draw_is_never_marched(self, marched):
        state, _, draws = verify._surviving_state(
            _rng_before_bounce(), 3, 1.0, verify._NOETHER_LEGS, verify._noether_run
        )
        assert draws["screened_out"] >= 1
        assert len(marched) == draws["draws"] - draws["screened_out"]
        assert not any(np.array_equal(s.x, BOUNCE.x) for s in marched)
        assert not np.array_equal(state.x, BOUNCE.x)

    def test_without_the_screen_the_bounce_state_survives(self, marched):
        state, drift, draws = verify._surviving_state(_rng_before_bounce(), 3, 1.0, (), verify._noether_run)
        assert np.array_equal(state.x, BOUNCE.x)
        assert draws == {"draws": 1, "screened_out": 0}
        assert len(marched) == 1 and drift > 1.0

    def test_verify_seed_5_keeps_the_survivor_of_marching_every_draw(self):
        rng = np.random.default_rng(5)
        col = verify.Collector(1.0)
        verify._involution(col, rng)
        verify._commuting_flows(col, rng)
        state, drifts, draws = verify._surviving_state(
            copy.deepcopy(rng), 3, 1.0, verify._DRIFT_LEGS.values(), verify._drift_run
        )
        state_all, drifts_all, draws_all = verify._surviving_state(rng, 3, 1.0, (), verify._drift_run)
        assert draws == {"draws": 13, "screened_out": 12}
        assert draws_all == {"draws": 13, "screened_out": 0}
        assert np.array_equal(state.x, state_all.x) and np.array_equal(state.p, state_all.p)
        assert drifts == drifts_all

    def test_all_draws_screened_out_raises(self, monkeypatch, marched):
        monkeypatch.setattr(exact, "collides", lambda *leg: True)
        with pytest.raises(CollisionSingularity, match="all 3 draws collide"):
            verify._surviving_state(
                np.random.default_rng(0), 3, 1.0, verify._NOETHER_LEGS, verify._noether_run, attempts=3
            )
        assert marched == []


class TestLatticeSpectrum:
    PARAMS = discrete.LatticeParams(p1=1.0, p2=2.0, n=32)

    def test_sheet_matches_at_every_site(self):
        rng = np.random.default_rng(21)
        x00 = 3.0 * np.arange(32) + rng.uniform(-0.3, 0.3, 32)
        x10 = x00 + rng.uniform(0.9, 1.1, 32) / 3.0
        sheet = discrete.build_lattice_sheet(x00, x10, self.PARAMS, 4, 4)
        n1, n2 = np.array(list(sheet.sites)).T
        spectrum = discrete.lattice_spectrum(x00, x10, self.PARAMS, n1, n2)
        assert np.all(spectrum.imag == 0.0)
        sites = np.sort(np.array(list(sheet.sites.values())), axis=1)
        assert np.max(np.abs(sites - np.sort(spectrum.real, axis=1))) <= 1e-8

    def test_orbit_is_the_first_row(self):
        params = discrete.LatticeParams(p1=1.0, p2=2.0, n=8)
        rng = np.random.default_rng(1)
        orbit = [5.0 * np.arange(8) + rng.uniform(-0.3, 0.3, 8)]
        orbit.append(orbit[0] + rng.uniform(0.9, 1.1, 8) / 3.0)
        for _ in range(50):
            orbit.append(discrete.discrete_step(orbit[-2], orbit[-1], params))
        spectrum = discrete.lattice_spectrum(orbit[0], orbit[1], params, np.arange(52), 0)
        assert np.max(np.abs(np.sort(orbit, axis=1) - np.sort(spectrum.real, axis=1))) <= 1e-8

    def test_one_particle_closed_form(self):
        # L = 1/(x - tx), so a site moves by n1 (x10 - x00) and n2 / (1/(x00 - x10) + p2 - p1)
        x00, x10 = np.array([0.2]), np.array([0.5])
        params = discrete.LatticeParams(p1=1.0, p2=2.0, n=1)
        site = discrete.lattice_spectrum(x00, x10, params, 3, 2)
        assert site[0] == pytest.approx(0.2 + 3 * 0.3 - 2.0 / (1.0 / -0.3 + 1.0), abs=1e-14)

    def test_the_orbit_of_an_edge_whose_lax_matrix_has_the_eigenvalue_p1_minus_p2(self):
        # on the edge (0, 1), L = -1 and L + (p2 - p1) I = 0, which the orbit (n2 = 0) never inverts
        params = discrete.LatticeParams(p1=1.0, p2=2.0, n=1)
        assert discrete.lattice_spectrum([0.0], [1.0], params, 2, 0) == pytest.approx([2.0], abs=1e-14)
        orbit = discrete.lattice_spectrum([0.0], [1.0], params, [2, 3], 0)
        assert orbit == pytest.approx(np.array([[2.0], [3.0]]), abs=1e-14)
        assert np.array_equal(discrete.discrete_orbit([0.0], [1.0], params, 4), [[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(np.linalg.LinAlgError):
            discrete.lattice_spectrum([0.0], [1.0], params, [2, 3], [0, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_sites_off_the_orbit_keep_the_bits_of_one_stacked_inverse(self, n):
        rng = np.random.default_rng(40 + n)
        x00 = 3.0 * np.arange(n) + rng.uniform(-0.3, 0.3, n)
        x10 = x00 + rng.uniform(0.9, 1.1, n) / 3.0
        L = discrete.build_discrete_lax(x00, x10)[0]
        a, b = np.linalg.inv([L, L + np.eye(n)])
        for n1, n2 in [([0, 1], [1, 1]), (3, 2), (0, [1, 2, 3]), (np.arange(5), 4)]:
            n1_, n2_ = (np.asarray(k, dtype=float)[..., None, None] for k in (n1, n2))
            reference = np.linalg.eigvals(np.diag(x00) - n1_ * a - n2_ * b)
            site = discrete.lattice_spectrum(x00, x10, discrete.LatticeParams(p1=1.0, p2=2.0, n=n), n1, n2)
            assert site.tobytes() == reference.tobytes()
        # this edge and two more as a stack (3, 1, n), against the sites (0, 1), (1, 1) and (3, 2) of each alone
        edges = np.array([[x00, x10], [x00 + 0.1, x10 + 0.2], [1.1 * x00, 1.1 * x10]])[:, :, None]
        params = discrete.LatticeParams(p1=1.0, p2=2.0, n=n)
        sites = discrete.lattice_spectrum(edges[:, 0], edges[:, 1], params, [0, 1, 3], [1, 1, 2])
        assert sites.shape == (3, 3, n)
        for (edge_x00, edge_x10), site in zip(edges[:, :, 0], sites):
            alone = discrete.lattice_spectrum(edge_x00, edge_x10, params, [0, 1, 3], [1, 1, 2])
            assert site.tobytes() == alone.tobytes()


class TestChainSpectrum:
    """The chain grown from the edge (x00, x10) along tau: y(k, tau) = eig(diag x00 - k L^-1 - tau L^-2),
    L = build_discrete_lax(x00, x10)[0], with the terms (-k, L^-1) and (-tau, L^-2) built here, outside
    the package, and read through exact.spectrum."""

    @pytest.mark.parametrize("n, k_len", [(1, 2), (2, 2), (3, 4), (8, 8)])
    def test_evolved_orbit_chain_matches_at_every_site_and_tau(self, n, k_len):
        rng = np.random.default_rng(n)
        x00 = 4.0 * np.arange(n) + rng.uniform(-0.3, 0.3, n)
        x10 = x00 + rng.uniform(0.9, 1.1, n) / 3.0
        orbit = discrete.discrete_orbit(x00, x10, discrete.LatticeParams(p1=1.0, p2=2.0, n=n), k_len + 1)
        chain = semidiscrete.evolve_chain(semidiscrete.Chain(tuple(orbit)), 1e-3, 200)
        inv = np.linalg.inv(discrete.build_discrete_lax(x00, x10)[0])
        k, tau = np.arange(k_len + 1.0)[None, :], chain.tau[:, None]
        spectrum = exact.spectrum(x00, [(-k, inv), (-tau, inv @ inv)])
        assert chain.sites.shape == (201, k_len + 1, n) and np.all(spectrum.imag == 0.0)
        assert np.max(np.abs(np.sort(chain.sites, axis=-1) - np.sort(spectrum.real, axis=-1))) <= 1e-11
