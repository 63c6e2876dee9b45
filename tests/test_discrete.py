import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmhier.discrete import (
    LatticeParams,
    _corner_system,
    _mean_field_guess,
    build_discrete_lax,
    build_lattice_sheet,
    build_plaquette,
    center_of_mass_term,
    corner_residual,
    corner_solve,
    discrete_closure_sum,
    discrete_el_residual,
    discrete_invariants,
    discrete_lagrangian,
    discrete_lax_residual,
    discrete_step,
    edge_logdet_values,
    logdet_identity_residual,
    sheet_corner_residuals,
)
from cmhier import cli, discrete, numerics, verify
from cmhier.errors import CollisionSingularity, LogSingularity, NonConvergence, NumericsError, SingularMatrix
from cmhier.hierarchy import ORDERED_SUM_N
from cmhier.numerics import NewtonSettings
from cmhier.sampling import plaquette_seed
from cmhier.scenario import scenario_from_dict

RNG = np.random.default_rng(99)

PARAMS_N1 = LatticeParams(p1=1.0, p2=2.0, n=1)
PARAMS_N2 = LatticeParams(p1=1.0, p2=2.0, n=2)
PARAMS_N3 = LatticeParams(p1=1.0, p2=2.0, n=3)

ORBIT_SEED_N3 = (np.array([-4.0, 0.0, 4.0]), np.array([-3.7, 0.33, 4.36]))


def make_orbit(x_prev, x_cur, params, steps):
    orbit = [np.asarray(x_prev, float), np.asarray(x_cur, float)]
    for _ in range(steps):
        orbit.append(discrete_step(orbit[-2], orbit[-1], params))
    return orbit


class TestDiscreteStep:
    def test_uniform_motion_single_particle(self):
        out = discrete_step(np.array([0.0]), np.array([1.0]), PARAMS_N1)
        assert out[0] == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_pair_stays_symmetric(self):
        out = discrete_step(np.array([-2.0, 2.0]), np.array([-1.8, 1.8]), PARAMS_N2)
        assert out[0] == pytest.approx(-out[1], abs=1e-10)

    def test_invariants_preserved_across_step(self):
        orbit = make_orbit(*ORBIT_SEED_N3, PARAMS_N3, 1)
        before = discrete_invariants(orbit[0], orbit[1])
        after = discrete_invariants(orbit[1], orbit[2])
        assert np.max(np.abs(after - before)) <= 1e-10

    def test_reversibility(self):
        orbit = make_orbit(*ORBIT_SEED_N3, PARAMS_N3, 2)
        back = discrete_step(orbit[3], orbit[2], PARAMS_N3)
        assert np.max(np.abs(back - orbit[1])) <= 1e-9

    def test_reordering_step_is_a_collision(self):
        # the exact orbit of this seed edge collides between sites 39 and 41;
        # Newton's site 40 has particles 2 and 3 swapped
        orbit = [np.array([0.08217701239287256, 2.8618720282583223, 5.724584114361717]),
                 np.array([0.3832788547614412, 3.216090044205007, 6.085434486180231])]
        params = LatticeParams(p1=1.0, p2=2.0, n=3)
        while len(orbit) < 40:
            orbit.append(discrete_step(orbit[-2], orbit[-1], params))
        with pytest.raises(CollisionSingularity, match="^particle order changed across the step$"):
            discrete_step(orbit[-2], orbit[-1], params)

    def test_center_of_mass_second_difference(self):
        orbit = make_orbit(*ORBIT_SEED_N3, PARAMS_N3, 10)
        for k in range(1, len(orbit) - 1):
            second = np.sum(orbit[k + 1] - 2 * orbit[k] + orbit[k - 1])
            assert abs(second) <= 1e-10


class TestElResidual:
    def test_uniform_triple(self):
        r = discrete_el_residual(np.array([0.0]), np.array([1.0]), np.array([2.0]))
        assert r[0] == pytest.approx(0.0)

    def test_step_output_satisfies_equation(self):
        orbit = make_orbit(*ORBIT_SEED_N3, PARAMS_N3, 3)
        for k in range(1, len(orbit) - 1):
            r = discrete_el_residual(orbit[k - 1], orbit[k], orbit[k + 1])
            assert np.max(np.abs(r)) <= PARAMS_N3.newton.tolerance * 10

    def test_negative_control(self):
        r = discrete_el_residual(np.array([0.0]), np.array([1.0]), np.array([2.5]))
        assert abs(r[0]) > 0.1


def brute_force_corner(variant, x, known, params, center, width=0.35):
    """Independent solver: shrinking 2-D grid search on the residual norm."""
    best = np.asarray(center, dtype=float)
    for _ in range(14):
        grids = [np.linspace(b - width, b + width, 21) for b in best]
        best_norm = np.inf
        for u0 in grids[0]:
            for u1 in grids[1]:
                u = np.array([u0, u1])
                norm = np.max(np.abs(corner_residual(variant, x, known, u, params)))
                if norm < best_norm:
                    best_norm = norm
                    best = u
        width *= 0.35
    return best


class TestCornerEquations:
    def test_scalar_closed_form(self):
        # p1 - p2 = 1 with x=0, T1x=1 forces 1/T2x = 2
        params = LatticeParams(p1=2.0, p2=1.0, n=1)
        out = corner_solve("a", np.array([0.0]), np.array([1.0]), params)
        assert out[0] == pytest.approx(0.5, abs=1e-12)

    def test_equal_parameters_collapse(self):
        params = LatticeParams(p1=1.5, p2=1.5, n=2)
        x = np.array([-2.0, 2.0])
        t1x = np.array([-1.7, 2.4])
        out = corner_solve("a", x, t1x, params)
        assert np.allclose(out, t1x, atol=1e-12)

    def test_residual_of_solution(self):
        x00, x10 = plaquette_seed(RNG, 2, 1.0, 2.0)
        out = corner_solve("a", x00, x10, PARAMS_N2)
        r = corner_residual("a", x00, x10, out, PARAMS_N2)
        assert np.max(np.abs(r)) <= PARAMS_N2.newton.tolerance * 10

    def test_degenerate_corner_zero_residual(self):
        params = LatticeParams(p1=1.5, p2=1.5, n=2)
        x = np.array([-2.0, 2.0])
        t1x = np.array([-1.7, 2.4])
        r = corner_residual("a", x, t1x, t1x, params)
        assert np.max(np.abs(r)) == pytest.approx(0.0, abs=1e-14)

    def test_random_data_nonzero(self):
        x = np.array([-2.0, 2.0])
        r = corner_residual("a", x, np.array([-1.5, 2.5]), np.array([-1.0, 3.3]), PARAMS_N2)
        assert np.max(np.abs(r)) > 1e-3

    def test_against_brute_force_oracle(self):
        for trial in range(3):
            x00, x10 = plaquette_seed(RNG, 2, 1.0, 2.0)
            newton = corner_solve("a", x00, x10, PARAMS_N2)
            oracle = brute_force_corner("a", x00, x10, PARAMS_N2, center=newton + 0.05)
            assert np.max(np.abs(newton - oracle)) <= 1e-6

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            corner_solve("e", np.array([0.0]), np.array([1.0]), PARAMS_N1)

    def test_stacked_solve_matches_each_system_alone(self):
        rng = np.random.default_rng(3)
        variants = ("a", "b", "c", "d", "a")
        x = np.stack([3.0 * np.arange(6) + rng.uniform(-0.3, 0.3, 6) for _ in variants])
        known = x + rng.uniform(0.9, 1.1, x.shape) / 3.0
        stacked = corner_solve(variants, x, known, PARAMS_N3)
        for variant, xi, ki, row in zip(variants, x, known, stacked):
            assert np.array_equal(row, corner_solve(variant, xi, ki, PARAMS_N3))
        _, _, const, sgn = _corner_system(variants, x, known, PARAMS_N3.p1 - PARAMS_N3.p2)
        guess = _mean_field_guess(x, const, sgn)
        for k in range(len(variants)):
            assert np.array_equal(guess[k], _mean_field_guess(x[k:k + 1], const[k:k + 1], sgn[k:k + 1])[0])

    def test_stacked_guess_equals_the_loop_reference_bitwise(self):
        # below 8 particles numpy sums a row left to right, as the loop does;
        # rows 0-3 settle after 6 to 8 sweeps, rows 4-7 after 3 or 4
        def loop_guess(x, const, sgn):
            u = x + 1e-3
            for _ in range(8):
                cross = np.array([sum(1.0 / (x[m] - u[l]) for l in range(len(x)) if l != m) for m in range(len(x))])
                u_new = x - 1.0 / (-sgn * (const + sgn * cross))
                if not np.all(np.isfinite(u_new)):
                    return u
                if np.max(np.abs(u_new - u)) < 1e-10:
                    return u_new
                u = u_new
            return u

        rng = np.random.default_rng(2)
        x = np.concatenate([spacing * np.arange(5) + rng.uniform(-0.3, 0.3, (4, 5)) for spacing in (3.0, 30.0)])
        known = x + rng.uniform(0.9, 1.1, x.shape) / 3.0
        _, _, const, sgn = _corner_system(tuple("abcdabcd"), x, known, PARAMS_N3.p1 - PARAMS_N3.p2)
        guess = _mean_field_guess(x, const, sgn)
        for k in range(8):
            assert np.array_equal(guess[k], loop_guess(x[k], const[k], sgn[k, 0]))

    def test_stacked_collision_names_the_system(self):
        x = np.array([[0.0, 1.0], [0.0, 1e-14]])
        with pytest.raises(NumericsError) as info:
            corner_solve(("a", "c"), x, x + 0.3, PARAMS_N2)
        assert info.value.system == 1

    def test_stacked_collision_in_a_known_site_names_the_system(self):
        x = np.array([[0.0, 1.0], [0.0, 1.0]])
        known = np.array([[0.3, 1.3], [0.3, 0.3 + 1e-14]])
        with pytest.raises(NumericsError, match="at system 1$") as info:
            corner_solve(("a", "c"), x, known, PARAMS_N2)
        assert info.value.system == 1

    @pytest.mark.parametrize("variant", ["a", "b", "c", "d"])
    def test_mean_field_guess_matches_loop_reference(self, variant):
        def loop_guess(x, const, sgn):
            n = len(x)
            u = x + 1e-3
            for _ in range(8):
                cross = np.array([sum(1.0 / (x[m] - u[l]) for l in range(n) if l != m) for m in range(n)])
                u_new = x - 1.0 / (-sgn * (const + sgn * cross))
                if not np.all(np.isfinite(u_new)):
                    return u
                if np.max(np.abs(u_new - u)) < 1e-10:
                    return u_new
                u = u_new
            return u

        rng = np.random.default_rng(7)
        params = LatticeParams(p1=1.0, p2=2.0, n=12)
        x00 = 3.0 * np.arange(12) + rng.uniform(-0.3, 0.3, 12)
        x10 = x00 + rng.uniform(0.9, 1.1, 12) / 3.0
        _, _, const, sgn = _corner_system(variant, x00[None], x10[None], params.p1 - params.p2)
        ref = loop_guess(x00, const[0], sgn[0, 0])
        assert np.max(np.abs(_mean_field_guess(x00[None], const, sgn)[0] - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestPlaquette:
    def test_scalar_closed_forms(self):
        # chain of scalar pole inversions fixes every corner uniquely
        x00, x10 = np.array([0.0]), np.array([0.3])
        pl, defect = build_plaquette(x00, x10, PARAMS_N1)
        d = PARAMS_N1.p1 - PARAMS_N1.p2
        x01 = x00 - 1.0 / (1.0 / (x00 - x10) - d)
        x11 = x10 - 1.0 / (-d - 1.0 / (x10 - x00))
        assert pl.x01[0] == pytest.approx(x01[0], abs=1e-12)
        assert pl.x11[0] == pytest.approx(x11[0], abs=1e-12)
        assert defect <= 1e-12

    @pytest.mark.parametrize("a, b", [(0, 1), (0, 2), (1, 3), (2, 3)])
    def test_shared_coordinate_across_an_edge_is_rejected(self, a, b):
        corners = [np.array([0.0, 3.0]) + shift for shift in (0.0, 0.3, 0.5, 0.8)]
        corners[b][1] = corners[a][0]
        edge = [(0, 1), (0, 2), (1, 3), (2, 3)].index((a, b))
        message = f"^coinciding coordinates across plaquette corners: cross gap .* at edge {edge}$"
        with pytest.raises(CollisionSingularity, match=message) as info:
            discrete.Plaquette(*corners)
        assert info.value.system == edge

    def test_collision_names_the_corner(self):
        corners = [np.array([0.0, 3.0]) + shift for shift in (0.0, 0.3, 0.5, 0.8)]
        corners[2][1] = corners[2][0]
        with pytest.raises(CollisionSingularity, match="at corner 2$") as info:
            discrete.Plaquette(*corners)
        assert info.value.system == 2

    def test_equal_parameters_degenerate(self):
        params = LatticeParams(p1=1.0, p2=1.0, n=2)
        x00 = np.array([-2.0, 2.0])
        x10 = np.array([-1.7, 2.3])
        pl, defect = build_plaquette(x00, x10, params)
        assert np.allclose(pl.x01, pl.x10, atol=1e-11)
        assert defect <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_consistency_defect(self, n):
        params = LatticeParams(p1=1.0, p2=2.0, n=n)
        for _ in range(5):
            x00, x10 = plaquette_seed(RNG, n, params.p1, params.p2)
            _, defect = build_plaquette(x00, x10, params)
            assert defect <= 1e-9

    def test_lattice_extension(self):
        rng = np.random.default_rng(5)
        x00, x10 = plaquette_seed(rng, 2, 1.0, 2.0)
        sheet = build_lattice_sheet(x00, x10, PARAMS_N2, n1=2, n2=2)
        assert sheet_corner_residuals(sheet) <= 1e-9


def spaced_edge(seed, n, p1=1.0, p2=2.0):
    rng = np.random.default_rng(seed)
    x00 = 3.0 * np.arange(n) + rng.uniform(-0.3, 0.3, n)
    return x00, x00 + rng.uniform(0.9, 1.1, n) / (p1 + p2)


class TestLatticeSheet:
    PARAMS = LatticeParams(p1=1.0, p2=2.0, n=8)

    def test_row_stacked_sheet_equals_site_by_site_reference(self):
        x00, x10 = spaced_edge(4, 8)
        n1, n2 = 4, 3
        ref = {(0, 0): x00, (1, 0): x10}
        for i in range(1, n1):
            ref[(i + 1, 0)] = discrete_step(ref[(i - 1, 0)], ref[(i, 0)], self.PARAMS)
        for j in range(n2):
            ref[(0, j + 1)] = corner_solve("a", ref[(0, j)], ref[(1, j)], self.PARAMS)
            for i in range(1, n1 + 1):
                ref[(i, j + 1)] = corner_solve("c", ref[(i, j)], ref[(i - 1, j)], self.PARAMS)
        sheet = build_lattice_sheet(x00, x10, self.PARAMS, n1, n2)
        assert list(sheet.sites) == list(ref)
        assert all(np.array_equal(sheet.sites[site], ref[site]) for site in ref)

    def test_plaquette_equals_three_single_solves(self):
        x00, x10 = spaced_edge(5, 8)
        pl, defect = build_plaquette(x00, x10, self.PARAMS)
        x01 = corner_solve("a", x00, x10, self.PARAMS)
        x11 = corner_solve("c", x10, x00, self.PARAMS)
        assert np.array_equal(pl.x01, x01) and np.array_equal(pl.x11, x11)
        assert defect == float(np.max(np.abs(x11 - corner_solve("d", x01, x00, self.PARAMS))))

    def test_batched_corner_residuals_equal_the_site_loop(self):
        x00, x10 = spaced_edge(6, 8)
        sheet = build_lattice_sheet(x00, x10, self.PARAMS, 4, 4)
        # perturb one interior site so that the worst residual is not a rounding error
        sites = dict(sheet.sites)
        sites[(2, 2)] = sites[(2, 2)] + 1e-6
        sheet = discrete.LatticeSheet(sites, self.PARAMS)
        worst = 0.0
        for i in range(1, 4):
            for j in range(1, 4):
                x = sites[(i, j)]
                for variant, known, solved in (
                    ("a", sites[(i + 1, j)], sites[(i, j + 1)]),
                    ("b", sites[(i - 1, j)], sites[(i, j - 1)]),
                    ("c", sites[(i - 1, j)], sites[(i, j + 1)]),
                    ("d", sites[(i, j - 1)], sites[(i + 1, j)]),
                ):
                    r = corner_residual(variant, x, known, solved, self.PARAMS)
                    worst = max(worst, float(np.max(np.abs(r))))
        assert worst > 1e-7
        assert sheet_corner_residuals(sheet) == worst

    def test_nan_residual_is_not_hidden(self):
        x00, x10 = spaced_edge(6, 8)
        sites = dict(build_lattice_sheet(x00, x10, self.PARAMS, 4, 4).sites)
        sites[(2, 3)] = np.full(8, np.nan)
        assert np.isnan(sheet_corner_residuals(discrete.LatticeSheet(sites, self.PARAMS)))

    def test_no_interior_site(self):
        x00, x10 = spaced_edge(7, 3)
        assert sheet_corner_residuals(build_lattice_sheet(x00, x10, PARAMS_N3, 1, 3)) == 0.0

    @pytest.mark.parametrize("system, row", [(0, 0), (3, 0), (2, 2)])
    def test_failed_row_solve_names_the_site(self, monkeypatch, system, row):
        solve = discrete.corner_solve
        rows = []

        def failing(variant, known1, known2, params):
            rows.append(len(rows))
            if rows[-1] == row:
                raise NonConvergence("stuck", system=system)
            return solve(variant, known1, known2, params)

        monkeypatch.setattr(discrete, "corner_solve", failing)
        x00, x10 = spaced_edge(8, 3)
        with pytest.raises(NonConvergence, match=rf"at site \({system}, {row + 1}\): stuck") as info:
            build_lattice_sheet(x00, x10, PARAMS_N3, 4, 3)
        assert info.value.site == (system, row + 1)

    def test_failed_first_row_step_names_the_site(self, monkeypatch):
        step = discrete.discrete_step
        calls = []

        def failing(x_prev, x_cur, params):
            calls.append(1)
            if len(calls) == 2:
                raise NonConvergence("stuck", system=0)
            return step(x_prev, x_cur, params)

        monkeypatch.setattr(discrete, "discrete_step", failing)
        x00, x10 = spaced_edge(8, 3)
        with pytest.raises(NonConvergence, match=r"at site \(3, 0\)") as info:
            build_lattice_sheet(x00, x10, PARAMS_N3, 4, 3)
        assert info.value.site == (3, 0)


def test_verify_orbit_failure_names_the_step(monkeypatch):
    step = discrete.discrete_step
    calls = []

    def failing(x_prev, x_cur, params):
        calls.append(1)
        if len(calls) == 5:
            raise NonConvergence("stuck", system=0)
        return step(x_prev, x_cur, params)

    monkeypatch.setattr(discrete, "discrete_step", failing)
    monkeypatch.setattr(discrete, "FLOAT_ORBIT_SIZE", 0)  # every step on discrete_step, which fails here
    with pytest.raises(NonConvergence, match="at site 6: stuck") as info:
        verify._discrete_orbit(verify.Collector(1.0), np.random.default_rng(0))
    assert info.value.site == 6


@pytest.mark.parametrize("section", ["_semidiscrete_checks", "_closure_diagnostics"])
def test_verify_chain_seed_failure_names_its_site(monkeypatch, section):
    def failing(x_prev, x_cur, params):
        raise NonConvergence("stuck", system=0)

    monkeypatch.setattr(discrete, "discrete_step", failing)
    monkeypatch.setattr(discrete, "FLOAT_ORBIT_SIZE", 0)  # every step on discrete_step, which fails here
    with pytest.raises(NonConvergence, match="^at site 2: stuck$") as info:
        getattr(verify, section)(verify.Collector(1.0), np.random.default_rng(0))
    assert info.value.site == 2


def test_orbit_extends_the_seed_pair_by_steps():
    orbit = discrete.discrete_orbit(*ORBIT_SEED_N3, PARAMS_N3, 6)
    assert len(orbit) == 6
    for ref, site in zip(make_orbit(*ORBIT_SEED_N3, PARAMS_N3, 4), orbit):
        assert np.array_equal(ref, site)


# the orbits of N = 1 to 3 step on the float kernel, that of N = 8 on discrete_step
@pytest.mark.parametrize("x_prev, x_cur", [
    ([0.0], [1.0]),
    ([-2.0, 2.0], [-1.7, 2.36]),
    ORBIT_SEED_N3,
    ([4.0 * i - 14 for i in range(8)], [4.0 * i - 13.7 for i in range(8)]),
])
def test_an_orbit_reads_no_lattice_parameter(x_prev, x_cur):
    # p1 and p2 cancel from the three-point equation of motion, which is why scenarios take neither
    orbits = [np.array(discrete.discrete_orbit(x_prev, x_cur, LatticeParams(p1=p1, p2=p2, n=len(x_cur)), 20))
              for p1, p2 in [(1.0, 2.0), (0.3, 7.5), (-4.0, 4.0), (1.5, 1.5)]]
    assert all(orbit.tobytes() == orbits[0].tobytes() for orbit in orbits)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSharedCoordinateAcrossAnEdge:
    """A coordinate shared by a site and its neighbour puts a pole on the edge: every entry point
    raises CollisionSingularity before dividing by it."""

    X = np.array([0.0, 3.0])
    SHARED = np.array([0.0, 3.5])
    CLEAR = np.array([0.4, 3.3])

    def test_discrete_step(self):
        with pytest.raises(CollisionSingularity, match="^cross gap 0.000e[+]00 below 1.0e-12$"):
            discrete_step(self.X, self.SHARED, PARAMS_N2)

    def test_el_residual_on_either_edge(self):
        with pytest.raises(CollisionSingularity, match="cross gap"):
            discrete_el_residual(self.X, self.SHARED, self.CLEAR)
        with pytest.raises(CollisionSingularity, match="cross gap"):
            discrete_el_residual(self.CLEAR, self.X, self.SHARED)

    def test_corner_solve_names_the_system(self):
        with pytest.raises(CollisionSingularity, match="at system 1$") as info:
            corner_solve(("a", "c"), [self.X, self.X], [self.CLEAR, self.SHARED], PARAMS_N2)
        assert info.value.system == 1

    def test_plaquette(self):
        with pytest.raises(CollisionSingularity, match="cross gap"):
            build_plaquette(self.X, self.SHARED, PARAMS_N2)

    def test_sheet_names_the_site(self):
        with pytest.raises(CollisionSingularity, match=r"^at site \(2, 0\): cross gap") as info:
            build_lattice_sheet(self.X, self.SHARED, PARAMS_N2, 2, 1)
        assert info.value.site == (2, 0)
        with pytest.raises(CollisionSingularity, match=r"^at site \(0, 1\): cross gap") as info:
            build_lattice_sheet(self.X, self.SHARED, PARAMS_N2, 1, 1)
        assert info.value.site == (0, 1)


class TestDiscreteLagrangian:
    def test_unit_gap_zero(self):
        assert discrete_lagrangian(np.array([0.0]), np.array([1.0]), 0.0) == pytest.approx(0.0)

    def test_single_particle_value(self):
        got = discrete_lagrangian(np.array([0.0]), np.array([2.0]), 1.0)
        assert got == pytest.approx(np.log(2.0) + 2.0)

    def test_log_singularity_on_crossing(self):
        with pytest.raises(LogSingularity):
            discrete_lagrangian(np.array([-1.0, 1.0]), np.array([1.2, -1.2]), 0.0)

    def test_log_singularity_on_coincidence(self):
        with pytest.raises(LogSingularity):
            discrete_lagrangian(np.array([0.0]), np.array([0.0]), 0.0)


@settings(max_examples=30, deadline=None)
@given(shift=st.floats(-20, 20, allow_nan=False))
def test_discrete_lagrangian_translation_invariance(shift):
    x = np.array([-1.3, 0.4, 2.2])
    tx = np.array([-1.0, 0.8, 2.5])
    base = discrete_lagrangian(x, tx, 0.0)
    moved = discrete_lagrangian(x + shift, tx + shift, 0.0)
    assert moved == pytest.approx(base, abs=1e-10)


class TestDiscreteMomentum:
    """A site's momentum by the edge leaving it along direction k is sum_l 1/(x - T_k x)_l minus the
    pair sums minus p_k; by the edge arriving along k it is the negated sum with T_k^-1 x, minus p_k.
    Equating two routes is a corner constraint."""

    def test_routes_agree_on_consistent_corner(self):
        x00, x10 = plaquette_seed(RNG, 2, 1.0, 2.0)
        pl, _ = build_plaquette(x00, x10, PARAMS_N2)
        # at the double-shifted corner the inverse neighbours are x01 (dir 1) and x10 (dir 2);
        # equating the two incoming routes is variant b, which build_plaquette does not solve
        assert np.max(np.abs(corner_residual("b", pl.x11, pl.x01, pl.x10, PARAMS_N2))) <= 1e-9

    def test_routes_disagree_on_random_data(self):
        # equating the two outgoing routes is variant a
        x = np.array([-2.0, 2.0])
        residual = corner_residual("a", x, np.array([-1.5, 2.5]), np.array([-1.1, 2.9]), PARAMS_N2)
        assert np.max(np.abs(residual)) > 1e-3


class TestClosureIdentities:
    def make_consistent(self, n, params):
        x00, x10 = plaquette_seed(RNG, n, params.p1, params.p2)
        pl, _ = build_plaquette(x00, x10, params)
        return pl

    def test_degenerate_plaquette(self):
        params = LatticeParams(p1=1.0, p2=1.0, n=2)
        pl = self.make_consistent(2, params)
        assert abs(discrete_closure_sum(pl, params)) <= 1e-10
        assert logdet_identity_residual(pl) <= 1e-10

    def test_scalar_plaquette(self):
        pl = self.make_consistent(1, PARAMS_N1)
        assert abs(discrete_closure_sum(pl, PARAMS_N1)) <= 1e-10
        assert logdet_identity_residual(pl) <= 1e-12

    def test_three_particle_plaquette(self):
        pl = self.make_consistent(3, PARAMS_N3)
        assert abs(discrete_closure_sum(pl, PARAMS_N3)) <= 1e-8
        assert logdet_identity_residual(pl) <= 1e-8
        assert abs(center_of_mass_term(pl)) <= 1e-9

    def test_convention_values_negate(self):
        # the closure sum of the negated Lagrangian is the negated sum, so one magnitude serves both
        pl = self.make_consistent(2, PARAMS_N2)
        edges = ((pl.x00, pl.x01, 2.0, 1), (pl.x00, pl.x10, 1.0, -1), (pl.x10, pl.x11, 2.0, -1),
                 (pl.x01, pl.x11, 1.0, 1))
        negated = sum(sign * -discrete_lagrangian(a, b, p) for a, b, p, sign in edges)
        assert negated == -discrete_closure_sum(pl, PARAMS_N2)

    def test_edge_relation_negated_convention(self):
        # expanding the edge determinant shows L = -ln|det M| - p sum(x - tx)
        x00, x10 = plaquette_seed(RNG, 3, 1.0, 2.0)
        printed, negated = edge_logdet_values(x00, x10, 1.0)
        assert abs(negated) <= 1e-10
        assert abs(printed) > 1e-2


class TestDiscreteLax:
    def test_shared_coordinate_is_rejected(self):
        with pytest.raises(CollisionSingularity, match="site and shifted site share a coordinate"):
            build_discrete_lax(np.array([-1.0, 1.0]), np.array([1.0, 2.0]))

    def test_scalar_edge(self):
        L, M = build_discrete_lax(np.array([0.0]), np.array([1.0]))
        assert L[0, 0] == pytest.approx(-1.0)
        assert M[0, 0] == pytest.approx(-1.0)

    def test_trace_is_momentum_sum(self):
        x, tx = plaquette_seed(RNG, 3, 1.0, 2.0)
        L, _ = build_discrete_lax(x, tx)
        # outgoing momentum at p = 0: sum_l 1/(x_m - tx_l) - sum_{l != m} 1/(x_m - x_l)
        d = x[:, None] - x[None, :]
        np.fill_diagonal(d, np.inf)
        p = (1.0 / (x[:, None] - tx[None, :])).sum(axis=1) - (1.0 / d).sum(axis=1)
        assert np.trace(L) == pytest.approx(np.sum(p))

    def test_two_particle_hand_values(self):
        L, M = build_discrete_lax(np.array([-1.0, 1.0]), np.array([-0.5, 1.5]))
        assert L[0, 0] == pytest.approx(1.0 / -0.5 + 1.0 / -2.5 - 1.0 / -2.0)
        assert L[1, 1] == pytest.approx(1.0 / 1.5 + 1.0 / -0.5 - 1.0 / 2.0)
        assert L[0, 1] == pytest.approx(0.5)
        assert L[1, 0] == pytest.approx(-0.5)
        assert np.allclose(M, [[-2.0, 2.0 / 3.0], [-0.4, -2.0]])

    def test_residual_uniform_orbit(self):
        r = discrete_lax_residual(np.array([0.0]), np.array([1.0]), np.array([2.0]))
        assert r <= 1e-14

    def test_residual_on_symmetric_orbit(self):
        params = PARAMS_N2
        orbit = make_orbit(np.array([-2.0, 2.0]), np.array([-1.8, 1.8]), params, 2)
        assert discrete_lax_residual(orbit[0], orbit[1], orbit[2]) <= 1e-9

    def test_residual_negative_control(self):
        orbit = make_orbit(*ORBIT_SEED_N3, PARAMS_N3, 1)
        assert discrete_lax_residual(orbit[0], orbit[1], orbit[2] + 0.05) >= 1e-3


class TestDiscreteInvariants:
    def test_uniform_orbit_value(self):
        # p = 1/(x - tx) = -1 on every edge of the unit-step orbit
        for edge in ((0.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
            vals = discrete_invariants(np.array([edge[0]]), np.array([edge[1]]))
            assert vals[0] == pytest.approx(-1.0)

    def test_conservation_along_orbit(self):
        tight = LatticeParams(p1=1.0, p2=2.0, n=3, newton=NewtonSettings(tolerance=1e-13))
        orbit = make_orbit(*ORBIT_SEED_N3, tight, 50)
        base = discrete_invariants(orbit[0], orbit[1])
        worst = max(
            np.max(np.abs(discrete_invariants(orbit[k], orbit[k + 1]) - base))
            for k in range(len(orbit) - 1)
        )
        assert worst <= 1e-10

    def test_first_invariant_is_momentum_sum(self):
        x, tx = plaquette_seed(RNG, 3, 1.0, 2.0)
        vals = discrete_invariants(x, tx)
        L, _ = build_discrete_lax(x, tx)
        assert vals[0] == pytest.approx(np.trace(L))


def stacked_sites(seed, shape, n):
    """Three configurations of shape (*shape, n), each the one before moved right by 0.2-0.4 per
    particle, at spacings 2.5-3.5: every edge between them keeps the order and has no shared coordinate."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(2.5, 3.5, (*shape, n)), axis=-1)
    tx = x + rng.uniform(0.2, 0.4, x.shape)
    return x, tx, tx + rng.uniform(0.2, 0.4, x.shape)


def lattice_evaluators(x, tx, ttx):
    """Every lattice evaluator on the sites x, tx, ttx, with the plaquette (x, tx, ttx - 0.1, ttx)."""
    pl = discrete.Plaquette(x, tx, ttx - 0.1, ttx)
    return {
        "discrete_el_residual": discrete_el_residual(x, tx, ttx),
        "discrete_lagrangian": discrete_lagrangian(x, tx, 1.5),
        "discrete_closure_sum": discrete_closure_sum(pl, PARAMS_N2),
        "center_of_mass_term": center_of_mass_term(pl),
        "_edge_logdet": discrete._edge_logdet(x, tx),
        "logdet_identity_residual": logdet_identity_residual(pl),
        "edge_logdet_values": edge_logdet_values(x, tx, 2.0),
        "build_discrete_lax": build_discrete_lax(x, tx),
        "discrete_lax_residual": discrete_lax_residual(x, tx, ttx),
        "discrete_invariants": discrete_invariants(x, tx),
    }


class TestLeadingAxes:
    """Each lattice evaluator evaluates a stack row by row as it evaluates that row alone, bit for bit."""

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_stack_rows_equal_single_configurations(self, n, swapped):
        # a swapped stack is a (2, 3) view of (3, 2) configurations, not contiguous in memory
        sites = [s.swapaxes(0, 1) for s in stacked_sites(n, (3, 2), n)] if swapped else stacked_sites(n, (2, 3), n)
        stacked = lattice_evaluators(*sites)
        for i in range(2):
            for j in range(3):
                for name, value in lattice_evaluators(*(s[i, j] for s in sites)).items():
                    got = stacked[name]
                    pairs = zip(got, value) if isinstance(value, tuple) else [(got, value)]
                    for g, v in pairs:
                        assert np.shape(g[i, j]) == np.shape(v) and g[i, j].tobytes() == np.asarray(v).tobytes(), name

    @pytest.mark.parametrize("n", [1, 2, 3, 32])
    def test_stacked_plaquettes_equal_each_plaquette_alone(self, n):
        params = LatticeParams(p1=1.0, p2=2.0, n=n)
        edges = [spaced_edge(seed, n) for seed in range(4)]
        x00, x10 = map(np.array, zip(*edges))
        pl, defects = build_plaquette(x00, x10, params)
        assert defects.shape == (4,) and pl.x11.shape == (4, n)
        for k, (a, b) in enumerate(edges):
            alone, defect = build_plaquette(a, b, params)
            assert pl.x01[k].tobytes() == alone.x01.tobytes() and pl.x11[k].tobytes() == alone.x11.tobytes()
            assert defects[k].tobytes() == np.float64(defect).tobytes()

    def test_stacked_log_singularity_names_the_row(self):
        x, tx, _ = stacked_sites(1, (2, 3), 2)
        tx[1, 0] = tx[1, 0, ::-1]  # the particles swap across the edge of configuration (1, 0)
        with pytest.raises(LogSingularity, match="^particle ordering changed across the step$") as alone:
            discrete_lagrangian(x[1, 0], tx[1, 0], 1.0)
        assert alone.value.system is None
        with pytest.raises(LogSingularity, match="^particle ordering changed across the step at system 1$") as info:
            discrete_lagrangian(x, tx, 1.0)
        assert info.value.system == 1

    def test_stacked_log_singularity_keeps_the_order_of_the_checks(self):
        x, tx, _ = stacked_sites(2, (4,), 2)
        tx[3] = tx[3, ::-1]  # a later row swaps its particles
        tx[2, 1] = tx[2, 0]  # an earlier one has a vanishing within-site gap, tested first
        with pytest.raises(LogSingularity, match="^vanishing within-site gap at system 2$") as info:
            discrete_lagrangian(x, tx, 1.0)
        assert info.value.system == 2

    def test_stacked_singular_edge_matrix_names_the_row(self):
        a = np.array([[0.0, 3.0]] * 3)
        b = a + 0.5
        b[2] = [1.0, 1.0]  # two equal rows of M
        with pytest.raises(SingularMatrix, match="^edge matrix determinant underflow$"):
            discrete._edge_logdet(a[2], b[2])
        with pytest.raises(SingularMatrix, match="^edge matrix determinant underflow at system 2$") as info:
            discrete._edge_logdet(a, b)
        assert info.value.system == 2

    def test_stacked_collision_names_the_row(self):
        x, tx, _ = stacked_sites(3, (2, 3), 3)
        tx[1, 2, 1] = x[1, 2, 2]  # configuration (1, 2) shares a coordinate across its edge
        with pytest.raises(CollisionSingularity, match="^site and shifted site share a coordinate: cross gap "
                                                       r"0\.000e\+00 below 1\.0e-12 at system 1$") as info:
            build_discrete_lax(x, tx)
        assert info.value.system == 1

    def test_stacked_el_residual_names_the_row(self):
        x, tx, ttx = stacked_sites(4, (2, 3), 2)
        ttx[1, 1, 0] = tx[1, 1, 0]  # triple (1, 1) shares a coordinate across its outgoing edge
        with pytest.raises(CollisionSingularity, match="^cross gap 0.000e[+]00 below 1.0e-12$"):
            discrete_el_residual(x[1, 1], tx[1, 1], ttx[1, 1])
        with pytest.raises(CollisionSingularity, match="^cross gap 0.000e[+]00 below 1.0e-12 at system 1$") as info:
            discrete_el_residual(x, tx, ttx)
        assert info.value.system == 1

    def test_stacked_plaquettes_name_the_colliding_base_edge(self):
        x00, x10 = map(np.array, zip(*(spaced_edge(seed, 3) for seed in range(3))))
        x10[1, 2] = x00[1, 2]  # base edge 1 shares a coordinate
        with pytest.raises(CollisionSingularity, match="^cross gap .* at system 1$") as info:
            build_plaquette(x00, x10, PARAMS_N3)
        assert info.value.system == 1

    def test_orbit_drift_in_small_row_blocks_equals_the_per_edge_reference(self, monkeypatch):
        orbit = discrete.discrete_orbit(*ORBIT_SEED_N3, PARAMS_N3, 12)
        values = [discrete_invariants(a, b) for a, b in zip(orbit, orbit[1:])]
        reference = max(float(np.max(np.abs(v - values[0]))) for v in values)
        blocks = []
        evaluate = discrete.discrete_invariants
        monkeypatch.setattr(discrete, "discrete_invariants", lambda a, b: blocks.append(len(a)) or evaluate(a, b))
        assert verify.orbit_invariant_drift(orbit) == reference and blocks == [11]
        monkeypatch.setattr(numerics, "STACK_ENTRIES", 20)  # two edges of 3 x 3 entries per block
        blocks.clear()
        assert verify.orbit_invariant_drift(orbit) == reference and blocks == [2, 2, 2, 2, 2, 1]

    def test_verify_evaluates_one_stack_per_particle_count_and_per_orbit(self, monkeypatch):
        calls = {}

        def counted(name, evaluate):
            def call(*args):
                calls[name] = calls.get(name, 0) + 1
                return evaluate(*args)
            return call

        for name in ("build_plaquette", "discrete_closure_sum", "logdet_identity_residual", "edge_logdet_values",
                     "discrete_lax_residual"):
            monkeypatch.setattr(discrete, name, counted(name, getattr(discrete, name)))
        rng = np.random.default_rng(0)
        col = verify.Collector(1.0)
        orbit = verify._discrete_orbit(col, rng)
        verify._plaquettes(col, rng)
        verify._discrete_lax(col, orbit)
        assert calls == {"build_plaquette": 3, "discrete_closure_sum": 3, "logdet_identity_residual": 3,
                         "edge_logdet_values": 3, "discrete_lax_residual": 2}
        assert all(entry.passed for entry in col.entries)


def orbit_outcome(x_prev, x_cur, params, count, float_size):
    """discrete_orbit with FLOAT_ORBIT_SIZE = float_size: its sites as one array and the number of steps
    discrete_step took, or the abort as (type, message, site, system) and that number."""
    numpy_steps = []
    real = discrete.discrete_step
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(discrete, "FLOAT_ORBIT_SIZE", float_size)
        patch.setattr(discrete, "discrete_step", lambda *args: numpy_steps.append(1) or real(*args))
        try:
            return np.array(discrete.discrete_orbit(x_prev, x_cur, params, count)), len(numpy_steps)
        except NumericsError as exc:
            return (type(exc), str(exc), exc.site, exc.system), len(numpy_steps)


def assert_same_orbit_outcome(x_prev, x_cur, params, count):
    """The float orbit ends as the numpy orbit does, every value to the bit; returns its outcome and the
    number of steps it handed to discrete_step."""
    expected, numpy_steps = orbit_outcome(x_prev, x_cur, params, count, 0)
    got, handed_off = orbit_outcome(x_prev, x_cur, params, count, discrete.FLOAT_ORBIT_SIZE)
    if isinstance(expected, tuple):
        assert got == expected
    else:  # tobytes also tells 0.0 from -0.0
        assert numpy_steps == count - 2
        assert isinstance(got, np.ndarray) and got.shape == expected.shape and got.tobytes() == expected.tobytes()
    return got, handed_off


class TestFloatOrbit:
    """The float kernel of discrete_orbit, for at most FLOAT_ORBIT_SIZE particles, against discrete_step."""

    def test_the_size_covers_verify_and_keeps_ordered_sums(self):
        # verify's orbits have N <= 3; the benchmark's chain seeds (N = 8) and sheets (N = 32) stay on numpy
        assert 3 <= discrete.FLOAT_ORBIT_SIZE < ORDERED_SUM_N

    def test_verify_orbits_equal_the_numpy_orbits(self, monkeypatch):
        calls = []
        real = discrete.discrete_orbit
        monkeypatch.setattr(discrete, "discrete_orbit", lambda *args: calls.append(args) or real(*args))
        for seed in range(10):
            verify.verify_all(scenario_from_dict({"kind": "verify-all", "n": 3, "seed": seed}))
        monkeypatch.setattr(discrete, "discrete_orbit", real)
        assert sorted({(len(args[0]), args[3]) for args in calls}) == [(1, 3), (2, 3), (3, 52)]
        for args in calls:  # verify's orbits take every step on floats
            assert assert_same_orbit_outcome(*args)[1] == 0

    def test_the_discrete_demo_equals_the_numpy_orbit(self):
        demo = cli.DEMOS["discrete"]
        params = LatticeParams(p1=1.0, p2=2.0, n=demo["n"], newton=NewtonSettings(tolerance=1e-13))
        assert assert_same_orbit_outcome(demo["seed_prev"], demo["seed_cur"], params, demo["steps"] + 1)[1] == 0

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 3]),
        spacing=st.sampled_from([0.6, 1.5, 4.0]),
        tolerance=st.sampled_from([1e-12, 1e-13, 1e-14]),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(3, 60),
    )
    def test_every_step_equals_the_numpy_orbit(self, n, spacing, tolerance, seed, count):
        # shifts of 0.05-1 at spacings of 0.6-4: some orbits collide, reorder, stall or lose dominance
        rng = np.random.default_rng(seed)
        x_prev = spacing * np.arange(n) + rng.uniform(-0.1, 0.1, n)
        params = LatticeParams(p1=1.0, p2=2.0, n=n, newton=NewtonSettings(tolerance=tolerance))
        assert_same_orbit_outcome(x_prev, x_prev + rng.uniform(0.05, 1.0, n), params, count)

    def test_a_non_dominant_jacobian_hands_the_step_off(self):
        # the Newton guess 2 x_cur - x_prev puts particle 0 nearer to x_cur's particle 1 than particle 1 is:
        # the Jacobian is not diagonally dominant, linear_solve certifies it through [b | I], and the float
        # kernel hands the step to discrete_step, which takes it
        x_prev, x_cur = np.array([0.0, 1.5, 3.0]), np.array([0.6, 2.25, 3.7])
        jacobian = discrete._eom_system(x_prev, x_cur)[1]((2.0 * x_cur - x_prev)[None])[0]
        bound = numerics.PIVOT_RTOL / numerics.CERTIFY_MARGIN + 9 * 2.0**-52
        assert not (2.0 * jacobian.diagonal() - jacobian.sum(axis=1)).min() > bound * jacobian.max()
        assert discrete._float_step(x_prev.tolist(), x_cur.tolist(), PARAMS_N3.newton) is None
        sites, handed_off = assert_same_orbit_outcome(x_prev, x_cur, PARAMS_N3, 3)
        assert sites.shape == (3, 3) and handed_off == 1
