import numpy as np
import pytest

from cmhier.sampling import _constructed_positions, _positions, orbit_seed, random_phase_state, sorted_positions


def numpy_sorted_positions(rng, n, min_gap, span):
    """The numpy form of sorted_positions: sort and gap test on the drawn array."""
    if n * min_gap > 2 * span:
        raise ValueError("span too small for the requested minimum gap")
    for _ in range(10_000):
        x = np.sort(rng.uniform(-span, span, n))
        if n == 1 or np.min(np.diff(x)) >= min_gap:
            return x
    raise RuntimeError("rejection sampling failed; loosen min_gap or widen span")


@pytest.mark.parametrize("min_gap", [0.5, 0.8, 1.0, 1.2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_draws_equal_the_numpy_form(n, min_gap):
    """Every accepted draw, its dtype and the generator state afterwards are those of the numpy form; on
    [-6, 6] a draw of 5 positions at gap 1.2 is refused about 12 times in 13."""
    got_rng, ref_rng = (np.random.default_rng([n, round(10 * min_gap)]) for _ in range(2))
    for _ in range(2000):
        got, ref = sorted_positions(got_rng, n, min_gap, 6.0), numpy_sorted_positions(ref_rng, n, min_gap, 6.0)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_span_too_small_is_refused():
    with pytest.raises(ValueError, match="^span too small for the requested minimum gap$"):
        sorted_positions(np.random.default_rng(0), 6, 1.2, 3.0)


def test_a_gap_of_exactly_min_gap_is_accepted():
    class Fixed:
        def uniform(self, low, high, n):
            return np.array([0.5, -0.5])

    got = sorted_positions(Fixed(), 2, 1.0, 3.0)
    assert got.dtype == np.float64 and got.tolist() == [-0.5, 0.5]


class Repeating:
    """A generator stub whose every draw is the same values, and that records the bounds it is asked for."""

    def __init__(self, values):
        self.values, self.bounds = values, []

    def uniform(self, low, high, n):
        self.bounds.append((low, high))
        return np.array(self.values)


@pytest.mark.parametrize("n, min_gap", [(25, 0.1), (11, 0.5), (12, 0.5)])
def test_a_draw_rejection_cannot_make_is_constructed(n, min_gap):
    """After 10,000 refused draws on [-3, 3], one constructive draw: n sorted uniforms on
    [-3, 3 - (n-1) min_gap], the i-th moved up by i min_gap; its gaps and span hold."""
    for seed in range(3):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sorted_positions(got_rng, n, min_gap, 3.0)
        for _ in range(10_000):
            ref_rng.uniform(-3.0, 3.0, n)
        expected = np.sort(ref_rng.uniform(-3.0, 3.0 - (n - 1) * min_gap, n)) + min_gap * np.arange(n)
        assert got.dtype == np.float64 and np.array_equal(got, expected)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.diff(got).min() >= min_gap and -3.0 <= got[0] and got[-1] <= 3.0


def test_a_constructed_draw_that_rounding_leaves_short_is_refused():
    # 0.7 + 0.1 rounds to 0.7999999999999999, a gap 2.8e-17 short of 0.1
    rng = Repeating([0.7, 0.7])
    with pytest.raises(RuntimeError, match="^rejection sampling failed; loosen min_gap or widen span$"):
        sorted_positions(rng, 2, 0.1, 3.0)
    assert rng.bounds == [(-3.0, 3.0)] * 10_000 + [(-3.0, 3.0 - 0.1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 32])
def test_orbit_seeds_of_any_size_draw(n):
    """Up to n = 3 an orbit seed draws x_prev on [-6, 6] as before; from n = 4, where [-6, 6] cannot hold n
    gaps of 3.5, by one constructive draw on [-1.75 n, 1.75 n], the smallest interval that can."""
    for seed in range(3):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        x_prev, x_cur = orbit_seed(got_rng, n)
        span, draw = (6.0, sorted_positions) if n <= 3 else (1.75 * n, _constructed_positions)
        assert np.array_equal(x_prev, draw(ref_rng, n, 3.5, span))
        assert np.array_equal(x_cur, x_prev + 0.3 * ref_rng.uniform(0.9, 1.1, n))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.all(np.diff(x_prev) >= 3.5) and -span <= x_prev[0] and x_prev[-1] <= span


@pytest.mark.parametrize("n", [3, 12, 13, 50])
def test_phase_states_of_any_size_draw(n):
    """At gap 0.5 a phase state draws on [-3, 3] up to n = 12 as before, and beyond by one constructive draw
    on [-n/4, n/4]."""
    for seed in range(3):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        state = random_phase_state(got_rng, n, 0.5)
        span, draw = (3.0, sorted_positions) if n <= 12 else (0.25 * n, _constructed_positions)
        assert np.array_equal(state.x, draw(ref_rng, n, 0.5, span))
        assert np.array_equal(state.p, ref_rng.uniform(-1.0, 1.0, n))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.all(np.diff(state.x) >= 0.5) and -span <= state.x[0] and state.x[-1] <= span


@pytest.mark.parametrize("n, min_gap, span", [(4, 3.5, 6.0), (1024, 3.5, 6.0), (13, 0.5, 3.0), (50, 0.5, 3.0)])
def test_a_grown_span_draws_constructively_at_once(n, min_gap, span):
    """Where [-span, span] cannot hold n gaps and the span grows to n min_gap / 2, as for orbit seeds and phase
    states, the positions take exactly one draw of n uniforms from the generator, on
    [-n min_gap / 2, -n min_gap / 2 + min_gap], and no rejected draw before it."""
    grown = n * min_gap / 2
    for seed in range(3):
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _positions(got_rng, n, min_gap, span)
        expected = np.sort(ref_rng.uniform(-grown, grown - (n - 1) * min_gap, n)) + min_gap * np.arange(n)
        assert got.dtype == np.float64 and np.array_equal(got, expected)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.diff(got).min() >= min_gap and -grown <= got[0] and got[-1] <= grown
