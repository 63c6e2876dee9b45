import numpy as np
import pytest

from cmhier.sampling import sorted_positions


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
