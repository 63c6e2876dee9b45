"""Seeded random data for tests, scenarios and the verification suite.

Positions are sorted uniforms with minimum-gap rejection, and a constructive
draw where rejection fails, so every consumer sees collision-free,
reproducible configurations; momenta are uniform in
[-1, 1]. Discrete seeds pair a configuration with a displaced copy whose
step size suits the corner solves. Only the continuous minimum gap is a
parameter; discrete gaps and steps are fixed. The spans are fixed too, except
that a scenario's draw grows its span to n gap / 2 where the fixed one cannot
hold n gaps, and draws there constructively at once: an orbit seed (gaps 3.5
in [-6, 6]) from n = 4, a phase state at gap g (in [-3, 3]) from n > 6/g.
Every draw the fixed span holds keeps its bits.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import PhaseState


def sorted_positions(rng: np.random.Generator, n: int, min_gap: float, span: float) -> np.ndarray:
    """Sorted positions in [-span, span] with all gaps at least min_gap, by rejection; after 10,000 rejected
    draws, by _constructed_positions, uniform over the same set."""
    if n * min_gap > 2 * span:
        raise ValueError("span too small for the requested minimum gap")
    for _ in range(10_000):
        # sorted and tested on Python floats: numpy's values and comparisons, without its per-call cost
        x = sorted(rng.uniform(-span, span, n).tolist())
        if all(b - a >= min_gap for a, b in zip(x, x[1:])):
            return np.array(x)
    return _constructed_positions(rng, n, min_gap, span)


def _constructed_positions(rng: np.random.Generator, n: int, min_gap: float, span: float) -> np.ndarray:
    """One constructive draw of sorted positions in [-span, span] with all gaps at least min_gap: n sorted
    uniforms on [-span, span - (n-1) min_gap], the i-th moved up by i min_gap. A draw that rounding leaves a
    gap short fails."""
    x = (np.sort(rng.uniform(-span, span - (n - 1) * min_gap, n)) + min_gap * np.arange(n)).tolist()
    if all(b - a >= min_gap for a, b in zip(x, x[1:])):
        return np.array(x)
    raise RuntimeError("rejection sampling failed; loosen min_gap or widen span")


def _positions(rng: np.random.Generator, n: int, min_gap: float, span: float) -> np.ndarray:
    """sorted_positions on [-span, span] where it holds n gaps of min_gap; else one constructive draw on the
    smallest interval that does, [-n min_gap / 2, n min_gap / 2], where a rejection draw would pass with
    probability about n^-n. Each draw that span holds is unchanged."""
    if n * min_gap <= 2 * span:
        return sorted_positions(rng, n, min_gap, span)
    return _constructed_positions(rng, n, min_gap, n * min_gap / 2)


def random_phase_state(rng: np.random.Generator, n: int, min_gap: float) -> PhaseState:
    """Positions in [-3, 3], or in _positions's wider interval, with all gaps at least min_gap, momenta
    uniform in [-1, 1]."""
    x = _positions(rng, n, min_gap, 3.0)
    p = rng.uniform(-1.0, 1.0, n)
    return PhaseState(x, p)


def plaquette_seed(rng: np.random.Generator, n: int, p1: float, p2: float) -> tuple[np.ndarray, np.ndarray]:
    """Base edge (x00, x10): x00 in [-3, 3] with gaps at least 1.2, displaced by ~ 1/(p1+p2), jittered 10%.

    Keeping the edge displacement well below 1/|p1-p2| avoids the degenerate
    plaquettes where a corner shift runs off to infinity.
    """
    x00 = sorted_positions(rng, n, 1.2, 3.0)
    x10 = x00 + rng.uniform(0.9, 1.1, n) / (abs(p1) + abs(p2))
    return x00, x10


def orbit_seed(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Well-separated (x_prev, x_cur) pair for long discrete orbits: x_prev in [-6, 6], or in _positions's
    wider interval, with gaps at least 3.5, x_cur displaced by 0.3, jittered 10%."""
    x_prev = _positions(rng, n, 3.5, 6.0)
    x_cur = x_prev + 0.3 * rng.uniform(0.9, 1.1, n)
    return x_prev, x_cur
