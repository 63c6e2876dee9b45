"""Per-N timings of one call into each layer, with no wrappers installed.

Each point is the median of at least MIN_REPS calls and of as many more as
fit in MIN_SECONDS. A call that raises a NumericsError counts as an abort;
its time is kept and the point is not repeated, since it would abort again.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import spaced_positions

SIZES = (2, 4, 8, 16, 32, 64, 128)
FUNCS = ("hamiltonian_grad", "rk4_step", "discrete_step", "build_plaquette", "tau_velocities")
MIN_REPS = 5
MIN_SECONDS = 0.05


def _calls(rng: np.random.Generator, n: int) -> dict:
    from cmhier import discrete, flows, hierarchy, semidiscrete

    x = spaced_positions(rng, n, 3.0, 0.3)
    state = hierarchy.PhaseState(x, np.sort(rng.uniform(-0.5, 0.5, n)))
    params = discrete.LatticeParams(p1=1.0, p2=2.0, n=n)
    x10 = x + rng.uniform(0.9, 1.1, n) / 3.0
    x_prev = spaced_positions(rng, n, 4.0, 0.4)
    x_cur = x_prev + 0.3 * rng.uniform(0.9, 1.1, n)
    chain = semidiscrete.Chain((x_prev, x_cur, 2.0 * x_cur - x_prev))
    return {
        "hamiltonian_grad": lambda: hierarchy.hamiltonian_grad(3, state),
        "rk4_step": lambda: flows.integrate_flow(2, state, 1e-3, 1e-3),
        "discrete_step": lambda: discrete.discrete_step(x_prev, x_cur, params),
        "build_plaquette": lambda: discrete.build_plaquette(x, x10, params),
        "tau_velocities": lambda: semidiscrete.tau_velocities(chain),
    }


def run_sweep(seed: int) -> dict[str, float]:
    """Metrics sweep.<func>.n<N>.s (median seconds per call) and sweep.<func>.aborts."""
    from cmhier.errors import NumericsError

    metrics: dict[str, float] = {f"sweep.{f}.aborts": 0 for f in FUNCS}
    for n in SIZES:
        calls = _calls(np.random.default_rng([seed, n]), n)
        for func in FUNCS:
            times = []
            began = time.perf_counter()
            while len(times) < MIN_REPS or time.perf_counter() - began < MIN_SECONDS:
                t0 = time.perf_counter()
                try:
                    calls[func]()
                except NumericsError:
                    times.append(time.perf_counter() - t0)
                    metrics[f"sweep.{func}.aborts"] += 1
                    break
                times.append(time.perf_counter() - t0)
            metrics[f"sweep.{func}.n{n}.s"] = statistics.median(times)
    return metrics
