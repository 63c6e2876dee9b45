"""Fixed reference computations that measure how fast the CPU runs right now.

On a small VM that shares its host, the same code runs up to about 1.75x
slower from one minute to the next, and each vCPU drifts on its own. The
end-to-end times are therefore reported in reference seconds: a wall time
multiplied by REFERENCE_S / (the time of the reference blocks measured next
to it, on the same CPU). A block takes about REFERENCE_S on the test host.
No block calls cmhier, so a change to the program cannot move it.

Code of different kinds slows by different amounts when the host is busy:
interpreted Python and numpy calls on tiny arrays slow more than numpy
kernels on 64x64 arrays. So each workload names the block that does work
like its own. MIXED does, in about equal parts, pairwise array kernels on 64
points, small dense solves made of numpy row operations, and interpreted
Python that builds and formats rows. ARRAYS does the pairwise kernels alone.
"""

from __future__ import annotations

import os
import time

import numpy as np

REFERENCE_S = 0.13  # seconds of one block on the test host at its usual speed

# rounds of (pairwise kernel, small solve, interpreted row) in one block
MIXED = (110, 300, 900)
ARRAYS = (330, 0, 0)

_X = 3.0 * (np.arange(64) - 31.5) + 0.3 * np.sin(np.arange(64))
_A = np.eye(8) * 6.0 + np.cos(np.outer(np.arange(8), np.arange(8)))
_B = np.sin(np.arange(8.0))


def _pair_kernel(rounds: int) -> float:
    total = 0.0
    p = _X / 100.0
    for _ in range(rounds):
        d = _X[:, None] - _X[None, :]
        np.fill_diagonal(d, np.inf)
        inv3 = (1.0 / d) ** 3
        total += float(((p[:, None] + p[None, :]) * inv3).sum(axis=1).sum())
    return total


def _small_solves(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        a, b = _A.copy(), _B.copy()
        n = len(b)
        for col in range(n):
            piv = col + int(np.argmax(np.abs(a[col:, col])))
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                b[[col, piv]] = b[[piv, col]]
            f = a[col + 1:, col] / a[col, col]
            a[col + 1:, col:] -= np.outer(f, a[col, col:])
            b[col + 1:] -= f * b[col]
        v = np.empty(n)
        for row in range(n - 1, -1, -1):
            v[row] = (b[row] - a[row, row + 1:] @ v[row + 1:]) / a[row, row]
        total += float(v[0])
    return total


def _interpreted(rounds: int) -> float:
    total = 0.0
    for r in range(rounds):
        row = {f"c{i}": (r * 31 + i * 17) % 97 / 7.0 for i in range(24)}
        line = ",".join(repr(v) for v in row.values())
        total += sum(float(v) for v in line.split(",")) / len(row)
    return total


def block(rounds: tuple[int, int, int]) -> float:
    """Run one reference block and return its wall time in seconds."""
    pairs, solves, rows = rounds
    start = time.perf_counter()
    _pair_kernel(pairs)
    _small_solves(solves)
    _interpreted(rows)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU, so that the
    reference blocks run on the CPU whose speed they stand for."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def scaled(seconds: list[float], blocks: list[float]) -> list[float]:
    """Reference seconds of timings that sit between consecutive blocks:
    timing i ran between blocks i and i + 1, and is scaled by their mean."""
    if len(blocks) != len(seconds) + 1:
        raise ValueError("need one block before every timing and one after the last")
    return [s * REFERENCE_S / ((blocks[i] + blocks[i + 1]) / 2.0) for i, s in enumerate(seconds)]
