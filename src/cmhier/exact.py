"""Exact solutions of the rational Calogero-Moser flows, lattice and chain by the projection method.

Each is the spectrum of one matrix, diag x0 plus one term c M per time (Olshanetsky-Perelomov, Phys. Rep. 71
(1981); Kazhdan-Kostant-Sternberg 1978; Nijhoff-Pang, Phys. Lett. A 191 (1994)), which spectrum builds, and ends
is the one test of where a solution ends: two eigenvalues meet and leave the real line as a complex pair. Each
regime builds only its terms: projection_spectrum the continuous one, discrete.lattice_spectrum the lattice's.
"""

from __future__ import annotations

import numpy as np

from .flows import FLIGHT_GAP_TOL, PathSpec
from .hierarchy import PhaseState, _set_diagonal, inverse_gaps, lax_matrix


def spectrum(x0, terms) -> np.ndarray:
    """Eigenvalues of diag x0 + sum c M over the terms (c, M), added in their order, over leading axes: each c
    broadcasts against the leading axes of x0 (..., N) and M (..., N, N); eigvals solves each matrix alone."""
    x0 = np.asarray(x0, dtype=float)
    matrix = np.zeros(x0.shape + x0.shape[-1:])
    _set_diagonal(matrix, x0)
    for c, m in terms:
        matrix = matrix + np.asarray(c, dtype=float)[..., None, None] * m
    return np.linalg.eigvals(matrix)


def ends(spectra: np.ndarray, tol: float) -> np.ndarray:
    """Per spectrum (..., N): whether it has a complex eigenvalue or two sorted real parts less than tol apart,
    or a NaN gap, which no caller sees: eigvals raises LinAlgError on a non-finite matrix."""
    gaps = np.diff(np.sort(spectra.real, axis=-1), axis=-1)
    return (spectra.imag != 0.0).any(axis=-1) | (~(gaps >= tol)).any(axis=-1)


def projection_spectrum(start: PhaseState, direction, s) -> np.ndarray:
    """The spectrum of the one term (s, d2 L0 + d3 L0^2), one row per value of s."""
    (d2, d3), L0 = direction, lax_matrix(start.p, inverse_gaps(start.x))
    return spectrum(start.x, [(s, d2 * L0 + d3 * (L0 @ L0))])


COARSE_STRIDE = 16  # collides tests every this-many-th grid time first


def collides(start: PhaseState, path: PathSpec) -> bool:
    """True when, at some time of the path's grid after the start (where the march checks its steps in flight),
    the exact spectrum ends with FLIGHT_GAP_TOL. The grid times i = 16, 32, ... go first and the others only
    when those pass: the test holds or fails at each time alone, and eigvals solves each matrix of a stack
    alone, so the order of the times cannot change the answer."""
    s = path.grid()[1:]
    coarse = np.zeros(len(s), dtype=bool)
    coarse[COARSE_STRIDE - 1::COARSE_STRIDE] = True
    return any(ends(projection_spectrum(start, path.direction, times), FLIGHT_GAP_TOL).any()
               for times in (s[coarse], s[~coarse]))
