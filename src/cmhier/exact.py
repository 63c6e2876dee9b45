"""Exact solutions of the rational Calogero-Moser flows and lattice by the projection method.

Along a straight multi-time segment with direction (d2, d3), the positions at
parameter s are the eigenvalues of diag x0 + s (d2 L0 + d3 L0^2), where L0 is
the Lax matrix of the start, off-diagonal hierarchy.GAMMA (Olshanetsky-Perelomov,
Phys. Rep. 71 (1981); Kazhdan-Kostant-Sternberg 1978). A collision shows up as
two eigenvalues meeting and leaving the real line as a complex pair.

Lattice sites are the eigenvalues of diag x00 - n1 L^-1 - n2 (L + (p2 - p1) I)^-1
with L the discrete Lax matrix on the base edge (Nijhoff-Pang, Phys. Lett. A 191 (1994));
the scalar plaquette gate of verify reads them.
"""

from __future__ import annotations

import numpy as np

from .discrete import LatticeParams, build_discrete_lax
from .flows import FLIGHT_GAP_TOL, PathSpec
from .hierarchy import PhaseState, inverse_gaps, lax_matrix


def projection_spectrum(start: PhaseState, direction, s) -> np.ndarray:
    """Eigenvalues of diag x0 + s (d2 L0 + d3 L0^2), one row per value of s;
    complex only where some eigenvalue is."""
    L0 = lax_matrix(start.p, inverse_gaps(start.x))
    d2, d3 = direction
    generator = d2 * L0 + d3 * (L0 @ L0)
    s = np.asarray(s, dtype=float)
    return np.linalg.eigvals(np.diag(start.x) + s[..., None, None] * generator)


COARSE_STRIDE = 16  # collides tests every this-many-th grid time first


def collides(start: PhaseState, path: PathSpec) -> bool:
    """True when, at some time of the path's grid after the start (where the march
    checks its steps in flight), the exact spectrum has a nonzero imaginary part or
    two sorted eigenvalues closer than FLIGHT_GAP_TOL. The grid times i = 16, 32, ...
    go first and the others only when those pass: the test holds or fails at each
    time alone, and eigvals solves each matrix of a stack alone, so the order of
    the times cannot change the answer."""
    s = path.grid()[1:]
    coarse = np.zeros(len(s), dtype=bool)
    coarse[COARSE_STRIDE - 1::COARSE_STRIDE] = True
    for times in (s[coarse], s[~coarse]):
        spectrum = projection_spectrum(start, path.direction, times)
        gaps = np.diff(np.sort(spectrum.real, axis=-1), axis=-1)
        if np.any(spectrum.imag != 0.0) or not np.all(gaps >= FLIGHT_GAP_TOL):
            return True
    return False


def lattice_spectrum(x00, x10, params: LatticeParams, n1, n2) -> np.ndarray:
    """Site (n1, n2) of the sheet grown from the edge (x00, x10), one row per broadcast
    (n1, n2); n2 = 0 is the discrete orbit. Complex only where some eigenvalue is."""
    L, _ = build_discrete_lax(x00, x10)
    a, b = np.linalg.inv([L, L + (params.p2 - params.p1) * np.eye(len(L))])
    n1, n2 = (np.asarray(n, dtype=float)[..., None, None] for n in (n1, n2))
    return np.linalg.eigvals(np.diag(np.asarray(x00, dtype=float)) - n1 * a - n2 * b)
