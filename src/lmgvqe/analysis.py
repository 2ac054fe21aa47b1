"""Exact-diagonalization oracle, state overlaps and report annotations.

The eigensolver wraps LAPACK's symmetric solver (``numpy.linalg.eigh``)
with input validation and a deterministic eigenvector sign convention; the
tests check it against the 2x2 closed form.  It provides the reference
spectrum and eigenvectors that every variational result is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Statevector

__all__ = [
    "EigenDecomposition",
    "eigensolve",
    "fidelity",
    "overlap_table",
    "HARDWARE_REFERENCE",
]

SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns.

    Each eigenvector is sign-fixed so its first non-zero component is
    positive, making downstream reports reproducible byte for byte.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def eigensolve(matrix: np.ndarray) -> EigenDecomposition:
    """Diagonalize a dense real symmetric matrix with LAPACK (numpy eigh).

    Raises ValueError on non-square, non-symmetric or genuinely complex
    input.
    """
    a = np.asarray(matrix)
    if np.iscomplexobj(a):
        if a.size and np.abs(a.imag).max() > SYMMETRY_TOL:
            raise ValueError("matrix has a non-negligible imaginary part")
        a = a.real
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh((a + a.T) / 2.0)
    for k in range(len(eigenvalues)):
        column = eigenvectors[:, k]
        nonzero = np.flatnonzero(np.abs(column) > 1e-12)
        if len(nonzero) and column[nonzero[0]] < 0:
            eigenvectors[:, k] = -column
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _as_vector(state) -> np.ndarray:
    if isinstance(state, Statevector):
        return state.amplitudes
    return np.asarray(state)


def fidelity(psi, phi) -> float:
    """Squared overlap |<psi|phi>|^2 of two normalized states."""
    a, b = _as_vector(psi), _as_vector(phi)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    for vec in (a, b):
        norm = float(np.sum(np.abs(vec) ** 2))
        if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
            raise ValueError(f"state not normalized: sum |a|^2 = {norm}")
    return float(np.abs(np.vdot(a, b)) ** 2)


def overlap_table(report, decomposition: EigenDecomposition) -> np.ndarray:
    """Fidelity matrix: rows are discovered states, columns oracle
    eigenvectors (ascending eigenvalue order)."""
    rows = []
    for cluster in report.clusters:
        rows.append([
            fidelity(cluster.state, decomposition.eigenvectors[:, k])
            for k in range(decomposition.dim)
        ])
    return np.array(rows).reshape(len(rows), decomposition.dim)


# Published IBM-hardware measurements (20k shots, readout mitigation; the
# two-qubit runs also used CNOT-pair extrapolation).  Rendered in reports as
# annotations only; synthetic-noise runs are not expected to reproduce them.
# Keys: (n_particles, block); rows: (exact, variance, value, uncertainty)
# by ascending exact eigenvalue.
HARDWARE_REFERENCE = {
    (3, "A"): (
        (-1.823, 0.073, -1.788, 0.062),
        (0.823, 0.001, 0.826, 0.064),
    ),
    (3, "B"): (
        (-0.823, -0.004, -0.816, 0.063),
        (1.823, 0.001, 1.810, 0.063),
    ),
    (7, "A"): (
        (-6.208, 0.139, -6.067, 0.901),
        (-2.944, 0.016, -3.151, 0.503),
        (1.208, 0.010, 1.184, 0.484),
        (5.944, 0.114, 5.902, 0.660),
    ),
}
