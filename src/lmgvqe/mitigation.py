"""Error mitigation: confusion-matrix readout correction and CNOT folding.

Readout correction calibrates a column-stochastic confusion matrix A, whose
column j holds the read frequencies after preparing basis state j with X
gates, then solves A q = f to turn measured frequencies f into a
quasi-probability distribution q for the uncorrupted outcomes.  CNOT
mitigation re-measures with every CNOT replaced by an odd number of copies
and extrapolates linearly to the zero-CNOT limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate
from .pauli import identity_string
from .simulator import NoiseModel, _checked_counts, measure_term

__all__ = [
    "Mitigation",
    "MitigationError",
    "ConfusionMatrix",
    "calibrate",
    "mitigate_counts",
    "cnot_extrapolate",
]


class MitigationError(RuntimeError):
    """Raised when counts cannot be corrected (singular calibration)."""


@dataclass(frozen=True)
class Mitigation:
    """Which mitigation passes to apply during estimation.

    ``calibration_shots`` defaults to the measurement shot count; the
    calibration is re-run on every estimate so corrections stay current.
    Readout correction is applied to each fold's counts first, then the
    CNOT extrapolation runs across folds.
    """

    readout: bool = False
    cnot: bool = False
    folds: tuple[int, ...] = (1, 3)
    calibration_shots: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "folds", tuple(self.folds))
        if self.cnot:
            if len(set(self.folds)) < 2:
                raise ValueError("cnot mitigation needs at least two distinct folds")
            if any(f < 1 or f % 2 == 0 for f in self.folds):
                raise ValueError(f"folds must be odd positive integers, got {self.folds}")

    @property
    def any_active(self) -> bool:
        return self.readout or self.cnot


@dataclass(frozen=True)
class ConfusionMatrix:
    """Column-stochastic readout calibration: entry (i, j) is the probability
    of reading bitstring i when bitstring j was prepared."""

    matrix: np.ndarray
    shots_per_column: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("confusion matrix must be square")
        if np.any(mat < -1e-12) or np.any(mat > 1.0 + 1e-12):
            raise ValueError("confusion matrix entries must lie in [0, 1]")
        if np.abs(mat.sum(axis=0) - 1.0).max() > 1e-9:
            raise ValueError("confusion matrix columns must sum to 1")

    @property
    def num_qubits(self) -> int:
        return int(round(np.log2(self.matrix.shape[0])))


def calibrate(num_qubits: int, noise: NoiseModel, shots: int, seed=0) -> ConfusionMatrix:
    """Measure all 2^n basis-state preparation circuits under readout noise.

    Column j comes from the circuit that applies an X gate on every qubit
    set in bitstring j (2 circuits for one qubit, 4 for two).
    """
    if num_qubits < 1:
        raise ValueError("num_qubits must be positive")
    if shots < 1:
        raise ValueError("shots must be positive")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seeds = ss.spawn(2**num_qubits)
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim))
    term = identity_string(num_qubits)
    for j in range(dim):
        gates = tuple(
            Gate("x", target=q)
            for q in range(num_qubits)
            if (j >> (num_qubits - 1 - q)) & 1
        )
        matrix[:, j] = measure_term(
            Circuit(num_qubits, gates), (), term, shots,
            noise=noise.readout_only(), seed=seeds[j],
        ) / shots
    return ConfusionMatrix(matrix=matrix, shots_per_column=shots)


def mitigate_counts(counts, cal: ConfusionMatrix) -> np.ndarray:
    """Solve cal @ q = f for the frequencies f of counts of shape (..., 2^n).

    The solution is a quasi-probability vector: entries may be slightly
    negative, and they are kept that way because clipping would bias the
    expectation values computed from it.  The entries always sum to 1.
    """
    counts = _checked_counts(counts, cal.num_qubits)
    freq = counts / counts.sum(axis=-1, keepdims=True)
    try:
        return np.linalg.solve(cal.matrix, freq[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise MitigationError("calibration matrix is singular; counts are unmitigable") from exc


def cnot_extrapolate(values) -> tuple[float, float]:
    """Extrapolate (fold, estimate, stderr) points linearly to fold = 0.

    For the two-point case (1, v1, s1), (3, v3, s3) this reduces to
    (3 v1 - v3) / 2 with standard error sqrt(9 s1^2 + s3^2) / 2.  With more
    points a least-squares line is fitted, weighted by 1/stderr^2 whenever
    all standard errors are positive.
    """
    values = [(int(f), float(v), float(s)) for f, v, s in values]
    if len(values) < 2:
        raise ValueError("need at least two fold points to extrapolate")
    folds = [f for f, _, _ in values]
    if len(set(folds)) != len(folds):
        raise ValueError(f"duplicate folds in {folds}")
    x = np.array(folds, dtype=float)
    y = np.array([v for _, v, _ in values])
    s = np.array([e for _, _, e in values])

    weights = 1.0 / s**2 if np.all(s > 0) else np.ones_like(s)
    design = np.column_stack([np.ones_like(x), x])
    wd = design * weights[:, None]
    coeff_map = np.linalg.solve(design.T @ wd, wd.T)  # beta = coeff_map @ y
    intercept_weights = coeff_map[0]
    estimate = float(intercept_weights @ y)
    stderr = float(np.sqrt(np.sum((intercept_weights * s) ** 2)))
    return estimate, stderr
