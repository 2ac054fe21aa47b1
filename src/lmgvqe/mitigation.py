"""Error mitigation: confusion-matrix readout correction and CNOT folding.

Readout correction calibrates a column-stochastic confusion matrix A, then
solves A q = f to turn measured frequencies f into a quasi-probability
distribution q for the uncorrupted outcomes.  Column j holds the read
frequencies of basis state j, the j-th draw of one seeded stream from its
exact distribution, column j of the readout channel's Kronecker product.
CNOT mitigation re-measures with every CNOT replaced by an odd number of
copies and extrapolates every term linearly to the zero-CNOT limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import _check_int
from .simulator import NoiseModel, _checked_counts, _readout_matrix, _rng, measure_term

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

    ``calibration_shots`` defaults (None) to the measurement shot count; the
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
        if self.calibration_shots is not None:
            _check_int(self.calibration_shots, "calibration_shots")
        # every fold is checked, whatever the flags; only CNOT extrapolation
        # needs two of them
        for fold in self.folds:
            _check_int(fold, "every fold")
        if any(f % 2 == 0 for f in self.folds) or len(set(self.folds)) != len(self.folds):
            raise ValueError(f"folds must be distinct odd integers, got {self.folds}")
        if self.cnot and len(self.folds) < 2:
            raise ValueError(f"CNOT mitigation needs two or more folds, got {self.folds}")


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
        side = mat.shape[0]
        if side < 2 or side & (side - 1):
            raise ValueError(f"confusion matrix side {side} is not 2^n for n >= 1 qubits")
        # the few entries are checked as Python floats; NaN fails every bound
        rows = mat.tolist()
        if not all(-1e-12 <= x <= 1.0 + 1e-12 for row in rows for x in row):
            raise ValueError("confusion matrix entries must lie in [0, 1]")
        if not all(abs(sum(column) - 1.0) <= 1e-9 for column in zip(*rows)):
            raise ValueError("confusion matrix columns must sum to 1")
        _check_int(self.shots_per_column, "shots_per_column")

    @property
    def num_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


def calibrate(num_qubits: int, noise: NoiseModel, shots: int, seed=0) -> ConfusionMatrix:
    """Measure all 2^n basis states under the readout noise of ``noise``.

    Column j holds the frequencies of ``shots`` draws from the outcome
    distribution of basis state j, drawn in order from ``default_rng(seed)``.
    """
    _check_int(num_qubits, "num_qubits")
    _check_int(shots)
    rng = _rng(seed)
    readout = _readout_matrix(noise, num_qubits)
    columns = [measure_term(readout[:, j], shots, rng) for j in range(2**num_qubits)]
    # C order, like the readout matrix, so every product with it keeps its BLAS call
    matrix = np.divide(np.array(columns).T, shots, order="C")
    return ConfusionMatrix(matrix=matrix, shots_per_column=shots)


def _stacked(cal, counts: np.ndarray, leading: int):
    """The matrix and shots per column of one calibration, or of a sequence
    of one calibration per row along the first axis of ``counts``: then
    stacked with shapes (B, 1, ..., 1, 2^n, 2^n) and (B, 1, ..., 1, 1),
    ``leading`` axes before the matrix axes, so that each broadcasts over its
    own row.  A sequence of one is that one calibration, for every row."""
    if isinstance(cal, ConfusionMatrix):
        return cal.matrix, cal.shots_per_column
    if len(cal) == 1:
        return cal[0].matrix, cal[0].shots_per_column
    if counts.ndim < 2 or len(cal) != len(counts):
        raise ValueError(f"expected one calibration per row of counts of shape {counts.shape}")
    pad = (1,) * (leading - 1)
    matrix = np.array([c.matrix for c in cal])
    shots = np.array([c.shots_per_column for c in cal])
    return matrix.reshape(len(matrix), *pad, *matrix.shape[1:]), shots.reshape(len(shots), *pad, 1)


def mitigate_counts(counts, cal) -> np.ndarray:
    """Solve cal @ q = f for the frequencies f of counts of shape (..., 2^n).

    ``cal`` is one ``ConfusionMatrix``, or a sequence of one per row along
    the first axis of ``counts``.  Either way each count vector is its own
    solve, so a row corrects as it does alone.  The solution is a
    quasi-probability vector: entries may be slightly negative, and they are
    kept that way because clipping would bias the expectation values
    computed from it.  The entries always sum to 1.
    """
    counts = np.asarray(counts)
    matrix, _ = _stacked(cal, counts, counts.ndim - 1)
    counts, totals = _checked_counts(counts, matrix.shape[-1].bit_length() - 1)
    freq = counts / totals[..., None]
    try:
        return np.linalg.solve(matrix, freq[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise MitigationError("calibration matrix is singular; counts are unmitigable") from exc


def cnot_extrapolate(values):
    """Extrapolate (fold, estimate, stderr) points linearly to fold = 0.

    For the two-point case (1, v1, s1), (3, v3, s3) this reduces to
    (3 v1 - v3) / 2 with standard error sqrt(9 s1^2 + s3^2) / 2.  With more
    points a least-squares line is fitted, weighted by 1/stderr^2 whenever
    all standard errors are positive.  Estimates and stderrs may be arrays
    of one shape; each element is then extrapolated on its own and two
    arrays of that shape come back, otherwise two floats.
    """
    values = list(values)
    if len(values) < 2:
        raise ValueError("need at least two fold points to extrapolate")
    folds = [f for f, _, _ in values]
    for fold in folds:
        _check_int(fold, "every fold")
    if len(set(folds)) != len(folds):
        raise ValueError(f"duplicate folds in {folds}")
    shape = np.shape(values[0][1])
    if any(np.shape(v) != shape or np.shape(e) != shape for _, v, e in values):
        raise ValueError(f"every estimate and stderr must have the shape {shape}")
    # each (elements, folds), C-contiguous: the per-element products below
    # then round as the scalar calls do
    y = np.array([v for _, v, _ in values], dtype=float).reshape(len(values), -1).T.copy()
    s = np.array([e for _, _, e in values], dtype=float).reshape(len(values), -1).T.copy()
    if s.min(initial=np.inf) > 0.0:  # NaN fails; these are the weights the general rule gives
        weights = 1.0 / s**2
    else:
        if not (s >= 0.0).all():  # NaN fails too
            raise ValueError("stderrs must be non-negative")
        positive = (s > 0).all(axis=1, keepdims=True)  # else unweighted; no 1/0 is formed
        weights = np.where(positive, 1.0 / np.where(positive, s, 1.0) ** 2, 1.0)
    design = np.array([(1.0, f) for f in folds], dtype=float)
    wd = design * weights[:, :, None]
    coeff_map = np.linalg.solve(design.T @ wd, wd.transpose(0, 2, 1))  # beta = coeff_map @ y
    intercept_weights = coeff_map[:, 0]
    # one dot product per element, so arrays round as scalar calls do
    estimate = (intercept_weights[:, None, :] @ y[:, :, None])[:, 0, 0]
    stderr = np.sqrt(((intercept_weights * s) ** 2).sum(axis=-1))
    if shape == ():
        return float(estimate[0]), float(stderr[0])
    return estimate.reshape(shape), stderr.reshape(shape)
