"""Energy, <H^2> and variance estimation from per-term measurements.

The optimization objective is the Hamiltonian variance

    sigma^2 = <H^2> - <H>^2,

which is non-negative and vanishes exactly on eigenstates.  Sampled <H> and
<H^2> are assembled term by term from the Pauli decompositions of the block
matrix and of its square; every non-identity term gets its own measurement
circuit, while identity terms contribute their coefficients exactly.  Both
sums carry their term tables (``PauliSum.measured_arrays``), built once each.

``shots=None`` selects exact (infinite-shot) noiseless expectation values
from the statevector and rejects any noise or mitigation; any positive
integer selects sampled estimation.  Every exact read is one product H psi
on the cached dense matrix of H (``_exact_moments``): <H> = psi . H psi,
<H^2> = ||H psi||^2 and sigma^2 = ||H psi - <H> psi||^2, the squared
eigen-residual, which cannot go negative or lose digits to the
cancellation of <H^2> - <H>^2.  The read takes one state or a batch, with
the same arithmetic on every row.  Exact mode measures no term, so its
results carry no per-term means.

``estimate`` reads one point, or a batch of points with one seed per
point; a single point is the batch of one.  In sampled mode one call
prepares every point's state at once into one table of ideal per-basis
distributions; each CNOT fold mixes in its noise and gives one outcome
distribution per term and point.  Only the folded circuit's CNOT count is
read, and ``fold_cnots`` builds each fold once per circuit.  Each point has
its own stream, ``default_rng(seed)``, which draws that point's calibration
columns, then fold by fold each term's shots into one preallocated count
array; the readout correction and the extrapolation then serve every point
in one call each, every point with the arithmetic it has alone.  A term's mean
is s . q for its parity signs s (``PauliSum.measured_signs``) and q = A^-1 f,
the frequencies f corrected by the readout calibration A (A = I without
one).  As a weighted count w . f with w = A^-T s, its first-order variance is

    (sum w^2 f - mean^2) / shots + sum_j q_j^2 (sum_i w_i^2 A_ij - 1) / cal_shots,

where the second part is the noise of each calibrated column j
(Maciejewski, Zimboras & Oszmaniec, Quantum 4, 257, 2020).  A term with
every shot on one sign gets at least the Agresti-Coull variance
4 p (1 - p) / (shots + 4), p = 2 / (shots + 4), instead of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, _check_int, _single_point, fold_cnots, run
from .mitigation import Mitigation, _stacked, calibrate, cnot_extrapolate, mitigate_counts
from .pauli import PauliString, PauliSum
from .simulator import (
    NOISELESS,
    NoiseModel,
    _basis_table,
    _check_seed,
    _noisy_rows,
    _rng,
    measure_term,
)

__all__ = ["EstimationResult", "estimate"]

SQUARE_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class EstimationResult:
    """<H>, <H^2> and sigma^2 with standard errors.  ``per_term`` holds the
    measured terms' (string, mean, stderr); it is empty in exact mode and
    when no term is measured."""

    energy: float
    energy_stderr: float
    h_squared: float
    h_squared_stderr: float
    variance: float
    variance_stderr: float
    per_term: tuple[tuple[PauliString, float, float], ...]
    shots: int | None


def _verify_problem(circuit: Circuit, h: PauliSum, h2: PauliSum) -> None:
    """Reject sums on another register than the circuit's, and an ``h2``
    that is not the square of ``h``."""
    if h.num_qubits != circuit.num_qubits or h2.num_qubits != circuit.num_qubits:
        raise ValueError("Hamiltonian and circuit qubit counts differ")
    square, scale = h._square
    error = np.abs(h2.matrix - square).max()
    if not error <= SQUARE_CHECK_TOL * max(1.0, scale):  # also rejects NaN
        raise ValueError(f"h2 is not the square of h: dense matrices differ by {error:.3g}")


def _exact_moments(amps: np.ndarray, h: PauliSum):
    """(<H>, <H^2>, sigma^2) of unit states with amplitudes of shape
    (..., 2^n), each of shape (...), from one product H psi: psi . H psi,
    ||H psi||^2 and the squared eigen-residual ||H psi - <H> psi||^2.

    Every row goes through the same arithmetic whatever the batch size (an
    einsum and products summed over the last axis; a matmul switches from
    gemv to gemm and rounds differently), so a state read alone equals its
    row of a batch bit for bit."""
    h_amps = np.einsum("ij,...j->...i", h.matrix, amps)
    energy = (amps.conj() * h_amps).sum(-1).real
    residual = h_amps - energy[..., None] * amps
    h_squared = (h_amps.conj() * h_amps).sum(-1).real
    return energy, h_squared, (residual.conj() * residual).sum(-1).real


def _reject_noise_in_exact_mode(noise: NoiseModel, mitigation: Mitigation) -> None:
    if noise != NOISELESS or mitigation.readout or mitigation.cnot:
        raise ValueError("exact mode (shots=None) models no noise and applies no mitigation")


def _term_estimates(counts: np.ndarray, signs: np.ndarray, cal):
    """Means and standard errors of T terms from their counts, of shape
    (..., T, 2^n), and parity signs, of shape (T, 2^n), by the
    weighted-count formula of the module docstring.  ``cal`` is None, one
    ``ConfusionMatrix``, or a sequence of one per row along the first axis
    of ``counts``; every row keeps the arithmetic it has alone."""
    shots = counts.sum(axis=-1)
    if cal is None:
        q, w2, cal_var = counts / shots[..., None], signs**2, 0.0
    else:
        q = mitigate_counts(counts, cal)
        matrix, cal_shots = _stacked(cal, counts, counts.ndim - 2)
        w2 = np.linalg.solve(matrix.swapaxes(-1, -2), signs.T).swapaxes(-1, -2) ** 2
        # w . A_j = s_j = +-1, so each column's own term is w^2 . A_j - 1
        cal_var = (q**2 * (w2 @ matrix - 1.0)).sum(axis=-1) / cal_shots
    mean = (signs * q).sum(axis=-1)
    var = ((w2 * counts).sum(axis=-1) / shots - mean**2) / shots + cal_var
    one_sign = np.abs((signs * counts).sum(axis=-1)) == shots
    if one_sign.any():  # the Agresti-Coull floor of the module docstring
        p = 2.0 / (shots + 4.0)
        var = np.where(one_sign, np.maximum(var, 4.0 * p * (1.0 - p) / (shots + 4.0)), var)
    return mean, np.sqrt(np.maximum(var, 0.0))


def _combine(const: float, betas: np.ndarray, means: np.ndarray, stderrs: np.ndarray):
    if not len(betas):
        return const, 0.0
    return const + float(betas @ means), math.sqrt((betas**2 * stderrs**2).sum())


def _sampled_term_means(circuit, points, all_strings, signs, shots, noise, mitigation, rngs):
    """Means and standard errors of every measured term, readout-corrected
    and CNOT-extrapolated as ``mitigation`` asks: each of shape (T,) for one
    point of shape (k,), (B, T) for points of shape (B, k).  Point b draws
    from its own stream ``rngs[b]`` in the order one point alone does; the
    states, tables, corrections and extrapolation serve every point at once,
    each point with the arithmetic it has alone."""
    folds = mitigation.folds if mitigation.cnot else (1,)
    cals = None
    if mitigation.readout:
        cal_shots = shots if mitigation.calibration_shots is None else mitigation.calibration_shots
        cals = [calibrate(circuit.num_qubits, noise, cal_shots, rng) for rng in rngs]

    # odd folds prepare the same amplitudes, so one state per point and one
    # basis table serve every fold; the folded circuit only gives its CNOT count
    table, index = _basis_table(run(circuit, points), all_strings)
    counts = np.empty((len(rngs), len(folds), *signs.shape), dtype=np.int64)
    for f, fold in enumerate(folds):
        rows = _noisy_rows(table, index, fold_cnots(circuit, fold).num_cnots, noise)
        rows = rows.reshape(len(rngs), *signs.shape)
        for b, rng in enumerate(rngs):
            for t, row in enumerate(rows[b]):
                counts[b, f, t] = measure_term(row, shots, rng)
    # one point's counts lose the point axis, as the point's arrays have none
    counts = counts.reshape(*points.shape[:-1], *counts.shape[1:])
    means, stderrs = _term_estimates(counts, signs, cals)  # each (..., folds, terms)
    if len(folds) > 1:
        return cnot_extrapolate(zip(folds, means.swapaxes(0, -2), stderrs.swapaxes(0, -2)))
    return means[..., 0, :], stderrs[..., 0, :]


def _points(circuit: Circuit, parameters, seed) -> tuple[np.ndarray, list]:
    """The point of shape (k,) and its seed, or with a list or tuple of B
    seeds the points of shape (B, k) and their seeds.  A batch with any
    other seed is taken for one point, and rejected as one."""
    if not isinstance(seed, (list, tuple)):
        return _single_point(circuit, parameters), [seed]
    points = np.asarray(parameters, dtype=float)
    k = circuit.num_parameters
    if points.shape != (len(seed), k) or not seed:
        raise ValueError(
            f"expected one point of {k} parameters per seed, {len(seed)} in all, "
            f"got shape {points.shape}"
        )
    return points, list(seed)


def estimate(
    circuit: Circuit,
    parameters,
    h: PauliSum,
    h2: PauliSum,
    shots: int | None = None,
    noise: NoiseModel = NOISELESS,
    mitigation: Mitigation | None = None,
    seed=0,
) -> EstimationResult | list[EstimationResult]:
    """Estimate <H>, <H^2> and the variance at one parameter point, or at
    each point of a batch.

    ``parameters`` of shape (k,) with one seed returns one
    ``EstimationResult``.  Shape (B, k) with ``seed`` a list or tuple of B
    seeds returns B results in order, each equal bit for bit to the single
    call at its point with its seed; a batch with any other seed is rejected
    before a state is prepared.  One call checks the problem and prepares
    the states once for the whole batch, a sampled call their tables too;
    each point keeps its own stream, calibration and draws.

    ``h2`` must be the operator square of ``h``; their dense matrices are
    compared on every call.  Exact variances are squared norms, never
    negative; sampled ones may come out slightly negative because <H> and
    <H^2> are estimated from independent shot batches.
    """
    mitigation = mitigation or Mitigation()
    _verify_problem(circuit, h, h2)
    points, seeds = _points(circuit, parameters, seed)

    if shots is None:
        _reject_noise_in_exact_mode(noise, mitigation)
        for s in seeds:
            _check_seed(s)  # the sampled path's rule, though nothing is drawn
        # (energy, <H^2>, variance) of each point as Python floats
        moments = np.array(_exact_moments(run(circuit, points).amplitudes, h)).T.reshape(-1, 3)
        results = [
            EstimationResult(energy, 0.0, h_sq, 0.0, variance, 0.0, (), None)
            for energy, h_sq, variance in moments.tolist()
        ]
        return results if points.ndim == 2 else results[0]

    _check_int(shots)
    rngs = [_rng(s) for s in seeds]  # every seed checked before a state is prepared
    const_h, betas_h, strings_h = h.measured_arrays
    const_2, betas_2, strings_2 = h2.measured_arrays
    all_strings = strings_h + strings_2
    signs = np.concatenate([h.measured_signs, h2.measured_signs])
    split = len(strings_h)
    means, stderrs = _sampled_term_means(
        circuit, points, all_strings, signs, shots, noise, mitigation, rngs
    )
    means, stderrs = ([means], [stderrs]) if points.ndim == 1 else (means, stderrs)
    results = []
    for m, e in zip(means, stderrs):
        energy, energy_stderr = _combine(const_h, betas_h, m[:split], e[:split])
        h_sq, h_sq_stderr = _combine(const_2, betas_2, m[split:], e[split:])
        results.append(EstimationResult(
            energy=energy,
            energy_stderr=energy_stderr,
            h_squared=h_sq,
            h_squared_stderr=h_sq_stderr,
            variance=h_sq - energy**2,
            variance_stderr=math.sqrt(h_sq_stderr**2 + 4.0 * energy**2 * energy_stderr**2),
            per_term=tuple(zip(all_strings, m.tolist(), e.tolist())),
            shots=shots,
        ))
    return results if points.ndim == 2 else results[0]
