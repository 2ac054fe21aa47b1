"""Energy, <H^2> and variance estimation from per-term measurements.

The optimization objective is the Hamiltonian variance

    sigma^2 = <H^2> - <H>^2,

which is non-negative and vanishes exactly on eigenstates.  <H> and <H^2>
are assembled term by term from the Pauli decompositions of the block matrix
and of its square; every non-identity term gets its own measurement circuit,
while identity terms contribute their coefficients exactly.  Both sums
carry their term tables (``PauliSum.measured_arrays``), built once each.

``shots=None`` selects exact (infinite-shot) noiseless expectation values
from the statevector and rejects any noise or mitigation; any positive
integer selects sampled estimation.  In exact mode each term mean is
<psi|P|psi>.  ``_exact_objective`` gives the optimizer <H> and <H^2> by the
same functions without building a result, and checks the problem once per
objective rather than once per evaluation.

In sampled mode each CNOT fold prepares its state once into a table of
outcome distributions (``outcome_distributions``), from which every term
draws its own seeded shots.  A term's mean is s . q for its parity signs s
(``PauliSum.measured_signs``) and q = A^-1 f, the frequencies f corrected
by the readout calibration A (A = I without one).  As a weighted count
w . f with w = A^-T s, its first-order variance is

    (sum w^2 f - mean^2) / shots + sum_j q_j^2 (sum_i w_i^2 A_ij - 1) / cal_shots,

where the second part is the noise of each calibrated column j
(Maciejewski, Zimboras & Oszmaniec, Quantum 4, 257, 2020).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit, Statevector, fold_cnots, run
from .mitigation import ConfusionMatrix, Mitigation, calibrate, cnot_extrapolate, mitigate_counts
from .pauli import PauliString, PauliSum, parity_signs
from .simulator import NOISELESS, NoiseModel, _checked_counts, measure_term, outcome_distributions

__all__ = ["EstimationResult", "expectation_exact", "expectation_from_counts", "estimate"]

SQUARE_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class EstimationResult:
    """<H>, <H^2> and sigma^2 with standard errors and per-term detail."""

    energy: float
    energy_stderr: float
    h_squared: float
    h_squared_stderr: float
    variance: float
    variance_stderr: float
    per_term: tuple[tuple[PauliString, float, float], ...]
    shots: int | None
    mitigation_applied: Mitigation = field(default_factory=Mitigation)


def _verify_problem(circuit: Circuit, h: PauliSum, h2: PauliSum) -> None:
    """Reject sums on another register than the circuit's, and an ``h2``
    that is not the square of ``h``."""
    if h.num_qubits != circuit.num_qubits or h2.num_qubits != circuit.num_qubits:
        raise ValueError("Hamiltonian and circuit qubit counts differ")
    square = h.matrix @ h.matrix
    error = np.abs(h2.matrix - square).max()
    if not error <= SQUARE_CHECK_TOL * max(1.0, np.abs(square).max()):  # also rejects NaN
        raise ValueError(f"h2 is not the square of h: dense matrices differ by {error:.3g}")


def expectation_exact(state: Statevector, observable: PauliSum) -> float:
    """<psi|O|psi> from the amplitudes, exact to machine precision."""
    amps = state.amplitudes
    if observable.num_qubits != state.num_qubits:
        raise ValueError(
            f"observable acts on {observable.num_qubits} qubits, state has {state.num_qubits}"
        )
    return float(np.vdot(amps, observable.matrix @ amps).real)


def _reject_noise_in_exact_mode(noise: NoiseModel, mitigation: Mitigation) -> None:
    if noise != NOISELESS or mitigation.readout or mitigation.cnot:
        raise ValueError("exact mode (shots=None) models no noise and applies no mitigation")


def _exact_term_means(state: Statevector, psum: PauliSum) -> np.ndarray:
    _, _, strings, stack = psum.measured_arrays
    if len(strings) == 0:
        return np.zeros(0)
    amps = state.amplitudes
    return np.einsum("i,tij,j->t", amps.conj(), stack, amps).real


def _exact_means(circuit: Circuit, parameters, h: PauliSum, h2: PauliSum):
    """Exact term means of ``h`` and of ``h2``, one array per sum:
    betas @ means over a slice of one joined array can differ in the last
    bit."""
    state = run(circuit, parameters)
    return _exact_term_means(state, h), _exact_term_means(state, h2)


def _exact_objective(circuit: Circuit, h: PauliSum, h2: PauliSum):
    """``parameters -> (<H>, <H^2>)`` in exact mode, equal bit for bit to
    ``estimate``'s energy and h_squared.  The problem is checked here, once."""
    _verify_problem(circuit, h, h2)
    const_h, betas_h, _, _ = h.measured_arrays
    const_2, betas_2, _, _ = h2.measured_arrays

    def moments(parameters) -> tuple[float, float]:
        means_h, means_2 = _exact_means(circuit, parameters, h, h2)
        return _weighted(const_h, betas_h, means_h), _weighted(const_2, betas_2, means_2)

    return moments


def _term_estimates(counts: np.ndarray, signs: np.ndarray, cal: ConfusionMatrix | None):
    """Means and standard errors of T terms from their counts, of shape
    (..., T, 2^n), and parity signs, of shape (T, 2^n), by the
    weighted-count formula of the module docstring."""
    shots = counts.sum(axis=-1)
    if cal is None:
        q, w, cal_var = counts / shots[..., None], signs, 0.0
    else:
        q = mitigate_counts(counts, cal)
        w = np.linalg.solve(cal.matrix.T, signs.T).T
        # w . A_j = s_j = +-1, so each column's own term is w^2 . A_j - 1
        cal_var = (q**2 * (w**2 @ cal.matrix - 1.0)).sum(axis=-1) / cal.shots_per_column
    mean = (signs * q).sum(axis=-1)
    var = ((w**2 * counts).sum(axis=-1) / shots - mean**2) / shots + cal_var
    return mean, np.sqrt(np.maximum(var, 0.0))


def expectation_from_counts(
    counts, term: PauliString, cal: ConfusionMatrix | None = None
) -> tuple[float, float]:
    """Estimate <term> and its standard error from one count vector, with
    readout mitigation when a calibration is given."""
    counts = _checked_counts(counts, term.num_qubits)
    if counts.ndim != 1:
        raise ValueError(f"expected one count vector, got shape {counts.shape}")
    if term.is_identity:
        return 1.0, 0.0
    mean, stderr = _term_estimates(counts[None], parity_signs(term)[None], cal)
    return float(mean[0]), float(stderr[0])


def _weighted(const: float, betas: np.ndarray, means: np.ndarray) -> float:
    return const + float(betas @ means) if len(betas) else const


def _combine(const: float, betas: np.ndarray, means: np.ndarray, stderrs: np.ndarray):
    stderr = float(np.sqrt(np.sum(betas**2 * stderrs**2))) if len(betas) else 0.0
    return _weighted(const, betas, means), stderr


def _sampled_term_means(circuit, parameters, all_strings, signs, shots, noise, mitigation, seed):
    """Means and standard errors of every measured term from seeded shots,
    readout-corrected and CNOT-extrapolated as ``mitigation`` asks."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    folds = mitigation.folds if mitigation.cnot else (1,)
    n_streams = (1 if mitigation.readout else 0) + len(folds) * len(all_strings)
    streams = iter(ss.spawn(n_streams))
    cal = None
    if mitigation.readout:
        cal_shots = mitigation.calibration_shots or shots
        cal = calibrate(circuit.num_qubits, noise, cal_shots, next(streams))

    counts = []
    for fold in folds:
        table = outcome_distributions(fold_cnots(circuit, fold), parameters, all_strings, noise)
        counts.append([measure_term(row, shots, next(streams)) for row in table])
    counts = np.array(counts).reshape(len(folds), *signs.shape)
    means, stderrs = _term_estimates(counts, signs, cal)  # each (folds, terms)
    if len(folds) > 1:
        return cnot_extrapolate(zip(folds, means, stderrs))
    return means[0], stderrs[0]


def estimate(
    circuit: Circuit,
    parameters,
    h: PauliSum,
    h2: PauliSum,
    shots: int | None = None,
    noise: NoiseModel = NOISELESS,
    mitigation: Mitigation | None = None,
    seed=0,
) -> EstimationResult:
    """Estimate <H>, <H^2> and the variance at one parameter point.

    ``h2`` must be the operator square of ``h``; their dense matrices are
    compared on every call.  Sampled variances may come out slightly
    negative because <H> and <H^2> are estimated from independent shot
    batches.
    """
    mitigation = mitigation or Mitigation()
    _verify_problem(circuit, h, h2)
    parameters = tuple(float(p) for p in parameters)

    const_h, betas_h, strings_h, _ = h.measured_arrays
    const_2, betas_2, strings_2, _ = h2.measured_arrays
    all_strings = strings_h + strings_2
    if shots is None:
        _reject_noise_in_exact_mode(noise, mitigation)
        means_h, means_2 = _exact_means(circuit, parameters, h, h2)
        stderrs_h, stderrs_2 = np.zeros_like(means_h), np.zeros_like(means_2)
    elif shots < 1:
        raise ValueError("shots must be positive (or None for exact mode)")
    else:
        signs = np.concatenate([h.measured_signs, h2.measured_signs])
        means, stderrs = _sampled_term_means(
            circuit, parameters, all_strings, signs, shots, noise, mitigation, seed
        )
        means_h, means_2 = np.split(means, [len(strings_h)])
        stderrs_h, stderrs_2 = np.split(stderrs, [len(strings_h)])
    energy, energy_stderr = _combine(const_h, betas_h, means_h, stderrs_h)
    h_sq, h_sq_stderr = _combine(const_2, betas_2, means_2, stderrs_2)
    per_term = zip(
        all_strings, means_h.tolist() + means_2.tolist(), stderrs_h.tolist() + stderrs_2.tolist()
    )
    return EstimationResult(
        energy=energy,
        energy_stderr=energy_stderr,
        h_squared=h_sq,
        h_squared_stderr=h_sq_stderr,
        variance=h_sq - energy**2,
        variance_stderr=float(np.sqrt(h_sq_stderr**2 + 4.0 * energy**2 * energy_stderr**2)),
        per_term=tuple(per_term),
        shots=shots,
        mitigation_applied=mitigation,
    )
