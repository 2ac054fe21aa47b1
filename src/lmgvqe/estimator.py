"""Energy, <H^2> and variance estimation from per-term measurements.

The optimization objective is the Hamiltonian variance

    sigma^2 = <H^2> - <H>^2,

which is non-negative and vanishes exactly on eigenstates.  <H> and <H^2>
are assembled term by term from the Pauli decompositions of the block matrix
and of its square; every non-identity term gets its own measurement circuit,
while identity terms contribute their coefficients exactly.

``shots=None`` selects exact (infinite-shot) expectation values from the
statevector; any positive integer selects sampled estimation.  A term's
mean is s . q for its parity signs s and q = A^-1 f, the frequencies f
corrected by the readout calibration A (A = I without one).  As a weighted
count w . f with w = A^-T s, its first-order variance is

    (sum w^2 f - mean^2) / shots + sum_j q_j^2 (sum_i w_i^2 A_ij - 1) / cal_shots,

where the second part is the noise of each calibrated column j
(Maciejewski, Zimboras & Oszmaniec, Quantum 4, 257, 2020).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Statevector, fold_cnots, run
from .mitigation import ConfusionMatrix, Mitigation, calibrate, cnot_extrapolate, mitigate_counts
from .pauli import PauliString, PauliSum, _dense, multiply, string_matrix
from .simulator import NOISELESS, NoiseModel, _checked_counts, measure_term, parity_signs

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


@lru_cache(maxsize=64)
def _term_arrays(psum: PauliSum):
    """Identity offset, measured-term coefficients and stacked term matrices."""
    const = float(psum.identity_coefficient)
    measured = psum.measured_terms
    betas = np.array([c for c, _ in measured], dtype=float)
    strings = tuple(s for _, s in measured)
    stack = (
        np.stack([string_matrix(s) for s in strings])
        if strings
        else np.zeros((0, 2**psum.num_qubits, 2**psum.num_qubits), dtype=complex)
    )
    return const, betas, strings, stack


@lru_cache(maxsize=64)
def _verify_square_pair(h: PauliSum, h2: PauliSum) -> bool:
    product = multiply(h, h)
    by_string = {s: c for c, s in product.terms}
    for coeff, string in h2.terms:
        ref = by_string.pop(string, 0.0)
        if abs(coeff - ref) > SQUARE_CHECK_TOL * max(1.0, abs(ref)):
            raise ValueError(f"h2 is not the square of h: term {string} is {coeff}, expected {ref}")
    for string, ref in by_string.items():
        if abs(ref) > SQUARE_CHECK_TOL:
            raise ValueError(f"h2 is not the square of h: missing term {string} = {ref}")
    return True


def expectation_exact(state: Statevector, observable: PauliSum) -> float:
    """<psi|O|psi> from the amplitudes, exact to machine precision."""
    amps = state.amplitudes
    if observable.num_qubits != state.num_qubits:
        raise ValueError(
            f"observable acts on {observable.num_qubits} qubits, state has {state.num_qubits}"
        )
    return float(np.vdot(amps, _dense(observable) @ amps).real)


def _exact_term_means(state: Statevector, psum: PauliSum):
    const, betas, strings, stack = _term_arrays(psum)
    amps = state.amplitudes
    if len(strings) == 0:
        return const, betas, strings, np.zeros(0)
    means = np.einsum("i,tij,j->t", amps.conj(), stack, amps).real
    return const, betas, strings, means


def _term_estimates(counts: np.ndarray, signs: np.ndarray, cal: ConfusionMatrix | None):
    """Means and standard errors of T terms from their counts and parity
    signs, both of shape (T, 2^n), by the weighted-count formula of the
    module docstring."""
    shots = counts.sum(axis=-1)
    if cal is None:
        q, w, cal_var = counts / shots[:, None], signs, 0.0
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


def _combine(const: float, betas: np.ndarray, means: np.ndarray, stderrs: np.ndarray):
    value = const + float(betas @ means) if len(betas) else const
    stderr = float(np.sqrt(np.sum(betas**2 * stderrs**2))) if len(betas) else 0.0
    return value, stderr


def _assemble(energy, energy_stderr, h_sq, h_sq_stderr, per_term, shots, mitigation):
    variance = h_sq - energy**2
    variance_stderr = float(np.sqrt(h_sq_stderr**2 + 4.0 * energy**2 * energy_stderr**2))
    return EstimationResult(
        energy=energy,
        energy_stderr=energy_stderr,
        h_squared=h_sq,
        h_squared_stderr=h_sq_stderr,
        variance=variance,
        variance_stderr=variance_stderr,
        per_term=tuple(per_term),
        shots=shots,
        mitigation_applied=mitigation,
    )


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

    ``h2`` must be the operator square of ``h``; this is verified once per
    (h, h2) pair against the symbolic Pauli product.  Sampled variances may
    come out slightly negative because <H> and <H^2> are estimated from
    independent shot batches.
    """
    mitigation = mitigation or Mitigation()
    if h.num_qubits != circuit.num_qubits or h2.num_qubits != circuit.num_qubits:
        raise ValueError("Hamiltonian and circuit qubit counts differ")
    _verify_square_pair(h, h2)
    parameters = tuple(float(p) for p in parameters)

    if shots is None:
        state = run(circuit, parameters)
        const_h, betas_h, strings_h, means_h = _exact_term_means(state, h)
        const_2, betas_2, strings_2, means_2 = _exact_term_means(state, h2)
        energy, _ = _combine(const_h, betas_h, means_h, np.zeros_like(means_h))
        h_sq, _ = _combine(const_2, betas_2, means_2, np.zeros_like(means_2))
        per_term = [(s, float(m), 0.0) for s, m in zip(strings_h, means_h)]
        per_term += [(s, float(m), 0.0) for s, m in zip(strings_2, means_2)]
        return _assemble(energy, 0.0, h_sq, 0.0, per_term, None, mitigation)

    if shots < 1:
        raise ValueError("shots must be positive (or None for exact mode)")

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    folds = mitigation.folds if mitigation.cnot else (1,)
    terms_h = h.measured_terms
    terms_2 = h2.measured_terms
    all_strings = [s for _, s in terms_h] + [s for _, s in terms_2]

    n_streams = (1 if mitigation.readout else 0) + len(folds) * len(all_strings)
    streams = iter(ss.spawn(n_streams))
    cal = None
    if mitigation.readout:
        cal_shots = mitigation.calibration_shots or shots
        cal = calibrate(circuit.num_qubits, noise, cal_shots, next(streams))

    # reshape keeps the (terms, outcomes) shape when no term is measured
    signs = np.array([parity_signs(s) for s in all_strings]).reshape(-1, 2**circuit.num_qubits)
    by_fold = []
    for fold in folds:
        folded = fold_cnots(circuit, fold)
        counts = np.array([
            measure_term(folded, parameters, string, shots, noise, next(streams))
            for string in all_strings
        ]).reshape(signs.shape)
        by_fold.append(_term_estimates(counts, signs, cal))
    means, stderrs = np.array(by_fold).transpose(1, 0, 2)  # each (folds, terms)
    if len(folds) > 1:
        combined = [cnot_extrapolate(zip(folds, m, e)) for m, e in zip(means.T, stderrs.T)]
        # contiguous copies keep the summation order of betas @ means in _combine
        means, stderrs = np.array(combined).reshape(-1, 2).T.copy()
    else:
        means, stderrs = means[0], stderrs[0]

    split = len(terms_h)
    energy, energy_stderr = _combine(
        float(h.identity_coefficient),
        np.array([c for c, _ in terms_h], dtype=float),
        means[:split],
        stderrs[:split],
    )
    h_sq, h_sq_stderr = _combine(
        float(h2.identity_coefficient),
        np.array([c for c, _ in terms_2], dtype=float),
        means[split:],
        stderrs[split:],
    )
    per_term = [(s, float(m), float(e)) for s, m, e in zip(all_strings, means, stderrs)]
    return _assemble(energy, energy_stderr, h_sq, h_sq_stderr, per_term, shots, mitigation)
