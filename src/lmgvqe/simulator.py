"""Shot-based measurement of Pauli strings with optional noise.

One measurement circuit per Pauli term: the ansatz circuit is followed by a
basis-change rotation on every qubit where the term acts with X or Y, then
all qubits are read out in the computational basis.  The noisy outcome
distribution is computed exactly and sampled with a single multinomial
draw.  Each CNOT is followed, with probability ``cnot_depolarizing``, by a
uniformly random non-identity two-qubit Pauli; on the supported registers
(at most two qubits) this is global depolarizing, so after k CNOTs the
ideal distribution p becomes lambda^k p + (1 - lambda^k) / 2^n with
lambda = 1 - 16 p_cnot / 15.  Readout flips each bit independently, which
multiplies the distribution by the Kronecker product of the per-qubit 2x2
confusion matrices.

Counts are integer arrays of length 2^n: entry b counts the bitstring
``format(b, "0{n}b")``, whose character q is qubit q.  Distributions,
quasi-probabilities and parity signs use the same index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuits import Circuit, apply_single_qubit, ry_matrix, run
from .pauli import PauliString

__all__ = [
    "NoiseModel",
    "measure_term",
    "parity_signs",
]

# maps the +1 eigenbasis of X (resp. Y) onto the computational basis
_X_BASIS_CHANGE = ry_matrix(-np.pi / 2.0)
_Y_BASIS_CHANGE = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2.0)  # RX(pi/2)


@dataclass(frozen=True)
class NoiseModel:
    """Readout bit-flip and per-CNOT depolarizing probabilities."""

    readout_p01: float = 0.0  # P(read 1 | true 0)
    readout_p10: float = 0.0  # P(read 0 | true 1)
    cnot_depolarizing: float = 0.0

    def __post_init__(self):
        for name in ("readout_p01", "readout_p10"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {p}")
        if self.readout_p01 + self.readout_p10 >= 1.0:
            # the confusion matrix is then singular (= 1) or inverted (> 1)
            raise ValueError(
                f"readout_p01 + readout_p10 must be below 1, got "
                f"{self.readout_p01} + {self.readout_p10}"
            )
        if not 0.0 <= self.cnot_depolarizing < 0.5:
            raise ValueError(f"cnot_depolarizing must lie in [0, 0.5), got {self.cnot_depolarizing}")

    @property
    def has_readout_error(self) -> bool:
        return self.readout_p01 > 0.0 or self.readout_p10 > 0.0

    @property
    def is_noiseless(self) -> bool:
        return not self.has_readout_error and self.cnot_depolarizing == 0.0

    def readout_only(self) -> "NoiseModel":
        return NoiseModel(self.readout_p01, self.readout_p10, 0.0)


NOISELESS = NoiseModel()

# default synthetic noise for demonstration runs; real-device parameters are
# not published, these give 20k-shot error bars of the same order
DEFAULT_SYNTHETIC_NOISE = NoiseModel(readout_p01=0.02, readout_p10=0.02, cnot_depolarizing=0.01)


def _outcome_distribution(
    circuit: Circuit, parameters, term: PauliString, noise: NoiseModel
) -> np.ndarray:
    """Exact distribution of read outcomes for the measurement circuit of a term.

    The closed-form CNOT channel (module docstring) needs every CNOT to touch
    the whole register, so it commutes with every later gate.
    """
    n = circuit.num_qubits
    amps = run(circuit, parameters).amplitudes
    for q, label in enumerate(term.labels):
        if label == "X":
            amps = apply_single_qubit(amps, n, q, _X_BASIS_CHANGE)
        elif label == "Y":
            amps = apply_single_qubit(amps, n, q, _Y_BASIS_CHANGE)
    p = np.abs(amps) ** 2
    p /= p.sum()
    k = circuit.num_cnots
    if noise.cnot_depolarizing > 0.0 and k:
        if n > 2:
            raise ValueError(
                f"CNOT noise is only modelled on registers of at most 2 qubits, got {n}"
            )
        survival = (1.0 - 16.0 * noise.cnot_depolarizing / 15.0) ** k
        p = survival * p + (1.0 - survival) / p.size
    if noise.has_readout_error:
        p01, p10 = noise.readout_p01, noise.readout_p10
        confusion = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
        p = reduce(np.kron, [confusion] * n) @ p
    return p


def measure_term(
    circuit: Circuit,
    parameters,
    term: PauliString,
    shots: int,
    noise: NoiseModel = NOISELESS,
    seed=0,
) -> np.ndarray:
    """Counts of ``shots`` readouts of the measurement circuit of one term.

    One multinomial draw from the exact noisy outcome distribution, so the
    counts are deterministic for a fixed seed.  Raises ValueError when CNOT
    noise is set on a circuit with CNOTs and more than two qubits, where the
    closed-form channel does not hold.
    """
    if term.num_qubits != circuit.num_qubits:
        raise ValueError(
            f"term acts on {term.num_qubits} qubits but circuit has {circuit.num_qubits}"
        )
    if shots < 1:
        raise ValueError("shots must be positive")
    dist = _outcome_distribution(circuit, tuple(parameters), term, noise)
    # seed may be an int or a SeedSequence, so callers can derive per-term streams
    return np.random.default_rng(seed).multinomial(shots, dist)


def parity_signs(term: PauliString) -> np.ndarray:
    """Eigenvalue of ``term`` on each outcome: +1 for even parity on the
    non-identity positions of the term, -1 for odd."""
    n = term.num_qubits
    mask = sum(1 << (n - 1 - q) for q, label in enumerate(term.labels) if label != "I")
    return np.array([-1.0 if bin(b & mask).count("1") & 1 else 1.0 for b in range(2**n)])


def _checked_counts(counts, num_qubits: int) -> np.ndarray:
    """Counts of shape (..., 2^n) with no negative entry and no empty row."""
    counts = np.asarray(counts)
    if counts.shape[-1:] != (2**num_qubits,):
        raise ValueError(f"counts of shape {counts.shape} do not cover {num_qubits} qubits")
    if np.any(counts < 0) or np.any(counts.sum(axis=-1) <= 0):
        raise ValueError("counts must be non-negative with a positive total")
    return counts
