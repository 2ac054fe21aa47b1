"""Shot-based measurement of Pauli strings with optional noise.

Each Pauli term is measured with its own circuit: the ansatz circuit is
followed by a basis-change rotation on every qubit where the term acts with
X or Y, then all qubits are read out in the computational basis.
``outcome_distributions`` computes the exact noisy outcome distribution of
every term's measurement circuit as one table: the ansatz state is prepared
once and rotated once per distinct basis.  ``measure_term`` samples one row
with a single multinomial draw, so every term still gets its own seeded
shots.  Each CNOT is followed, with probability ``cnot_depolarizing``, by a
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

__all__ = [
    "NoiseModel",
    "measure_term",
    "outcome_distributions",
]

# maps the +1 eigenbasis of X (resp. Y) onto the computational basis
_X_BASIS_CHANGE = ry_matrix(-np.pi / 2.0)
_Y_BASIS_CHANGE = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2.0)  # RX(pi/2)
_BASIS_CHANGES = {"X": _X_BASIS_CHANGE, "Y": _Y_BASIS_CHANGE}


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


NOISELESS = NoiseModel()

# default synthetic noise for demonstration runs; real-device parameters are
# not published, these give 20k-shot error bars of the same order
DEFAULT_SYNTHETIC_NOISE = NoiseModel(readout_p01=0.02, readout_p10=0.02, cnot_depolarizing=0.01)


def _readout_matrix(noise: NoiseModel, num_qubits: int) -> np.ndarray:
    """Kron product of the 2x2 confusion matrices: P(read i | outcome j) at (i, j)."""
    p01, p10 = noise.readout_p01, noise.readout_p10
    confusion = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
    return reduce(np.kron, [confusion] * num_qubits)


def outcome_distributions(
    circuit: Circuit, parameters, terms, noise: NoiseModel = NOISELESS
) -> np.ndarray:
    """Exact read-outcome distribution of each term's measurement circuit,
    shape (len(terms), 2^n).  The state is prepared once and rotated once
    per distinct basis (the X/Y positions of a term).  The closed-form CNOT
    channel (module docstring) needs every CNOT to touch the whole register,
    so it commutes with every later gate."""
    n = circuit.num_qubits
    if any(term.num_qubits != n for term in terms):
        raise ValueError(f"every term must act on the circuit's {n} qubits")
    rows = np.empty((len(terms), 2**n))
    if not len(rows):  # nothing to measure, so no state to prepare
        return rows
    survival = (1.0 - 16.0 * noise.cnot_depolarizing / 15.0) ** circuit.num_cnots
    if survival < 1.0 and n > 2:
        raise ValueError(f"CNOT noise is only modelled on registers of at most 2 qubits, got {n}")
    readout = _readout_matrix(noise, n) if noise.has_readout_error else None
    amps = run(circuit, parameters).amplitudes
    by_basis = {}
    for row, term in zip(rows, terms):
        basis = tuple(label if label in "XY" else "Z" for label in term.labels)
        if basis not in by_basis:
            rotated = amps
            for q, label in enumerate(basis):
                if label != "Z":
                    rotated = apply_single_qubit(rotated, n, q, _BASIS_CHANGES[label])
            p = np.abs(rotated) ** 2
            p /= p.sum()
            p = survival * p + (1.0 - survival) / p.size  # leaves p as is at survival 1
            # one vector at a time: a batched product may round differently
            by_basis[basis] = p if readout is None else readout @ p
        row[:] = by_basis[basis]
    return rows


def measure_term(distribution, shots: int, seed=0) -> np.ndarray:
    """Counts of ``shots`` readouts: one multinomial draw from one outcome
    distribution, deterministic for a fixed ``seed`` (an int or a
    SeedSequence, so callers can derive per-term streams)."""
    if shots < 1:
        raise ValueError("shots must be positive")
    dist = np.asarray(distribution, dtype=float)
    # NaN fails both comparisons, and +inf fails the sum
    if dist.ndim != 1 or not (abs(dist.sum() - 1.0) <= 1e-9 and dist.min() >= 0.0):
        raise ValueError("distribution must be a finite, non-negative vector summing to 1")
    return np.random.default_rng(seed).multinomial(shots, dist)


def _checked_counts(counts, num_qubits: int) -> np.ndarray:
    """Counts of shape (..., 2^n) with no negative entry and no empty row."""
    counts = np.asarray(counts)
    if counts.shape[-1:] != (2**num_qubits,):
        raise ValueError(f"counts of shape {counts.shape} do not cover {num_qubits} qubits")
    if np.any(counts < 0) or np.any(counts.sum(axis=-1) <= 0):
        raise ValueError("counts must be non-negative with a positive total")
    return counts
