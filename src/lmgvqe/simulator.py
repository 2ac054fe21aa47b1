"""Shot-based measurement of Pauli strings with optional noise.

Each Pauli term is measured with its own circuit: the ansatz circuit is
followed by a basis-change rotation on every qubit where the term acts with
X or Y, then all qubits are read out in the computational basis.  The exact
noisy outcome distribution of every term's measurement circuit is one table,
built in two halves: ``_basis_table`` rotates a prepared state into every
distinct basis at once, giving a table of ideal distributions, and
``_noisy_rows`` mixes in the noise of a CNOT count and the readout, then
gathers one row per term.  Both halves also take a leading batch axis, one
table per state.  The estimator prepares the states once per ``estimate``
call and runs the first half once, the second once per CNOT fold.  With no
CNOT noise to mix in (survival 1) the second half reuses the table itself,
and the readout matrix maps each basis row by its own matrix-vector product,
stacked into one call.  ``measure_term`` samples one row with a single
multinomial draw; every draw of an estimate comes from one Generator.

The rotations are compiled once per term tuple (``_basis_program``), as
``Circuit._program`` compiles a circuit: step q applies every row's basis
change on qubit q, or the identity, through the partner vector of a gate on
qubit q and the products and sums of ``apply_single_qubit``.  Addition
commutes and an identity step changes only the sign of zeros, so each row is
bit for bit the state rotated one basis change at a time.

Each CNOT is followed, with probability ``cnot_depolarizing``, by a
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

import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .circuits import Statevector, _check_int, ry_matrix

__all__ = ["NoiseModel", "measure_term"]

# maps the +1 eigenbasis of X (resp. Y) onto the computational basis
_X_BASIS_CHANGE = ry_matrix(-np.pi / 2.0)
_Y_BASIS_CHANGE = np.array([[1, -1j], [-1j, 1]], dtype=complex) / np.sqrt(2.0)  # RX(pi/2)
_BASIS_CHANGES = {"X": _X_BASIS_CHANGE, "Y": _Y_BASIS_CHANGE}
_IDENTITY = np.eye(2, dtype=complex)


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


@lru_cache(maxsize=32)
def _readout_matrix(noise: NoiseModel, num_qubits: int) -> np.ndarray:
    """Kron product of the 2x2 confusion matrices: P(read i | outcome j) at (i, j).
    Built once per noise model and register, so the array is read-only."""
    p01, p10 = noise.readout_p01, noise.readout_p10
    confusion = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
    matrix = reduce(np.kron, [confusion] * num_qubits)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=64)
def _basis_program(terms: tuple, num_qubits: int) -> tuple[tuple, np.ndarray]:
    """The basis-change steps of the distinct measurement bases of ``terms``
    and each term's row among them.  Built once per term tuple; every array
    is read-only.

    Bases are numbered in first-seen order, each one being a term's labels
    with Z read as I.  Step q acts on qubit q, with bit mask m, for every
    row: a ``(keep, mix, partner)`` triple that takes entry b of a row to
    keep[b] a[b] + mix[b] a[partner[b]], with the one partner vector b ^ m
    that ``Circuit._program`` gives a gate on that qubit.  The row's basis
    change U on the qubit (the identity where it has none) gives keep = U00
    and mix = U01 where bit m of b is 0, keep = U11 and mix = U10 where it
    is 1; ``keep`` and ``mix`` have shape (bases, 2^n)."""
    if any(term.num_qubits != num_qubits for term in terms):
        raise ValueError(f"every term must act on the circuit's {num_qubits} qubits")
    row_of: dict[tuple, int] = {}
    index = np.array([
        row_of.setdefault(tuple(l if l in "XY" else "I" for l in t.labels), len(row_of))
        for t in terms
    ], dtype=np.intp)
    b = np.arange(2**num_qubits)
    steps = []
    for q in range(num_qubits):
        # each row's 2x2 change on qubit q; the reshape keeps the shape with no rows
        u = np.array([_BASIS_CHANGES.get(row[q], _IDENTITY) for row in row_of]).reshape(-1, 2, 2)
        mask = 1 << (num_qubits - 1 - q)  # qubit 0 is the most significant bit
        high = (b & mask) != 0
        keep = np.where(high, u[:, 1, 1, None], u[:, 0, 0, None])
        mix = np.where(high, u[:, 1, 0, None], u[:, 0, 1, None])
        steps.append((keep, mix, b ^ mask))
    for array in (index, *(a for step in steps for a in step)):
        array.setflags(write=False)
    return tuple(steps), index


def _basis_table(state: Statevector, terms) -> tuple[np.ndarray, np.ndarray]:
    """Ideal outcome distribution of each distinct measurement basis (the
    X/Y positions of a term), shape (bases, 2^n) for one state and
    (B, bases, 2^n) for a batch, and each term's row in it.  The compiled
    steps of ``_basis_program`` rotate one copy of each state per basis, all
    at once; each row is then |a|^2 normalised."""
    steps, index = _basis_program(tuple(terms), state.num_qubits)
    # products of matching shapes: a broadcast state row costs twice as much
    rotated = state.amplitudes[..., None, :].repeat(len(steps[0][0]), axis=-2)
    for keep, mix, partner in steps:
        rotated = keep * rotated + mix * rotated.take(partner, -1)
    p = np.abs(rotated) ** 2
    return p / p.sum(axis=-1, keepdims=True), index


def _noisy_rows(table: np.ndarray, index: np.ndarray, num_cnots: int, noise: NoiseModel):
    """Rows of ``_basis_table`` after ``num_cnots`` noisy CNOTs and readout,
    one per term: shape (..., terms, 2^n) for a table of shape
    (..., bases, 2^n).  The closed-form CNOT channel (module docstring) needs
    every CNOT to touch the whole register, so it commutes with every later
    gate."""
    survival = (1.0 - 16.0 * noise.cnot_depolarizing / 15.0) ** num_cnots
    n = table.shape[-1].bit_length() - 1
    if survival < 1.0 and n > 2:
        raise ValueError(f"CNOT noise is only modelled on registers of at most 2 qubits, got {n}")
    # at survival 1 the mix is the table itself: its entries are >= 0, so
    # 1 * p + 0 gives p bit for bit
    mixed = table if survival == 1.0 else survival * table + (1.0 - survival) / table.shape[-1]
    if noise.has_readout_error:
        # a stack of matrix-vector products, each the gemv of ``readout @ p``;
        # one matrix-matrix product may round differently
        mixed = (_readout_matrix(noise, n) @ mixed[..., None])[..., 0]
    return mixed.take(index, axis=-2)


def _check_seed(seed) -> None:
    """The library's seed rule: a seed that is a number (bools included)
    must be a non-negative integer; a SeedSequence or Generator passes."""
    if isinstance(seed, numbers.Number):
        _check_int(seed, "seed", minimum=0)


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` under ``_check_seed``'s rule; a
    Generator is returned as is, to be advanced rather than reseeded."""
    if isinstance(seed, np.random.Generator):
        return seed
    _check_seed(seed)
    return np.random.default_rng(seed)


def measure_term(distribution, shots: int, seed=0) -> np.ndarray:
    """Counts of ``shots`` readouts: one multinomial draw from one outcome
    distribution with ``np.random.default_rng(seed)``; an int or SeedSequence
    seed gives a fixed stream, and a Generator is advanced, not reseeded."""
    _check_int(shots)
    dist = np.asarray(distribution, dtype=float)
    # NaN and +-inf fail the sum; the few entries are checked as Python floats
    entries = dist.tolist()
    if dist.ndim != 1 or not (abs(sum(entries) - 1.0) <= 1e-9 and min(entries) >= 0.0):
        raise ValueError("distribution must be a finite, non-negative vector summing to 1")
    return _rng(seed).multinomial(shots, dist)


def _checked_counts(counts, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer counts (bools rejected) of shape (..., 2^n) with no negative
    entry and no empty row, and their row totals."""
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
    if counts.shape[-1:] != (2**num_qubits,):
        raise ValueError(f"counts of shape {counts.shape} do not cover {num_qubits} qubits")
    totals = counts.sum(axis=-1)
    # with no negative entry, a row total is positive unless the row is all zero
    if counts.min(initial=0) < 0 or not totals.all():
        raise ValueError("counts must be non-negative with a positive total")
    return counts, totals
