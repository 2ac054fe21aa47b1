"""Pauli-string algebra and Hermitian-matrix <-> weighted-string encoding.

A Hermitian 2^m x 2^m matrix M expands uniquely over the 4^m tensor products
of {I, X, Y, Z} as M = sum_i beta_i P_i with beta_i = trace(P_i M) / 2^m.

Conventions used throughout the package:

* qubit q of a string is the q-th factor of the tensor product counting from
  the left, i.e. qubit 0 is the most significant bit of the basis index;
* a string prints its non-identity factors with explicit qubit subscripts in
  ascending order ("Z0X1"), or "I" when every factor is the identity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import product

import numpy as np

__all__ = [
    "PAULI_LABELS",
    "PauliString",
    "PauliSum",
    "decompose",
    "multiply",
    "parity_signs",
]

PAULI_LABELS = ("I", "X", "Y", "Z")

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

PRUNE_THRESHOLD = 1e-12
HERMITICITY_TOL = 1e-10

# single-qubit products: (a, b) -> (label of a*b, phase)
_SINGLE_PRODUCTS = {}
for _a in PAULI_LABELS:
    for _b in PAULI_LABELS:
        _m = PAULI_MATRICES[_a] @ PAULI_MATRICES[_b]
        for _c in PAULI_LABELS:
            _overlap = np.trace(PAULI_MATRICES[_c].conj().T @ _m) / 2.0
            if abs(_overlap) > 0.5:
                _SINGLE_PRODUCTS[(_a, _b)] = (_c, complex(_overlap))
                break


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, one label per qubit."""

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("a Pauli string needs at least one qubit")
        for l in self.labels:
            if l not in PAULI_LABELS:
                raise ValueError(f"invalid Pauli label {l!r}")

    @property
    def num_qubits(self) -> int:
        return len(self.labels)

    @property
    def is_identity(self) -> bool:
        return all(l == "I" for l in self.labels)

    def index(self) -> int:
        """Base-4 code of the string with qubit 0 as the leading digit."""
        code = 0
        for l in self.labels:
            code = 4 * code + PAULI_LABELS.index(l)
        return code

    def __str__(self) -> str:
        parts = [f"{l}{q}" for q, l in enumerate(self.labels) if l != "I"]
        return "".join(parts) if parts else "I"


def identity_string(num_qubits: int) -> PauliString:
    return PauliString(("I",) * num_qubits)


def parity_signs(term: PauliString) -> np.ndarray:
    """Eigenvalue of ``term`` on each computational outcome: +1 for even
    parity on the non-identity positions of the term, -1 for odd."""
    n = term.num_qubits
    mask = sum(1 << (n - 1 - q) for q, label in enumerate(term.labels) if label != "I")
    return np.array([-1.0 if bin(b & mask).count("1") & 1 else 1.0 for b in range(2**n)])


@dataclass(frozen=True)
class PauliSum:
    """Weighted sum of Pauli strings on a fixed qubit register.

    Coefficients are real for Hermitian operators; operator products
    (see :func:`multiply`) may carry complex weights.  Derived data (the
    dense matrix, which every exact read of the sum uses, the measured-term
    arrays and their parity signs) is built on first use and kept on the
    instance; equality and hashing still see only the fields.
    """

    terms: tuple[tuple[float | complex, PauliString], ...]
    num_qubits: int

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple((c, s) for c, s in self.terms))
        seen = set()
        for coeff, string in self.terms:
            if string.num_qubits != self.num_qubits:
                raise ValueError("all strings must share num_qubits")
            if string in seen:
                raise ValueError(f"duplicate string {string}")
            seen.add(string)

    @classmethod
    def from_terms(cls, terms, num_qubits: int) -> "PauliSum":
        """Combine duplicates, prune near-zero weights, sort canonically;
        a NaN or infinite combined weight raises ValueError."""
        acc: dict[PauliString, complex] = {}
        for coeff, string in terms:
            acc[string] = acc.get(string, 0.0) + complex(coeff)
        cleaned = []
        for string in sorted(acc, key=PauliString.index):
            c = acc[string]
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite weight {c} on {string}")
            if abs(c) < PRUNE_THRESHOLD:
                continue
            cleaned.append((c.real if abs(c.imag) < PRUNE_THRESHOLD else c, string))
        return cls(tuple(cleaned), num_qubits)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, string: PauliString) -> float | complex:
        """Weight of ``string`` in the sum, 0.0 where it has none; anything
        but a string on the sum's register raises ValueError."""
        if not isinstance(string, PauliString) or string.num_qubits != self.num_qubits:
            raise ValueError(f"expected a Pauli string on {self.num_qubits} qubits, got {string!r}")
        for coeff, s in self.terms:
            if s == string:
                return coeff
        return 0.0

    @cached_property
    def identity_coefficient(self) -> float | complex:
        return self.coefficient(identity_string(self.num_qubits))

    @cached_property
    def measured_terms(self) -> tuple[tuple[float | complex, PauliString], ...]:
        """Terms that require a measurement circuit (every non-identity one)."""
        return tuple((c, s) for c, s in self.terms if not s.is_identity)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense matrix, read-only: the inverse of :func:`decompose`."""
        dim = 2**self.num_qubits
        out = np.zeros((dim, dim), dtype=complex)
        for coeff, string in self.terms:
            out += coeff * string_matrix(string)
        out.setflags(write=False)
        return out

    @cached_property
    def _square(self) -> tuple[np.ndarray, float]:
        """Dense matrix of the sum's square, read-only, and its largest entry
        magnitude: the reference of the estimator's square check."""
        square = self.matrix @ self.matrix
        square.setflags(write=False)
        return square, float(np.abs(square).max())

    @cached_property
    def measured_arrays(self):
        """Identity offset, measured-term coefficients (read-only) and their
        strings; exact reads of the whole sum use :attr:`matrix` instead."""
        const = float(self.identity_coefficient)
        betas = np.array([c for c, _ in self.measured_terms], dtype=float)
        betas.setflags(write=False)
        return const, betas, tuple(s for _, s in self.measured_terms)

    @cached_property
    def measured_signs(self) -> np.ndarray:
        """Parity signs of the measured terms, shape (terms, 2^m), read-only:
        row t holds term t's eigenvalue on each computational outcome."""
        dim = 2**self.num_qubits
        # reshape keeps the (terms, outcomes) shape when no term is measured
        signs = np.array([parity_signs(s) for _, s in self.measured_terms]).reshape(-1, dim)
        signs.setflags(write=False)
        return signs

    def to_text(self, digits: int = 9) -> str:
        """One term per line, ``<coeff> <string>``."""
        return "\n".join(f"{coeff:.{digits}g} {string}" for coeff, string in self.terms)


@lru_cache(maxsize=8)
def _pauli_basis(num_qubits: int):
    """All 4^m strings with their dense matrices, in canonical index order."""
    basis = []
    for labels in product(PAULI_LABELS, repeat=num_qubits):
        mat = reduce(np.kron, (PAULI_MATRICES[l] for l in labels))
        basis.append((PauliString(labels), mat))
    return tuple(basis)


def string_matrix(string: PauliString) -> np.ndarray:
    """Dense matrix of a Pauli string (qubit 0 = leftmost kron factor)."""
    return reduce(np.kron, (PAULI_MATRICES[l] for l in string.labels))


def decompose(matrix: np.ndarray) -> PauliSum:
    """Expand a Hermitian matrix over Pauli strings.

    beta_i = trace(P_i @ matrix) / 2^m for each of the 4^m strings; weights
    below :data:`PRUNE_THRESHOLD` are dropped.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got shape {matrix.shape}")
    dim = matrix.shape[0]
    num_qubits = int(round(np.log2(dim)))
    if dim < 2 or 2**num_qubits != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two >= 2")
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(matrix - matrix.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian")
    terms = []
    for string, pmat in _pauli_basis(num_qubits):
        beta = np.trace(pmat @ matrix) / dim
        if abs(beta) >= PRUNE_THRESHOLD:
            terms.append((float(beta.real), string))
    return PauliSum(tuple(terms), num_qubits)


def multiply(a: PauliSum, b: PauliSum) -> PauliSum:
    """Symbolic operator product of two Pauli sums.

    Uses the single-qubit relations (XY = iZ and cyclic) per factor, so the
    result of squaring a Hermitian sum comes out with real coefficients
    without ever forming a dense matrix.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError(f"qubit counts differ: {a.num_qubits} vs {b.num_qubits}")
    acc: dict[PauliString, complex] = {}
    for ca, sa in a.terms:
        for cb, sb in b.terms:
            phase = complex(1.0)
            labels = []
            for la, lb in zip(sa.labels, sb.labels):
                lc, ph = _SINGLE_PRODUCTS[(la, lb)]
                labels.append(lc)
                phase *= ph
            key = PauliString(tuple(labels))
            acc[key] = acc.get(key, 0.0) + ca * cb * phase
    return PauliSum.from_terms(((c, s) for s, c in acc.items()), a.num_qubits)
