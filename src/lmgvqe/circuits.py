"""Parameterized ansatz circuits and a small statevector engine.

The gate set is {RY, X, CNOT}: RY and CNOT build both ansatz circuits, and X
serves hand-built circuits.  Readout calibration builds no circuit; its
columns come in closed form from the readout channel.  Amplitudes are
indexed with qubit 0 as the most significant bit, matching the Pauli-string
convention of :mod:`lmgvqe.pauli`; the bitstring of basis state b is just
``format(b, "0{n}b")`` with character q giving qubit q.

Each circuit compiles its gates once into index arithmetic: X and CNOT
permute the amplitudes, and RY(t) on the qubit with bit mask m maps a_b to
cos(t/2) a_b -+ sin(t/2) a_(b ^ m), minus where bit m of b is 0.  These are
the products and sums of the 2x2 product in ``apply_single_qubit``, so the
amplitudes agree with it bit for bit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Gate",
    "Circuit",
    "Statevector",
    "ansatz_1q",
    "ansatz_2q",
    "run",
    "fold_cnots",
    "ry_matrix",
]

NORMALIZATION_TOL = 1e-12


def ry_matrix(theta: float) -> np.ndarray:
    """RY(theta) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True)
class Gate:
    """One circuit operation: kind in {"ry", "x", "cnot"}.

    RY gates either carry a fixed ``angle`` or a ``parameter_slot`` binding
    them to an optimization parameter.
    """

    kind: str
    target: int
    control: int | None = None
    parameter_slot: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in ("ry", "x", "cnot"):
            raise ValueError(f"unknown gate kind {self.kind!r}")
        _check_int(self.target, "target", minimum=0)
        for name in ("control", "parameter_slot"):
            if getattr(self, name) is not None:
                _check_int(getattr(self, name), name, minimum=0)
        if self.kind == "cnot":
            if self.control is None or self.control == self.target:
                raise ValueError("cnot needs a control qubit distinct from the target")
        elif self.control is not None:
            raise ValueError(f"{self.kind} gate takes no control qubit")
        if self.parameter_slot is not None and self.kind != "ry":
            raise ValueError("parameter_slot is only valid on ry gates")
        if self.kind == "ry" and self.parameter_slot is None and self.angle is None:
            raise ValueError("ry gate needs an angle or a parameter slot")


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a fixed register."""

    num_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_int(self.num_qubits, "num_qubits")
        slots = set()
        for g in self.gates:
            qubits = [g.target] + ([g.control] if g.control is not None else [])
            if max(qubits) >= self.num_qubits:
                raise ValueError(f"gate {g} addresses a qubit outside the register")
            if g.parameter_slot is not None:
                slots.add(g.parameter_slot)
        if slots and slots != set(range(max(slots) + 1)):
            raise ValueError(f"parameter slots must be 0..k-1 without gaps, got {sorted(slots)}")

    @cached_property
    def num_parameters(self) -> int:
        slots = {g.parameter_slot for g in self.gates if g.parameter_slot is not None}
        return max(slots) + 1 if slots else 0

    @cached_property
    def num_cnots(self) -> int:
        return sum(g.kind == "cnot" for g in self.gates)

    @cached_property
    def _folded(self) -> dict:
        """``fold_cnots``'s circuits by fold, built on first use."""
        return {}

    @cached_property
    def _program(self) -> tuple:
        """Per gate ``(perm, sign, slot, angle)``: X and CNOT take the amplitude
        at perm[b] to b (sign None); RY mixes b with its partner perm[b] with
        the sign of -sin at b, by parameter ``slot`` or the fixed ``angle``."""
        n = self.num_qubits
        idx = np.arange(2**n)
        program = []
        for g in self.gates:
            mask = 1 << (n - 1 - g.target)  # qubit 0 is the most significant bit
            if g.kind == "cnot":
                mask = ((idx >> (n - 1 - g.control)) & 1) * mask
            sign = np.where(idx & mask, 1.0, -1.0) if g.kind == "ry" else None
            angle = float(g.angle) if g.kind == "ry" and g.parameter_slot is None else None
            program.append((idx ^ mask, sign, g.parameter_slot, angle))
        return tuple(program)


@dataclass(frozen=True)
class Statevector:
    """Normalized complex amplitude vector of length 2^n, or a batch of them
    as the rows of a (B, 2^n) array; every row's norm is checked."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim not in (1, 2):
            raise ValueError(f"expected one amplitude vector or a batch, got shape {amps.shape}")
        size = amps.shape[-1]
        if size < 2 or size & (size - 1):
            raise ValueError(f"amplitude vector length {size} is not a power of two")
        # one state's norm is one BLAS dot, cheaper than the batch's row sums
        norm = np.vdot(amps, amps).real if amps.ndim == 1 else (amps.conj() * amps).real.sum(-1)
        if not (abs(norm - 1.0) <= NORMALIZATION_TOL).all():  # also rejects NaN
            raise ValueError(f"state not normalized: sum |a|^2 = {norm}")

    @property
    def num_qubits(self) -> int:
        return self.amplitudes.shape[-1].bit_length() - 1


def ansatz_1q() -> Circuit:
    """One qubit, one parameterized RY: prepares cos(t/2)|0> + sin(t/2)|1>."""
    return Circuit(1, (Gate("ry", target=0, parameter_slot=0),))


def ansatz_2q() -> Circuit:
    """Three-parameter two-qubit ansatz.

    Gate order: RY(t0) on qubit 1, CNOT(1 -> 0), RY(t1) on qubit 0,
    CNOT(1 -> 0), RY(t2) on qubit 1.  The prepared amplitudes are

        (c1 cos a, c1 sin a, s1 cos b, -s1 sin b)

    with c1 = cos(t1/2), s1 = sin(t1/2), a = (t0+t2)/2, b = (t0-t2)/2, which
    covers every real unit 4-vector.
    """
    return Circuit(
        2,
        (
            Gate("ry", target=1, parameter_slot=0),
            Gate("cnot", target=0, control=1),
            Gate("ry", target=0, parameter_slot=1),
            Gate("cnot", target=0, control=1),
            Gate("ry", target=1, parameter_slot=2),
        ),
    )


def apply_single_qubit(amps: np.ndarray, num_qubits: int, qubit: int, u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of an amplitude vector."""
    left = 1 << qubit  # qubit 0 is the most significant bit
    right = 1 << (num_qubits - 1 - qubit)
    psi = amps.reshape(left, 2, right)
    a0, a1 = psi[:, 0, :], psi[:, 1, :]
    out = np.empty_like(psi)
    out[:, 0, :] = u[0, 0] * a0 + u[0, 1] * a1
    out[:, 1, :] = u[1, 0] * a0 + u[1, 1] * a1
    return out.reshape(-1)


def run(circuit: Circuit, parameters=()) -> Statevector:
    """Apply the circuit's compiled gates to |0...0> and return the final,
    validated state: one state for parameters of shape (k,), one row per
    point for shape (B, k).  A row's arithmetic does not depend on B, so it
    equals the single run of its point bit for bit.  A NaN or infinite
    parameter raises ValueError."""
    params = np.asarray(parameters, dtype=float)
    k = circuit.num_parameters
    if params.ndim not in (1, 2) or params.shape[-1] != k:
        raise ValueError(f"circuit takes {k} parameters, got shape {params.shape}")
    finite = np.isfinite(params)
    if not finite.all():  # before cos and sin turn the point into NaN amplitudes
        point = params if params.ndim == 1 else params[~finite.all(-1)][0]
        raise ValueError(f"parameters must be finite, got {point.tolist()}")
    half = params[..., None] / 2.0  # (..., k, 1): one factor per row and slot
    cos, sin = np.cos(half), np.sin(half)
    if params.ndim == 1:  # one point: the same factors as Python floats, which apply faster
        factors = list(zip(cos[:, 0].tolist(), sin[:, 0].tolist()))
    else:  # each (B, 1)
        factors = [(cos[:, slot], sin[:, slot]) for slot in range(k)]
    amps = np.zeros(params.shape[:-1] + (2**circuit.num_qubits,), dtype=complex)
    amps[..., 0] = 1.0
    for perm, sign, slot, angle in circuit._program:
        if sign is None:
            amps = amps.take(perm, -1)
            continue
        if slot is None:
            c, s = np.cos(angle / 2.0), np.sin(angle / 2.0)
        else:
            c, s = factors[slot]
        # the rows of ry_matrix(theta) with the same products and sums as
        # apply_single_qubit (a real factor multiplies as complex); a matmul
        # or einsum may fuse or reorder them
        amps = c * amps + sign * s * amps.take(perm, -1)
    return Statevector(amps)


def _single_point(circuit: Circuit, parameters) -> np.ndarray:
    """``parameters`` as one point of shape (k,).  The single-point entries
    check this before preparing anything: only ``run`` takes a batch."""
    params = np.asarray(parameters, dtype=float)
    if params.shape != (circuit.num_parameters,):
        raise ValueError(
            f"expected one point of {circuit.num_parameters} parameters, got shape {params.shape}"
        )
    return params


def _check_int(value, name: str = "shots", minimum: int = 1) -> None:
    """Reject a count (shots, folds, particles, ...) that is not a positive
    integer, or a seed (``minimum`` 0) that is not a non-negative one, bools
    included.  A plain int skips the slower ABC check."""
    integral = type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )
    if not integral or value < minimum:
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


def fold_cnots(circuit: Circuit, fold: int) -> Circuit:
    """Replace every CNOT by ``fold`` consecutive copies of itself.

    ``fold`` must be odd and positive, so the folded circuit is unitarily
    identical to the original and only amplifies CNOT gate noise.  Fold 1
    returns ``circuit`` itself; every other fold is built once per circuit
    and kept on it.
    """
    _check_int(fold, "fold")
    if fold % 2 == 0:
        raise ValueError(f"fold must be an odd positive integer, got {fold!r}")
    if fold == 1:
        return circuit
    folded = circuit._folded.get(fold)
    if folded is None:
        gates = []
        for gate in circuit.gates:
            gates.extend([gate] * (fold if gate.kind == "cnot" else 1))
        folded = circuit._folded[fold] = Circuit(circuit.num_qubits, tuple(gates))
    return folded
