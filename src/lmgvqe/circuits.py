"""Parameterized ansatz circuits and a small statevector engine.

The gate set is {RY, X, CNOT}: RY and CNOT build both ansatz circuits, and X
prepares computational basis states.  Readout calibration builds no circuit;
its columns come in closed form from the readout channel.  Amplitudes are
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
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        slots = set()
        for g in self.gates:
            qubits = [g.target] + ([g.control] if g.control is not None else [])
            if any(q < 0 or q >= self.num_qubits for q in qubits):
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
    """Normalized complex amplitude vector of length 2^n."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        n = len(amps).bit_length() - 1
        if len(amps) < 2 or 2**n != len(amps):
            raise ValueError(f"amplitude vector length {len(amps)} is not a power of two")
        norm = float(np.vdot(amps, amps).real)
        if not abs(norm - 1.0) <= NORMALIZATION_TOL:  # also rejects NaN
            raise ValueError(f"state not normalized: sum |a|^2 = {norm}")

    @property
    def num_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


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
    validated state."""
    parameters = tuple(parameters)
    if len(parameters) != circuit.num_parameters:
        raise ValueError(
            f"circuit takes {circuit.num_parameters} parameters, got {len(parameters)}"
        )
    amps = np.zeros(2**circuit.num_qubits, dtype=complex)
    amps[0] = 1.0
    for perm, sign, slot, angle in circuit._program:
        if sign is None:
            amps = amps[perm]
            continue
        theta = float(parameters[slot]) if slot is not None else angle
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        # the rows of ry_matrix(theta) with the same products and sums as
        # apply_single_qubit; a matmul or einsum may fuse or reorder them
        amps = complex(c) * amps + (sign * s).astype(complex) * amps[perm]
    return Statevector(amps)


def fold_cnots(circuit: Circuit, fold: int) -> Circuit:
    """Replace every CNOT by ``fold`` consecutive copies of itself.

    ``fold`` must be odd and positive, so the folded circuit is unitarily
    identical to the original and only amplifies CNOT gate noise.
    """
    if int(fold) != fold or fold < 1 or fold % 2 == 0:
        raise ValueError(f"fold must be an odd positive integer, got {fold}")
    gates = []
    for gate in circuit.gates:
        gates.extend([gate] * (fold if gate.kind == "cnot" else 1))
    return Circuit(circuit.num_qubits, tuple(gates))
