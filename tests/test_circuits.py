import itertools

import numpy as np
import pytest

from lmgvqe import Circuit, Gate, Statevector, ansatz_1q, ansatz_2q, fold_cnots, run
from lmgvqe.circuits import apply_single_qubit, ry_matrix

SPECIAL_ANGLES = (0.0, np.pi, -np.pi, 2.0 * np.pi, 1e-300, -0.0)


def reference_amplitudes(circuit, parameters):
    """The uncompiled gate loop: a 2x2 product per RY, an index XOR per X
    and CNOT."""
    n = circuit.num_qubits
    idx = np.arange(2**n)
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for g in circuit.gates:
        if g.kind == "ry":
            theta = float(parameters[g.parameter_slot] if g.parameter_slot is not None else g.angle)
            amps = apply_single_qubit(amps, n, g.target, ry_matrix(theta))
        elif g.kind == "x":
            amps = amps[idx ^ (1 << (n - 1 - g.target))]
        else:
            control = (idx >> (n - 1 - g.control)) & 1
            amps = amps[idx ^ (control << (n - 1 - g.target))]
    return amps


def three_qubit_circuit():
    return Circuit(3, (
        Gate("x", target=1),
        Gate("ry", target=0, parameter_slot=0),
        Gate("cnot", target=2, control=0),
        Gate("ry", target=2, angle=0.37),
        Gate("ry", target=1, parameter_slot=1),
        Gate("cnot", target=1, control=2),
        Gate("x", target=0),
        Gate("ry", target=0, angle=-2.1),
        Gate("ry", target=2, parameter_slot=2),
    ))


class TestGateAndCircuitValidation:
    def test_cnot_needs_distinct_control(self):
        with pytest.raises(ValueError):
            Gate("cnot", target=0, control=0)
        with pytest.raises(ValueError):
            Gate("cnot", target=0)

    def test_parameter_slot_only_on_ry(self):
        with pytest.raises(ValueError):
            Gate("x", target=0, parameter_slot=0)

    def test_ry_needs_angle_or_slot(self):
        with pytest.raises(ValueError):
            Gate("ry", target=0)

    @pytest.mark.parametrize("build", [
        lambda: Circuit(2.0),
        lambda: Circuit(True),
        lambda: Circuit(0),
        lambda: Gate("ry", target=0.0, parameter_slot=0),
        lambda: Gate("ry", target=0, parameter_slot=0.0),
        lambda: Gate("cnot", target=0, control=True),
        lambda: Gate("x", target=-1),
    ], ids=["float-qubits", "bool-qubits", "zero-qubits", "float-target", "float-slot",
            "bool-control", "negative-target"])
    def test_counts_and_indices_must_be_integers(self, build):
        with pytest.raises(ValueError, match="must be a (positive|non-negative) integer"):
            build()

    def test_qubit_range_checked(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("x", target=1),))

    def test_slots_must_be_contiguous(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("ry", target=0, parameter_slot=1),))

    def test_statevector_must_be_normalized(self):
        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            Statevector(np.array([1.0, 0.0, 0.0]))

    def test_statevector_rejects_nan(self):
        # abs(nan - 1) > tol is False, so a NaN norm passed the check
        with pytest.raises(ValueError, match="normalized"):
            Statevector(np.array([np.nan, 0.0]))
        # run rejects the parameter before it reaches a state
        with pytest.raises(ValueError, match="finite"):
            run(ansatz_1q(), [np.nan])

    @pytest.mark.parametrize("build, match", [
        (lambda: Gate("rz", target=0, angle=0.1), "unknown gate kind 'rz'"),
        (lambda: Gate("x", target=0, control=1), "x gate takes no control qubit"),
        (lambda: Gate("ry", target=0, control=1, angle=0.1), "ry gate takes no control qubit"),
        (lambda: Statevector(np.array(1.0)), "one amplitude vector or a batch"),
        (lambda: Statevector(np.full((1, 1, 2), np.sqrt(0.5))), "one amplitude vector or a batch"),
    ], ids=["unknown-kind", "x-with-control", "ry-with-control", "scalar-state", "3d-state"])
    def test_malformed_gate_or_state_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


class TestAnsatz1q:
    def test_structure(self):
        circuit = ansatz_1q()
        assert circuit.num_qubits == 1
        assert circuit.num_parameters == 1
        assert [g.kind for g in circuit.gates] == ["ry"]

    @pytest.mark.parametrize(
        "theta,expected",
        [
            (0.0, (1.0, 0.0)),
            (np.pi, (0.0, 1.0)),
            (np.pi / 2, (np.sqrt(0.5), np.sqrt(0.5))),
        ],
    )
    def test_prepared_states(self, theta, expected):
        state = run(ansatz_1q(), [theta])
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_half_angle_form(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-np.pi, np.pi, 20):
            state = run(ansatz_1q(), [theta])
            expected = (np.cos(theta / 2), np.sin(theta / 2))
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_surjective_over_real_unit_vectors(self):
        # 1-degree sweep of target directions with non-negative first component
        for phi_deg in range(-90, 91):
            phi = np.deg2rad(phi_deg)
            target = np.array([np.cos(phi), np.sin(phi)])
            theta = 2.0 * np.arctan2(target[1], target[0])
            assert -np.pi <= theta <= np.pi
            state = run(ansatz_1q(), [theta])
            np.testing.assert_allclose(state.amplitudes.real, target, atol=1e-12)


class TestAnsatz2q:
    def test_structure_matches_wire_layout(self):
        circuit = ansatz_2q()
        assert circuit.num_qubits == 2
        assert circuit.num_parameters == 3
        kinds = [(g.kind, g.target, g.control, g.parameter_slot) for g in circuit.gates]
        assert kinds == [
            ("ry", 1, None, 0),
            ("cnot", 0, 1, None),
            ("ry", 0, None, 1),
            ("cnot", 0, 1, None),
            ("ry", 1, None, 2),
        ]

    def test_zero_parameters_give_00(self):
        state = run(ansatz_2q(), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-12)

    def test_closed_form_amplitudes(self):
        rng = np.random.default_rng(8)
        for t0, t1, t2 in rng.uniform(-np.pi, np.pi, (25, 3)):
            state = run(ansatz_2q(), [t0, t1, t2])
            c1, s1 = np.cos(t1 / 2), np.sin(t1 / 2)
            alpha, beta = (t0 + t2) / 2, (t0 - t2) / 2
            expected = [
                c1 * np.cos(alpha), c1 * np.sin(alpha),
                s1 * np.cos(beta), -s1 * np.sin(beta),
            ]
            np.testing.assert_allclose(state.amplitudes, expected, rtol=0, atol=1e-15)

    def test_amplitudes_are_real_and_normalized(self):
        rng = np.random.default_rng(21)
        for params in rng.uniform(-np.pi, np.pi, (50, 3)):
            state = run(ansatz_2q(), params)
            assert np.abs(state.amplitudes.imag).max() < 1e-12
            assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestRun:
    def test_parameter_count_checked(self):
        with pytest.raises(ValueError):
            run(ansatz_1q(), [])
        with pytest.raises(ValueError):
            run(ansatz_2q(), [0.1])

    def test_x_gate_flips(self):
        state = run(Circuit(1, (Gate("x", target=0),)))
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-12)

    def test_x_gates_prepare_basis_states(self):
        # qubit 0 is the most significant bit of the amplitude index
        state = run(Circuit(2, (Gate("x", target=0),)))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-12)
        state = run(Circuit(2, (Gate("x", target=1),)))
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0], atol=1e-12)

    def test_cnot_action(self):
        circuit = Circuit(2, (Gate("x", target=1), Gate("cnot", target=0, control=1)))
        state = run(circuit)
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_fixed_angle_ry(self):
        circuit = Circuit(1, (Gate("ry", target=0, angle=np.pi),))
        np.testing.assert_allclose(run(circuit).amplitudes, [0, 1], atol=1e-12)


class TestCompiledRun:
    """``run`` applies each circuit's compiled program; its amplitudes must
    equal the uncompiled gate loop's bit for bit, signed zeros included."""

    @pytest.mark.parametrize("make,fold", [
        (ansatz_1q, 1), (ansatz_2q, 1), (ansatz_2q, 3), (ansatz_2q, 5), (three_qubit_circuit, 1),
    ])
    def test_matches_reference_gate_loop_bit_for_bit(self, make, fold):
        circuit = fold_cnots(make(), fold)
        k = circuit.num_parameters
        points = list(np.random.default_rng(17).uniform(-4.0, 4.0, (200, k)))
        points += list(itertools.product(SPECIAL_ANGLES, repeat=k))
        for params in points:
            got = run(circuit, params).amplitudes
            assert got.tobytes() == reference_amplitudes(circuit, params).tobytes(), params

    @pytest.mark.parametrize("make,fold", [
        (ansatz_1q, 1), (ansatz_2q, 1), (ansatz_2q, 3), (three_qubit_circuit, 1),
    ])
    def test_batched_rows_equal_single_runs(self, make, fold):
        circuit = fold_cnots(make(), fold)
        k = circuit.num_parameters
        points = np.random.default_rng(23).uniform(-4.0, 4.0, (64, k))
        points = np.concatenate([points, list(itertools.product(SPECIAL_ANGLES, repeat=k))])
        for size in (1, 2, 7, len(points)):
            batch = run(circuit, points[:size]).amplitudes
            assert batch.shape == (size, 2**circuit.num_qubits)
            for params, row in zip(points[:size], batch):
                assert row.tobytes() == run(circuit, params).amplitudes.tobytes(), params

    def test_batch_checks_every_row(self):
        with pytest.raises(ValueError, match=r"finite, got \[0\.1, nan, 0\.3\]"):
            run(ansatz_2q(), [[0.1, 0.2, 0.3], [0.1, np.nan, 0.3]])
        with pytest.raises(ValueError, match="parameters"):
            run(ansatz_2q(), np.zeros((2, 2, 3)))
        # a good first row must not hide a bad later one
        for bad_row in ([np.nan, 0.0], [1.0, 1.0]):
            with pytest.raises(ValueError, match="normalized"):
                Statevector(np.array([[1.0, 0.0], bad_row]))

    def test_fixed_angle_and_basis_gates_only(self):
        circuit = Circuit(2, (
            Gate("x", target=0), Gate("ry", target=1, angle=1.3), Gate("cnot", target=1, control=0),
        ))
        assert circuit.num_parameters == 0
        assert run(circuit).amplitudes.tobytes() == reference_amplitudes(circuit, ()).tobytes()


class TestFoldCnots:
    def test_fold_one_is_identity(self):
        circuit = ansatz_2q()
        assert fold_cnots(circuit, 1) == circuit

    @pytest.mark.parametrize("fold", [3, 5])
    def test_folding_preserves_the_state(self, fold):
        circuit = ansatz_2q()
        folded = fold_cnots(circuit, fold)
        assert folded.num_cnots == fold * circuit.num_cnots
        rng = np.random.default_rng(5)
        for params in rng.uniform(-np.pi, np.pi, (10, 3)):
            np.testing.assert_allclose(
                run(folded, params).amplitudes,
                run(circuit, params).amplitudes,
                atol=1e-12,
            )

    @pytest.mark.parametrize("fold", [0, -1, 2, 4, True, 3.0, 1.5])
    def test_invalid_folds_rejected(self, fold):
        with pytest.raises(ValueError):
            fold_cnots(ansatz_2q(), fold)

    def test_non_cnot_gates_untouched(self):
        folded = fold_cnots(ansatz_1q(), 5)
        assert folded == ansatz_1q()

    def test_fold_one_returns_the_circuit_itself(self):
        circuit = ansatz_2q()
        assert fold_cnots(circuit, 1) is circuit

    @pytest.mark.parametrize("fold", [3, 5])
    def test_repeated_folds_equal_a_fresh_fold(self, fold):
        # each fold is built once per circuit; a repeat, an equal circuit
        # and a numpy integer fold all give the same gates
        circuit = ansatz_2q()
        first = fold_cnots(circuit, fold)
        assert fold_cnots(circuit, fold) is first
        assert fold_cnots(circuit, np.int64(fold)) is first
        assert fold_cnots(ansatz_2q(), fold) == first
        assert first.num_cnots == fold * circuit.num_cnots
        # the kept folds are not part of the circuit's value
        assert circuit == ansatz_2q() and hash(circuit) == hash(ansatz_2q())

    @pytest.mark.parametrize("fold", [3.0, True, 2, 0])
    def test_invalid_fold_rejected_after_a_cached_fold(self, fold):
        circuit = ansatz_2q()
        fold_cnots(circuit, 3)
        with pytest.raises(ValueError, match="fold"):
            fold_cnots(circuit, fold)
