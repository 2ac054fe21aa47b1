from functools import reduce
from itertools import product

import numpy as np
import pytest

from lmgvqe import (
    Circuit,
    ConfusionMatrix,
    Gate,
    NoiseModel,
    PauliString,
    ansatz_1q,
    ansatz_2q,
    expectation_from_counts,
    fold_cnots,
    measure_term,
    mitigate_counts,
    run,
)
from lmgvqe.simulator import _X_BASIS_CHANGE, _Y_BASIS_CHANGE, _outcome_distribution
from lmgvqe.pauli import PAULI_MATRICES

Z0 = PauliString(("Z",))
X0 = PauliString(("X",))
Y0 = PauliString(("Y",))


def sampled_expectation(term, theta, shots, noise=NoiseModel(), seed=0):
    result = measure_term(ansatz_1q(), [theta], term, shots, noise=noise, seed=seed)
    return expectation_from_counts(result, term)


class TestBasisChanges:
    def test_rotations_map_operators_to_z(self):
        z = PAULI_MATRICES["Z"]
        for u, op in ((_X_BASIS_CHANGE, PAULI_MATRICES["X"]), (_Y_BASIS_CHANGE, PAULI_MATRICES["Y"])):
            np.testing.assert_allclose(u @ op @ u.conj().T, z, atol=1e-12)

    @pytest.mark.parametrize("term,exact", [
        (Z0, lambda t: np.cos(t)),
        (X0, lambda t: np.sin(t)),
        (Y0, lambda t: 0.0),
    ])
    def test_sampled_mean_matches_exact_on_grid(self, term, exact):
        shots = 100_000
        for i, theta in enumerate(np.linspace(-np.pi, np.pi, 12)):
            mean, stderr = sampled_expectation(term, theta, shots, seed=100 + i)
            assert abs(mean - exact(theta)) <= 5 * max(stderr, 1e-3)


class TestMeasureTerm:
    def test_z_on_zero_state_is_deterministic(self):
        result = measure_term(ansatz_1q(), [0.0], Z0, 500)
        assert result.tolist() == [500, 0]
        assert expectation_from_counts(result, Z0) == (1.0, 0.0)

    def test_equal_superposition_counts(self):
        result = measure_term(ansatz_1q(), [np.pi / 2], Z0, 20_000, seed=4)
        fraction = result[0] / result.sum()
        assert abs(fraction - 0.5) <= 0.011  # 3 sigma binomial

    def test_readout_bias_on_basis_state(self):
        noise = NoiseModel(readout_p01=0.02)
        mean, _ = sampled_expectation(Z0, 0.0, 200_000, noise=noise, seed=9)
        assert mean == pytest.approx(1.0 - 2 * 0.02, abs=4.5e-3)

    def test_readout_affine_scaling(self):
        # <Z>_read = (1 - p01 - p10) <Z>_true + (p10 - p01)
        noise = NoiseModel(readout_p01=0.03, readout_p10=0.08)
        shots = 200_000
        for theta, seed in ((0.0, 1), (np.pi, 2)):
            true = np.cos(theta)
            mean, _ = sampled_expectation(Z0, theta, shots, noise=noise, seed=seed)
            expected = (1 - 0.03 - 0.08) * true + (0.08 - 0.03)
            assert mean == pytest.approx(expected, abs=5e-3)

    def test_readout_scaling_two_qubits(self):
        # independent flips: <Z0Z1> scales by (1 - p01 - p10) per qubit
        noise = NoiseModel(readout_p01=0.02, readout_p10=0.02)
        term = PauliString(("Z", "Z"))
        result = measure_term(ansatz_2q(), (0.0, 0.0, 0.0), term, 200_000, noise=noise, seed=3)
        mean, _ = expectation_from_counts(result, term)
        assert mean == pytest.approx((1 - 0.04) ** 2, abs=5e-3)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            measure_term(ansatz_1q(), [0.0], PauliString(("Z", "Z")), 100)

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            measure_term(ansatz_1q(), [0.0], Z0, 0)

    def test_seed_determinism(self):
        noise = NoiseModel(0.01, 0.02, 0.03)
        kwargs = dict(noise=noise, seed=13)
        a = measure_term(ansatz_2q(), (0.7, -0.4, 1.1), PauliString(("X", "Y")), 5000, **kwargs)
        b = measure_term(ansatz_2q(), (0.7, -0.4, 1.1), PauliString(("X", "Y")), 5000, **kwargs)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = measure_term(ansatz_1q(), [1.0], Z0, 5000, seed=1)
        b = measure_term(ansatz_1q(), [1.0], Z0, 5000, seed=2)
        assert not np.array_equal(a, b)

    def test_converges_to_exact_two_qubit(self):
        # 12-point grid over the two-qubit ansatz, all Hamiltonian term types
        rng = np.random.default_rng(17)
        terms = [PauliString(t) for t in (("X", "X"), ("Y", "Y"), ("Z", "X"), ("Z", "Z"))]
        for i in range(12):
            params = rng.uniform(-np.pi, np.pi, 3)
            state = run(ansatz_2q(), params)
            for j, term in enumerate(terms):
                result = measure_term(ansatz_2q(), params, term, 100_000, seed=1000 * i + j)
                mean, stderr = expectation_from_counts(result, term)
                from lmgvqe.pauli import string_matrix
                exact = float(np.vdot(state.amplitudes, string_matrix(term) @ state.amplitudes).real)
                assert abs(mean - exact) <= 5 * max(stderr, 1e-3)

    def test_cnot_noise_changes_distribution(self):
        term = PauliString(("Z", "I"))
        clean = measure_term(ansatz_2q(), (0.9, 0.4, -0.2), term, 50_000, seed=5)
        noisy = measure_term(
            ansatz_2q(), (0.9, 0.4, -0.2), term, 50_000,
            noise=NoiseModel(cnot_depolarizing=0.2), seed=5,
        )
        m_clean, _ = expectation_from_counts(clean, term)
        m_noisy, _ = expectation_from_counts(noisy, term)
        assert abs(m_noisy) < abs(m_clean)


# ---- independent density-matrix oracle: full 2^n x 2^n unitaries, the
# per-CNOT 15-Pauli Kraus map, textbook basis changes and a kron readout matrix

_SIGMA = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
# H maps X to Z; H S^dagger maps Y to Z
_TO_Z_BASIS = {"I": _SIGMA["I"], "Z": _SIGMA["I"], "X": _HADAMARD,
               "Y": _HADAMARD @ np.diag([1.0, -1j])}


def _on_qubits(n, ops):
    """Kronecker product with ops[q] on qubit q (qubit 0 most significant)."""
    return reduce(np.kron, [ops.get(q, _SIGMA["I"]) for q in range(n)])


def _cnot_unitary(n, control, target):
    u = np.zeros((2**n, 2**n))
    for b in range(2**n):
        bits = [(b >> (n - 1 - q)) & 1 for q in range(n)]
        bits[target] ^= bits[control]
        u[int("".join(map(str, bits)), 2), b] = 1.0
    return u


def density_matrix_distribution(circuit, parameters, term, p01, p10, p_cnot):
    n = circuit.num_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    for gate in circuit.gates:
        if gate.kind == "ry":
            t = parameters[gate.parameter_slot] if gate.parameter_slot is not None else gate.angle
            ry = np.array([[np.cos(t / 2), -np.sin(t / 2)], [np.sin(t / 2), np.cos(t / 2)]])
            u = _on_qubits(n, {gate.target: ry})
        elif gate.kind == "x":
            u = _on_qubits(n, {gate.target: _SIGMA["X"]})
        else:
            u = _cnot_unitary(n, gate.control, gate.target)
        rho = u @ rho @ u.conj().T
        if gate.kind == "cnot":
            paulis = [
                _on_qubits(n, {gate.control: _SIGMA[a], gate.target: _SIGMA[b]})
                for a, b in product("IXYZ", repeat=2) if a + b != "II"
            ]
            rho = (1 - p_cnot) * rho + p_cnot / 15 * sum(p @ rho @ p for p in paulis)
    u = _on_qubits(n, {q: _TO_Z_BASIS[l] for q, l in enumerate(term.labels)})
    ideal = np.real(np.diag(u @ rho @ u.conj().T))
    confusion = np.array([[1 - p01, p10], [p01, 1 - p10]])
    return reduce(np.kron, [confusion] * n) @ ideal


class TestOutcomeDistribution:
    @pytest.mark.parametrize("fold", [1, 3, 5])
    def test_matches_density_matrix_evolution(self, fold):
        rng = np.random.default_rng(fold)
        circuit = fold_cnots(ansatz_2q(), fold)
        for labels in product("IXYZ", repeat=2):
            params = rng.uniform(-np.pi, np.pi, 3)
            p01, p10 = rng.uniform(0.0, 0.3, 2)
            p_cnot = rng.uniform(0.0, 0.3)
            term = PauliString(labels)
            got = _outcome_distribution(circuit, params, term, NoiseModel(p01, p10, p_cnot))
            expected = density_matrix_distribution(circuit, params, term, p01, p10, p_cnot)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_one_qubit_readout_matches_density_matrix(self):
        for theta, label in product((-2.0, 0.3, 1.9), "IXYZ"):
            term = PauliString((label,))
            got = _outcome_distribution(ansatz_1q(), (theta,), term, NoiseModel(0.07, 0.15))
            expected = density_matrix_distribution(ansatz_1q(), (theta,), term, 0.07, 0.15, 0.0)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_cnot_noise_beyond_two_qubits_rejected(self):
        circuit = Circuit(3, (Gate("x", target=0), Gate("cnot", target=2, control=0)))
        term = PauliString(("Z", "Z", "Z"))
        with pytest.raises(ValueError):
            measure_term(circuit, (), term, 100, noise=NoiseModel(cnot_depolarizing=0.01))
        # readout noise alone stays exact on any register
        result = measure_term(circuit, (), term, 100, noise=NoiseModel(0.01, 0.02))
        assert result.sum() == 100


class TestExpectationFromCounts:
    def test_identity_term(self):
        result = np.array([10, 0])
        assert expectation_from_counts(result, PauliString(("I",))) == (1.0, 0.0)

    def test_symmetric_counts(self):
        result = np.array([10_000, 10_000])
        mean, stderr = expectation_from_counts(result, Z0)
        assert mean == 0.0
        assert stderr == pytest.approx(np.sqrt(1.0 / 20_000), abs=1e-12)

    def test_even_parity_two_qubits(self):
        result = np.array([5000, 0, 0, 5000])
        mean, stderr = expectation_from_counts(result, PauliString(("Z", "Z")))
        assert (mean, stderr) == (1.0, 0.0)

    @pytest.mark.parametrize("counts", [[1, 0, 0, 0], [5, -1], [0, 0]])
    @pytest.mark.parametrize("consume", [
        lambda c: expectation_from_counts(c, Z0),
        lambda c: mitigate_counts(c, ConfusionMatrix(np.eye(2), shots_per_column=1)),
    ], ids=["expectation_from_counts", "mitigate_counts"])
    def test_malformed_counts_rejected(self, consume, counts):
        # wrong length, a negative entry, no shots
        with pytest.raises(ValueError):
            consume(np.array(counts))

    def test_parity_restricted_to_active_qubits(self):
        result = np.array([0, 100, 0, 0])
        mean, _ = expectation_from_counts(result, PauliString(("Z", "I")))
        assert mean == 1.0
        mean, _ = expectation_from_counts(result, PauliString(("I", "Z")))
        assert mean == -1.0


class TestNoiseModelValidation:
    def test_probability_ranges(self):
        with pytest.raises(ValueError):
            NoiseModel(readout_p01=1.0)
        with pytest.raises(ValueError):
            NoiseModel(readout_p10=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(cnot_depolarizing=0.5)

    @pytest.mark.parametrize("p01,p10", [(0.5, 0.5), (0.6, 0.5), (0.9, 0.3)])
    def test_readout_flips_must_sum_below_one(self, p01, p10):
        # at 1 the confusion matrix is singular, above 1 it is inverted
        with pytest.raises(ValueError):
            NoiseModel(p01, p10)
