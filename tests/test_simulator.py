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
    PauliSum,
    Statevector,
    ansatz_1q,
    ansatz_2q,
    estimate,
    fold_cnots,
    measure_term,
    mitigate_counts,
    multiply,
    run,
)
from lmgvqe.circuits import apply_single_qubit
from lmgvqe.simulator import (
    _X_BASIS_CHANGE,
    _Y_BASIS_CHANGE,
    _basis_table,
    _checked_counts,
    _noisy_rows,
    _readout_matrix,
)
from lmgvqe.pauli import PAULI_MATRICES

from conftest import outcome_rows, term_estimate

Z0 = PauliString(("Z",))
X0 = PauliString(("X",))
Y0 = PauliString(("Y",))


def agresti_coull_stderr(shots):
    """Stderr floor of a term whose shots all land on one sign."""
    p = 2 / (shots + 4)
    return np.sqrt(4 * p * (1 - p) / (shots + 4))


def sample(circuit, params, term, shots, noise=NoiseModel(), seed=0):
    """Counts of the measurement circuit of one term."""
    return measure_term(outcome_rows(circuit, params, [term], noise)[0], shots, seed)


def sampled_expectation(term, theta, shots, noise=NoiseModel(), seed=0):
    result = sample(ansatz_1q(), [theta], term, shots, noise=noise, seed=seed)
    return term_estimate(result, term)


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
        result = sample(ansatz_1q(), [0.0], Z0, 500)
        assert result.tolist() == [500, 0]
        mean, stderr = term_estimate(result, Z0)
        assert mean == 1.0 and stderr == pytest.approx(agresti_coull_stderr(500), rel=1e-12)

    def test_equal_superposition_counts(self):
        result = sample(ansatz_1q(), [np.pi / 2], Z0, 20_000, seed=4)
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
        result = sample(ansatz_2q(), (0.0, 0.0, 0.0), term, 200_000, noise=noise, seed=3)
        mean, _ = term_estimate(result, term)
        assert mean == pytest.approx((1 - 0.04) ** 2, abs=5e-3)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            outcome_rows(ansatz_1q(), [0.0], [PauliString(("Z", "Z"))])

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            measure_term(outcome_rows(ansatz_1q(), [0.0], [Z0])[0], 0)

    @pytest.mark.parametrize("shots", [2.5, True])
    def test_non_integer_shots_rejected(self, shots):
        with pytest.raises(ValueError, match="positive integer"):
            measure_term(outcome_rows(ansatz_1q(), [0.0], [Z0])[0], shots)

    def test_seed_determinism(self):
        noise = NoiseModel(0.01, 0.02, 0.03)
        kwargs = dict(noise=noise, seed=13)
        a = sample(ansatz_2q(), (0.7, -0.4, 1.1), PauliString(("X", "Y")), 5000, **kwargs)
        b = sample(ansatz_2q(), (0.7, -0.4, 1.1), PauliString(("X", "Y")), 5000, **kwargs)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = sample(ansatz_1q(), [1.0], Z0, 5000, seed=1)
        b = sample(ansatz_1q(), [1.0], Z0, 5000, seed=2)
        assert not np.array_equal(a, b)

    def test_converges_to_exact_two_qubit(self):
        # 12-point grid over the two-qubit ansatz, all Hamiltonian term types
        rng = np.random.default_rng(17)
        terms = [PauliString(t) for t in (("X", "X"), ("Y", "Y"), ("Z", "X"), ("Z", "Z"))]
        for i in range(12):
            params = rng.uniform(-np.pi, np.pi, 3)
            state = run(ansatz_2q(), params)
            for j, term in enumerate(terms):
                result = sample(ansatz_2q(), params, term, 100_000, seed=1000 * i + j)
                mean, stderr = term_estimate(result, term)
                from lmgvqe.pauli import string_matrix
                exact = float(np.vdot(state.amplitudes, string_matrix(term) @ state.amplitudes).real)
                assert abs(mean - exact) <= 5 * max(stderr, 1e-3)

    def test_cnot_noise_changes_distribution(self):
        term = PauliString(("Z", "I"))
        clean = sample(ansatz_2q(), (0.9, 0.4, -0.2), term, 50_000, seed=5)
        noisy = sample(
            ansatz_2q(), (0.9, 0.4, -0.2), term, 50_000,
            noise=NoiseModel(cnot_depolarizing=0.2), seed=5,
        )
        m_clean, _ = term_estimate(clean, term)
        m_noisy, _ = term_estimate(noisy, term)
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
            got = outcome_rows(circuit, params, [term], NoiseModel(p01, p10, p_cnot))[0]
            expected = density_matrix_distribution(circuit, params, term, p01, p10, p_cnot)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_one_qubit_readout_matches_density_matrix(self):
        for theta, label in product((-2.0, 0.3, 1.9), "IXYZ"):
            term = PauliString((label,))
            got = outcome_rows(ansatz_1q(), (theta,), [term], NoiseModel(0.07, 0.15))[0]
            expected = density_matrix_distribution(ansatz_1q(), (theta,), term, 0.07, 0.15, 0.0)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_cnot_noise_beyond_two_qubits_rejected(self):
        circuit = Circuit(3, (Gate("x", target=0), Gate("cnot", target=2, control=0)))
        term = PauliString(("Z", "Z", "Z"))
        with pytest.raises(ValueError):
            outcome_rows(circuit, (), [term], NoiseModel(cnot_depolarizing=0.01))
        # readout noise alone stays exact on any register
        result = sample(circuit, (), term, 100, noise=NoiseModel(0.01, 0.02))
        assert result.sum() == 100


def per_term_distribution(circuit, params, term, noise):
    """One term's distribution by the per-term pipeline: run the circuit,
    rotate the term's X/Y qubits, |a|^2, normalise, mix with lambda^k, then
    the kron readout matrix."""
    n = circuit.num_qubits
    amps = run(circuit, params).amplitudes
    for q, label in enumerate(term.labels):
        if label in "XY":
            u = _X_BASIS_CHANGE if label == "X" else _Y_BASIS_CHANGE
            amps = apply_single_qubit(amps, n, q, u)
    p = np.abs(amps) ** 2
    p /= p.sum()
    k = circuit.num_cnots
    if noise.cnot_depolarizing > 0.0 and k:
        survival = (1.0 - 16.0 * noise.cnot_depolarizing / 15.0) ** k
        p = survival * p + (1.0 - survival) / p.size
    if noise.has_readout_error:
        p01, p10 = noise.readout_p01, noise.readout_p10
        confusion = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
        p = reduce(np.kron, [confusion] * n) @ p
    return p


class TestOutcomeTable:
    @pytest.mark.parametrize("fold", [1, 3, 5])
    def test_rows_bit_identical_to_per_term_pipeline(self, fold):
        rng = np.random.default_rng(100 + fold)
        circuit = fold_cnots(ansatz_2q(), fold)
        terms = [PauliString(labels) for labels in product("IXYZ", repeat=2)]
        for p_cnot in (0.0, 0.2):
            params = tuple(rng.uniform(-np.pi, np.pi, 3))
            noise = NoiseModel(*rng.uniform(0.0, 0.3, 2), p_cnot)
            table = outcome_rows(circuit, params, terms, noise)
            assert table.shape == (16, 4)
            for row, term in zip(table, terms):
                assert np.array_equal(row, per_term_distribution(circuit, params, term, noise))

    def test_one_qubit_rows_with_readout_noise(self):
        terms = [PauliString((label,)) for label in "IXYZ"]
        noise = NoiseModel(0.07, 0.15)
        for theta in (-2.0, 0.3, 1.9):
            table = outcome_rows(ansatz_1q(), (theta,), terms, noise)
            for row, term in zip(table, terms):
                expected = per_term_distribution(ansatz_1q(), (theta,), term, noise)
                assert np.array_equal(row, expected)

    def test_shared_basis_gives_equal_rows_but_separate_draws(self, monkeypatch):
        # Z0 and Z1 are both read in the computational basis, so their rows
        # are equal, but each term still gets its own seeded shots
        import lmgvqe.estimator as estimator_module

        z0, z1 = PauliString(("Z", "I")), PauliString(("I", "Z"))
        h = PauliSum.from_terms([(1.0, z0), (0.5, z1)], 2)
        draws = []

        def recording_measure_term(distribution, shots, seed=0):
            counts = measure_term(distribution, shots, seed)
            draws.append((np.array(distribution), counts))
            return counts

        monkeypatch.setattr(estimator_module, "measure_term", recording_measure_term)
        estimate(ansatz_2q(), (0.9, 0.4, -0.2), h, multiply(h, h), shots=5000,
                 noise=NoiseModel(0.02, 0.03), seed=7)
        (row_z0, counts_z0), (row_z1, counts_z1) = draws[:2]
        assert np.array_equal(row_z0, row_z1)
        assert not np.array_equal(counts_z0, counts_z1)

    @pytest.mark.parametrize("fold", [1, 3, 5])
    def test_one_basis_table_serves_every_fold(self, fold):
        # odd folds prepare the same amplitudes, so the estimator's table,
        # built once from the unfolded circuit, gives each fold's rows
        rng = np.random.default_rng(200 + fold)
        circuit, folded = ansatz_2q(), fold_cnots(ansatz_2q(), fold)
        terms = [PauliString(labels) for labels in product("IXYZ", repeat=2)]
        for p_cnot in (0.0, 0.2):
            params = tuple(rng.uniform(-np.pi, np.pi, 3))
            noise = NoiseModel(*rng.uniform(0.0, 0.3, 2), p_cnot)
            table, index = _basis_table(run(circuit, params), terms)
            rows = _noisy_rows(table, index, folded.num_cnots, noise)
            assert np.array_equal(rows, outcome_rows(folded, params, terms, noise))
            for row, term in zip(rows, terms):
                assert np.array_equal(row, per_term_distribution(folded, params, term, noise))
                expected = density_matrix_distribution(
                    folded, params, term, noise.readout_p01, noise.readout_p10, p_cnot
                )
                np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    @staticmethod
    def _one_basis_at_a_time(amps, terms):
        """The reference table: each distinct basis, in first-seen order,
        rotated one basis change at a time by ``apply_single_qubit``."""
        n = amps.size.bit_length() - 1
        changes = {"X": _X_BASIS_CHANGE, "Y": _Y_BASIS_CHANGE}
        row_of, rows, index = {}, [], []
        for term in terms:
            basis = tuple((q, label) for q, label in enumerate(term.labels) if label in "XY")
            if basis not in row_of:
                row_of[basis] = len(rows)
                rotated = amps
                for q, label in basis:
                    rotated = apply_single_qubit(rotated, n, q, changes[label])
                p = np.abs(rotated) ** 2
                rows.append(p / p.sum())
            index.append(row_of[basis])
        return np.array(rows), index

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_complex_states_bit_identical_to_one_basis_at_a_time(self, num_qubits):
        # RY, X and CNOT only prepare real amplitudes; these are complex,
        # some with zero entries, measured in every Pauli string's basis
        rng = np.random.default_rng(300 + num_qubits)
        size = 2**num_qubits
        strings = [PauliString(labels) for labels in product("IXYZ", repeat=num_qubits)]
        for trial in range(30):
            amps = rng.normal(size=size) + 1j * rng.normal(size=size)
            amps[rng.permutation(size)[: trial % size]] = 0.0
            amps /= np.linalg.norm(amps)
            terms = [strings[i] for i in rng.permutation(len(strings))]
            table, index = _basis_table(Statevector(amps), terms)
            expected, expected_index = self._one_basis_at_a_time(amps, terms)
            assert table.shape == expected.shape
            assert table.tobytes() == expected.tobytes()
            assert index.tolist() == expected_index

    @pytest.mark.parametrize("noise", [
        NoiseModel(), NoiseModel(0.03, 0.07), NoiseModel(0.03, 0.07, 0.2),
    ], ids=["noiseless", "readout", "readout_cnot"])
    @pytest.mark.parametrize("num_cnots", [0, 2, 6])
    def test_rows_equal_the_mixed_formula(self, noise, num_cnots):
        # survival 1 (no CNOT or no CNOT noise) skips the mix, and readout
        # maps each basis row on its own; both give the formula's bits
        rng = np.random.default_rng(400 + num_cnots)
        readout = _readout_matrix(noise, 2)
        for trial in range(50):
            table = rng.random((5, 4))
            table[rng.random((5, 4)) < 0.2] = 0.0
            table[:, 0] += 1e-3
            table /= table.sum(axis=1, keepdims=True)
            index = rng.integers(0, 5, 15)
            survival = (1.0 - 16.0 * noise.cnot_depolarizing / 15.0) ** num_cnots
            mixed = survival * table + (1.0 - survival) / 4
            expected = np.array([readout @ p for p in mixed])[index]
            rows = _noisy_rows(table, index, num_cnots, noise)
            assert rows.tobytes() == expected.tobytes()

    def test_readout_matrix_built_once_and_read_only(self):
        noise = NoiseModel(0.02, 0.05)
        matrix = _readout_matrix(noise, 2)
        assert _readout_matrix(NoiseModel(0.02, 0.05), 2) is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_no_terms_gives_empty_table(self):
        table = outcome_rows(ansatz_2q(), (0.1, 0.2, 0.3), [])
        assert table.shape == (0, 4)


class TestMeasureTermValidation:
    @pytest.mark.parametrize("distribution", [
        [np.nan, 1.0], [np.inf, 0.0], [-0.1, 1.1], [0.5, 0.4], [[0.5, 0.5]], [],
    ], ids=["nan", "inf", "negative", "not-normalised", "2-d", "empty"])
    def test_malformed_distribution_rejected(self, distribution):
        with pytest.raises(ValueError):
            measure_term(np.array(distribution), 100)

    def test_draw_is_one_seeded_multinomial(self):
        dist = np.array([0.1, 0.2, 0.3, 0.4])
        expected = np.random.default_rng(11).multinomial(5000, dist)
        assert np.array_equal(measure_term(dist, 5000, 11), expected)


class TestTermEstimate:
    def test_symmetric_counts(self):
        result = np.array([10_000, 10_000])
        mean, stderr = term_estimate(result, Z0)
        assert mean == 0.0
        assert stderr == pytest.approx(np.sqrt(1.0 / 20_000), abs=1e-12)

    def test_even_parity_two_qubits(self):
        result = np.array([5000, 0, 0, 5000])
        mean, stderr = term_estimate(result, PauliString(("Z", "Z")))
        assert mean == 1.0 and stderr == pytest.approx(agresti_coull_stderr(10_000), rel=1e-12)

    @pytest.mark.parametrize("counts", [
        [1, 0, 0, 0], [5, -1], [0, 0],
        [np.nan, 1], [np.inf, 1], [0.5, 0.5], [True, False], ["3", "4"],
    ])
    @pytest.mark.parametrize("consume", [
        lambda c: _checked_counts(c, 1),
        lambda c: mitigate_counts(c, ConfusionMatrix(np.eye(2), shots_per_column=1)),
    ], ids=["checked_counts", "mitigate_counts"])
    def test_malformed_counts_rejected(self, consume, counts):
        # wrong length, a negative entry, no shots; then counts that are not
        # integers: NaN, inf, fractions, bools and strings.  The count rule
        # itself is checked as well as its one public caller.
        with pytest.raises(ValueError):
            consume(np.array(counts))

    def test_parity_restricted_to_active_qubits(self):
        result = np.array([0, 100, 0, 0])
        mean, _ = term_estimate(result, PauliString(("Z", "I")))
        assert mean == 1.0
        mean, _ = term_estimate(result, PauliString(("I", "Z")))
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
