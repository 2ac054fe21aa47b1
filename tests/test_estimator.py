import numpy as np
import pytest

from lmgvqe import (
    ConfusionMatrix,
    Mitigation,
    NoiseModel,
    ansatz_1q,
    ansatz_2q,
    estimate,
    expectation_exact,
    expectation_from_counts,
    parity_signs,
    run,
    square_block,
)
from lmgvqe.estimator import _term_estimates
from lmgvqe.pauli import PauliString, PauliSum

from conftest import N3_A_EIGS, eigenstate_parameters_1q, eigenstate_parameters_2q


class TestExpectationExact:
    def test_diagonal_elements_via_basis_states(self, n3_a):
        assert expectation_exact(run(ansatz_1q(), [0.0]), n3_a.h) == pytest.approx(-1.5)
        assert expectation_exact(run(ansatz_1q(), [np.pi]), n3_a.h) == pytest.approx(0.5)

    def test_ground_state_energy(self, n3_a):
        ground = np.linalg.eigh(n3_a.block.matrix)[1][:, 0]
        theta = eigenstate_parameters_1q(ground)
        state = run(ansatz_1q(), [theta])
        assert expectation_exact(state, n3_a.h) == pytest.approx(N3_A_EIGS[0], abs=1e-6)
        assert expectation_exact(state, n3_a.h) == pytest.approx(-1.823, abs=1e-3)

    def test_qubit_mismatch(self, n7_a):
        with pytest.raises(ValueError):
            expectation_exact(run(ansatz_1q(), [0.0]), n7_a.h)


class TestExactEstimate:
    def test_h_squared_at_zero_state(self, n3_a):
        # the convention-pinning check: (H^2)_00 = 1.5^2 + 0.866^2 = 3.0,
        # so the variance at |0> is 3.0 - 2.25 = 0.75
        result = estimate(ansatz_1q(), [0.0], n3_a.h, n3_a.h2)
        assert result.energy == pytest.approx(-1.5, abs=1e-12)
        assert result.h_squared == pytest.approx(3.0, abs=1e-12)
        assert result.variance == pytest.approx(0.75, abs=1e-12)
        assert result.energy_stderr == 0.0 and result.variance_stderr == 0.0
        assert result.shots is None

    def test_zero_variance_at_eigenstate(self, n3_a):
        ground = np.linalg.eigh(n3_a.block.matrix)[1][:, 0]
        result = estimate(
            ansatz_1q(), [eigenstate_parameters_1q(ground)], n3_a.h, n3_a.h2
        )
        assert abs(result.variance) < 1e-10

    def test_variance_matches_dense_matrix_on_sweep(self, n3_a):
        # <H^2> assembled from Pauli terms against psi^T M^2 psi, and the
        # residual identity ||H psi - E psi||^2 == variance
        m = n3_a.block.matrix
        m2 = square_block(n3_a.block)
        for theta in np.linspace(-np.pi, np.pi, 360):
            result = estimate(ansatz_1q(), [theta], n3_a.h, n3_a.h2)
            psi = run(ansatz_1q(), [theta]).amplitudes.real
            assert result.h_squared == pytest.approx(psi @ m2 @ psi, abs=1e-10)
            residual_sq = np.linalg.norm(m @ psi - (psi @ m @ psi) * psi) ** 2
            assert result.variance == pytest.approx(residual_sq, abs=1e-10)
            assert result.variance >= -1e-12

    def test_variance_nonnegative_on_2q_grid(self, n7_a):
        m = n7_a.block.matrix
        m2 = square_block(n7_a.block)
        axis = np.linspace(-np.pi, np.pi, 10)
        for t0 in axis:
            for t1 in axis:
                for t2 in axis:
                    result = estimate(ansatz_2q(), (t0, t1, t2), n7_a.h, n7_a.h2)
                    assert result.variance >= -1e-12
        # dense cross-check on a diagonal slice of the grid
        for t in axis:
            psi = run(ansatz_2q(), (t, t, t)).amplitudes.real
            result = estimate(ansatz_2q(), (t, t, t), n7_a.h, n7_a.h2)
            assert result.h_squared == pytest.approx(psi @ m2 @ psi, abs=1e-10)

    def test_zero_variance_only_at_eigenvectors(self, n7_a):
        values, vectors = np.linalg.eigh(n7_a.block.matrix)
        for k in range(4):
            params = eigenstate_parameters_2q(vectors[:, k])
            result = estimate(ansatz_2q(), params, n7_a.h, n7_a.h2)
            assert abs(result.variance) < 1e-10
            assert result.energy == pytest.approx(values[k], abs=1e-8)

    def test_square_pair_is_verified(self, n3_a, n3_b):
        with pytest.raises(ValueError):
            estimate(ansatz_1q(), [0.0], n3_a.h, n3_b.h2)

    def test_constant_hamiltonian(self):
        const = PauliSum.from_terms([(0.7, PauliString(("I",)))], 1)
        const_sq = PauliSum.from_terms([(0.49, PauliString(("I",)))], 1)
        result = estimate(ansatz_1q(), [0.4], const, const_sq)
        assert result.energy == pytest.approx(0.7)
        assert result.variance == pytest.approx(0.0, abs=1e-12)


class TestSampledEstimate:
    def test_noiseless_sampling_at_zero_state(self, n3_a):
        result = estimate(ansatz_1q(), [0.0], n3_a.h, n3_a.h2, shots=20_000, seed=3)
        assert result.shots == 20_000
        assert result.energy == pytest.approx(-1.5, abs=4 * max(result.energy_stderr, 1e-6))
        assert 0.003 < result.energy_stderr < 0.02
        assert result.variance == pytest.approx(0.75, abs=4 * result.variance_stderr)

    def test_variance_is_consistent_field(self, n3_a):
        result = estimate(ansatz_1q(), [1.1], n3_a.h, n3_a.h2, shots=5000, seed=8)
        assert result.variance == result.h_squared - result.energy**2
        expected = np.sqrt(
            result.h_squared_stderr**2 + 4 * result.energy**2 * result.energy_stderr**2
        )
        assert result.variance_stderr == pytest.approx(expected, abs=1e-15)

    def test_per_term_layout(self, n7_a):
        result = estimate(ansatz_2q(), (0.3, -0.8, 1.2), n7_a.h, n7_a.h2, shots=2000, seed=1)
        # 6 measured terms for H, 9 for H^2; identity terms are exact
        assert len(result.per_term) == 6 + 9
        strings = [str(s) for s, _, _ in result.per_term]
        assert "I" not in strings

    def test_sampled_close_to_exact_in_200_seeded_trials(self, n3_a):
        theta = 0.62
        exact = estimate(ansatz_1q(), [theta], n3_a.h, n3_a.h2).energy
        failures = 0
        for seed in range(200):
            result = estimate(ansatz_1q(), [theta], n3_a.h, n3_a.h2, shots=20_000, seed=seed)
            if abs(result.energy - exact) > 4 * result.energy_stderr:
                failures += 1
        assert failures <= 2  # >= 99% within 4 stderr

    def test_seed_determinism(self, n7_a):
        kwargs = dict(shots=4000, noise=NoiseModel(0.01, 0.01, 0.02), seed=77)
        a = estimate(ansatz_2q(), (0.5, 0.5, 0.5), n7_a.h, n7_a.h2, **kwargs)
        b = estimate(ansatz_2q(), (0.5, 0.5, 0.5), n7_a.h, n7_a.h2, **kwargs)
        assert a == b

    def test_readout_mitigation_restores_energy(self, n3_a):
        noise = NoiseModel(0.02, 0.02)
        theta = 0.0
        raw = estimate(ansatz_1q(), [theta], n3_a.h, n3_a.h2, shots=100_000, noise=noise, seed=5)
        cooked = estimate(
            ansatz_1q(), [theta], n3_a.h, n3_a.h2, shots=100_000, noise=noise,
            mitigation=Mitigation(readout=True), seed=5,
        )
        assert abs(raw.energy - (-1.5)) > 0.015  # biased without mitigation
        assert cooked.energy == pytest.approx(-1.5, abs=5 * cooked.energy_stderr)

    def test_fold_invariance_without_gate_noise(self, n7_a):
        params = (0.9, -0.3, 0.4)
        base = estimate(ansatz_2q(), params, n7_a.h, n7_a.h2, shots=20_000, seed=21)
        folded_circuit = estimate(
            ansatz_2q(), params, n7_a.h, n7_a.h2, shots=20_000, seed=22,
            mitigation=Mitigation(cnot=True, folds=(1, 3)),
        )
        combined = np.hypot(base.energy_stderr, folded_circuit.energy_stderr)
        assert abs(base.energy - folded_circuit.energy) <= 3 * combined

    def test_constant_hamiltonian_with_mitigation(self):
        # no term is measured, so every fold has an empty (0, 2) count array
        const = PauliSum.from_terms([(0.7, PauliString(("I",)))], 1)
        const_sq = PauliSum.from_terms([(0.49, PauliString(("I",)))], 1)
        result = estimate(
            ansatz_1q(), [0.4], const, const_sq, shots=100, noise=NoiseModel(0.02, 0.02),
            mitigation=Mitigation(readout=True, cnot=True),
        )
        assert (result.energy, result.energy_stderr, result.per_term) == (0.7, 0.0, ())
        assert result.variance == pytest.approx(0.0, abs=1e-12)

    def test_invalid_shots(self, n3_a):
        with pytest.raises(ValueError):
            estimate(ansatz_1q(), [0.0], n3_a.h, n3_a.h2, shots=0)


def _numerical_gradient(func, x, step=1e-6):
    grad = np.zeros_like(x)
    for i in range(x.size):
        dx = np.zeros_like(x)
        dx[i] = step
        grad[i] = (func(x + dx) - func(x - dx)) / (2 * step)
    return grad


def _multinomial_covariance(p, shots):
    return (np.diag(p) - np.outer(p, p)) / shots


def delta_method_variance(counts, signs, matrix, cal_shots):
    """Variance of s^T A^-1 f to first order in the multinomial noise of the
    frequencies f and of every calibrated column of A, from numerical
    Jacobians; cal_shots=None treats A as exact."""
    shots = counts.sum()
    freq = counts / shots
    estimate_of = lambda f, a: signs @ np.linalg.solve(a, f)
    grad_f = _numerical_gradient(lambda f: estimate_of(f, matrix), freq)
    var = grad_f @ _multinomial_covariance(freq, shots) @ grad_f
    if cal_shots is not None:
        for j in range(matrix.shape[1]):
            def of_column(col, j=j):
                a = matrix.copy()
                a[:, j] = col
                return estimate_of(freq, a)
            grad_j = _numerical_gradient(of_column, matrix[:, j])
            var += grad_j @ _multinomial_covariance(matrix[:, j], cal_shots) @ grad_j
    return var


class TestWeightedCountStderr:
    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_matches_delta_method_oracle(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        dim = 2**num_qubits
        terms = [PauliString(tuple("IZ"[b] for b in l)) for l in np.ndindex(*(2,) * num_qubits) if any(l)]
        signs = np.array([parity_signs(t) for t in terms])
        for _ in range(5):
            matrix = np.eye(dim) + rng.uniform(0.0, 0.2, (dim, dim))
            matrix /= matrix.sum(axis=0)
            cal_shots = int(rng.integers(1000, 50_000))
            counts = np.array([
                rng.multinomial(int(rng.integers(1000, 50_000)), rng.dirichlet(np.ones(dim)))
                for _ in terms
            ])
            for cal in (None, ConfusionMatrix(matrix, shots_per_column=cal_shots)):
                _, stderrs = _term_estimates(counts, signs, cal)
                expected = [
                    delta_method_variance(c, s, np.eye(dim) if cal is None else matrix,
                                          None if cal is None else cal_shots)
                    for c, s in zip(counts, signs)
                ]
                np.testing.assert_allclose(stderrs**2, expected, rtol=1e-6, atol=0)

    def test_readout_mitigated_z_scores_have_unit_spread(self, n7_a):
        # the calibration noise and the inversion both widen the error bar;
        # leaving them out gives a z spread of about 1.14 on these points
        rng = np.random.default_rng(2024)
        noise = NoiseModel(0.02, 0.02)
        z = []
        for seed in range(300):
            params = rng.uniform(-np.pi, np.pi, 3)
            exact = estimate(ansatz_2q(), params, n7_a.h, n7_a.h2)
            got = estimate(
                ansatz_2q(), params, n7_a.h, n7_a.h2, shots=20_000, noise=noise,
                mitigation=Mitigation(readout=True), seed=seed,
            )
            z.append([
                (getattr(got, f) - getattr(exact, f)) / getattr(got, f + "_stderr")
                for f in ("energy", "h_squared", "variance")
            ])
        assert np.all(np.std(z, axis=0) <= 1.10)

    def test_ill_conditioned_calibration_widens_stderr(self):
        cal = ConfusionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), shots_per_column=20_000)
        z0 = PauliString(("Z",))
        _, raw = expectation_from_counts([5500, 4500], z0)
        _, mitigated = expectation_from_counts([5500, 4500], z0, cal)
        assert mitigated >= 4 * raw
