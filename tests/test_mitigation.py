import numpy as np
import pytest

from lmgvqe import (
    ConfusionMatrix,
    Mitigation,
    NoiseModel,
    PauliString,
    ansatz_1q,
    calibrate,
    cnot_extrapolate,
    measure_term,
    mitigate_counts,
    parity_signs,
)

Z0 = PauliString(("Z",))

FLIP_2PC = np.array([[0.98, 0.02], [0.02, 0.98]])


class TestCalibrate:
    def test_noiseless_gives_identity(self):
        cal = calibrate(1, NoiseModel(), shots=2000, seed=0)
        np.testing.assert_allclose(cal.matrix, np.eye(2))
        cal = calibrate(2, NoiseModel(), shots=500, seed=0)
        np.testing.assert_allclose(cal.matrix, np.eye(4))

    def test_single_qubit_channel(self):
        cal = calibrate(1, NoiseModel(0.02, 0.02), shots=200_000, seed=1)
        np.testing.assert_allclose(cal.matrix, FLIP_2PC, atol=2e-3)

    def test_two_qubit_channel_is_tensor_product(self):
        cal = calibrate(2, NoiseModel(0.02, 0.02), shots=200_000, seed=2)
        np.testing.assert_allclose(cal.matrix, np.kron(FLIP_2PC, FLIP_2PC), atol=3e-3)

    def test_columns_are_stochastic(self):
        cal = calibrate(2, NoiseModel(0.05, 0.1), shots=1000, seed=3)
        np.testing.assert_allclose(cal.matrix.sum(axis=0), np.ones(4), atol=1e-9)

    def test_gate_noise_does_not_leak_into_calibration(self):
        quiet = calibrate(1, NoiseModel(0.02, 0.02, 0.0), shots=5000, seed=4)
        noisy = calibrate(1, NoiseModel(0.02, 0.02, 0.4), shots=5000, seed=4)
        np.testing.assert_allclose(quiet.matrix, noisy.matrix)


class TestMitigateCounts:
    def test_identity_calibration_is_identity_map(self):
        cal = ConfusionMatrix(np.eye(2), shots_per_column=1)
        result = np.array([960, 40])
        quasi = mitigate_counts(result, cal)
        assert quasi.tolist() == [0.96, 0.04]

    def test_exact_channel_inversion(self):
        # frequencies (0.98, 0.02) are exactly the 2% channel acting on |0>
        cal = ConfusionMatrix(FLIP_2PC, shots_per_column=1)
        result = np.array([9800, 200])
        quasi = mitigate_counts(result, cal)
        assert quasi[0] == pytest.approx(1.0, abs=1e-9)
        assert quasi[1] == pytest.approx(0.0, abs=1e-9)

    def test_linear_solve_oracle(self):
        # generic frequencies: solution must satisfy cal @ x = f exactly
        cal = ConfusionMatrix(FLIP_2PC, shots_per_column=1)
        result = np.array([9600, 400])
        x = mitigate_counts(result, cal)
        np.testing.assert_allclose(FLIP_2PC @ x, [0.96, 0.04], atol=1e-12)
        assert x[0] == pytest.approx((0.98 * 0.96 - 0.02 * 0.04) / (0.98**2 - 0.02**2), abs=1e-12)

    def test_quasi_distribution_sums_to_one(self):
        cal = ConfusionMatrix(FLIP_2PC, shots_per_column=1)
        result = np.array([9990, 10])
        quasi = mitigate_counts(result, cal)
        assert quasi.sum() == pytest.approx(1.0, abs=1e-9)
        assert quasi[1] < 0.0  # negative quasi-probability kept, not clipped

    def test_end_to_end_bias_removed_on_excited_state(self):
        noise = NoiseModel(0.02, 0.02)
        cal = calibrate(1, noise, shots=200_000, seed=5)
        result = measure_term(ansatz_1q(), [np.pi], Z0, 200_000, noise=noise, seed=6)
        raw_mean, raw_stderr = -1.0 + 2 * result[0] / result.sum(), None
        mitigated = parity_signs(Z0) @ mitigate_counts(result, cal)
        assert abs(raw_mean - (-0.96)) < 0.01
        assert mitigated == pytest.approx(-1.0, abs=3 * np.sqrt(1.0 / 200_000) * 3)

    def test_bias_reduction_factor_five(self):
        # at 1e5 calibration and measurement shots the residual bias is
        # dominated by sampling noise, far below a fifth of the raw bias
        noise = NoiseModel(0.02, 0.02)
        shots = 100_000
        for seed, theta, true in ((11, 0.0, 1.0), (12, np.pi, -1.0)):
            cal = calibrate(1, noise, shots=shots, seed=seed)
            result = measure_term(ansatz_1q(), [theta], Z0, shots, noise=noise, seed=seed + 100)
            raw = (result[0] - result[1]) / shots
            mitigated = parity_signs(Z0) @ mitigate_counts(result, cal)
            assert abs(mitigated - true) <= abs(raw - true) / 5.0

    def test_singular_calibration_reported(self):
        from lmgvqe import MitigationError

        degenerate = ConfusionMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), shots_per_column=1)
        with pytest.raises(MitigationError):
            mitigate_counts(np.array([1, 0]), degenerate)

    def test_dimension_mismatch(self):
        cal = ConfusionMatrix(np.eye(2), shots_per_column=1)
        with pytest.raises(ValueError):
            mitigate_counts(np.array([1, 0, 0, 0]), cal)


class TestConfusionMatrixValidation:
    def test_columns_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]), shots_per_column=1)

    def test_entries_must_be_probabilities(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]), shots_per_column=1)


class TestCnotExtrapolate:
    def test_two_point_formula(self):
        estimate, stderr = cnot_extrapolate([(1, 1.0, 0.0), (3, 0.8, 0.0)])
        assert estimate == pytest.approx(1.1, abs=1e-12)
        assert stderr == 0.0

    def test_flat_data_extrapolates_to_itself(self):
        estimate, stderr = cnot_extrapolate([(1, 0.42, 0.01), (3, 0.42, 0.01)])
        assert estimate == pytest.approx(0.42, abs=1e-12)
        assert stderr == pytest.approx(np.sqrt(9 + 1) / 2 * 0.01, abs=1e-12)

    def test_two_point_error_propagation(self):
        _, stderr = cnot_extrapolate([(1, 0.5, 0.02), (3, 0.3, 0.04)])
        assert stderr == pytest.approx(np.sqrt(9 * 0.02**2 + 0.04**2) / 2, abs=1e-12)

    def test_exact_linear_recovery_three_points(self):
        intercept, slope = 0.73, -0.041
        points = [(f, intercept + slope * f, 0.5) for f in (1, 3, 5)]
        estimate, _ = cnot_extrapolate(points)
        assert estimate == pytest.approx(intercept, abs=1e-12)

    def test_weighted_fit_prefers_precise_points(self):
        # huge stderr on the outlier removes its influence
        points = [(1, 1.0, 0.001), (3, 0.8, 0.001), (5, 5.0, 1e6)]
        estimate, _ = cnot_extrapolate(points)
        assert estimate == pytest.approx(1.1, abs=1e-3)

    def test_needs_two_distinct_folds(self):
        with pytest.raises(ValueError):
            cnot_extrapolate([(1, 1.0, 0.0)])
        with pytest.raises(ValueError):
            cnot_extrapolate([(1, 1.0, 0.0), (1, 0.9, 0.0)])

    @pytest.mark.parametrize("p_cnot", [0.01, 0.05])
    def test_linear_fold_bias_closed_form(self, p_cnot):
        # ansatz_2q has 2 CNOTs, so fold f scales every non-identity mean m
        # by lambda^(2f) and the fold-(1,3) line meets fold 0 at m (3 l^2 - l^6) / 2
        from itertools import product

        from lmgvqe import ansatz_2q, fold_cnots
        from lmgvqe.simulator import _outcome_distribution

        lam = 1.0 - 16.0 * p_cnot / 15.0
        shrink = (3 * lam**2 - lam**6) / 2
        rng = np.random.default_rng(7)
        for labels in list(product("IXYZ", repeat=2))[1:]:
            term = PauliString(labels)
            params = rng.uniform(-np.pi, np.pi, 3)
            mean = lambda fold, p: parity_signs(term) @ _outcome_distribution(
                fold_cnots(ansatz_2q(), fold), params, term, NoiseModel(cnot_depolarizing=p)
            )
            extrapolated, _ = cnot_extrapolate([(f, mean(f, p_cnot), 0.0) for f in (1, 3)])
            assert extrapolated == pytest.approx(mean(1, 0.0) * shrink, abs=1e-12)
        if p_cnot == 0.01:
            # relative bias at the default synthetic noise: small next to
            # 20k-shot error bars, so linear extrapolation stays
            assert 1 - shrink == pytest.approx(6.7e-4, abs=1e-5)

    def test_depolarizing_bias_removed_on_single_observable(self):
        # <Z0> under 1% CNOT depolarizing across a 10-point grid chosen so
        # the true observable stays well away from zero; the fold-(1,3)
        # extrapolation beats the bare fold-1 estimate nearly everywhere
        from lmgvqe import ansatz_2q, expectation_from_counts, fold_cnots, run
        from lmgvqe.pauli import string_matrix

        noise = NoiseModel(cnot_depolarizing=0.01)
        z0 = PauliString(("Z", "I"))
        shots = 100_000
        circuit = ansatz_2q()
        wins = 0
        for i, t1 in enumerate(np.linspace(-0.9, 0.9, 10)):
            params = (0.4, t1, -0.7)
            state = run(circuit, params)
            exact = float(np.real(
                np.vdot(state.amplitudes, string_matrix(z0) @ state.amplitudes)
            ))
            estimates = {}
            for fold in (1, 3):
                result = measure_term(
                    fold_cnots(circuit, fold), params, z0, shots,
                    noise=noise, seed=500 + 10 * i + fold,
                )
                estimates[fold] = expectation_from_counts(result, z0)
            extrapolated, _ = cnot_extrapolate(
                [(f, m, s) for f, (m, s) in estimates.items()]
            )
            if abs(extrapolated - exact) < abs(estimates[1][0] - exact):
                wins += 1
        assert wins >= 8


class TestMitigationFlags:
    def test_cnot_requires_two_folds(self):
        with pytest.raises(ValueError):
            Mitigation(cnot=True, folds=(1,))
        with pytest.raises(ValueError):
            Mitigation(cnot=True, folds=(1, 2))

    def test_defaults(self):
        flags = Mitigation()
        assert not flags.any_active
        assert flags.folds == (1, 3)
