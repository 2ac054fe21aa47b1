from functools import reduce

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

from conftest import outcome_rows, term_estimate

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

    @pytest.mark.parametrize("num_qubits", [0, 2.0, True])
    def test_qubit_count_must_be_a_positive_integer(self, num_qubits):
        with pytest.raises(ValueError, match="num_qubits must be a positive integer"):
            calibrate(num_qubits, NoiseModel(), 100)


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
        dist = outcome_rows(ansatz_1q(), [np.pi], [Z0], noise)[0]
        result = measure_term(dist, 200_000, 6)
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
            dist = outcome_rows(ansatz_1q(), [theta], [Z0], noise)[0]
            result = measure_term(dist, shots, seed + 100)
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


class TestCalibrationColumns:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_columns_are_seeded_draws_from_the_readout_channel(self, num_qubits):
        # column j: the j-th multinomial draw of one default_rng(seed), from
        # kron(confusion) @ e_j
        rng = np.random.default_rng(num_qubits)
        for _ in range(5):
            p01, p10 = rng.uniform(0.0, 0.3, 2)
            shots, seed = int(rng.integers(1, 50_000)), int(rng.integers(0, 2**31))
            cal = calibrate(num_qubits, NoiseModel(p01, p10, 0.1), shots, seed=seed)
            confusion = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
            readout = reduce(np.kron, [confusion] * num_qubits)
            stream = np.random.default_rng(seed)
            for j in range(2**num_qubits):
                basis_state = np.eye(2**num_qubits)[j]
                counts = stream.multinomial(shots, readout @ basis_state)
                assert np.array_equal(cal.matrix[:, j], counts / shots)


class TestConfusionMatrixValidation:
    def test_columns_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[0.9, 0.0], [0.0, 1.0]]), shots_per_column=1)

    def test_entries_must_be_probabilities(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]), shots_per_column=1)

    @pytest.mark.parametrize("matrix, shots", [
        ([[np.nan, 0.0], [np.nan, 1.0]], 100),
        ([[1.0, 0.0], [0.0, np.nan]], 100),
        ([[1.0, np.inf], [0.0, 1.0]], 100),
        (np.eye(2), 0),
        (np.eye(2), -3),
        (np.eye(2), 2.5),
        (np.eye(2), True),
        (np.eye(2), None),
    ], ids=["nan-column", "nan-entry", "inf-entry", "zero-shots", "negative-shots",
            "float-shots", "bool-shots", "no-shots"])
    def test_nan_entries_and_bad_shots_rejected(self, matrix, shots):
        # a NaN entry would turn every mitigated count into NaN, and zero
        # shots per column would divide by zero in the calibration stderrs
        with pytest.raises(ValueError):
            ConfusionMatrix(np.array(matrix), shots_per_column=shots)

    @pytest.mark.parametrize("matrix", [np.full((2, 4), 0.5), np.array([1.0, 0.0])],
                             ids=["rectangular", "vector"])
    def test_matrix_must_be_square(self, matrix):
        with pytest.raises(ValueError, match="confusion matrix must be square"):
            ConfusionMatrix(matrix, shots_per_column=1)


    @pytest.mark.parametrize("side", [1, 3, 6])
    def test_side_must_be_a_power_of_two(self, side):
        # a 1x1 matrix would mitigate any count vector to [1.]; a 3x3 one
        # would be taken for 2 qubits and refuse every 3-entry count vector
        with pytest.raises(ValueError, match="not 2\\^n"):
            ConfusionMatrix(np.eye(side), shots_per_column=100)

    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_qubit_count_is_the_side_exponent(self, num_qubits):
        cal = ConfusionMatrix(np.eye(2**num_qubits), shots_per_column=100)
        assert cal.num_qubits == num_qubits and type(cal.num_qubits) is int


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

    @pytest.mark.parametrize("folds", [(1, 3), (1, 3, 5)])
    def test_arrays_match_scalar_calls_bit_for_bit(self, folds):
        rng = np.random.default_rng(len(folds))
        values = rng.normal(size=(len(folds), 40))
        stderrs = np.abs(rng.normal(size=(len(folds), 40))) * 0.05
        stderrs[:, :5] = 0.0  # unweighted fit for these elements
        stderrs[0, 5:10] = 0.0  # one zero stderr also turns weighting off
        estimates, errors = cnot_extrapolate(zip(folds, values, stderrs))
        assert estimates.shape == errors.shape == (40,)
        for t in range(40):
            points = [(f, values[i, t], stderrs[i, t]) for i, f in enumerate(folds)]
            scalar = cnot_extrapolate(points)
            assert scalar == (estimates[t], errors[t])
            assert all(type(x) is float for x in scalar)

    def test_needs_two_distinct_folds(self):
        with pytest.raises(ValueError):
            cnot_extrapolate([(1, 1.0, 0.0)])
        with pytest.raises(ValueError):
            cnot_extrapolate([(1, 1.0, 0.0), (1, 0.9, 0.0)])

    @pytest.mark.parametrize("values", [
        [(1.5, 1.0, 0.1), (3, 1.0, 0.1)],
        [(1, 1.0, 0.1), (3.0, 0.9, 0.1)],
        [(True, 1.0, 0.1), (3, 0.9, 0.1)],
        [(0, 1.0, 0.1), (3, 0.9, 0.1)],
        [(1, 1.0, -0.1), (3, 0.9, 0.1)],
        [(1, 1.0, np.nan), (3, 0.9, 0.1)],
        [(1, np.ones(3), np.full(3, 0.1)), (3, np.ones(3), np.array([0.1, -0.1, 0.1]))],
        [(1, np.ones(3), 0.1), (3, np.ones(3), 0.1)],
        [(1, np.ones((2, 3)), np.full(6, 0.1)), (3, np.ones((2, 3)), np.full(6, 0.1))],
        [(1, np.ones(3), np.full(3, 0.1)), (3, np.ones(2), np.full(2, 0.1))],
    ], ids=["fractional-fold", "float-fold", "bool-fold", "zero-fold", "negative-stderr",
            "nan-stderr", "negative-stderr-element", "stderr-shape", "stderr-flat-shape",
            "estimate-shapes"])
    def test_bad_folds_and_stderrs_rejected(self, values):
        # a fold of 1.5 must not be read as fold 1; zero stderrs are valid
        # (an unweighted fit, see test_two_point_formula)
        with pytest.raises(ValueError):
            cnot_extrapolate(values)

    @pytest.mark.parametrize("p_cnot", [0.01, 0.05])
    def test_linear_fold_bias_closed_form(self, p_cnot):
        # ansatz_2q has 2 CNOTs, so fold f scales every non-identity mean m
        # by lambda^(2f) and the fold-(1,3) line meets fold 0 at m (3 l^2 - l^6) / 2
        from itertools import product

        from lmgvqe import ansatz_2q, fold_cnots

        lam = 1.0 - 16.0 * p_cnot / 15.0
        shrink = (3 * lam**2 - lam**6) / 2
        rng = np.random.default_rng(7)
        for labels in list(product("IXYZ", repeat=2))[1:]:
            term = PauliString(labels)
            params = rng.uniform(-np.pi, np.pi, 3)
            mean = lambda fold, p: parity_signs(term) @ outcome_rows(
                fold_cnots(ansatz_2q(), fold), params, [term], NoiseModel(cnot_depolarizing=p)
            )[0]
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
        from lmgvqe import ansatz_2q, fold_cnots, run
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
                dist = outcome_rows(fold_cnots(circuit, fold), params, [z0], noise)[0]
                result = measure_term(dist, shots, 500 + 10 * i + fold)
                estimates[fold] = term_estimate(result, z0)
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

    @pytest.mark.parametrize("flags", [
        dict(folds=(2,)),
        dict(folds=(1, 1)),
        dict(folds=(0,)),
        dict(folds=(-1, 3)),
        dict(readout=True, folds=(2, 4)),
        dict(folds=(1.0, 3)),
        dict(cnot=True, folds=(1, 3.0)),
        dict(cnot=True, folds=(True, 3)),
    ])
    def test_every_fold_checked_whatever_the_flags(self, flags):
        with pytest.raises(ValueError, match="fold"):
            Mitigation(**flags)

    def test_one_fold_enough_without_cnot(self):
        assert Mitigation(readout=True, folds=(1,)).folds == (1,)
        assert Mitigation(cnot=True, folds=[np.int64(1), np.int64(5)]).folds == (1, 5)

    def test_defaults(self):
        flags = Mitigation()
        assert flags.folds == (1, 3)


class TestMitigateCountsPerRow:
    """A sequence of calibrations corrects each row of counts with its own,
    as the single call on that row does, bit for bit."""

    def test_rows_equal_single_calls(self):
        noise = NoiseModel(0.03, 0.05)
        cals = [calibrate(2, noise, 2000, seed) for seed in range(3)]
        rng = np.random.default_rng(7)
        counts = rng.multinomial(1000, np.full(4, 0.25), size=(3, 2, 5))
        together = mitigate_counts(counts, cals)
        assert together.shape == counts.shape
        for row, cal, got in zip(counts, cals, together):
            assert mitigate_counts(row, cal).tobytes() == got.tobytes()

    @pytest.mark.parametrize("rows", [2, 4])
    def test_one_calibration_per_row(self, rows):
        cals = [ConfusionMatrix(np.eye(2), shots_per_column=1)] * 3
        with pytest.raises(ValueError, match="one calibration per row"):
            mitigate_counts(np.ones((rows, 2), dtype=int), cals)
