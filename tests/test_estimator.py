import hashlib
import inspect
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from lmgvqe import (
    DEFAULT_SYNTHETIC_NOISE,
    ConfusionMatrix,
    EstimatorConfig,
    Mitigation,
    NoiseModel,
    ansatz_1q,
    ansatz_2q,
    calibrate,
    discover_spectrum,
    estimate,
    fold_cnots,
    measure_term,
    parity_signs,
    run,
    square_block,
)
import lmgvqe.estimator as estimator_module
import lmgvqe.optimizer as optimizer_module
import lmgvqe.simulator as simulator_module
from lmgvqe import accidental_zero_check
from lmgvqe.estimator import _term_estimates
from lmgvqe.pauli import PauliString, PauliSum, decompose, string_matrix
from lmgvqe.simulator import _basis_table

from conftest import (
    N3_A_EIGS, eigenstate_parameters_1q, eigenstate_parameters_2q, outcome_rows, term_estimate,
)


class TestExpectationExact:
    def test_diagonal_elements_via_basis_states(self, n3_a):
        assert estimate(ansatz_1q(), [0.0], n3_a.h, n3_a.h2).energy == pytest.approx(-1.5)
        assert estimate(ansatz_1q(), [np.pi], n3_a.h, n3_a.h2).energy == pytest.approx(0.5)

    def test_ground_state_energy(self, n3_a):
        ground = np.linalg.eigh(n3_a.block.matrix)[1][:, 0]
        theta = eigenstate_parameters_1q(ground)
        energy = estimate(ansatz_1q(), [theta], n3_a.h, n3_a.h2).energy
        assert energy == pytest.approx(N3_A_EIGS[0], abs=1e-6)
        assert energy == pytest.approx(-1.823, abs=1e-3)

    def test_qubit_mismatch(self, n7_a):
        with pytest.raises(ValueError):
            estimate(ansatz_1q(), [0.0], n7_a.h, n7_a.h2)


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
            assert result.variance >= 0.0

    def test_variance_nonnegative_on_2q_grid(self, n7_a):
        m = n7_a.block.matrix
        m2 = square_block(n7_a.block)
        axis = np.linspace(-np.pi, np.pi, 10)
        for t0 in axis:
            for t1 in axis:
                for t2 in axis:
                    result = estimate(ansatz_2q(), (t0, t1, t2), n7_a.h, n7_a.h2)
                    assert result.variance >= 0.0
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

    def test_variance_to_full_precision_near_eigenvectors(self, n7_a):
        # sigma^2 of 1e-10..1e-7 against a rational evaluation on the same
        # float64 amplitudes; <H^2> - <H>^2 loses about five digits here
        matrix = n7_a.h.matrix
        assert not matrix.imag.any()
        rational_h = [[Fraction(x) for x in row] for row in matrix.real]
        for vector in np.linalg.eigh(n7_a.block.matrix)[1].T:
            for shift in (1e-5, -3e-5):
                params = [p + shift for p in eigenstate_parameters_2q(vector)]
                amps = run(ansatz_2q(), params).amplitudes
                assert not amps.imag.any()
                psi = [Fraction(x) for x in amps.real]
                h_psi = [sum(a * b for a, b in zip(row, psi)) for row in rational_h]
                norm = sum(x * x for x in psi)
                energy = sum(a * b for a, b in zip(psi, h_psi)) / norm
                exact = sum(x * x for x in h_psi) / norm - energy**2
                result = estimate(ansatz_2q(), params, n7_a.h, n7_a.h2)
                assert 1e-10 < exact < 1e-7
                assert result.variance == pytest.approx(float(exact), rel=1e-9, abs=0.0)

    def test_square_pair_is_verified(self, n3_a, n3_b):
        with pytest.raises(ValueError):
            estimate(ansatz_1q(), [0.0], n3_a.h, n3_b.h2)

        def scaled_first_term(factor):
            (c, s), *rest = n3_a.h2.terms
            return PauliSum(((c * factor, s), *rest), n3_a.h2.num_qubits)

        with pytest.raises(ValueError, match="not the square"):
            estimate(ansatz_1q(), [0.0], n3_a.h, scaled_first_term(1 + 1e-6))
        result = estimate(ansatz_1q(), [0.0], n3_a.h, scaled_first_term(1 + 1e-12))
        assert result.variance == pytest.approx(0.75, abs=1e-9)

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

    @pytest.mark.parametrize("shots", [2.5, True, 20_000.0], ids=["fraction", "bool", "float"])
    def test_non_integer_shots(self, n3_a, shots):
        with pytest.raises(ValueError, match="positive integer"):
            estimate(ansatz_1q(), [0.3], n3_a.h, n3_a.h2, shots=shots, seed=1)

    @pytest.mark.parametrize("calibration_shots", [0, 2.5, True])
    def test_invalid_calibration_shots(self, calibration_shots):
        with pytest.raises(ValueError, match="calibration_shots must be a positive integer"):
            Mitigation(readout=True, calibration_shots=calibration_shots)

    def test_calibration_shots_default_to_shots(self, n3_a, monkeypatch):
        import lmgvqe.estimator as estimator_module

        used = []

        def recording(num_qubits, noise, shots, seed=0):
            used.append(shots)
            return calibrate(num_qubits, noise, shots, seed)

        monkeypatch.setattr(estimator_module, "calibrate", recording)
        for calibration_shots in (None, 300):
            estimate(ansatz_1q(), [0.3], n3_a.h, n3_a.h2, shots=1000, noise=NoiseModel(0.02, 0.02),
                     mitigation=Mitigation(readout=True, calibration_shots=calibration_shots))
        assert used == [1000, 300]

    @pytest.mark.parametrize("noise,mitigation", [
        (NoiseModel(0.2, 0.2), None),
        (NoiseModel(cnot_depolarizing=0.01), None),
        (NoiseModel(), Mitigation(readout=True)),
        (NoiseModel(), Mitigation(cnot=True)),
    ], ids=["readout-noise", "cnot-noise", "readout-mitigation", "cnot-mitigation"])
    def test_exact_mode_rejects_noise_and_mitigation(self, n3_a, noise, mitigation):
        # exact mode has no noise channel; it must not return noiseless numbers
        with pytest.raises(ValueError):
            estimate(ansatz_1q(), [0.3], n3_a.h, n3_a.h2, shots=None,
                     noise=noise, mitigation=mitigation)


class TestExactReads:
    """Exact estimates, and each term's mean on the ideal outcome table the
    sampled path draws from, against oracles built here from each string's
    own dense matrix, on 200 seeded points per block."""

    @pytest.mark.parametrize("name", ["n3_a", "n3_b", "n7_a", "n7_b"])
    def test_against_string_matrix_oracle(self, request, name):
        setup = request.getfixturevalue(name)
        strings = [s for _, s in setup.h.measured_terms + setup.h2.measured_terms]
        signs = np.concatenate([setup.h.measured_signs, setup.h2.measured_signs])

        def oracle(psum, amps):
            return psum.identity_coefficient.real + sum(
                c * np.vdot(amps, string_matrix(s) @ amps).real for c, s in psum.measured_terms
            )

        rng = np.random.default_rng(47)
        for params in rng.uniform(-np.pi, np.pi, (200, setup.circuit.num_parameters)):
            result = estimate(setup.circuit, params, setup.h, setup.h2)
            state = run(setup.circuit, params)
            table, index = _basis_table(state, strings)
            means = (signs * table.take(index, axis=-2)).sum(-1)
            for mean, string in zip(means, strings):
                expected = np.vdot(state.amplitudes, string_matrix(string) @ state.amplitudes).real
                assert mean == pytest.approx(expected, abs=1e-12)
            assert result.energy == pytest.approx(oracle(setup.h, state.amplitudes), abs=1e-12)
            assert result.h_squared == pytest.approx(oracle(setup.h2, state.amplitudes), abs=1e-12)


class TestSinglePointEntries:
    """The single-point entries reject a batch, and accidental_zero_check a
    Hamiltonian on another register, before any state is prepared."""

    @pytest.mark.parametrize("entry,match", [
        ("estimate", "one point"),
        ("estimate_sampled", "one point"),
        ("accidental_zero_check", "one point"),
        ("accidental_zero_check_register", "qubit counts"),
    ])
    def test_batch_rejected_before_any_preparation(self, n7_a, monkeypatch, entry, match):
        c, h, h2 = n7_a.circuit, n7_a.h, n7_a.h2
        batch = np.random.default_rng(3).uniform(-np.pi, np.pi, (2, 3))
        calls = {
            "estimate": lambda: estimate(c, batch, h, h2),
            "estimate_sampled": lambda: estimate(c, batch, h, h2, shots=100),
            "accidental_zero_check": lambda: accidental_zero_check(c, batch, h),
            "accidental_zero_check_register":
                lambda: accidental_zero_check(c, batch[0], decompose(np.eye(2))),
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("a state was prepared")

        for module in (estimator_module, optimizer_module):
            monkeypatch.setattr(module, "run", forbidden)
        with pytest.raises(ValueError, match=match):
            calls[entry]()


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

    def test_one_sign_terms_get_the_agresti_coull_floor(self):
        signs = np.array([parity_signs(PauliString(l)) for l in (("Z", "I"), ("I", "Z"), ("Z", "Z"))])
        # term 0 and term 2 have all shots on one sign, term 1 has both
        counts = np.array([[700, 300, 0, 0], [640, 0, 360, 0], [0, 1000, 0, 0]])
        one_qubit = np.array([[0.9, 0.2], [0.1, 0.8]])
        p = 2 / 1004
        floor = np.sqrt(4 * p * (1 - p) / 1004)
        for cal in (None, ConfusionMatrix(np.kron(one_qubit, one_qubit), shots_per_column=500)):
            means, stderrs = _term_estimates(counts, signs, cal)
            alone = _term_estimates(counts[1:2], signs[1:2], cal)
            assert (means[1], stderrs[1]) == (alone[0][0], alone[1][0])  # term 1 keeps its bits
            assert stderrs[0] >= floor * (1 - 1e-12) and stderrs[2] >= floor * (1 - 1e-12)
        # unmitigated, the floor is the whole variance
        means, stderrs = _term_estimates(counts, signs, None)
        assert means[0] == 1.0 and means[2] == -1.0
        np.testing.assert_allclose(stderrs[[0, 2]], floor, rtol=1e-12)

    def test_ill_conditioned_calibration_widens_stderr(self):
        cal = ConfusionMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), shots_per_column=20_000)
        z0 = PauliString(("Z",))
        _, raw = term_estimate([5500, 4500], z0)
        _, mitigated = term_estimate([5500, 4500], z0, cal)
        assert mitigated >= 4 * raw


class TestOnePreparationPerEstimate:
    PARAMETERS = (0.3, -1.1, 2.0)

    @pytest.mark.parametrize("noise, mitigation, expected", [
        (DEFAULT_SYNTHETIC_NOISE,
         Mitigation(readout=True, cnot=True, folds=(1, 3), calibration_shots=20_000),
         "-0x1.fb284cdd7e775p-1 0x1.7c8166e267d8ap+3 0x1.6cb35feda2867p-5 0x1.7e8c7a03b68ecp-3"),
        (NoiseModel(cnot_depolarizing=0.02), Mitigation(cnot=True, folds=(1, 3, 5)),
         "-0x1.ded6e9f2d510cp-1 0x1.80c89a28330ffp+3 0x1.f3e6b038d3469p-6 0x1.018f4febc6563p-3"),
        (DEFAULT_SYNTHETIC_NOISE, Mitigation(),
         "-0x1.020ec96f7134ep+0 0x1.88b52feead8ecp+3 0x1.a0a9f44fc254bp-6 0x1.b33f0d73c28ccp-4"),
    ], ids=["readout_cnot13", "cnot135", "unmitigated"])
    def test_seeded_outputs_pinned(self, n7_a, noise, mitigation, expected):
        # the bits of these seeded streams; a change that alters any seeded
        # sample stream must update them and say so
        got = estimate(ansatz_2q(), self.PARAMETERS, n7_a.h, n7_a.h2, shots=20_000,
                       noise=noise, mitigation=mitigation, seed=11)
        fields = (got.energy, got.variance, got.energy_stderr, got.variance_stderr)
        assert " ".join(x.hex() for x in fields) == expected

    @pytest.mark.parametrize("folds", [(1,), (1, 3), (1, 3, 5)])
    def test_state_prepared_once(self, n7_a, folds, monkeypatch):
        import lmgvqe.estimator as estimator_module

        calls = []

        def counting_run(circuit, parameters=()):
            calls.append(circuit)
            return run(circuit, parameters)

        monkeypatch.setattr(estimator_module, "run", counting_run)
        mitigation = Mitigation(readout=True, cnot=len(folds) > 1, folds=folds)
        estimate(ansatz_2q(), self.PARAMETERS, n7_a.h, n7_a.h2, shots=1000,
                 noise=DEFAULT_SYNTHETIC_NOISE, mitigation=mitigation, seed=3)
        assert calls == [ansatz_2q()]


class TestCallsPerEstimate:
    """One readout- and CNOT-mitigated estimate keeps its call structure: one
    preparation and one calibration, one draw per calibration column and per
    term and fold, one readout correction, one folded circuit per fold and
    one extrapolation.  The benchmark's traced run counts these calls and
    the shots drawn, so a cache or shortcut that drops one changes what it
    reports."""

    BINDINGS = (
        ("estimator", "run"), ("estimator", "calibrate"), ("estimator", "measure_term"),
        ("mitigation", "measure_term"), ("estimator", "mitigate_counts"),
        ("estimator", "fold_cnots"), ("estimator", "cnot_extrapolate"),
    )

    @pytest.mark.parametrize("folds", [(1, 3), (1, 3, 5)])
    def test_calls_by_name(self, n7_a, folds, monkeypatch):
        import lmgvqe.mitigation as mitigation_module

        modules = {"estimator": estimator_module, "mitigation": mitigation_module}
        calls, shots = Counter(), Counter()
        signature = inspect.signature(measure_term)

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "measure_term":
                    shots[name] += signature.bind(*args, **kwargs).arguments["shots"]
                return function(*args, **kwargs)
            return wrapper

        for module, name in self.BINDINGS:
            monkeypatch.setattr(modules[module], name, counted(name, getattr(modules[module], name)))
        mitigation = Mitigation(readout=True, cnot=True, folds=folds, calibration_shots=3000)
        estimate(ansatz_2q(), (0.3, -1.1, 2.0), n7_a.h, n7_a.h2, shots=1000,
                 noise=DEFAULT_SYNTHETIC_NOISE, mitigation=mitigation, seed=5)
        terms = len(n7_a.h.measured_terms) + len(n7_a.h2.measured_terms)
        assert terms == 15
        assert dict(calls) == {
            "run": 1, "calibrate": 1, "measure_term": 4 + terms * len(folds),
            "mitigate_counts": 1, "fold_cnots": len(folds), "cnot_extrapolate": 1,
        }
        assert shots["measure_term"] == 4 * 3000 + terms * len(folds) * 1000


class TestOneStreamPerEstimate:
    """Every draw of a sampled estimate comes from one ``default_rng(seed)``:
    the calibration columns first, then fold by fold each term's shots."""

    PARAMETERS = (0.7, 0.4, -1.9)
    SEED = 23

    @staticmethod
    def _capture(monkeypatch):
        import lmgvqe.estimator as estimator_module
        import lmgvqe.mitigation as mitigation_module

        drawn = []

        def recording_measure_term(distribution, shots, seed=0):
            counts = measure_term(distribution, shots, seed)
            drawn.append(counts)
            return counts

        monkeypatch.setattr(estimator_module, "measure_term", recording_measure_term)
        monkeypatch.setattr(mitigation_module, "measure_term", recording_measure_term)
        return drawn

    def _replay(self, block, noise, mitigation, shots, cal_shots):
        # independent of the estimator: the readout kron from the noise
        # model, the term rows from each folded circuit's exact distributions
        stream = np.random.default_rng(self.SEED)
        expected = []
        if mitigation.readout:
            confusion = np.array([[1.0 - noise.readout_p01, noise.readout_p10],
                                  [noise.readout_p01, 1.0 - noise.readout_p10]])
            readout = np.kron(confusion, confusion)
            expected += [stream.multinomial(cal_shots, readout[:, j]) for j in range(4)]
        terms = block.h.measured_arrays[2] + block.h2.measured_arrays[2]
        for fold in mitigation.folds if mitigation.cnot else (1,):
            circuit = fold_cnots(ansatz_2q(), fold)
            rows = outcome_rows(circuit, self.PARAMETERS, terms, noise)
            expected += [stream.multinomial(shots, row) for row in rows]
        return expected

    @pytest.mark.parametrize("noise, mitigation", [
        (DEFAULT_SYNTHETIC_NOISE, Mitigation(readout=True)),
        (NoiseModel(cnot_depolarizing=0.02), Mitigation(cnot=True, folds=(1, 3, 5))),
        (DEFAULT_SYNTHETIC_NOISE,
         Mitigation(readout=True, cnot=True, folds=(1, 3), calibration_shots=3000)),
    ], ids=["readout", "cnot135", "readout_cnot13"])
    def test_draws_replay_one_stream(self, n7_a, noise, mitigation, monkeypatch):
        drawn = self._capture(monkeypatch)
        estimate(ansatz_2q(), self.PARAMETERS, n7_a.h, n7_a.h2, shots=1000,
                 noise=noise, mitigation=mitigation, seed=self.SEED)
        cal_shots = mitigation.calibration_shots or 1000
        expected = self._replay(n7_a, noise, mitigation, 1000, cal_shots)
        assert len(drawn) == len(expected)
        for got, want in zip(drawn, expected):
            assert np.array_equal(got, want)

    def test_batched_draw_keeps_the_stream(self, n7_a, monkeypatch):
        # one multinomial over the whole (rows, 2^n) table draws row by row,
        # so batching the calls later keeps every seeded stream
        drawn = self._capture(monkeypatch)
        noise = NoiseModel(cnot_depolarizing=0.02)
        mitigation = Mitigation(cnot=True, folds=(1, 3, 5))
        estimate(ansatz_2q(), self.PARAMETERS, n7_a.h, n7_a.h2, shots=1000,
                 noise=noise, mitigation=mitigation, seed=self.SEED)
        terms = n7_a.h.measured_arrays[2] + n7_a.h2.measured_arrays[2]
        rows = np.concatenate([
            outcome_rows(fold_cnots(ansatz_2q(), fold), self.PARAMETERS, terms, noise)
            for fold in mitigation.folds
        ])
        batched = np.random.default_rng(self.SEED).multinomial(1000, rows)
        assert np.array_equal(batched, np.array(drawn))

    def test_int_seed_and_seed_sequence_agree(self, n7_a):
        mitigation = Mitigation(readout=True, cnot=True, folds=(1, 3))
        results = [
            estimate(ansatz_2q(), self.PARAMETERS, n7_a.h, n7_a.h2, shots=2000,
                     noise=DEFAULT_SYNTHETIC_NOISE, mitigation=mitigation, seed=seed)
            for seed in (self.SEED, np.random.SeedSequence(self.SEED))
        ]
        assert results[0] == results[1]

    def test_generator_is_advanced_not_reseeded(self):
        distribution = np.full(4, 0.25)
        stream = np.random.default_rng(self.SEED)
        first, second = (measure_term(distribution, 1000, stream) for _ in range(2))
        assert not np.array_equal(first, second)
        replay = np.random.default_rng(self.SEED)
        assert np.array_equal(first, replay.multinomial(1000, distribution))
        assert np.array_equal(second, replay.multinomial(1000, distribution))


class TestSeedRule:
    """``estimate``, ``calibrate`` and ``measure_term`` take a seed as
    ``EstimatorConfig`` does: a number must be a non-negative integer (bools
    rejected); a SeedSequence or Generator passes unchanged."""

    DISTRIBUTION = np.full(4, 0.25)

    def _calls(self, n3_a):
        noise = NoiseModel(readout_p01=0.02, readout_p10=0.02)
        return {
            "estimate": lambda seed: estimate(
                ansatz_1q(), [0.3], n3_a.h, n3_a.h2, shots=100, noise=noise,
                mitigation=Mitigation(readout=True), seed=seed),
            "calibrate": lambda seed: calibrate(1, noise, 100, seed).matrix,
            "measure_term": lambda seed: measure_term(self.DISTRIBUTION, 100, seed),
        }

    @pytest.mark.parametrize("entry", ["estimate", "calibrate", "measure_term"])
    @pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, np.float64(2.0), -1])
    def test_non_integer_or_negative_seed_rejected(self, n3_a, entry, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            self._calls(n3_a)[entry](seed)

    @pytest.mark.parametrize("entry", ["estimate", "calibrate", "measure_term"])
    def test_integer_seed_sequence_and_generator_give_one_stream(self, n3_a, entry):
        call = self._calls(n3_a)[entry]
        results = [call(3), call(np.int64(3)), call(np.random.SeedSequence(3)),
                   call(np.random.default_rng(3))]
        for result in results[1:]:
            assert repr(result) == repr(results[0])

    def test_generator_returned_unchanged(self):
        stream = np.random.default_rng(5)
        assert simulator_module._rng(stream) is stream

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_exact_mode_rejects_what_sampling_rejects(self, n3_a, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            estimate(ansatz_1q(), [0.3], n3_a.h, n3_a.h2, shots=None, seed=seed)

    def test_exact_mode_accepts_every_valid_seed_and_ignores_it(self, n3_a):
        seeds = [0, np.int64(3), np.random.SeedSequence(3), np.random.default_rng(3)]
        results = [repr(estimate(ansatz_1q(), [0.3], n3_a.h, n3_a.h2, seed=s)) for s in seeds]
        assert results == [repr(estimate(ansatz_1q(), [0.3], n3_a.h, n3_a.h2))] * len(seeds)


class TestSeededEstimateDigest:
    """The sha256 of the full-precision ``repr`` of 16 seeded sampled
    estimates per block and setting (8 points, 1000 and 20k shots), each
    digest computed before the per-estimate glue was cut.  Every draw,
    readout correction and extrapolation must stay bit for bit; a change
    that alters a seeded sample stream must update these and say so."""

    CONFIGS = {
        "readout": (DEFAULT_SYNTHETIC_NOISE, Mitigation(readout=True)),
        "readout_cnot13": (DEFAULT_SYNTHETIC_NOISE, Mitigation(readout=True, cnot=True)),
        "cnot135": (NoiseModel(cnot_depolarizing=0.02), Mitigation(cnot=True, folds=(1, 3, 5))),
        "unmitigated": (DEFAULT_SYNTHETIC_NOISE, Mitigation()),
        "noiseless": (NoiseModel(), Mitigation()),
    }
    DIGESTS = {
        ("n3_a", "readout"): "64e89bddb4c88ab14d5f1552d2450fc46bfe7985ca21597b4df35ac7bc616eb5",
        ("n3_a", "readout_cnot13"): "bae25549df7a1e76f9b6a5f003533c35e8d2d440367941b6946f2e3420f7220d",
        ("n3_a", "cnot135"): "bb26ff690068a7339ebbf826857b8a5c821f7d8af4724a411bb1e024e46765da",
        ("n3_a", "unmitigated"): "e791de5000af28301bca3a00b6b2141ae328783988122255e29e601223a9a561",
        ("n3_a", "noiseless"): "c85add33b02e9ba2f3dcbec69cdec215e037d459d49e44d27fd71bef6f951488",
        ("n7_a", "readout"): "e3d86e5f38a609dd8d9bae4267e2b3799136e1378ecf0c98566de4c2417c1442",
        ("n7_a", "readout_cnot13"): "a1f1ae41bcc5f66dcc41c343a442cb31c87c461754b1470fbc8fbf3545614d75",
        ("n7_a", "cnot135"): "67335127cca13ac025859883a7aa5f72430a173a4fefe2374c979517a7cbc68e",
        ("n7_a", "unmitigated"): "03d0e04918f8f61feadc973478ab2825e67a471a123f3d8a0c5b5b3ca57fd341",
        ("n7_a", "noiseless"): "cb1a94af175e4cd406420e360b92bce26875bfdbf2d7f903e3bd8b7bbec9f51f",
    }

    @staticmethod
    def digest(setup, noise, mitigation) -> str:
        points = np.random.default_rng(41).uniform(-np.pi, np.pi, (8, setup.circuit.num_parameters))
        sha = hashlib.sha256()
        for seed, params in enumerate(points):
            for shots in (1000, 20_000):
                result = estimate(setup.circuit, tuple(params.tolist()), setup.h, setup.h2,
                                  shots=shots, noise=noise, mitigation=mitigation, seed=seed)
                sha.update(repr(result).encode())
        return sha.hexdigest()

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("block", ["n3_a", "n7_a"])
    def test_digest_pinned(self, request, block, config):
        setup = request.getfixturevalue(block)
        assert self.digest(setup, *self.CONFIGS[config]) == self.DIGESTS[block, config]


class TestBatchedEstimate:
    """``estimate`` at a batch of points with one seed per point is one call
    whose results equal the single calls at those points and seeds, bit for
    bit; each point keeps its own stream, calibration and draws."""

    CONFIGS = {
        "noiseless": (NoiseModel(), Mitigation()),
        "readout": (DEFAULT_SYNTHETIC_NOISE, Mitigation(readout=True)),
        "readout_cnot13": (DEFAULT_SYNTHETIC_NOISE, Mitigation(readout=True, cnot=True)),
        "readout_cnot135": (
            DEFAULT_SYNTHETIC_NOISE,
            Mitigation(readout=True, cnot=True, folds=(1, 3, 5), calibration_shots=3000),
        ),
    }
    SEEDS = (3, np.int64(8), np.random.SeedSequence((4, 1)), 0, 3)

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("block", ["n3_a", "n7_a"])
    def test_rows_equal_single_calls(self, request, block, config):
        setup = request.getfixturevalue(block)
        noise, mitigation = self.CONFIGS[config]
        points = np.random.default_rng(17).uniform(-np.pi, np.pi, (5, setup.circuit.num_parameters))
        kwargs = dict(shots=1000, noise=noise, mitigation=mitigation)
        batch = estimate(setup.circuit, points, setup.h, setup.h2, **kwargs, seed=list(self.SEEDS))
        assert len(batch) == 5
        for point, seed, result in zip(points, self.SEEDS, batch):
            alone = estimate(setup.circuit, point, setup.h, setup.h2, **kwargs, seed=seed)
            assert repr(result) == repr(alone)

    @pytest.mark.parametrize("block", ["n3_a", "n7_a"])
    def test_exact_rows_equal_single_calls(self, request, block):
        setup = request.getfixturevalue(block)
        points = np.random.default_rng(18).uniform(-np.pi, np.pi, (5, setup.circuit.num_parameters))
        batch = estimate(setup.circuit, points, setup.h, setup.h2, seed=(0,) * 5)
        assert [repr(r) for r in batch] == [
            repr(estimate(setup.circuit, p, setup.h, setup.h2)) for p in points
        ]

    def test_exact_mode_touches_no_sampler_table(self, n7_a, monkeypatch):
        # exact mode measures no term: one moment read, no outcome table
        def forbidden(*args, **kwargs):
            raise AssertionError("exact mode reached the sampler")

        for name in ("_basis_table", "_noisy_rows", "measure_term"):
            monkeypatch.setattr(estimator_module, name, forbidden)
        c, h, h2 = n7_a.circuit, n7_a.h, n7_a.h2
        points = np.random.default_rng(19).uniform(-np.pi, np.pi, (5, 3))
        report = discover_spectrum(h, h2, c, 8, EstimatorConfig())
        results = [estimate(c, points[0], h, h2), *estimate(c, points, h, h2, seed=[0] * 5)]
        results += [trace.final for trace in report.traces]
        assert len(results) == 1 + 5 + 8
        for result in results:
            assert (result.per_term, result.shots) == ((), None)
            assert (result.energy_stderr, result.h_squared_stderr, result.variance_stderr) == (0.0,) * 3

    def test_one_preparation_and_per_point_draws(self, n7_a, monkeypatch):
        import lmgvqe.mitigation as mitigation_module

        calls, shots = Counter(), Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "measure_term":
                    shots[name] += inspect.signature(measure_term).bind(*args, **kwargs).arguments["shots"]
                return function(*args, **kwargs)
            return wrapper

        for module, name in (
            (estimator_module, "run"), (estimator_module, "calibrate"),
            (estimator_module, "measure_term"), (mitigation_module, "measure_term"),
            (estimator_module, "mitigate_counts"), (estimator_module, "cnot_extrapolate"),
        ):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        mitigation = Mitigation(readout=True, cnot=True, folds=(1, 3), calibration_shots=3000)
        points = np.random.default_rng(19).uniform(-np.pi, np.pi, (4, 3))
        estimate(ansatz_2q(), points, n7_a.h, n7_a.h2, shots=1000,
                 noise=DEFAULT_SYNTHETIC_NOISE, mitigation=mitigation, seed=[1, 2, 3, 4])
        assert dict(calls) == {
            "run": 1, "calibrate": 4, "measure_term": 4 * (4 + 15 * 2),
            "mitigate_counts": 1, "cnot_extrapolate": 1,
        }
        assert shots["measure_term"] == 4 * (4 * 3000 + 15 * 2 * 1000)

    @pytest.mark.parametrize("shots", [None, 1000])
    @pytest.mark.parametrize("seeds, match", [
        ([1, 2], "one point of 3 parameters per seed, 2 in all"),
        ([1, 2, 3, 4], "one point of 3 parameters per seed, 4 in all"),
        ([], "one point of 3 parameters per seed, 0 in all"),
        ([1, 1.5, 3], "seed must be a non-negative integer"),
        ((1, True, 3), "seed must be a non-negative integer"),
        ([1, 2, -3], "seed must be a non-negative integer"),
    ], ids=["short", "long", "empty", "float", "bool", "negative"])
    def test_bad_seed_list_rejected_before_any_preparation(
        self, n7_a, monkeypatch, shots, seeds, match
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a state was prepared")

        for module in (estimator_module, optimizer_module):
            monkeypatch.setattr(module, "run", forbidden)
        points = np.random.default_rng(3).uniform(-np.pi, np.pi, (3, 3))
        with pytest.raises(ValueError, match=match):
            estimate(n7_a.circuit, points, n7_a.h, n7_a.h2, shots=shots, seed=seeds)

    def test_one_point_with_a_seed_list_is_rejected(self, n7_a):
        with pytest.raises(ValueError, match="one point of 3 parameters per seed"):
            estimate(n7_a.circuit, (0.1, 0.2, 0.3), n7_a.h, n7_a.h2, shots=100, seed=[1])
