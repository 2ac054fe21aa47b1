import numpy as np
import pytest

import lmgvqe.optimizer as optimizer_module
from lmgvqe import (
    Circuit,
    EstimatorConfig,
    Gate,
    Mitigation,
    NoiseModel,
    PauliString,
    PauliSum,
    accidental_zero_check,
    ansatz_1q,
    ansatz_2q,
    discover_spectrum,
    estimate,
    minimize_variance,
    sweep,
)
from lmgvqe.estimator import _exact_objective
from lmgvqe.optimizer import _MAX_RESTARTS, TERMINATION_REASONS, IterationRecord, SweepPoint

from conftest import N3_A_EIGS, N7_EIGS, eigenstate_parameters_1q

EXACT = EstimatorConfig()


class TestMinimizeVariance:
    def test_converges_to_an_eigenvalue_from_any_start(self, n3_a):
        for start in (-2.5, -0.7, 0.1, 1.4, 3.0):
            trace = minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [start], EXACT)
            assert trace.converged
            assert abs(trace.final.variance) < 1e-8
            distances = [abs(trace.final.energy - e) for e in N3_A_EIGS]
            assert min(distances) < 1e-6

    def test_start_at_eigenstate_converges_immediately(self, n3_a):
        ground = np.linalg.eigh(n3_a.block.matrix)[1][:, 0]
        theta = eigenstate_parameters_1q(ground)
        trace = minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [theta], EXACT)
        assert trace.converged
        assert len(trace.iterations) <= 3
        assert abs(trace.final.variance) < 1e-10

    def test_budget_exhaustion_returns_unconverged_trace(self, n7_a):
        trace = minimize_variance(
            n7_a.h, n7_a.h2, ansatz_2q(), [0.1, 0.2, 0.3], EXACT, budget=5
        )
        assert not trace.converged
        assert len(trace.iterations) == 5
        assert trace.final is not None
        assert (trace.reason, trace.restarts) == ("budget", 0)

    def test_trace_records_every_evaluation(self, n3_a):
        trace = minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [2.0], EXACT)
        assert trace.iterations[0].parameters == (2.0,)
        best = np.minimum.accumulate([abs(r.variance) for r in trace.iterations])
        assert np.all(np.diff(best) <= 0)

    def test_sampled_mode_converges(self, n3_a):
        config = EstimatorConfig(shots=20_000, seed=9)
        trace = minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [0.5], config)
        assert trace.converged
        threshold = max(2 * trace.final.variance_stderr, 0.01)
        assert abs(trace.final.variance) < threshold
        assert min(abs(trace.final.energy - e) for e in N3_A_EIGS) < 0.05

    def test_wrong_parameter_count(self, n3_a):
        with pytest.raises(ValueError):
            minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [0.1, 0.2], EXACT)

    def test_exact_records_equal_estimate_bit_for_bit(self, n7_a):
        circuit = ansatz_2q()
        trace = minimize_variance(n7_a.h, n7_a.h2, circuit, [0.4, -1.2, 2.0], EXACT)
        assert trace.converged and len(trace.iterations) > 50
        for record in trace.iterations:
            result = estimate(circuit, record.parameters, n7_a.h, n7_a.h2)
            assert repr(record) == repr(IterationRecord(
                record.parameters, result.energy, result.variance,
                result.energy_stderr, result.variance_stderr,
            ))
        final = estimate(circuit, trace.final_parameters, n7_a.h, n7_a.h2)
        assert repr(trace.final) == repr(final)
        assert trace.final_parameters == trace.iterations[-1].parameters


def _flat_variance_problem():
    """H = Y on one qubit: every real ansatz state has variance exactly 1."""
    y = PauliSum.from_terms([(1.0, PauliString.from_text("Y0", 1))], 1)
    identity = PauliSum.from_terms([(1.0, PauliString.from_text("I", 1))], 1)
    return y, identity


class TestTerminationReason:
    def test_converged(self):
        const = PauliSum.from_terms([(0.7, PauliString(("I",)))], 1)
        const_sq = PauliSum.from_terms([(0.49, PauliString(("I",)))], 1)
        trace = minimize_variance(const, const_sq, ansatz_1q(), [0.3], EXACT)
        assert trace.converged
        assert (trace.reason, trace.restarts, len(trace.iterations)) == ("converged", 0, 1)

    @pytest.mark.parametrize("config", [EXACT, EstimatorConfig(shots=100, seed=3)])
    def test_restart_cap(self, config):
        h, h2 = _flat_variance_problem()
        trace = minimize_variance(h, h2, ansatz_1q(), [0.3], config, budget=10**5)
        assert not trace.converged
        assert (trace.reason, trace.restarts) == ("restart_cap", _MAX_RESTARTS)
        assert len(trace.iterations) < 10**5

    def test_budget_in_sampled_mode(self):
        h, h2 = _flat_variance_problem()
        config = EstimatorConfig(shots=100, seed=3)
        trace = minimize_variance(h, h2, ansatz_1q(), [0.3], config, budget=7)
        assert (trace.reason, len(trace.iterations)) == ("budget", 7)

    def test_stalled_without_free_parameters(self):
        # |1> is not an eigenstate of X, and nothing can move it
        x = PauliSum.from_terms([(1.0, PauliString.from_text("X0", 1))], 1)
        identity = PauliSum.from_terms([(1.0, PauliString.from_text("I", 1))], 1)
        trace = minimize_variance(x, identity, Circuit(1, (Gate("x", target=0),)), [], EXACT)
        assert not trace.converged
        assert (trace.reason, trace.restarts, len(trace.iterations)) == ("stalled", 0, 1)

    def test_spectrum_traces_carry_reasons(self, n7_a):
        report = discover_spectrum(n7_a.h, n7_a.h2, ansatz_2q(), 10, EXACT, master_seed=2)
        for trace in report.traces:
            assert trace.reason in TERMINATION_REASONS
            assert trace.converged == (trace.reason == "converged")
            assert 0 <= trace.restarts <= _MAX_RESTARTS


class TestExactObjective:
    @pytest.mark.parametrize("name", ["n3_a", "n3_b", "n7_a", "n7_b"])
    def test_matches_estimate_bit_for_bit(self, request, name):
        setup = request.getfixturevalue(name)
        moments = _exact_objective(setup.circuit, setup.h, setup.h2)
        rng = np.random.default_rng(31)
        for params in rng.uniform(-np.pi, np.pi, (200, setup.circuit.num_parameters)):
            params = tuple(params.tolist())
            result = estimate(setup.circuit, params, setup.h, setup.h2)
            assert repr(moments(params)) == repr((result.energy, result.h_squared))


class TestInputRejectedBeforeAnyRecord:
    """Bad input raises ValueError before the first evaluation is recorded."""

    @pytest.fixture
    def records(self, monkeypatch):
        made = []

        def recording(*args):
            made.append(args)
            return IterationRecord(*args)

        monkeypatch.setattr(optimizer_module, "IterationRecord", recording)
        return made

    def test_qubit_count_mismatch(self, n7_a, records):
        with pytest.raises(ValueError, match="qubit counts"):
            minimize_variance(n7_a.h, n7_a.h2, ansatz_1q(), [0.1], EXACT)
        with pytest.raises(ValueError, match="qubit counts"):
            sweep(n7_a.h, n7_a.h2, ansatz_1q(), config=EXACT)
        assert records == []

    def test_non_square_h2(self, n3_a, records):
        with pytest.raises(ValueError, match="not the square"):
            minimize_variance(n3_a.h, n3_a.h, ansatz_1q(), [0.1], EXACT)
        with pytest.raises(ValueError, match="not the square"):
            sweep(n3_a.h, n3_a.h, ansatz_1q(), config=EXACT)
        assert records == []

    @pytest.mark.parametrize("config", [
        EstimatorConfig(noise=NoiseModel(readout_p01=0.02)),
        EstimatorConfig(noise=NoiseModel(cnot_depolarizing=0.01)),
        EstimatorConfig(mitigation=Mitigation(readout=True)),
        EstimatorConfig(mitigation=Mitigation(cnot=True)),
    ])
    def test_noise_or_mitigation_in_exact_mode(self, n3_a, records, config):
        with pytest.raises(ValueError, match="exact mode"):
            minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [0.1], config)
        with pytest.raises(ValueError, match="exact mode"):
            sweep(n3_a.h, n3_a.h2, ansatz_1q(), config=config)
        assert records == []

    def test_nan_initial_parameter(self, n3_a, records):
        with pytest.raises(ValueError, match="normalized"):
            minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [np.nan], EXACT)
        assert records == []


class TestSweep:
    def test_default_grid_brackets_both_eigenvalues(self, n3_a):
        points = sweep(n3_a.h, n3_a.h2, ansatz_1q(), config=EXACT)
        assert len(points) == 50
        energies = [p.energy for p in points]
        assert min(energies) == pytest.approx(N3_A_EIGS[0], abs=0.01)
        assert max(energies) == pytest.approx(N3_A_EIGS[1], abs=0.01)
        angles = [p.angle for p in points]
        assert angles == sorted(angles)

    def test_variance_dips_in_exactly_two_regions(self, n3_a):
        grid = np.linspace(-np.pi, np.pi, 2000)
        points = sweep(n3_a.h, n3_a.h2, ansatz_1q(), grid=grid, config=EXACT)
        low = np.array([p.variance < 1e-3 for p in points])
        # count connected runs on the periodic grid (endpoints identify)
        starts = int(np.sum(low & ~np.roll(low, 1)))
        if low[0] and low[-1]:
            starts -= 0  # roll already merges the wrap-around run
        assert starts == 2

    def test_constant_hamiltonian_is_flat(self):
        const = PauliSum.from_terms([(0.7, PauliString(("I",)))], 1)
        const_sq = PauliSum.from_terms([(0.49, PauliString(("I",)))], 1)
        points = sweep(const, const_sq, ansatz_1q(), config=EXACT)
        assert all(p.energy == pytest.approx(0.7) for p in points)
        assert all(abs(p.variance) < 1e-12 for p in points)

    def test_empty_grid_rejected(self, n3_a):
        with pytest.raises(ValueError):
            sweep(n3_a.h, n3_a.h2, ansatz_1q(), grid=[], config=EXACT)

    def test_circuit_without_parameters_rejected(self):
        x = PauliSum.from_terms([(1.0, PauliString.from_text("X0", 1))], 1)
        identity = PauliSum.from_terms([(1.0, PauliString.from_text("I", 1))], 1)
        with pytest.raises(ValueError, match="parameter_index 0 out of range for 0 slots"):
            sweep(x, identity, Circuit(1, (Gate("x", target=0),)), config=EXACT)

    def test_multi_parameter_circuit_needs_fixed_values(self, n7_a):
        with pytest.raises(ValueError):
            sweep(n7_a.h, n7_a.h2, ansatz_2q(), config=EXACT)
        points = sweep(
            n7_a.h, n7_a.h2, ansatz_2q(), parameter_index=0,
            grid=np.linspace(-1, 1, 5), config=EXACT,
            fixed_parameters=(0.0, 0.3, -0.2),
        )
        assert len(points) == 5

    def test_exact_points_equal_estimate_per_point(self, n3_a, n7_a):
        def expected(setup, circuit, params, angle):
            result = estimate(circuit, params, setup.h, setup.h2)
            return SweepPoint(
                angle, result.energy, result.variance,
                result.energy_stderr, result.variance_stderr,
            )

        points = sweep(n3_a.h, n3_a.h2, ansatz_1q(), config=EXACT)
        assert repr(points) == repr([
            expected(n3_a, ansatz_1q(), [p.angle], p.angle) for p in points
        ])
        fixed = (0.3, -1.1, 2.2)
        for index in range(3):
            points = sweep(
                n7_a.h, n7_a.h2, ansatz_2q(), parameter_index=index, config=EXACT,
                fixed_parameters=fixed,
            )
            assert repr(points) == repr([
                expected(n7_a, ansatz_2q(), fixed[:index] + (p.angle,) + fixed[index + 1:], p.angle)
                for p in points
            ])


class TestAccidentalZeroCheck:
    def test_eigenstate_passes(self, n3_a):
        ground = np.linalg.eigh(n3_a.block.matrix)[1][:, 0]
        passed, residual = accidental_zero_check(
            ansatz_1q(), [eigenstate_parameters_1q(ground)], n3_a.h
        )
        assert passed and residual < 1e-8

    def test_non_eigenstate_fails(self, n3_a):
        passed, residual = accidental_zero_check(ansatz_1q(), [np.pi / 4], n3_a.h)
        assert not passed
        assert residual > 0.05
        # half way between the two eigenstate angles the residual is gap/2
        ground = np.linalg.eigh(n3_a.block.matrix)[1][:, 0]
        far = eigenstate_parameters_1q(ground) + np.pi / 2
        passed, residual = accidental_zero_check(ansatz_1q(), [far], n3_a.h)
        assert not passed
        gap = N3_A_EIGS[1] - N3_A_EIGS[0]
        assert residual == pytest.approx(gap / 2, abs=1e-9)

    def test_basis_states_pass_for_z_hamiltonian(self):
        z = PauliSum.from_terms([(1.0, PauliString(("Z",)))], 1)
        for theta in (0.0, np.pi):
            passed, _ = accidental_zero_check(ansatz_1q(), [theta], z)
            assert passed


class TestDiscoverSpectrum:
    def test_n3_block_finds_both_eigenvalues(self, n3_a):
        report = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 20, EXACT, master_seed=42)
        assert len(report.clusters) == 2
        found = sorted(c.energy for c in report.clusters)
        np.testing.assert_allclose(found, N3_A_EIGS, atol=1e-6)
        assert report.coverage == 1.0
        assert all(t.converged for t in report.traces)

    def test_n7_block_finds_all_four(self, n7_a):
        report = discover_spectrum(n7_a.h, n7_a.h2, ansatz_2q(), 40, EXACT, master_seed=7)
        found = sorted(c.energy for c in report.clusters)
        np.testing.assert_allclose(found, N7_EIGS, atol=1e-6)
        assert report.coverage == 1.0

    def test_single_start(self, n3_a):
        report = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 1, EXACT, master_seed=1)
        assert len(report.clusters) <= 1

    def test_clusters_are_separated(self, n3_a):
        report = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 20, EXACT, master_seed=3)
        centers = sorted(c.energy for c in report.clusters)
        for lo, hi in zip(centers, centers[1:]):
            assert hi - lo > 1e-3

    def test_determinism(self, n3_a):
        a = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 10, EXACT, master_seed=5)
        b = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 10, EXACT, master_seed=5)
        assert [c.energy for c in a.clusters] == [c.energy for c in b.clusters]
        assert [t.final.energy for t in a.traces] == [t.final.energy for t in b.traces]
        c = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 10, EXACT, master_seed=6)
        assert [t.final.energy for t in c.traces] != [t.final.energy for t in a.traces]

    def test_sampled_spectrum_clusters_near_exact(self, n3_a):
        config = EstimatorConfig(shots=20_000)
        report = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 12, config, master_seed=11)
        assert report.coverage == 1.0
        for cluster in report.clusters:
            assert min(abs(cluster.energy - e) for e in N3_A_EIGS) < 0.05

    def test_completeness_n3(self, n3_a):
        hits = sum(
            discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 20, EXACT, master_seed=s).coverage == 1.0
            for s in range(50)
        )
        assert hits >= 48  # >= 95% of 50 seeded repetitions

    def test_completeness_n7(self, n7_a):
        hits = sum(
            discover_spectrum(n7_a.h, n7_a.h2, ansatz_2q(), 40, EXACT, master_seed=s).coverage == 1.0
            for s in range(50)
        )
        assert hits >= 48
