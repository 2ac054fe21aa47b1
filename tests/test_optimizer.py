import hashlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import lmgvqe.optimizer as optimizer_module
from lmgvqe import (
    Circuit,
    EstimationResult,
    EstimatorConfig,
    Gate,
    Mitigation,
    NoiseModel,
    PauliString,
    PauliSum,
    RunTrace,
    accidental_zero_check,
    ansatz_1q,
    ansatz_2q,
    discover_spectrum,
    estimate,
    measure_term,
    minimize_variance,
    sweep,
)
from lmgvqe.optimizer import (
    _MAX_RESTARTS, TERMINATION_REASONS, IterationRecord, SweepPoint, _evaluate, _group, _nelder_mead,
)

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
    y = PauliSum.from_terms([(1.0, PauliString(("Y",)))], 1)
    identity = PauliSum.from_terms([(1.0, PauliString(("I",)))], 1)
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
        x = PauliSum.from_terms([(1.0, PauliString(("X",)))], 1)
        identity = PauliSum.from_terms([(1.0, PauliString(("I",)))], 1)
        trace = minimize_variance(x, identity, Circuit(1, (Gate("x", target=0),)), [], EXACT)
        assert not trace.converged
        assert (trace.reason, trace.restarts, len(trace.iterations)) == ("stalled", 0, 1)

    def test_spectrum_traces_carry_reasons(self, n7_a):
        report = discover_spectrum(n7_a.h, n7_a.h2, ansatz_2q(), 10, EXACT, master_seed=2)
        for trace in report.traces:
            assert trace.reason in TERMINATION_REASONS
            assert trace.converged == (trace.reason == "converged")
            assert 0 <= trace.restarts <= _MAX_RESTARTS


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _spectrum_digest(report) -> str:
    clusters = [
        (c.energy, c.stderr, c.members, c.parameters, c.variance, c.residual)
        for c in report.clusters
    ]
    return _digest((report.traces, clusters, report.coverage))


class TestPinnedSearch:
    """The points every search visits, and why each stops, pinned by the
    sha256 of their full-precision ``repr``."""

    def test_sampled_restart_cap(self):
        # 31 rounds, each ended by the 60-evaluation cap or a collapsed
        # simplex, with the restart step shrinking every round
        h, h2 = _flat_variance_problem()
        config = EstimatorConfig(shots=100, seed=3)
        trace = minimize_variance(h, h2, ansatz_1q(), [0.3], config, budget=10**5)
        assert (trace.reason, trace.restarts, len(trace.iterations)) == ("restart_cap", 30, 1363)
        assert _digest(trace) == "811c53cd1e432d8951821a23534918b6b8ee56e4ef8e2aa4cf4c8e69989c45e5"

    def test_exact_n7_a_spectrum_cut_by_budget(self, n7_a):
        # half the starts stop on the budget, and one converges on its
        # last budgeted evaluation
        report = discover_spectrum(n7_a.h, n7_a.h2, ansatz_2q(), 40, EXACT, budget=120)
        assert Counter(t.reason for t in report.traces) == {"converged": 20, "budget": 20}
        assert any(t.converged and len(t.iterations) == 120 for t in report.traces)
        assert _spectrum_digest(report) == (
            "16f0fc6b8196eb87aeb08935d180765903fdc7b041094f4d23e59da9f4905909"
        )

    N7_A_SPECTRA = {
        0: "075d1c389640ccc17e767e2f77603b9544271bf3dc04630aab37d0940f649e29",
        1: "11afc4e08b2787443d1c0d7be15bb5fcfe3645aa3751646bc468ca23902d8da5",
        2: "061e4519ecb486d1162dc6d4e5d38cddffb1e73b553c3807846846e57a55f62b",
        3: "b809ef798303c028c5568b41666928b0e2e51a29a6ec70a4c449ce9172707c4e",
        4: "71a43412e25529e724abf32a5ab4da33334ef97abd9aa07f56ec6465d49a3f87",
    }

    @pytest.mark.parametrize("master_seed", sorted(N7_A_SPECTRA))
    def test_exact_n7_a_spectrum(self, n7_a, master_seed):
        # the default budget: every start converges, about 125 evaluations each
        report = discover_spectrum(n7_a.h, n7_a.h2, ansatz_2q(), 40, EXACT, master_seed)
        assert report.coverage == 1.0
        assert _spectrum_digest(report) == self.N7_A_SPECTRA[master_seed]

    def test_exact_n3_a_spectrum_with_one_parameter(self, n3_a):
        report = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 40, EXACT)
        assert report.coverage == 1.0
        assert _spectrum_digest(report) == (
            "6cf9590e4bb0e24dd51ae8a6e84467c99e9b8b4e592bcb3beab10e350a58fbff"
        )

    def test_readout_mitigated_n3_b_spectrum(self, n3_b):
        config = EstimatorConfig(
            shots=2000, noise=NoiseModel(readout_p01=0.02, readout_p10=0.02),
            mitigation=Mitigation(readout=True),
        )
        report = discover_spectrum(n3_b.h, n3_b.h2, ansatz_1q(), 20, config, master_seed=8)
        assert _spectrum_digest(report) == (
            "1c17f416633ecdb7440f96c78871aac41d8bad2764c9458753e19fa61440a3a9"
        )


class TestExactObjective:
    @pytest.mark.parametrize("name", ["n3_a", "n3_b", "n7_a", "n7_b"])
    def test_matches_estimate_bit_for_bit(self, request, name):
        setup = request.getfixturevalue(name)
        points = np.random.default_rng(31).uniform(
            -np.pi, np.pi, (200, setup.circuit.num_parameters)
        )
        # one batched read of all 200 points, each row against its own estimate
        keys = [(EXACT.seed, i) for i in range(len(points))]
        evaluated = _evaluate(setup.h, setup.h2, setup.circuit, points, EXACT, keys)
        assert len(evaluated) == len(points)
        for params, ((energy, variance, *stderrs), result) in zip(points, evaluated):
            expected = estimate(setup.circuit, tuple(params.tolist()), setup.h, setup.h2)
            assert stderrs == [0.0, 0.0] and result is None
            assert repr((energy, variance)) == repr((expected.energy, expected.variance))

    def test_sampled_rows_equal_their_own_estimates(self, n7_a):
        # one batched read, each row seeded by its own (seed, index) key
        points = np.random.default_rng(32).uniform(-np.pi, np.pi, (5, 3))
        config = EstimatorConfig(
            shots=800, noise=NoiseModel(0.02, 0.02, 0.01),
            mitigation=Mitigation(readout=True, cnot=True), seed=9,
        )
        keys = [(4, 0), (4, 3), (9, 7), (9, 2), (1, 11)]
        evaluated = _evaluate(n7_a.h, n7_a.h2, n7_a.circuit, points, config, keys)
        for params, key, (values, result) in zip(points, keys, evaluated):
            expected = estimate(
                n7_a.circuit, params, n7_a.h, n7_a.h2, shots=config.shots, noise=config.noise,
                mitigation=config.mitigation, seed=np.random.SeedSequence(key),
            )
            assert repr(result) == repr(expected)
            assert repr(values) == repr((
                expected.energy, expected.variance, expected.energy_stderr,
                expected.variance_stderr,
            ))


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
        dict(noise=NoiseModel(readout_p01=0.02)),
        dict(noise=NoiseModel(cnot_depolarizing=0.01)),
        dict(mitigation=Mitigation(readout=True)),
        dict(mitigation=Mitigation(cnot=True)),
    ])
    def test_noise_or_mitigation_in_exact_mode(self, records, config):
        # the config itself is rejected, so no run can start from it
        with pytest.raises(ValueError, match="exact mode"):
            EstimatorConfig(**config)
        assert records == []

    @pytest.mark.parametrize("config", [
        dict(shots=0),
        dict(shots=2.5),
        dict(shots=True),
        dict(shots=100, seed=1.5),
        dict(shots=100, seed=np.float64(2.0)),
        dict(shots=100, seed=True),
        dict(seed=-1),
    ], ids=["shots_0", "shots_2.5", "shots_bool", "seed_1.5", "seed_float64", "seed_bool",
            "seed_negative"])
    def test_invalid_shots_or_seed_rejected_at_construction(self, config):
        with pytest.raises(ValueError, match="shots|seed"):
            EstimatorConfig(**config)

    def test_numpy_integer_seed_accepted(self, n3_a):
        config = EstimatorConfig(shots=100, seed=np.int64(3))
        trace = minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [0.4], config, budget=5)
        assert trace.final.shots == 100

    @pytest.mark.parametrize("name,value", [
        ("n_starts", True), ("n_starts", 2.5), ("n_starts", 0), ("n_starts", -3),
        ("budget", True), ("budget", 2.5), ("budget", 0),
        ("master_seed", 1.5), ("master_seed", -1), ("master_seed", True),
    ])
    def test_bad_spectrum_inputs(self, n3_a, records, name, value):
        kwargs = dict(n_starts=4, config=EXACT)
        kwargs[name] = value
        with pytest.raises(ValueError, match=name):
            discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), **kwargs)
        assert records == []

    @pytest.mark.parametrize("budget", [True, 2.5, 0, np.float64(3.0)])
    def test_bad_budget(self, n3_a, records, budget):
        with pytest.raises(ValueError, match="budget"):
            minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [0.3], EXACT, budget=budget)
        assert records == []

    def test_batched_starts_need_one_config_each(self, n3_a, records):
        starts = [[0.1], [0.2]]
        for config in (EXACT, [EXACT], [EXACT, EXACT, EXACT], [EXACT, None]):
            with pytest.raises(ValueError, match="one EstimatorConfig per start"):
                minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), starts, config)
        with pytest.raises(ValueError, match="initial parameters"):
            minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), np.zeros((2, 2)), [EXACT] * 2)
        # the starts of one call differ only in seed
        sampled = EstimatorConfig(
            shots=500, noise=NoiseModel(0.02, 0.02), mitigation=Mitigation(readout=True)
        )
        for other in (
            EXACT,
            replace(sampled, shots=400),
            replace(sampled, noise=NoiseModel(0.02, 0.01)),
            replace(sampled, mitigation=Mitigation()),
        ):
            configs = [sampled, replace(other, seed=1)]
            with pytest.raises(ValueError, match="share shots, noise and mitigation"):
                minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), starts, configs)
        assert records == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("config", [EXACT, EstimatorConfig(shots=100, seed=2)],
                             ids=["exact", "sampled"])
    def test_non_finite_parameter(self, n3_a, n7_a, records, bad, config):
        # run rejects it before cos and sin turn it into NaN amplitudes
        calls = [
            lambda: minimize_variance(n3_a.h, n3_a.h2, ansatz_1q(), [bad], config),
            lambda: minimize_variance(
                n3_a.h, n3_a.h2, ansatz_1q(), [[0.2], [bad]], [config, replace(config, seed=1)]
            ),
            lambda: sweep(n3_a.h, n3_a.h2, ansatz_1q(), grid=[0.1, bad], config=config),
            lambda: sweep(n7_a.h, n7_a.h2, ansatz_2q(), config=config,
                          fixed_parameters=[0.0, bad, 0.0]),
            lambda: estimate(ansatz_1q(), [bad], n3_a.h, n3_a.h2, shots=config.shots),
            lambda: estimate(ansatz_1q(), [[0.3], [bad]], n3_a.h, n3_a.h2, shots=config.shots,
                             seed=[1, 2]),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="parameters must be finite"):
                call()
        assert records == []


def _scipy_points(f, x0, step, xatol, fatol, maxfev):
    """Points scipy's Nelder-Mead evaluates, in order, from the simplex of x0
    and x0 plus ``step`` along each axis."""
    from scipy.optimize import minimize

    points = []

    def objective(x):
        points.append(tuple(x.tolist()))
        return f(x)

    n = len(x0)
    simplex = np.tile(x0, (n + 1, 1))
    simplex[np.arange(1, n + 1), np.arange(n)] += step
    options = dict(initial_simplex=simplex, xatol=xatol, fatol=fatol, maxfev=maxfev,
                   maxiter=10**9)
    minimize(objective, x0, method="Nelder-Mead", options=options)
    return points


def _port_points(f, x0, step, xatol, fatol, maxfev):
    """Points the uncapped port evaluates, stopped before evaluation
    ``maxfev + 1`` as scipy's wrapper stops."""
    points = []
    search = _nelder_mead(x0, step, xatol, fatol)
    value = None
    while True:
        try:
            x = search.send(value)
        except StopIteration:
            return points
        if len(points) == maxfev:
            return points
        points.append(tuple(x))
        value = f(np.array(x))


def _spike(x0):
    """0 at x0 and 1 elsewhere: every step ends in a shrink towards x0."""
    return lambda x: 0.0 if tuple(x.tolist()) == tuple(x0.tolist()) else 1.0


class TestNelderMeadPort:
    """``_nelder_mead`` evaluates exactly the points scipy's Nelder-Mead does."""

    X0 = np.array([0.7, -1.3, 2.1])

    @pytest.mark.parametrize("name,f,xatol,fatol,maxfev,capped", [
        # the xatol/fatol stop, through reflections, expansions and both
        # contractions
        ("quadratic", lambda x: float(np.sum((x - [0.2, 0.5, -1.0]) ** 2 * [1.0, 3.0, 0.5])),
         1e-9, 1e-13, 10**9, False),
        ("rosenbrock", lambda x: float(np.sum(100 * (x[1:] - x[:-1]**2)**2 + (1 - x[:-1])**2)),
         1e-6, 1e-8, 10**9, False),
        # every step shrinks, and the cap ends it
        ("spike", _spike(X0), 1e-9, 1e-13, 50, True),
        # all values tie, so the sorts decide every step, until xatol stops it
        ("flat", lambda x: 1.0, 1e-3, 1e-3, 60, False),
        # the cap ends it in the middle of a step
        ("capped", lambda x: float(np.sum(np.abs(x)) + np.sin(7 * x[0])), 1e-9, 1e-13, 37, True),
    ])
    def test_same_points_as_scipy(self, name, f, xatol, fatol, maxfev, capped):
        expected = _scipy_points(f, self.X0, 0.5, xatol, fatol, maxfev)
        got = _port_points(f, self.X0, 0.5, xatol, fatol, maxfev)
        assert got == expected
        assert (len(got) == maxfev) == capped
        if name == "spike":
            # the first shrink halves every edge towards x0
            assert tuple((self.X0 + [0.25, 0.0, 0.0]).tolist()) in got

    @pytest.mark.parametrize("config", [EXACT, EstimatorConfig(shots=100, seed=3)],
                             ids=["exact", "sampled"])
    def test_recorded_parameters_are_python_floats(self, n7_a, config):
        # restarts begin from a recorded point, so cover them too
        h, h2 = _flat_variance_problem()
        traces = [minimize_variance(h, h2, ansatz_1q(), [0.3], config, budget=300)]
        traces += minimize_variance(
            n7_a.h, n7_a.h2, ansatz_2q(), [[0.4, -1.2, 2.0], [1.0, 0.5, -2.5]],
            [config, replace(config, seed=5)], budget=80,
        )
        assert traces[0].restarts > 0
        for trace in traces:
            for params in [r.parameters for r in trace.iterations] + [trace.final_parameters]:
                assert {type(x) for x in params} == {float}

    def test_variance_objective_matches_scipy(self, n7_a):
        def variance(x):
            return estimate(n7_a.circuit, x, n7_a.h, n7_a.h2).variance

        for x0 in np.random.default_rng(4).uniform(-np.pi, np.pi, (3, 3)):
            expected = _scipy_points(variance, x0, 0.5, 1e-9, 1e-13, 300)
            assert _port_points(variance, x0, 0.5, 1e-9, 1e-13, 300) == expected


class TestLockstepStarts:
    """Each trace of a lockstep spectrum is the trace its start gives alone."""

    @staticmethod
    def alone(setup, config, master_seed, i):
        child = np.random.SeedSequence((master_seed, i))
        initial = np.random.default_rng(child).uniform(
            -np.pi, np.pi, size=setup.circuit.num_parameters
        )
        run_config = replace(config, seed=int(child.generate_state(1)[0]))
        return minimize_variance(setup.h, setup.h2, setup.circuit, initial, run_config)

    @pytest.mark.parametrize("name,config", [
        ("n3_a", EXACT),
        ("n7_a", EXACT),
        ("n3_b", EstimatorConfig(
            shots=2000, noise=NoiseModel(readout_p01=0.02, readout_p10=0.02),
            mitigation=Mitigation(readout=True),
        )),
    ], ids=["exact_n3", "exact_n7", "sampled_n3_readout"])
    def test_traces_equal_single_starts(self, request, name, config):
        setup = request.getfixturevalue(name)
        full = discover_spectrum(setup.h, setup.h2, setup.circuit, 40, config, master_seed=8)
        few = discover_spectrum(setup.h, setup.h2, setup.circuit, 5, config, master_seed=8)
        assert repr(few.traces) == repr(full.traces[:5])
        for i in (0, 1, 17, 39):
            assert repr(full.traces[i]) == repr(self.alone(setup, config, 8, i))

    @pytest.mark.parametrize("config", [
        EXACT,
        EstimatorConfig(
            shots=500, noise=NoiseModel(0.02, 0.02), mitigation=Mitigation(readout=True)
        ),
    ], ids=["exact", "sampled"])
    def test_batched_call_returns_one_trace_per_start(self, n7_a, config):
        starts = np.random.default_rng(2).uniform(-np.pi, np.pi, (3, 3))
        configs = [replace(config, seed=seed) for seed in (4, 1, 7)]
        traces = minimize_variance(n7_a.h, n7_a.h2, n7_a.circuit, starts, configs, budget=40)
        alone = [
            minimize_variance(n7_a.h, n7_a.h2, n7_a.circuit, x, c, budget=40)
            for x, c in zip(starts, configs)
        ]
        assert repr(traces) == repr(alone)


def _recorded_estimate(monkeypatch):
    """The seed argument of every ``estimate`` call the optimizer makes."""
    seeds = []

    def recording(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return estimate(*args, **kwargs)

    monkeypatch.setattr(optimizer_module, "estimate", recording)
    return seeds


class TestOneEstimatePerRound:
    """A lockstep round reads its sampled points with one ``estimate`` call;
    every point keeps its own draws."""

    def test_sampled_spectrum_makes_one_estimate_call_per_round(self, n3_a, monkeypatch):
        import lmgvqe.estimator as estimator_module
        import lmgvqe.mitigation as mitigation_module

        seeds, draws = _recorded_estimate(monkeypatch), Counter()

        def counting_measure_term(distribution, shots, seed=0):
            draws["measure_term"] += 1
            return measure_term(distribution, shots, seed)

        monkeypatch.setattr(estimator_module, "measure_term", counting_measure_term)
        monkeypatch.setattr(mitigation_module, "measure_term", counting_measure_term)
        config = EstimatorConfig(
            shots=2000, noise=NoiseModel(0.02, 0.02), mitigation=Mitigation(readout=True)
        )
        report = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 8, config, master_seed=4)
        evaluations = [len(t.iterations) for t in report.traces]
        # one call per round, and a start is live in its first len(iterations) rounds
        batches = [len(s) for s in seeds]
        assert batches == [sum(n > r for n in evaluations) for r in range(max(evaluations))]
        terms = len(n3_a.h.measured_terms) + len(n3_a.h2.measured_terms)
        assert draws["measure_term"] == sum(evaluations) * (terms + 2)  # + 2 calibration columns


class TestExactFinalsInOneRead:
    """An exact lockstep call reads every trace's final point in one
    ``estimate``; a sampled one keeps the result read with the final point."""

    def test_exact_spectrum_reads_its_finals_once(self, n7_a, monkeypatch):
        seeds = _recorded_estimate(monkeypatch)
        report = discover_spectrum(n7_a.h, n7_a.h2, n7_a.circuit, 8, EXACT, master_seed=3)
        assert seeds == [[0] * 8]
        for trace in report.traces:
            single = estimate(n7_a.circuit, trace.final_parameters, n7_a.h, n7_a.h2)
            assert repr(trace.final) == repr(single)

    def test_sampled_lockstep_reads_nothing_after_its_last_round(self, n7_a, monkeypatch):
        seeds = _recorded_estimate(monkeypatch)
        config = EstimatorConfig(shots=500, noise=NoiseModel(0.02, 0.02, 0.01))
        starts = np.random.default_rng(6).uniform(-np.pi, np.pi, (4, 3))
        configs = [replace(config, seed=seed) for seed in range(4)]
        traces = minimize_variance(n7_a.h, n7_a.h2, n7_a.circuit, starts, configs, budget=30)
        assert len(seeds) == max(len(t.iterations) for t in traces)
        for trace in traces:
            # the crossing is the last evaluation, else the first of least |variance|
            variances = [abs(r.variance) for r in trace.iterations]
            index = len(variances) - 1 if trace.converged else variances.index(min(variances))
            single = estimate(
                n7_a.circuit, trace.final_parameters, n7_a.h, n7_a.h2, config.shots, config.noise,
                seed=np.random.SeedSequence((trace.seed, index)),
            )
            assert repr(trace.final) == repr(single)


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
        x = PauliSum.from_terms([(1.0, PauliString(("X",)))], 1)
        identity = PauliSum.from_terms([(1.0, PauliString(("I",)))], 1)
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

    @pytest.mark.parametrize("index", [True, 1.5, -1])
    def test_parameter_index_must_be_a_non_negative_integer(self, n7_a, index):
        with pytest.raises(ValueError, match="parameter_index must be a non-negative integer"):
            sweep(n7_a.h, n7_a.h2, ansatz_2q(), parameter_index=index, grid=[0.0],
                  config=EXACT, fixed_parameters=(0.0, 0.3, -0.2))

    def test_numpy_integer_parameter_index_accepted(self, n7_a):
        args = (n7_a.h, n7_a.h2, ansatz_2q())
        kwargs = dict(grid=[0.0, 0.5], config=EXACT, fixed_parameters=(0.0, 0.3, -0.2))
        assert (sweep(*args, parameter_index=np.int64(1), **kwargs)
                == sweep(*args, parameter_index=1, **kwargs))

    @pytest.mark.parametrize("fixed", [(0.0, 0.3), (0.0, 0.3, -0.2, 1.0), ((0.0, 0.3, -0.2),)])
    def test_fixed_parameters_must_fill_every_slot(self, n7_a, fixed):
        with pytest.raises(ValueError, match="fixed_parameters must supply all 3 slots"):
            sweep(n7_a.h, n7_a.h2, ansatz_2q(), grid=[0.0], config=EXACT, fixed_parameters=fixed)

    @pytest.mark.parametrize("config", [EXACT, EstimatorConfig(shots=400, seed=6)],
                             ids=["exact", "sampled"])
    def test_exact_points_equal_estimate_per_point(self, n3_a, n7_a, config):
        # a sampled point i of the grid is one estimate seeded by (config.seed, i)
        def expected(setup, circuit, params, angle, i):
            result = estimate(
                circuit, params, setup.h, setup.h2, shots=config.shots,
                seed=np.random.SeedSequence((config.seed, i)),
            )
            return SweepPoint(
                angle, result.energy, result.variance,
                result.energy_stderr, result.variance_stderr,
            )

        points = sweep(n3_a.h, n3_a.h2, ansatz_1q(), config=config)
        assert repr(points) == repr([
            expected(n3_a, ansatz_1q(), [p.angle], p.angle, i) for i, p in enumerate(points)
        ])
        fixed = (0.3, -1.1, 2.2)
        for index in range(3):
            points = sweep(
                n7_a.h, n7_a.h2, ansatz_2q(), parameter_index=index, config=config,
                fixed_parameters=fixed,
            )
            assert repr(points) == repr([
                expected(
                    n7_a, ansatz_2q(), fixed[:index] + (p.angle,) + fixed[index + 1:], p.angle, i
                )
                for i, p in enumerate(points)
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

    @pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0])
    def test_tolerance_must_be_positive(self, n3_a, tolerance):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            accidental_zero_check(ansatz_1q(), [0.3], n3_a.h, tolerance=tolerance)


def _trace(energy, stderr=0.0, converged=True) -> RunTrace:
    """A trace with only what grouping reads: converged, energy and its stderr."""
    final = EstimationResult(energy, stderr, 0.0, 0.0, 0.0, 0.0, (), None)
    return RunTrace([], converged, final, (), 0, "converged" if converged else "budget", 0)


class TestGroup:
    # stderr 0.125 gives the radius 5 * 0.125 = 0.625, exact in binary
    def test_run_at_the_radius_joins_and_one_beyond_starts_a_group(self):
        assert _group([_trace(0.0, 0.125), _trace(0.625)]) == [[0, 1]]
        assert _group([_trace(0.0, 0.125), _trace(np.nextafter(0.625, 1.0))]) == [[0], [1]]

    def test_spread_is_the_largest_stderr_of_group_and_candidate(self):
        # the candidate's own stderr sets the radius
        assert _group([_trace(5.0), _trace(5.625, 0.125)]) == [[0, 1]]
        # the first member's stderr, though neither the last member nor the
        # candidate has one; the radius is measured from the mean, 5.3125
        assert _group([_trace(5.0, 0.125), _trace(5.625), _trace(5.9375)]) == [[0, 1, 2]]
        assert _group([_trace(5.0), _trace(5.625)]) == [[0], [1]]

    def test_unconverged_runs_are_left_out(self):
        traces = [_trace(1.0), _trace(1.0, converged=False), _trace(3.0, converged=False)]
        assert _group(traces) == [[0]]
        assert _group([_trace(1.0, converged=False)]) == []

    def test_ascending_energy_then_index(self):
        traces = [_trace(2.0), _trace(-3.0), _trace(2.0), _trace(0.5), _trace(-3.0)]
        assert _group(traces) == [[1, 4], [3], [0, 2]]


class TestReadoutWeinsteinBound:
    """Readout-mitigated N=3 block A spectra, as ``lmgvqe spectrum --n 3
    --block A --shots 20000 --noise-readout 0.02 --mitigate readout --seed
    S`` runs them, against the bench's Weinstein rule: some eigenvalue lies
    within the state's residual, plus 5 stderrs and 1e-6, of each cluster."""

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the sampled search stops at the first noisy dip, so a "
        "cluster's stderr leaves out how far its state is from an eigenvector"
    ))
    @pytest.mark.parametrize("seed", [811136, 3620])
    def test_every_cluster_within_its_weinstein_bound(self, n3_a, seed):
        config = EstimatorConfig(
            shots=20000, noise=NoiseModel(0.02, 0.02), mitigation=Mitigation(readout=True), seed=seed,
        )
        report = discover_spectrum(n3_a.h, n3_a.h2, ansatz_1q(), 20, config, master_seed=seed)
        for cluster in report.clusters:
            miss = min(abs(cluster.energy - e) for e in N3_A_EIGS)
            assert miss <= cluster.residual + 5.0 * cluster.stderr + 1e-6


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
