"""Variance minimization, parameter sweeps and multistart spectrum search.

Because the variance objective is zero exactly on eigenstates, a local
derivative-free search started from random parameters lands on *some*
eigenstate; enough restarts cover the full block spectrum.  The optimizer is
Nelder-Mead with deterministic shrink restarts: when the simplex collapses
above the convergence threshold and evaluation budget remains, the search
resumes from the best point with a smaller initial simplex.

In exact mode an evaluation only prepares the state and reads <H> and
sigma^2 = ||H psi - <H> psi||^2 from one product H psi
(``estimator._exact_moments``, the read ``estimate`` makes, so bit-identical
to it); a trace's final result is one ``estimate``.  Each trace records why
it stopped.

Every candidate eigenvalue is screened with an accidental-zero check: the
residual ||H psi - <H> psi|| of the noiseless state, the square root of its
exact variance, which catches variance minima manufactured by sampling noise.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy import optimize as _sciopt

from .analysis import eigensolve
from .circuits import Circuit, run
from .estimator import (
    EstimationResult, _exact_moments, _reject_noise_in_exact_mode, _verify_problem, estimate
)
from .mitigation import Mitigation
from .pauli import PauliSum
from .simulator import NOISELESS, NoiseModel, _check_shots

__all__ = [
    "EstimatorConfig",
    "IterationRecord",
    "RunTrace",
    "SpectrumCluster",
    "SpectrumReport",
    "minimize_variance",
    "sweep",
    "discover_spectrum",
    "accidental_zero_check",
]

EXACT_VARIANCE_TOL = 1e-8
SAMPLED_VARIANCE_FLOOR = 0.01
CLUSTER_RADIUS_FLOOR = 1e-3
RESIDUAL_TOL = 1e-6
_MAX_RESTARTS = 30
# "stalled": no free parameter, or a round that made no evaluation
TERMINATION_REASONS = ("converged", "budget", "restart_cap", "stalled")


@dataclass(frozen=True)
class EstimatorConfig:
    """How each objective evaluation is estimated."""

    shots: int | None = None
    noise: NoiseModel = NOISELESS
    mitigation: Mitigation = Mitigation()
    seed: int = 0

    def __post_init__(self):
        if self.shots is not None:
            _check_shots(self.shots)
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        if self.exact:
            _reject_noise_in_exact_mode(self.noise, self.mitigation)

    @property
    def exact(self) -> bool:
        return self.shots is None


@dataclass(frozen=True)
class IterationRecord:
    parameters: tuple[float, ...]
    energy: float
    variance: float
    energy_stderr: float
    variance_stderr: float


@dataclass
class RunTrace:
    """Full evaluation history of one variance minimization, with why it
    stopped (one of ``TERMINATION_REASONS``) and its restart count."""

    iterations: list[IterationRecord]
    converged: bool
    final: EstimationResult
    final_parameters: tuple[float, ...]
    seed: int
    reason: str
    restarts: int


@dataclass
class SpectrumCluster:
    """A group of converged runs agreeing on one eigenvalue."""

    energy: float
    stderr: float
    members: tuple[int, ...]
    parameters: tuple[float, ...]
    state: np.ndarray
    variance: float
    residual: float


@dataclass
class SpectrumReport:
    clusters: list[SpectrumCluster]
    n_starts: int
    coverage: float
    oracle_eigenvalues: np.ndarray
    traces: list[RunTrace]


class _Converged(Exception):
    pass


class _BudgetExhausted(Exception):
    pass


def _threshold(config: EstimatorConfig, variance_stderr: float) -> float:
    if config.exact:
        return EXACT_VARIANCE_TOL
    return max(2.0 * variance_stderr, SAMPLED_VARIANCE_FLOOR)


def _cluster_radius(stderr: float) -> float:
    """How far an energy may lie from a cluster's center and still belong to it."""
    return max(5.0 * stderr, CLUSTER_RADIUS_FLOOR)


def _matching_cluster(clusters, value: float) -> SpectrumCluster | None:
    """The first cluster within ``_cluster_radius`` of an exact eigenvalue, or None."""
    for cluster in clusters:
        if abs(cluster.energy - value) <= _cluster_radius(cluster.stderr):
            return cluster
    return None


def _initial_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    simplex = np.tile(x0, (len(x0) + 1, 1))
    for i in range(len(x0)):
        simplex[i + 1, i] += step
    return simplex


def _point_evaluator(h: PauliSum, h2: PauliSum, circuit: Circuit, config: EstimatorConfig):
    """``(parameters, index) -> ((energy, variance, energy_stderr,
    variance_stderr), result)`` as ``config`` asks, with sampled points
    seeded by (config.seed, index).  Exact mode checks the problem once and
    builds no result (None); its values equal ``estimate``'s bit for bit."""
    if config.exact:
        _verify_problem(circuit, h, h2)

        def exact(params, index):
            energy, _, variance = _exact_moments(run(circuit, params), h)
            # +0.0 stderrs, as exact estimate gives
            return (energy, variance, 0.0, 0.0), None

        return exact

    def sampled(params, index):
        result = estimate(
            circuit, params, h, h2,
            shots=config.shots, noise=config.noise, mitigation=config.mitigation,
            seed=np.random.SeedSequence((config.seed, index)),
        )
        values = (result.energy, result.variance, result.energy_stderr, result.variance_stderr)
        return values, result

    return sampled


def minimize_variance(
    h: PauliSum,
    h2: PauliSum,
    circuit: Circuit,
    initial,
    config: EstimatorConfig = EstimatorConfig(),
    budget: int | None = None,
) -> RunTrace:
    """Minimize sigma^2 over the ansatz parameters from one starting point.

    Stops as soon as an evaluation satisfies |sigma^2| < threshold (1e-8 in
    exact mode, max(2 * stderr, 0.01) in sampled mode), or when the budget of
    objective evaluations is exhausted; the latter returns a trace with
    ``converged=False`` rather than raising.  The trace's ``reason`` says
    which of ``TERMINATION_REASONS`` ended the search.
    """
    x0 = np.atleast_1d(np.asarray(initial, dtype=float))
    if x0.shape != (circuit.num_parameters,):
        raise ValueError(
            f"expected {circuit.num_parameters} initial parameters, got {x0.shape}"
        )
    if budget is None:
        budget = 600 if config.exact else 200
    if budget < 1:
        raise ValueError("budget must be at least 1")

    evaluate = _point_evaluator(h, h2, circuit, config)
    records: list[IterationRecord] = []
    # (|variance|, parameters, result); the result is None in exact mode
    best: tuple[float, tuple[float, ...], EstimationResult | None] | None = None
    crossing: tuple[tuple[float, ...], EstimationResult | None] | None = None

    def objective(x: np.ndarray) -> float:
        nonlocal best, crossing
        if len(records) >= budget:
            raise _BudgetExhausted
        params = tuple(x.tolist())
        values, result = evaluate(params, len(records))
        record = IterationRecord(params, *values)
        records.append(record)
        if best is None or abs(record.variance) < best[0]:
            best = (abs(record.variance), params, result)
        if abs(record.variance) < _threshold(config, record.variance_stderr):
            crossing = (params, result)
            raise _Converged
        return record.variance

    restart = 0
    if circuit.num_parameters == 0:
        try:
            objective(x0)
            reason = "stalled"
        except _Converged:
            reason = "converged"
    else:
        # the landscape lives on angles, so every round gets an explicit
        # simplex with an absolute step; scipy's default simplex scales with
        # |x0| and can start far below the shot-noise floor
        options = dict(maxiter=10**9, maxfev=10**9)
        if config.exact:
            options.update(xatol=1e-9, fatol=1e-13)
        else:
            # a noisy objective never satisfies fatol, so cap each round and
            # let the restart loop resume from the best point seen
            options.update(xatol=1e-3, fatol=1e-3)
            options["maxfev"] = max(40 * circuit.num_parameters, 60)
        x_start = x0
        while True:
            step = max(0.5 * 0.2**restart, 1e-6)
            opts = dict(options, initial_simplex=_initial_simplex(x_start, step))
            seen = len(records)
            try:
                _sciopt.minimize(objective, x_start, method="Nelder-Mead", options=opts)
            except _Converged:
                reason = "converged"
                break
            except _BudgetExhausted:
                reason = "budget"
                break
            if len(records) >= budget:
                reason = "budget"
                break
            if len(records) == seen:
                reason = "stalled"
                break
            if restart == _MAX_RESTARTS:
                reason = "restart_cap"
                break
            restart += 1
            x_start = np.asarray(best[1], dtype=float)

    converged = reason == "converged"
    final_params, final_result = crossing if converged else best[1:]
    if final_result is None:
        final_result = estimate(
            circuit, final_params, h, h2, noise=config.noise, mitigation=config.mitigation
        )
    return RunTrace(
        iterations=records,
        converged=converged,
        final=final_result,
        final_parameters=final_params,
        seed=int(config.seed),
        reason=reason,
        restarts=restart,
    )


@dataclass(frozen=True)
class SweepPoint:
    angle: float
    energy: float
    variance: float
    energy_stderr: float
    variance_stderr: float


def sweep(
    h: PauliSum,
    h2: PauliSum,
    circuit: Circuit,
    parameter_index: int = 0,
    grid=None,
    config: EstimatorConfig = EstimatorConfig(),
    fixed_parameters=None,
) -> list[SweepPoint]:
    """Evaluate energy and variance over a grid of one parameter.

    Defaults to 50 uniform angles over [-pi, pi].  Circuits with more than
    one parameter need ``fixed_parameters`` supplying the other slots.
    """
    k = circuit.num_parameters
    if not 0 <= parameter_index < k:
        raise ValueError(f"parameter_index {parameter_index} out of range for {k} slots")
    if grid is None:
        grid = np.linspace(-np.pi, np.pi, 50)
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("sweep grid is empty")
    if fixed_parameters is None:
        if k > 1:
            raise ValueError("multi-parameter circuit: fixed_parameters is required")
        base = np.zeros(k)
    else:
        base = np.asarray(fixed_parameters, dtype=float)
        if base.shape != (k,):
            raise ValueError(f"fixed_parameters must supply all {k} slots")
    evaluate = _point_evaluator(h, h2, circuit, config)
    points = []
    for i, angle in enumerate(grid):
        params = base.copy()
        params[parameter_index] = angle
        values, _ = evaluate(tuple(params.tolist()), i)
        points.append(SweepPoint(float(angle), *values))
    return points


def accidental_zero_check(
    circuit: Circuit,
    parameters,
    h: PauliSum,
    tolerance: float = RESIDUAL_TOL,
) -> tuple[bool, float]:
    """Screen a candidate eigenstate via the eigen-residual of its noiseless
    state: ||H psi - <H> psi||, the square root of the exact variance that
    ``estimate`` reads.

    A small sampled variance produced by shot noise alone fails this check
    because the underlying state is not close to any eigenvector.
    """
    _, _, variance = _exact_moments(run(circuit, parameters), h)
    residual = float(np.sqrt(variance))
    return residual < tolerance, residual


def discover_spectrum(
    h: PauliSum,
    h2: PauliSum,
    circuit: Circuit,
    n_starts: int,
    config: EstimatorConfig = EstimatorConfig(),
    master_seed: int = 0,
    budget: int | None = None,
) -> SpectrumReport:
    """Run ``n_starts`` seeded minimizations and cluster the found energies.

    Starting parameters are uniform over [-pi, pi]^k.  Converged runs are
    grouped within ``_cluster_radius`` of each other; each cluster representative
    must pass the accidental-zero check before the cluster is reported.
    Coverage is the fraction of exact eigenvalues matched by some cluster.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    k = circuit.num_parameters
    traces: list[RunTrace] = []
    for i in range(n_starts):
        child = np.random.SeedSequence((master_seed, i))
        initial = np.random.default_rng(child).uniform(-np.pi, np.pi, size=k)
        run_seed = int(child.generate_state(1)[0])
        run_config = replace(config, seed=run_seed)
        traces.append(minimize_variance(h, h2, circuit, initial, run_config, budget=budget))

    converged = sorted(
        ((t.final.energy, i) for i, t in enumerate(traces) if t.converged),
        key=lambda pair: (pair[0], pair[1]),
    )
    groups: list[list[int]] = []
    for energy, i in converged:
        placed = False
        if groups:
            members = groups[-1]
            center = np.mean([traces[m].final.energy for m in members])
            spread = max(
                [traces[m].final.energy_stderr for m in members]
                + [traces[i].final.energy_stderr]
            )
            if abs(energy - center) <= _cluster_radius(spread):
                members.append(i)
                placed = True
        if not placed:
            groups.append([i])

    clusters: list[SpectrumCluster] = []
    for members in groups:
        energies = np.array([traces[m].final.energy for m in members])
        stderrs = np.array([traces[m].final.energy_stderr for m in members])
        center = float(energies.mean())
        center_stderr = float(np.sqrt(np.sum(stderrs**2)) / len(members))
        rep = min(members, key=lambda m: abs(traces[m].final.variance))
        rep_trace = traces[rep]
        # a state converged to |variance| < T sits within sqrt(T) of an
        # eigenvector (residual^2 = exact variance), so the screen must be
        # calibrated to sqrt(threshold); stderr alone underestimates it
        threshold = _threshold(config, rep_trace.final.variance_stderr)
        combined_stderr = float(np.hypot(
            rep_trace.final.energy_stderr, rep_trace.final.variance_stderr
        ))
        tol = max(3.0 * np.sqrt(threshold), 10.0 * combined_stderr)
        passed, residual = accidental_zero_check(
            circuit, rep_trace.final_parameters, h, tolerance=tol
        )
        if not passed:
            continue
        state = run(circuit, rep_trace.final_parameters).amplitudes
        clusters.append(SpectrumCluster(
            energy=center,
            stderr=center_stderr,
            members=tuple(members),
            parameters=rep_trace.final_parameters,
            state=state,
            variance=rep_trace.final.variance,
            residual=residual,
        ))

    oracle = eigensolve(h.matrix)
    matched = sum(_matching_cluster(clusters, value) is not None for value in oracle.eigenvalues)
    coverage = matched / len(oracle.eigenvalues)
    return SpectrumReport(
        clusters=clusters,
        n_starts=n_starts,
        coverage=coverage,
        oracle_eigenvalues=oracle.eigenvalues,
        traces=traces,
    )
