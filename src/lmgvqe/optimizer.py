"""Variance minimization, parameter sweeps and multistart spectrum search.

Because the variance objective is zero exactly on eigenstates, a local
derivative-free search started from random parameters lands on *some*
eigenstate; enough restarts cover the full block spectrum.  The optimizer is
Nelder-Mead (Nelder & Mead, Comput. J. 7, 308, 1965) with deterministic
shrink restarts: when the simplex collapses above the convergence threshold
and evaluation budget remains, the search resumes from the best point with a
smaller initial simplex.

``_nelder_mead`` is a port of scipy's non-adaptive, unbounded Nelder-Mead as
an ask/tell generator: it builds its simplex, yields each point to evaluate
and takes the value back, visiting the points ``scipy.optimize.minimize``
would, and caps nothing.  ``_search`` runs one start's restart rounds and
holds its only evaluation counts: before each evaluation it tests scipy's
per-round ``maxfev`` cap, as scipy's wrapper does, and the start's budget.
So one ``minimize_variance`` call advances any number of starts in lockstep:
each round, every live start yields its next point, and one step,
``_evaluate``, reads them all, as a sweep reads its grid.  The starts share
one config but its seed, so a round is one read: exact, one batched ``run``
and one moment read (``estimator._exact_moments``), each row with the
arithmetic of exact ``estimate``; sampled, one batched ``estimate`` in which
each point is seeded by (its start's seed, its evaluation index) and keeps
its own draws.  So no start's trace depends on the others.  One exact
``estimate`` after the last round reads every exact trace's final result,
and each trace records why it stopped.

``discover_spectrum`` runs its seeded starts in one ``minimize_variance``
call; ``_group`` groups the converged energies, ``_screen`` keeps each group
whose representative passes an accidental-zero check (the residual
||H psi - <H> psi|| of the noiseless state, the square root of its exact
variance, which catches variance minima manufactured by sampling noise), and
``_matches`` pairs each exact eigenvalue with a cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import eigensolve
from .circuits import Circuit, _check_int, _single_point, run
from .estimator import (
    EstimationResult, _exact_moments, _reject_noise_in_exact_mode, _verify_problem, estimate
)
from .mitigation import Mitigation
from .pauli import PauliSum
from .simulator import NOISELESS, NoiseModel

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
# "stalled": no free parameter, so the first round's one point is all there is
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
            _check_int(self.shots)
        _check_int(self.seed, "seed", minimum=0)
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


def _threshold(config: EstimatorConfig, variance_stderr: float) -> float:
    if config.exact:
        return EXACT_VARIANCE_TOL
    return max(2.0 * variance_stderr, SAMPLED_VARIANCE_FLOOR)


def _cluster_radius(stderr: float) -> float:
    """How far an energy may lie from a cluster's center and still belong to it."""
    return max(5.0 * stderr, CLUSTER_RADIUS_FLOOR)


def _nelder_mead(x0: np.ndarray, step: float, xatol: float, fatol: float):
    """scipy's non-adaptive, unbounded Nelder-Mead from the simplex of ``x0``
    and ``x0`` plus ``step`` along each axis, as an ask/tell generator: it
    yields each point to evaluate and takes its value by ``send`` until the
    simplex converges to within xatol and fatol, with no cap on evaluations.
    Same coefficients, sorts and arithmetic as ``scipy.optimize.minimize``,
    so it visits the same points."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for i in range(n):
        sim[i + 1, i] += step
    fsim = np.full(n + 1, np.inf)
    for k in range(n + 1):
        fsim[k] = yield sim[k]
    if n == 0:  # no free parameter: the one point is all there is
        return
    for _ in range(2):  # scipy sorts twice before its first step
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
    while not (abs(sim[1:] - sim[0]).max() <= xatol and abs(fsim[0] - fsim[1:]).max() <= fatol):
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = yield xr
        shrink = False
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = yield xe
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-1]:  # outside contraction
            xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
            fxc = yield xc
            if fxc <= fxr:
                sim[-1], fsim[-1] = xc, fxc
            else:
                shrink = True
        else:  # inside contraction
            xcc = (1 - psi) * xbar + psi * sim[-1]
            fxcc = yield xcc
            if fxcc < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc
            else:
                shrink = True
        if shrink:
            for j in range(1, n + 1):
                sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                fsim[j] = yield sim[j]
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)


def _evaluate(h, h2, circuit: Circuit, points, config: EstimatorConfig, keys) -> list:
    """``(values, result)`` of each row of ``points``, with values
    ``(energy, variance, energy_stderr, variance_stderr)`` read as ``config``
    says.  An exact read is one batched ``run`` and one moment read, each row
    with the arithmetic of exact ``estimate``, so its values, +0.0 stderrs
    included, equal estimate's bit for bit; its results are None.  A sampled
    read is one batched ``estimate``, row i seeded by
    ``SeedSequence(keys[i])``.  The caller has checked the problem."""
    points = np.asarray(points, dtype=float)
    if config.exact:
        energy, _, variance = _exact_moments(run(circuit, points).amplitudes, h)
        return [((e, v, 0.0, 0.0), None) for e, v in zip(energy.tolist(), variance.tolist())]
    seeds = [np.random.SeedSequence(key) for key in keys]
    results = estimate(
        circuit, points, h, h2, config.shots, config.noise, config.mitigation, seed=seeds
    )
    return [((r.energy, r.variance, r.energy_stderr, r.variance_stderr), r) for r in results]


def _search(x0: np.ndarray, config: EstimatorConfig, budget: int):
    """One start's restarted search as an ask/tell generator: yields
    ``(parameters, index)`` for each evaluation, takes its ``(values,
    result)`` by ``send`` and returns the start's ``RunTrace``, its final
    result None in exact mode.  It alone counts evaluations: before each one
    it ends the round once ``maxfev`` points of the round are evaluated, as
    scipy's wrapper does, and the search once ``budget`` points are."""
    k = len(x0)
    records: list[IterationRecord] = []
    # (|variance|, parameters, result); the result is None in exact mode
    best: tuple[float, tuple[float, ...], EstimationResult | None] | None = None
    if config.exact:
        xatol, fatol, maxfev = 1e-9, 1e-13, 10**9
    else:
        # a noisy objective never satisfies fatol, so cap each round and
        # let the restart loop resume from the best point seen
        xatol, fatol, maxfev = 1e-3, 1e-3, max(40 * k, 60)
    restart, x_start, crossing, reason = 0, x0, None, None
    while reason is None:
        # the landscape lives on angles, so every round starts from a simplex
        # with an absolute step; scipy's default simplex scales with |x0|
        # and can start far below the shot-noise floor
        steps = _nelder_mead(x_start, max(0.5 * 0.2**restart, 1e-6), xatol, fatol)
        x, stop = next(steps), min(len(records) + maxfev, budget)
        while x is not None and len(records) < stop:
            params = tuple(x.tolist())
            values, result = yield params, len(records)
            record = IterationRecord(params, *values)
            records.append(record)
            if best is None or abs(record.variance) < best[0]:
                best = (abs(record.variance), params, result)
            if abs(record.variance) < _threshold(config, record.variance_stderr):
                crossing, reason = (params, result), "converged"
                break
            try:
                x = steps.send(record.variance)
            except StopIteration:
                x = None
        if reason is None:
            if k == 0:
                reason = "stalled"
            elif len(records) >= budget:
                reason = "budget"
            elif restart == _MAX_RESTARTS:
                reason = "restart_cap"
            else:
                restart += 1
                x_start = np.asarray(best[1], dtype=float)

    converged = reason == "converged"
    final_params, final_result = crossing if converged else best[1:]
    return RunTrace(
        iterations=records,
        converged=converged,
        final=final_result,
        final_parameters=final_params,
        seed=int(config.seed),
        reason=reason,
        restarts=restart,
    )


def minimize_variance(
    h: PauliSum,
    h2: PauliSum,
    circuit: Circuit,
    initial,
    config: EstimatorConfig = EstimatorConfig(),
    budget: int | None = None,
) -> RunTrace | list[RunTrace]:
    """Minimize sigma^2 over the ansatz parameters.

    ``initial`` of shape (k,) runs one start with ``config`` and returns its
    ``RunTrace``.  Shape (B, k) runs B starts in lockstep, with ``config`` a
    sequence of one ``EstimatorConfig`` per start, and returns their traces
    in order; each trace equals the one its start gives alone.  The configs
    may differ only in ``seed``; any other difference raises ValueError.

    A start stops as soon as an evaluation satisfies |sigma^2| < threshold
    (1e-8 in exact mode, max(2 * stderr, 0.01) in sampled mode), or when its
    budget of objective evaluations is exhausted; the latter returns a trace
    with ``converged=False`` rather than raising.  The trace's ``reason``
    says which of ``TERMINATION_REASONS`` ended the search.
    """
    k = circuit.num_parameters
    starts = np.asarray(initial, dtype=float)
    single = starts.ndim < 2
    if single:
        starts, configs = np.atleast_1d(starts)[None], (config,)
    else:
        configs = tuple(config) if isinstance(config, (list, tuple)) else ()
    if starts.ndim != 2 or starts.shape[1] != k or len(starts) == 0:
        raise ValueError(f"expected {k} initial parameters per start, got {np.shape(initial)}")
    if len(configs) != len(starts) or not all(isinstance(c, EstimatorConfig) for c in configs):
        raise ValueError(f"expected one EstimatorConfig per start, {len(starts)} in all")
    if len({(c.shots, c.noise, c.mitigation) for c in configs}) > 1:
        raise ValueError("the starts of one call must share shots, noise and mitigation")
    if budget is not None:
        _check_int(budget, "budget")
    _verify_problem(circuit, h, h2)

    config = configs[0]
    budget = budget or (600 if config.exact else 200)
    searches = [_search(x0, c, budget) for x0, c in zip(starts, configs)]
    traces: list[RunTrace | None] = [None] * len(searches)
    replies = dict.fromkeys(range(len(searches)))
    while replies:
        pending = {}
        for i, reply in replies.items():
            try:
                pending[i] = searches[i].send(reply)
            except StopIteration as stop:
                traces[i] = stop.value
        # one round: every live start's next point, read in one step
        points = [point for point, _ in pending.values()]
        keys = [(configs[i].seed, index) for i, (_, index) in pending.items()]
        evaluated = _evaluate(h, h2, circuit, points, config, keys) if pending else []
        replies = dict(zip(pending, evaluated))
    if config.exact:  # one read of every trace's final point
        points = [t.final_parameters for t in traces]
        for trace, final in zip(traces, estimate(circuit, points, h, h2, seed=[0] * len(points))):
            trace.final = final
    return traces[0] if single else traces


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
    _check_int(parameter_index, "parameter_index", minimum=0)
    if parameter_index >= k:
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
    _verify_problem(circuit, h, h2)
    points = np.tile(base, (len(grid), 1))
    points[:, parameter_index] = grid
    keys = [(config.seed, i) for i in range(len(grid))]
    evaluated = _evaluate(h, h2, circuit, points, config, keys)
    return [SweepPoint(float(angle), *values) for angle, (values, _) in zip(grid, evaluated)]


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
    if h.num_qubits != circuit.num_qubits:
        raise ValueError("Hamiltonian and circuit qubit counts differ")
    if not tolerance > 0:  # NaN fails too
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    point = _single_point(circuit, parameters)
    _, _, variance = _exact_moments(run(circuit, point).amplitudes, h)
    residual = float(np.sqrt(variance))
    return residual < tolerance, residual


def _group(traces) -> list[list[int]]:
    """The converged runs' indices in groups, in ascending (energy, index)
    order: a run joins the last group when its energy lies within
    ``_cluster_radius`` of the group's mean, the radius set by the largest
    stderr of the group and the run, and otherwise starts a new group."""
    groups: list[list[int]] = []
    for energy, i in sorted((t.final.energy, i) for i, t in enumerate(traces) if t.converged):
        if groups:
            last = groups[-1]
            center = np.mean([traces[m].final.energy for m in last])
            spread = max(traces[m].final.energy_stderr for m in last + [i])
            if abs(energy - center) <= _cluster_radius(spread):
                last.append(i)
                continue
        groups.append([i])
    return groups


def _screen(h, circuit, config, traces, groups) -> list[SpectrumCluster]:
    """One cluster per group whose representative, the member of smallest
    |variance|, passes the accidental-zero check; the other groups are dropped."""
    clusters: list[SpectrumCluster] = []
    for members in groups:
        rep = traces[min(members, key=lambda m: abs(traces[m].final.variance))]
        # a state converged to |variance| < T sits within sqrt(T) of an
        # eigenvector (residual^2 = exact variance), so the screen must be
        # calibrated to sqrt(threshold); stderr alone underestimates it
        threshold = _threshold(config, rep.final.variance_stderr)
        combined_stderr = float(np.hypot(rep.final.energy_stderr, rep.final.variance_stderr))
        tol = max(3.0 * np.sqrt(threshold), 10.0 * combined_stderr)
        passed, residual = accidental_zero_check(circuit, rep.final_parameters, h, tolerance=tol)
        if passed:
            energies = np.array([traces[m].final.energy for m in members])
            stderrs = np.array([traces[m].final.energy_stderr for m in members])
            state = run(circuit, rep.final_parameters).amplitudes
            clusters.append(SpectrumCluster(
                float(energies.mean()), float(np.sqrt(np.sum(stderrs**2)) / len(members)),
                tuple(members), rep.final_parameters, state, rep.final.variance, residual,
            ))
    return clusters


def _matches(clusters, eigenvalues) -> list[SpectrumCluster | None]:
    """For each exact eigenvalue, the first cluster within ``_cluster_radius``
    of it, or None."""
    return [
        next((c for c in clusters if abs(c.energy - value) <= _cluster_radius(c.stderr)), None)
        for value in eigenvalues
    ]


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

    Start i draws its parameters, uniform over [-pi, pi]^k, and a seed that
    replaces ``config.seed`` from (``master_seed``, i), so ``config.seed`` is
    ignored.  Coverage is the fraction of exact eigenvalues that ``_matches``
    pairs with a cluster.
    """
    _check_int(n_starts, "n_starts")
    _check_int(master_seed, "master_seed", minimum=0)
    k = circuit.num_parameters
    initial = np.empty((n_starts, k))
    configs = []
    for i in range(n_starts):
        child = np.random.SeedSequence((master_seed, i))
        initial[i] = np.random.default_rng(child).uniform(-np.pi, np.pi, size=k)
        configs.append(replace(config, seed=int(child.generate_state(1)[0])))
    traces = minimize_variance(h, h2, circuit, initial, configs, budget=budget)
    clusters = _screen(h, circuit, config, traces, _group(traces))
    oracle = eigensolve(h.matrix)
    matches = _matches(clusters, oracle.eigenvalues)
    coverage = sum(match is not None for match in matches) / len(matches)
    return SpectrumReport(clusters, n_starts, coverage, oracle.eigenvalues, traces)
