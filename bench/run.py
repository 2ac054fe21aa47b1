"""lmgvqe benchmark: closed-loop workloads through the public API.

Usage (from the root of a checkout that holds ``src/lmgvqe``):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times ops with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` makes the separate traced run and prints per-layer
metrics.  Every op is checked against an independent oracle outside its
timed interval.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads, metrics and known findings are described in
``bench/NOTES.md``.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads; the set-up probes inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import hostspeed  # noqa: E402
from tracing import MEASURE, Tracer, write_spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples above it


@dataclass
class RunResult:
    """Metrics as name -> (value, unit), with what was attempted and failed."""

    metrics: dict
    details: dict
    attempted: int
    failed: int
    failures: list
    extra: dict = field(default_factory=dict)  # printed, not in the result line


def _attempt(workload, i, tracer=None):
    """Run op i and check it; only the op call itself is timed."""
    from workloads import Outcome

    args = workload.inputs(i)
    if tracer is not None:
        tracer.op = i
    start = time.perf_counter()
    try:
        result = workload.op(args)
    except Exception:
        elapsed = time.perf_counter() - start
        return elapsed, Outcome(failures=[f"op {i} raised: {traceback.format_exc(limit=3)}"])
    finally:
        if tracer is not None:
            tracer.op = -1
    elapsed = time.perf_counter() - start
    try:
        outcome = workload.inspect(args, result)
    except Exception:
        outcome = Outcome(failures=[f"op {i} check raised: {traceback.format_exc(limit=3)}"])
    outcome.failures = [f"op {i}: {f}" for f in outcome.failures]
    return elapsed, outcome


class Sample(NamedTuple):
    """One op: its measured seconds, the host-speed factor around it, its outcome."""

    seconds: float
    scale: float
    outcome: object

    @property
    def corrected(self) -> float:
        return self.seconds * self.scale


def closed_loop(workload, seconds=None, count=None, tracer=None) -> list[Sample]:
    """Ops 0, 1, ... one after another, until ``seconds`` pass or ``count`` ops ran.

    The reference kernel is timed before the first op and after every op, so
    each op lies between two host-speed readings.
    """
    from workloads import WARMUP

    samples = []
    before = hostspeed.reference_kernel()
    deadline = time.perf_counter() + seconds if seconds is not None else None
    while count is None or len(samples) < count:
        elapsed, outcome = _attempt(workload, len(samples), tracer)
        after = hostspeed.reference_kernel()
        samples.append(Sample(elapsed, hostspeed.scale(before, after), outcome))
        before = after
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if len(samples) == WARMUP:
            break
    return samples


def warm_up(workload) -> None:
    from workloads import WARMUP

    _, outcome = _attempt(workload, WARMUP)
    for failure in outcome.failures:
        print(f"warm-up {failure}", file=sys.stderr)


def tail(latencies):
    """(value, percentile, samples beyond) of the op_tail_ms percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def measure_setup(name: str) -> tuple[float, list[float]]:
    """Median corrected set-up time over SETUP_REPEATS fresh processes, and the raw times."""
    raw, corrected = [], []
    before = hostspeed.reference_kernel()
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        after = hostspeed.reference_kernel()
        raw.append(float(proc.stdout.split()[-1]))
        corrected.append(raw[-1] * hostspeed.scale(before, after))
        before = after
    return statistics.median(corrected), raw


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "lmgvqe").glob("*.py")),
    }


def determinism(workload, first_outcome) -> list[str]:
    """Repeat op 0 with the same inputs; its result must be bit-identical."""
    _, repeat = _attempt(workload, 0)
    if repeat.failures:
        return [f"repeat of {f}" for f in repeat.failures]
    if not first_outcome.fingerprint or repeat.fingerprint != first_outcome.fingerprint:
        return ["op 0 repeated with the same seed gave a different result"]
    return []


def timed_run(workload, name: str, seconds: float) -> RunResult:
    setup_s, setup_raw = measure_setup(name)
    workload.setup()
    warm_up(workload)
    samples = closed_loop(workload, seconds=seconds)
    outcomes = [x.outcome for x in samples]
    failures = [f for o in outcomes for f in o.failures]
    failed = sum(bool(o.failures) for o in outcomes)
    repeat_failures = determinism(workload, outcomes[0])
    failures += repeat_failures
    failed += bool(repeat_failures)
    attempted = len(samples) + 1
    evaluations = sum(o.evaluations for o in outcomes)

    def timings(latencies):
        busy = sum(latencies)
        return {
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_tail_ms": (tail(latencies)[0] * 1e3, "ms"),
            "ops_per_s": (len(latencies) / busy, "1/s"),
            "evals_per_s": (evaluations / busy, "1/s"),
        }

    corrected = [x.corrected for x in samples]
    raw = [x.seconds for x in samples]
    _, tail_pct, beyond = tail(corrected)
    result = RunResult(
        metrics={
            "setup_s": (setup_s, "s"),
            **timings(corrected),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        details={
            "ops": len(samples),
            "timed_s": sum(raw),
            "op_tail_percentile": tail_pct,
            "op_tail_samples_beyond": beyond,
            "evaluations": evaluations,
            "host_scale_median": statistics.median(x.scale for x in samples),
            "setup_s_raw_samples": setup_raw,
        },
        attempted=attempted,
        failed=failed,
        failures=failures,
    )
    # not gated: raw times move with the host; the rest apply to only some
    # workloads or are zero on a healthy run (error_rate is also failed /
    # attempted in the result line)
    result.extra["raw setup_s"] = (statistics.median(setup_raw), "s")
    result.extra.update({f"raw {k}": v for k, v in timings(raw).items()})
    result.extra["error_rate"] = (failed / attempted, "fraction")
    if workload.sampled:
        result.extra["shots_per_s"] = (sum(o.shots for o in outcomes) / sum(corrected), "1/s")
    coverages = [o.coverage for o in outcomes if o.coverage is not None]
    if coverages:
        result.extra["coverage"] = (statistics.fmean(coverages), "fraction")
    return result


def _consistency(workload, tracers, passes) -> list[str]:
    """Failures of the traced run's own invariants (see NOTES.md)."""

    def exact_counts(label):
        tracer = tracers[label]
        return {
            "circuits.gate_applications": tracer.gates.total(),
            "simulator.measure_term.calls": tracer.layer_calls[MEASURE],
            "simulator.shots": tracer.shots.total(),
            "evaluations": sum(x.outcome.evaluations for x in passes[label]),
            "pauli.cache_lookups": sum(tracer.cache),
        }

    failures = []
    counts_a, counts_b = exact_counts("A"), exact_counts("B")
    if counts_a != counts_b:
        failures.append(f"exact counts differ between traced passes: {counts_a} vs {counts_b}")
    for layer in workload.LAYERS:
        if not tracers["A"].layer_calls[layer]:
            failures.append(f"layer {layer} recorded no call")
    expected_shots = sum(x.outcome.shots for x in passes["A"])
    if counts_a["simulator.shots"] != expected_shots:
        failures.append(
            f"traced shots {counts_a['simulator.shots']} != {expected_shots} from the configuration"
        )
    return failures


def traced_run(workload, name: str, seconds: float) -> RunResult:
    """Traced pass A, untraced baseline and traced pass B over the same ops.

    Pass A runs for a third of ``seconds``; the baseline and pass B repeat
    exactly its ops, so pass B's exact counts must equal pass A's and the
    baseline gives the tracing overhead.
    """
    workload.setup()
    warm_up(workload)
    tracers = {"A": Tracer(), "B": Tracer()}
    with tracers["A"]:
        workload.setup()
        pass_a = closed_loop(workload, seconds=seconds / 3.0, tracer=tracers["A"])
    baseline = closed_loop(workload, count=len(pass_a))
    with tracers["B"]:
        workload.setup()
        pass_b = closed_loop(workload, count=len(pass_a), tracer=tracers["B"])
    passes = {"A": pass_a, "baseline": baseline, "B": pass_b}
    everything = [x.outcome for samples in passes.values() for x in samples]
    failures = [f for o in everything for f in o.failures]
    consistency = _consistency(workload, tracers, passes)

    ops = len(pass_a) + len(pass_b)
    outcomes = [x.outcome for x in pass_a + pass_b]
    totals: dict[str, list] = {}
    for tracer in tracers.values():
        for layer, row in tracer.layers().items():
            entry = totals.setdefault(layer, [0, 0.0, 0.0])
            for k, value in enumerate(row):
                entry[k] += value

    def per_op(layer, column):
        """column 0: calls per op; 1: inclusive ms per op; 2: self ms per op."""
        return totals.get(layer, [0, 0.0, 0.0])[column] / ops * (1e3 if column else 1.0)

    def ratio(num, den):
        return num / den if den else 0.0

    gates = sum((t.gates for t in tracers.values()), Counter())
    shots = sum((t.shots for t in tracers.values()), Counter())
    hits = sum(t.cache[0] for t in tracers.values())
    lookups = sum(sum(t.cache) for t in tracers.values())
    starts = sum(o.starts for o in outcomes)
    traced_rate = ops / sum(x.corrected for x in pass_a + pass_b)
    baseline_rate = len(baseline) / sum(x.corrected for x in baseline)

    metrics = {}
    for layer in ("quasispin.build_blocks", "pauli.decompose", "circuits.run",
                  "mitigation.calibrate", "mitigation.mitigate_counts",
                  "mitigation.cnot_extrapolate", "optimizer.accidental_zero_check",
                  "analysis.eigensolve"):
        metrics[f"{layer}.calls"] = (per_op(layer, 0), "calls/op")
        metrics[f"{layer}.ms"] = (per_op(layer, 1), "ms/op")
    for layer in (MEASURE, "estimator.estimate", "optimizer.minimize_variance"):
        metrics[f"{layer}.calls"] = (per_op(layer, 0), "calls/op")
        metrics[f"{layer}.self_ms"] = (per_op(layer, 2), "ms/op")
    metrics.update({
        "pauli.multiply.calls": (per_op("pauli.multiply", 0), "calls/op"),
        "pauli.cache_lookups": (lookups / ops, "lookups/op"),
        "pauli.cache_hit_ratio": (ratio(hits, lookups), "fraction"),
        "circuits.gate_applications": (gates.total() / ops, "gates/op"),
        "circuits.fold_cnots.calls": (per_op("circuits.fold_cnots", 0), "calls/op"),
        "simulator.shots": (shots.total() / ops, "shots/op"),
        "simulator.gate_applications_per_term": (
            ratio(gates["simulator"], totals.get(MEASURE, [0])[0]), "gates/call"),
        "mitigation.calibration_shot_share": (
            ratio(shots["mitigation"], shots.total()), "fraction"),
        "optimizer.discover_spectrum.self_ms": (per_op("optimizer.discover_spectrum", 2), "ms/op"),
        "optimizer.evals_per_start": (
            ratio(sum(o.evaluations for o in outcomes), starts), "evals/start"),
        "optimizer.converged_ratio": (ratio(sum(o.converged for o in outcomes), starts), "fraction"),
        "cli.main.self_ms": (per_op("cli.main", 2), "ms/op"),
        "cli.artifact_bytes": (statistics.fmean(o.artifact_bytes for o in outcomes), "bytes/op"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.baseline_ops_per_s": (baseline_rate, "1/s"),
        "trace.overhead": (baseline_rate / traced_rate - 1.0, "fraction"),
    })
    spans_path = ROOT / ".bench_out" / f"spans-{name}.csv.gz"
    write_spans(spans_path, tracers)
    return RunResult(
        metrics=metrics,
        details={
            "ops_per_pass": len(pass_a),
            "missing_bindings": sorted(set(tracers["A"].missing)),
            "spans": sum(len(t.spans) for t in tracers.values()),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "consistency_failures": consistency,
        },
        attempted=len(everything),
        failed=sum(bool(o.failures) for o in everything),
        failures=failures + consistency,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lmgvqe" / "__init__.py").is_file():
        print(f"error: no lmgvqe sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lmgvqe
    import workloads

    if not Path(lmgvqe.__file__).resolve().is_relative_to(SRC):
        print(f"error: lmgvqe imported from {lmgvqe.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](seed=args.seed, root=ROOT)
    try:
        result = (traced_run if args.trace else timed_run)(workload, args.workload, args.seconds)
    finally:
        workload.close()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for name, (value, unit) in result.extra.items():
        print(f"  {name:<40} {value:>16.6g} {unit}  (not gated)")
    print("details " + json.dumps(result.details))
    print("metadata " + json.dumps(metadata(args.seed)))
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
