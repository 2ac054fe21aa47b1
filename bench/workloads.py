"""The benchmark workloads: inputs from the seed, one op each, oracle checks.

Each workload is a closed loop with one client.  ``inputs(i)`` derives the
i-th op's inputs from the seed, ``op`` makes the timed call through the
public API (looked up on ``lmgvqe`` at call time, so the traced run can wrap
it), and ``inspect`` checks the result against :mod:`oracle` outside the
timed interval.  The caller must put ``src/`` on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lmgvqe
import lmgvqe.cli

import oracle

SHOTS = 20000
READOUT_NOISE = 0.02
# op i uses seed * SEED_STRIDE + i; the warm-up op uses the last slot
SEED_STRIDE = 1000
WARMUP = SEED_STRIDE - 1


@dataclass
class Outcome:
    """What one op did, as counted from its result, and what failed."""

    evaluations: int = 0
    shots: int = 0
    starts: int = 0
    converged: int = 0
    coverage: float | None = None
    artifact_bytes: int = 0
    fingerprint: str = ""
    failures: list[str] = field(default_factory=list)


def _report_fingerprint(report) -> str:
    """Every value of a SpectrumReport that a rerun must reproduce bit for bit."""
    clusters = [
        (c.energy, c.stderr, c.members, c.parameters, c.state.tobytes(), c.variance, c.residual)
        for c in report.clusters
    ]
    traces = [(t.converged, len(t.iterations), t.final, t.final_parameters) for t in report.traces]
    return repr((report.coverage, report.oracle_eigenvalues.tobytes(), clusters, traces))


class _N7BlockA:
    """Shared set-up of the two N=7 workloads: block A, its square, ansatz_2q.

    Each workload class also names, in ``LAYERS``, the layers its ops must
    reach; the traced run fails if one records no call, so a missed binding
    cannot pass as a layer that cost nothing.
    """

    sampled = False

    def __init__(self, seed: int, root: Path):
        self.base = seed * SEED_STRIDE

    def setup(self) -> None:
        block, _ = lmgvqe.build_blocks(lmgvqe.ModelParams(7, eps=1.0, v=0.5, w=0.0))
        self.h = lmgvqe.decompose(block.matrix)
        self.h2 = lmgvqe.decompose(lmgvqe.square_block(block))
        self.circuit = lmgvqe.ansatz_2q()
        self.matrix = oracle.lmg_block(7, 1.0, 0.5, 0.0, "A")
        self.eigenvalues = np.linalg.eigvalsh(self.matrix)

    def close(self) -> None:
        pass


class ExactSpectrumN7(_N7BlockA):
    """40-start exact-mode discover_spectrum, consecutive master seeds."""

    STARTS = 40
    LAYERS = (
        "quasispin.build_blocks", "pauli.decompose", "optimizer.discover_spectrum",
        "optimizer.minimize_variance", "estimator.estimate", "circuits.run",
        "optimizer.accidental_zero_check", "analysis.eigensolve",
    )

    def inputs(self, i: int):
        return self.base + i

    def op(self, master_seed):
        return lmgvqe.discover_spectrum(
            self.h, self.h2, self.circuit, self.STARTS, lmgvqe.EstimatorConfig(),
            master_seed=master_seed,
        )

    def inspect(self, master_seed, report) -> Outcome:
        energies = [c.energy for c in report.clusters]
        failures = oracle.check_exact_energies(energies, self.eigenvalues)
        failures += oracle.check_weinstein(
            [(c.energy, c.stderr, c.state) for c in report.clusters], self.matrix, self.eigenvalues
        )
        return Outcome(
            evaluations=sum(len(t.iterations) for t in report.traces),
            starts=len(report.traces),
            converged=sum(t.converged for t in report.traces),
            coverage=report.coverage,
            fingerprint=_report_fingerprint(report),
            failures=failures,
        )


class MitigatedEstimateN7(_N7BlockA):
    """One readout- and CNOT-mitigated 20k-shot estimate at seeded parameters."""

    sampled = True
    MITIGATION = lmgvqe.Mitigation(readout=True, cnot=True, folds=(1, 3), calibration_shots=SHOTS)
    LAYERS = (
        "quasispin.build_blocks", "pauli.decompose", "estimator.estimate",
        "circuits.fold_cnots", "simulator.measure_term", "mitigation.calibrate",
        "mitigation.mitigate_counts", "mitigation.cnot_extrapolate",
    )

    def setup(self) -> None:
        super().setup()
        terms = len(self.h.measured_terms) + len(self.h2.measured_terms)
        calibration = 2**self.circuit.num_qubits * self.MITIGATION.calibration_shots
        self.shots_per_op = terms * len(self.MITIGATION.folds) * SHOTS + calibration

    def inputs(self, i: int):
        seed = self.base + i
        parameters = tuple(np.random.default_rng(seed).uniform(-np.pi, np.pi, size=3))
        return seed, parameters

    def op(self, args):
        seed, parameters = args
        return lmgvqe.estimate(
            self.circuit, parameters, self.h, self.h2, shots=SHOTS,
            noise=lmgvqe.DEFAULT_SYNTHETIC_NOISE, mitigation=self.MITIGATION, seed=seed,
        )

    def inspect(self, args, result) -> Outcome:
        exact = oracle.exact_moments(self.matrix, oracle.ansatz_2q_state(*args[1]))
        measured = {
            "energy": (result.energy, result.energy_stderr),
            "h_squared": (result.h_squared, result.h_squared_stderr),
            "variance": (result.variance, result.variance_stderr),
        }
        return Outcome(
            evaluations=1,
            shots=self.shots_per_op,
            fingerprint=repr(result),
            failures=oracle.check_estimate(measured, exact),
        )


class ReadoutSpectrumN3:
    """``lmgvqe spectrum`` on N=3 with readout noise and readout mitigation.

    Blocks alternate A, B; each op writes its artifacts to a fresh directory
    under ``.bench_out/`` in the checkout, removed once inspected.
    """

    sampled = True
    LAYERS = (
        "cli.main", "quasispin.build_blocks", "pauli.decompose",
        "optimizer.discover_spectrum", "optimizer.minimize_variance", "estimator.estimate",
        "circuits.fold_cnots", "simulator.measure_term", "mitigation.calibrate",
        "mitigation.mitigate_counts", "optimizer.accidental_zero_check", "circuits.run",
        "analysis.eigensolve",
    )

    def __init__(self, seed: int, root: Path):
        self.base = seed * SEED_STRIDE
        self.out_root = root / ".bench_out" / f"readout_spectrum_n3-{os.getpid()}"

    def setup(self) -> None:
        blocks = lmgvqe.build_blocks(lmgvqe.ModelParams(3, eps=1.0, v=0.5, w=0.0))
        # shots per evaluation: every measured term of H and H^2, plus the
        # two one-qubit calibration circuits
        self.shots_per_eval = {}
        self.matrix, self.eigenvalues = {}, {}
        for block in blocks:
            h = lmgvqe.decompose(block.matrix)
            h2 = lmgvqe.decompose(lmgvqe.square_block(block))
            terms = len(h.measured_terms) + len(h2.measured_terms)
            self.shots_per_eval[block.parity] = (terms + 2) * SHOTS
            self.matrix[block.parity] = oracle.lmg_block(3, 1.0, 0.5, 0.0, block.parity)
            self.eigenvalues[block.parity] = np.linalg.eigvalsh(self.matrix[block.parity])
        self.out_root.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        shutil.rmtree(self.out_root, ignore_errors=True)

    def inputs(self, i: int):
        return "AB"[i % 2], self.base + i, self.out_root / f"op{i}"

    def op(self, args):
        block, seed, out = args
        argv = [
            "spectrum", "--n", "3", "--block", block, "--shots", str(SHOTS),
            "--noise-readout", str(READOUT_NOISE), "--mitigate", "readout",
            "--seed", str(seed), "--out", str(out),
        ]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = lmgvqe.cli.main(argv)
        return code, stderr.getvalue()

    def inspect(self, args, result) -> Outcome:
        block, seed, out = args
        code, stderr = result
        try:
            if code not in (0, 3):
                return Outcome(failures=[f"cli exit code {code}: {stderr.strip()}"])
            text = (out / "spectrum.json").read_bytes()
            artifact_bytes = sum(p.stat().st_size for p in out.iterdir())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        doc = json.loads(text)
        clusters = [
            (c["energy"], c["stderr"], np.array(c["state_re"]) + 1j * np.array(c["state_im"]))
            for c in doc["clusters"]
        ]
        evaluations = sum(r["evaluations"] for r in doc["runs"])
        return Outcome(
            evaluations=evaluations,
            shots=evaluations * self.shots_per_eval[block],
            starts=len(doc["runs"]),
            converged=sum(r["converged"] for r in doc["runs"]),
            coverage=doc["coverage"],
            artifact_bytes=artifact_bytes,
            fingerprint=text.decode(),
            failures=oracle.check_weinstein(clusters, self.matrix[block], self.eigenvalues[block]),
        )


WORKLOADS = {
    "exact_spectrum_n7": ExactSpectrumN7,
    "mitigated_estimate_n7": MitigatedEstimateN7,
    "readout_spectrum_n3": ReadoutSpectrumN3,
}
