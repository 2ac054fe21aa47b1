"""Self-tests of the benchmark; they exercise the package only through it.

    python3 bench/selftest.py            # negative tests and smoke runs (~1 min)

The negative tests feed each oracle check a result whose energy was moved
off the truth and expect the op to be counted as failed.  The smoke runs
make a one-second run of every workload in both modes and check that every
metric named in BENCHMARK.json is printed with its unit.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest

import run  # sets the thread pins before numpy loads

sys.path.insert(0, str(run.SRC))

import lmgvqe  # noqa: E402
import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _failures_with(workload, perturb):
    """Run op 0 through the benchmark's own loop with its result perturbed."""
    real_op = workload.op
    workload.op = lambda args: perturb(args, real_op(args))
    try:
        _, outcome = run._attempt(workload, 0)
    finally:
        workload.op = real_op
    return outcome.failures


class OracleChecksCatchPerturbedEnergies(unittest.TestCase):
    def _workload(self, name):
        workload = workloads.WORKLOADS[name](seed=0, root=run.ROOT)
        workload.setup()
        self.addCleanup(workload.close)
        return workload

    def test_exact_spectrum(self):
        workload = self._workload("exact_spectrum_n7")
        self.assertEqual(_failures_with(workload, lambda a, r: r), [])

        def shift(args, report):
            report.clusters[0].energy += 1e-3
            return report

        failures = _failures_with(workload, shift)
        self.assertTrue(any("exact cluster" in f for f in failures), failures)
        self.assertTrue(any("Weinstein" in f for f in failures), failures)

    def test_mitigated_estimate(self):
        workload = self._workload("mitigated_estimate_n7")
        self.assertEqual(_failures_with(workload, lambda a, r: r), [])

        def shift(args, result):
            return dataclasses.replace(result, energy=result.energy + 7 * result.energy_stderr)

        failures = _failures_with(workload, shift)
        self.assertEqual(len(failures), 1, failures)
        self.assertIn("energy", failures[0])

    def test_readout_spectrum(self):
        workload = self._workload("readout_spectrum_n3")
        self.assertEqual(_failures_with(workload, lambda a, r: r), [])

        def shift(args, result):
            path = args[2] / "spectrum.json"
            doc = json.loads(path.read_text())
            doc["clusters"][0]["energy"] += 1.0
            path.write_text(json.dumps(doc))
            return result

        failures = _failures_with(workload, shift)
        self.assertTrue(any("Weinstein" in f for f in failures), failures)

    def test_weinstein_bound_holds_at_eigenvectors(self):
        matrix = oracle.lmg_block(7, 1.0, 0.5, 0.0, "A")
        values, vectors = np.linalg.eigh(matrix)
        clusters = [(values[k], 0.0, vectors[:, k]) for k in range(len(values))]
        self.assertEqual(oracle.check_weinstein(clusters, matrix, values), [])

    def test_oracle_conventions_match_the_package(self):
        parameters = (0.3, -1.1, 2.0)
        state = lmgvqe.run(lmgvqe.ansatz_2q(), parameters).amplitudes
        np.testing.assert_allclose(state, oracle.ansatz_2q_state(*parameters), atol=1e-12)
        for n in (3, 7):
            for block in lmgvqe.build_blocks(lmgvqe.ModelParams(n, eps=1.0, v=0.5, w=0.0)):
                np.testing.assert_allclose(
                    block.matrix, oracle.lmg_block(n, 1.0, 0.5, 0.0, block.parity), atol=1e-12
                )


class SmokeRuns(unittest.TestCase):
    def _run(self, name, trace):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "3",
             "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in SPEC["workloads"]:
                with self.subTest(workload=workload["name"], trace=trace):
                    result = self._run(workload["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected)

    def test_fails_without_sources(self):
        bare = run.ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
