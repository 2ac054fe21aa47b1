import json

import pytest

from lmgvqe import EstimatorConfig, Mitigation, NoiseModel
from lmgvqe.cli import ConfigError, ExperimentConfig, main

from conftest import N3_A_EIGS, N7_EIGS


def read_csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestDecompose:
    def test_stdout_contains_pauli_coefficients(self, capsys):
        assert main(["decompose", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "-0.866025404 X0" in out
        assert "-1 Z0" in out
        assert "-0.5 I" in out and "0.5 I" in out  # blocks A and B
        assert "2 I" in out  # H^2 constant

    def test_files_written(self, tmp_path, capsys):
        assert main(["decompose", "--n", "7", "--block", "A", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "h_pauli_A.txt").read_text()
        assert "-2.82269491 X1" in text
        assert "0.531407059 Z0X1" in text
        assert (tmp_path / "h2_matrix_A.txt").exists()

    def test_n1_single_identity_term(self, capsys):
        assert main(["decompose", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "-0.5 I" in out and "0.25 I" in out


class TestSweep:
    def test_default_runs_both_blocks(self, tmp_path, capsys):
        assert main(["sweep", "--n", "3", "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        assert len(rows) == 100
        assert {r["block"] for r in rows} == {"A", "B"}

    def test_steps_flag_controls_rows(self, tmp_path):
        assert main(["sweep", "--n", "3", "--steps", "10", "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        assert len(rows) == 20  # 10 per block

    def test_exact_mode_has_zero_stderr(self, tmp_path):
        assert main(["sweep", "--n", "3", "--block", "A", "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        assert all(r["energy_stderr"] == "0" for r in rows)
        energies = [float(r["energy"]) for r in rows]
        assert min(energies) == pytest.approx(N3_A_EIGS[0], abs=0.01)

    def test_one_shot_sweep_has_positive_stderr(self, tmp_path):
        # one shot puts every term on one sign; the stderr is floored, not 0
        assert main([
            "sweep", "--n", "7", "--block", "A", "--shots", "1", "--fixed", "0,0.5,0",
            "--steps", "3", "--out", str(tmp_path),
        ]) == 0
        rows = read_csv_rows(tmp_path / "sweep.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row["energy_stderr"]) > 0 and float(row["variance_stderr"]) > 0

    def test_two_qubit_sweep_requires_fixed(self, tmp_path, capsys):
        assert main(["sweep", "--n", "7", "--block", "A"]) == 2
        assert main([
            "sweep", "--n", "7", "--block", "A", "--steps", "5",
            "--fixed", "0,0.3,-0.2", "--out", str(tmp_path),
        ]) == 0

    def test_json_format(self, tmp_path):
        assert main([
            "sweep", "--n", "3", "--block", "A", "--steps", "4",
            "--format", "json", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "sweep.json").read_text())
        assert doc["format_version"] == 1
        assert len(doc["rows"]) == 4


class TestMinimize:
    def test_writes_trace_json(self, tmp_path, capsys):
        assert main([
            "minimize", "--n", "3", "--block", "A", "--seed", "4", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "minimize.json").read_text())
        assert doc["format_version"] == 1
        assert doc["converged"] is True
        assert abs(doc["variance"]) < 1e-8
        assert min(abs(doc["energy"] - e) for e in N3_A_EIGS) < 1e-6
        assert len(doc["iterations"]) == doc["evaluations"]
        assert (doc["reason"], doc["restarts"]) == ("converged", 0)

    def test_stdout_json_without_out(self, capsys):
        assert main(["minimize", "--n", "3", "--block", "B", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "minimize"
        assert doc["block"] == "B"


class TestSpectrum:
    def test_n3_exact_spectrum(self, tmp_path, capsys):
        assert main([
            "spectrum", "--n", "3", "--block", "A", "--starts", "20",
            "--seed", "9", "--out", str(tmp_path),
        ]) == 0
        doc = json.loads((tmp_path / "spectrum.json").read_text())
        assert doc["coverage"] == 1.0
        assert len(doc["clusters"]) == 2
        for run_summary in doc["runs"]:
            assert run_summary["reason"] == "converged"
            assert run_summary["restarts"] >= 0
        rows = read_csv_rows(tmp_path / "clusters.csv")
        for row, exact in zip(rows, N3_A_EIGS):
            assert float(row["exact_value"]) == pytest.approx(exact, abs=1e-6)
            assert float(row["measured_value"]) == pytest.approx(exact, abs=1e-3)
        # trace files, one per run
        assert len(list(tmp_path.glob("trace_*.csv"))) == 20

    def test_hardware_annotation_present_for_standard_model(self, tmp_path):
        assert main([
            "spectrum", "--n", "3", "--block", "A", "--starts", "8",
            "--seed", "1", "--out", str(tmp_path),
        ]) == 0
        rows = read_csv_rows(tmp_path / "clusters.csv")
        assert rows[0]["published_qc_value"] == "-1.788"
        assert rows[0]["published_qc_uncertainty"] == "0.062"

    def test_no_annotation_for_other_parameters(self, tmp_path):
        assert main([
            "spectrum", "--n", "3", "--block", "A", "--starts", "6",
            "--v", "0.3", "--seed", "1", "--out", str(tmp_path),
        ]) == 0
        rows = read_csv_rows(tmp_path / "clusters.csv")
        assert "published_qc_value" not in rows[0]

    def test_incomplete_coverage_exits_3(self, tmp_path):
        rc = main([
            "spectrum", "--n", "3", "--block", "A", "--starts", "1",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert rc == 3
        assert (tmp_path / "spectrum.json").exists()  # partial results written

    def test_unmatched_eigenvalues_leave_their_rows_blank(self, tmp_path):
        rc = main([
            "spectrum", "--n", "7", "--block", "A", "--starts", "1",
            "--seed", "1", "--out", str(tmp_path),
        ])
        assert rc == 3
        rows = read_csv_rows(tmp_path / "clusters.csv")
        assert len(rows) == 4
        for row in rows[:3]:
            assert row["measured_value"] == row["stderr"] == row["variance"] == ""
        assert rows[3]["measured_value"] == "5.94409721"

    def test_byte_identical_reruns(self, tmp_path):
        args = ["spectrum", "--n", "3", "--block", "B", "--starts", "10",
                "--seed", "33", "--shots", "2000"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in ["spectrum.json", "clusters.csv"] + [f"trace_{i:03d}.csv" for i in range(10)]:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestOverlaps:
    def test_n7_overlap_diagonal(self, tmp_path):
        assert main([
            "overlaps", "--n", "7", "--block", "A", "--starts", "40",
            "--seed", "5", "--out", str(tmp_path),
        ]) == 0
        rows = read_csv_rows(tmp_path / "overlaps.csv")
        assert len(rows) == 4
        for row, exact in zip(rows, N7_EIGS):
            key = [k for k in row if k.startswith("overlap_with_") and
                   abs(float(k.removeprefix("overlap_with_")) - exact) < 1e-3][0]
            assert float(row[key]) > 0.999


class TestConfigHandling:
    def test_config_file_and_override(self, tmp_path, capsys):
        config = {"n": 3, "block": "A", "steps": 6, "seed": 5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--steps", "4",
                     "--out", str(out_dir)]) == 0
        rows = read_csv_rows(out_dir / "sweep.csv")
        assert len(rows) == 4  # flag overrides file value

    def test_round_trip(self):
        config = ExperimentConfig(n=7, block="A", shots=20_000, mitigate=("readout",),
                                  folds=(1, 3, 5), fixed=(0.1, 0.2, 0.3))
        again = ExperimentConfig.from_dict(config.to_dict())
        assert again == config
        exact = ExperimentConfig(shots=None)
        assert exact.to_dict()["shots"] == "exact"
        assert ExperimentConfig.from_dict(exact.to_dict()).shots is None

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"qubits": 5}))
        assert main(["spectrum", "--config", str(path)]) == 2

    def test_invalid_values_exit_2(self):
        assert main(["spectrum", "--n", "7", "--ansatz", "1q"]) == 2
        assert main(["spectrum", "--n", "0"]) == 2
        assert main(["spectrum", "--n", "5", "--block", "A"]) == 2  # dim-3 block
        assert main(["minimize", "--n", "3", "--shots", "abc"]) == 2
        assert main(["minimize", "--n", "3", "--noise-readout", "1.5"]) == 2
        assert main(["spectrum", "--n", "3", "--mitigate", "zne"]) == 2

    def test_non_finite_values_exit_2(self, capsys):
        assert main(["spectrum", "--n", "3", "--eps", "nan"]) == 2
        assert main(["spectrum", "--n", "3", "--v", "inf"]) == 2
        assert main(["sweep", "--n", "7", "--block", "A", "--fixed", "0,nan,0"]) == 2
        assert capsys.readouterr().out == ""

    def test_readout_flips_summing_to_one_exit_2(self, capsys):
        # a singular confusion matrix cannot be inverted by --mitigate readout
        args = ["minimize", "--n", "3", "--shots", "20", "--noise-readout", "0.5",
                "--mitigate", "readout"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_singular_sampled_calibration_exits_2(self, capsys):
        # one calibration shot per column at 40% flips: some evaluation reads
        # both basis states as the same bitstring
        args = ["minimize", "--n", "3", "--shots", "1", "--noise-readout", "0.4",
                "--mitigate", "readout", "--seed", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "singular" in err

    @pytest.mark.parametrize("extra", [
        ["--noise-readout", "0.2", "--mitigate", "readout"],
        ["--noise-readout", "0.2"],
        ["--noise-cnot", "0.01"],
        ["--mitigate", "cnot"],
    ])
    def test_exact_mode_with_noise_or_mitigation_exits_2(self, extra, capsys):
        assert main(["minimize", "--n", "3", "--shots", "exact", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        with pytest.raises(ConfigError):
            ExperimentConfig(shots=None, noise_readout=0.2)

    def test_missing_config_file(self):
        assert main(["spectrum", "--config", "/nonexistent/config.json"]) == 2

    def test_argparse_rejects_unknown_choice(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["spectrum", "--block", "C"])
        assert excinfo.value.code == 2

    def test_shots_flag_accepts_exact(self, capsys):
        assert main(["minimize", "--n", "3", "--shots", "exact", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["shots"] == "exact"


class TestConfigBuiltOnce:
    @pytest.mark.parametrize("extra", [
        ["--mitigate", "cnot", "--folds", "2"],
        ["--mitigate", "cnot", "--folds", "1,3,3"],
        ["--noise-readout", "1.5"],
        ["--folds", "2"],
        ["--folds", "1,1"],
        ["--folds", "0"],
        ["--folds", "2,4"],
    ])
    def test_decompose_checks_noise_and_mitigation(self, extra, capsys):
        assert main(["decompose", "--n", "3", "--shots", "10", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_spectrum_checks_folds_without_cnot(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["spectrum", "--n", "3", "--shots", "10", "--folds", "2,4",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ") and not out.exists()

    @pytest.mark.parametrize("fields", [
        {"n": 0},
        {"eps": -1.0},
        {"shots": 10, "noise_readout": 1.5},
        {"shots": 10, "noise_cnot": 0.7},
        {"shots": 10, "mitigate": ("cnot",), "folds": (1, 2)},
        {"shots": 10, "mitigate": ("cnot",), "folds": (1, 3, 3)},
        {"steps": 0},
        {"steps": 2.5},
        {"starts": True},
    ])
    def test_invalid_library_value_rejected_at_construction(self, fields):
        with pytest.raises(ConfigError):
            ExperimentConfig(**fields)

    def test_estimator_built_from_fields(self):
        config = ExperimentConfig(n=7, shots=500, seed=4, noise_readout=0.02, noise_cnot=0.01,
                                  mitigate=("readout", "cnot"), folds=(1, 3, 5))
        assert config.estimator == EstimatorConfig(
            500, NoiseModel(0.02, 0.02, 0.01), Mitigation(True, True, (1, 3, 5)), 4
        )

    @pytest.mark.parametrize("command, data", [
        (["minimize", "--n", "3", "--block", "A"], {"shots": 2.5}),
        (["minimize", "--n", "3", "--shots", "100", "--mitigate", "cnot"], {"folds": [1, 3.5]}),
        (["decompose"], {"n": True}),
        (["minimize", "--n", "3"], {"seed": 1.5}),
        (["spectrum", "--n", "3"], {"starts": 2.5}),
        (["sweep", "--n", "3"], {"steps": 2.5}),
    ])
    def test_mistyped_config_values_exit_2(self, command, data, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main([command[0], "--config", str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("data", [
        {"fixed": [True, 0.3, -0.2]},
        {"mitigate": "readout"},
        {"folds": "13"},
        [1, 2],
        {"out": 5},
    ])
    def test_config_values_of_wrong_type_exit_2(self, data, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        args = ["sweep", "--n", "7", "--block", "A", "--steps", "2", "--config", str(path)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
