import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lmgvqe.cli as cli_module
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

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        # reading a directory raises IsADirectoryError, an OSError like a missing file
        assert main(["spectrum", "--config", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config file {tmp_path}")

    @pytest.mark.parametrize("text, match", [
        ('{"eps": "1.0"}', "eps must be a real number"),
        ('{"v": true}', "v must be a real number"),
        ('{"block": "C"}', "block must be A or B"),
        ('{"ansatz": "3q"}', "ansatz must be auto, 1q or 2q"),
        ('{"format": "xml"}', "format must be csv or json"),
        ('{"mitigate": [["readout"]]}', "unhashable type"),
        ('{"n": 3,', "invalid JSON in"),
    ])
    def test_invalid_config_file_exits_2(self, text, match, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["decompose", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert match in captured.err

    @pytest.mark.parametrize("flag, text", [("--folds", "1,x"), ("--fixed", "0,a,0")])
    def test_unparsable_list_flag_exits_2(self, flag, text, capsys):
        assert main(["sweep", "--n", "7", "--block", "A", flag, text]) == 2
        assert capsys.readouterr().err == f"error: cannot parse list {text!r}\n"

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


def sha256(text) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


class TestCliArtifactDigest:
    """Per run: the sha256 of stdout without ``--out``; with ``--out``, of
    the summary line (the directory read as ``OUT``) and of the artifact
    manifest, one ``name sha256`` line per file in name order.  Every digest
    was computed before the commands shared one output path in ``main``."""

    CASES = {
        "decompose-n3": ["decompose", "--n", "3"],
        "sweep-csv-exact": ["sweep", "--n", "3", "--steps", "5"],
        "sweep-json-sampled": ["sweep", "--n", "7", "--block", "A", "--steps", "3",
                               "--fixed", "0,0.5,0", "--shots", "200", "--seed", "3",
                               "--format", "json"],
        "minimize-readout": ["minimize", "--n", "3", "--block", "B", "--seed", "4",
                             "--shots", "500", "--noise-readout", "0.02", "--mitigate", "readout"],
        "minimize-readout-cnot135": ["minimize", "--n", "7", "--block", "A", "--seed", "3",
                                     "--shots", "200", "--noise-readout", "0.02",
                                     "--noise-cnot", "0.01", "--mitigate", "readout,cnot",
                                     "--folds", "1,3,5"],
        "spectrum-csv-sampled": ["spectrum", "--n", "3", "--block", "B", "--starts", "4",
                                 "--seed", "33", "--shots", "2000"],
        "spectrum-json-readout": ["spectrum", "--n", "3", "--block", "A", "--starts", "3",
                                  "--seed", "2", "--shots", "1000", "--noise-readout", "0.02",
                                  "--mitigate", "readout", "--format", "json"],
        "spectrum-readout-cnot135": ["spectrum", "--n", "7", "--block", "A", "--starts", "2",
                                     "--seed", "5", "--shots", "300", "--noise-readout", "0.02",
                                     "--noise-cnot", "0.01", "--mitigate", "readout,cnot",
                                     "--folds", "1,3,5"],
        # stops on a biased readout-mitigated point (see ROADMAP item 1)
        "spectrum-stop-bias": ["spectrum", "--n", "3", "--block", "A", "--shots", "20000",
                               "--noise-readout", "0.02", "--mitigate", "readout",
                               "--seed", "811136"],
        "overlaps-exact": ["overlaps", "--n", "3", "--block", "A", "--starts", "6",
                           "--seed", "9"],
    }

    # name: (exit code, stdout, summary, artifact manifest, artifact count)
    EXPECTED = {
        "decompose-n3": (
            0, "ee393473b71b65e9747791f6e1f549f2980f5696dacd4223ee1c0f18ce3e45b7",
            "ee393473b71b65e9747791f6e1f549f2980f5696dacd4223ee1c0f18ce3e45b7",
            "d4dffe40b43430e9d036184ed3c343972b15e2de147e973a1b49eda859977526", 8),
        "sweep-csv-exact": (
            0, "b0e344cc93116c00bb88c40b2aae8e9f97d94cd0bcf1e92fb1c7eff5fa8e4163",
            "910c048e5117adbcc79c86ba16b14e392ebde43dc5e0c747c233ebba27bfb7d9",
            "d33503abd000a1763b99aebb86f03529f40f0d8f878cab0fd0de729d66cd0229", 1),
        "sweep-json-sampled": (
            0, "ef688f5aac64f5afa734468be3e5c8eb81079eabee94c4447259c9d8998c3606",
            "32cdb1737c482a3552667977199e241be8d5dd81194a3d2612aeac4ed31787dc",
            "100c78c4d24c6a3fe95056a50085fab90615eab1156c84453ba44bc56370ff7e", 1),
        "minimize-readout": (
            0, "c3acc97d4311950e0d1d978393331fb5834d84b72e2d0224e78d3745b32df540",
            "ec1aa6c523bf58ea04f9715c5733a8783feed02a8a3988266d7634f08fd9d186",
            "4100b0eee43cd6c65d36818f50444106c52db9c216b2bf40aee91a7a9979c503", 1),
        "minimize-readout-cnot135": (
            0, "a4454f1ceff32c084f883006275b67d565d839609330d8001d8930489b8d86f3",
            "c2b47fb55d2a69dbea543ce258259034863e00740320d34bc071131b4a2bfc5d",
            "46dab3c4ab080f42faa3065629751be68c9dfd12c4bf811a633c0bac1a47e64b", 1),
        "spectrum-csv-sampled": (
            0, "307d5b65d97b87c074f9b46fce0032d620728eb38956d82c92426c4a55630929",
            "cf44ef12efb735c28f395fd153d3fec31e2d83d146d3a2ddc16d29d68306da23",
            "fa40cb38c02a5280c8e04e92aca3194b616de7d0cb19eb74c310a5a0f13ef6e6", 6),
        "spectrum-json-readout": (
            3, "4968e3e0be74d315482a8e5904a072f344615f9bbde9ecc717c64ec800916f19",
            "45e471acc9b4ef918d7218ac4ed8c6038e0764d23af4b72d94ee32871dd43725",
            "6a2b39f1a72e67ab5396062bdb4664cc67b43dd2a64bd5bd4034fe5683ce1c38", 5),
        "spectrum-readout-cnot135": (
            3, "d1c4a1018dcafe750e28634b08dff853bd460da91bf1b78ac270c03dcb81edae",
            "0b91e8074e57fd0cc390c4ec56b1fb570c47d024084cb38eaec02ed216ac3639",
            "73cf7f864d6fb60e30667da508007e26ca74e148094a3b791ec18c3de8f38d12", 4),
        "spectrum-stop-bias": (
            3, "ef21bf73b1865d275a08f7d87ead8c88bae973b9e7d02b51a92a4bfde02f1989",
            "0b91e8074e57fd0cc390c4ec56b1fb570c47d024084cb38eaec02ed216ac3639",
            "00e1d332c7fb844f8829a883628444dc12ecec2b5a33f7d2068c44a2185240bc", 22),
        "overlaps-exact": (
            0, "bc2998d2bde97e8fc633aa0e054060ecc4b1ffd1a3b3306cfbe6cb7e7285848b",
            "681e000ed6269b4766d36e84ef9d03f6cab91543fd65ecaaa6f62552d505f75b",
            "5e8125dea3f0ac7f83ed267bf8345ac1098af564dfc9f800382f464d589e445d", 2),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_stdout_summary_and_artifacts(self, name, tmp_path, capsys):
        argv = self.CASES[name]
        code, stdout, summary, manifest, count = self.EXPECTED[name]
        assert main(argv) == code
        assert sha256(capsys.readouterr().out) == stdout
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == code
        assert sha256(capsys.readouterr().out.replace(str(out), "OUT")) == summary
        files = sorted(out.iterdir())
        assert len(files) == count
        assert sha256("".join(f"{p.name} {sha256(p.read_bytes())}\n" for p in files)) == manifest


class TestOneOutputPath:
    @pytest.mark.parametrize("argv, artifact", [
        (["minimize", "--n", "3", "--block", "A", "--seed", "4"], "minimize.json"),
        (["spectrum", "--n", "3", "--block", "B", "--starts", "4", "--seed", "3"],
         "spectrum.json"),
        (["sweep", "--n", "3", "--steps", "4"], "sweep.csv"),
        (["sweep", "--n", "3", "--steps", "4", "--format", "json"], "sweep.json"),
        (["overlaps", "--n", "3", "--block", "A", "--starts", "6", "--seed", "9"],
         "overlaps.csv"),
    ])
    def test_stdout_equals_the_artifact(self, argv, artifact, tmp_path, capsys):
        code = main(argv)
        stdout = capsys.readouterr().out
        assert main(argv + ["--out", str(tmp_path)]) == code
        assert stdout == (tmp_path / artifact).read_text()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--n", "5"],
        ["sweep", "--n", "7", "--block", "A"],
        ["minimize", "--n", "3", "--shots", "1", "--noise-readout", "0.4",
         "--mitigate", "readout", "--seed", "1"],
    ], ids=["dim-3-block", "sweep-without-fixed", "singular-calibration"])
    def test_failed_command_leaves_no_out_directory(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert not out.exists()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("kept\n")
        assert main(["minimize", "--n", "3", "--block", "A", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert str(path) in captured.err
        assert path.read_text() == "kept\n"

    def test_stdout_only_spectrum_renders_no_trace_table(self, tmp_path, capsys, monkeypatch):
        rendered, trace_rows = [], cli_module._trace_rows

        def counting_trace_rows(trace):
            rendered.append(trace)
            return trace_rows(trace)

        monkeypatch.setattr(cli_module, "_trace_rows", counting_trace_rows)
        argv = ["spectrum", "--n", "3", "--block", "A", "--starts", "5", "--seed", "2"]
        assert main(argv) == 0
        assert rendered == []
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(rendered) == 5


class TestParserBuiltOnce:
    def test_main_calls_share_one_parser(self, monkeypatch, capsys):
        parsers = []
        build = cli_module.build_parser

        def recording_build():
            parsers.append(build())
            return parsers[-1]

        monkeypatch.setattr(cli_module, "build_parser", recording_build)
        assert main(["decompose", "--n", "3"]) == 0
        assert main(["decompose", "--n", "7", "--block", "A"]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

    def test_parse_error_leaves_the_next_call_working(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["spectrum", "--no-such-flag"])
        assert exit_info.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err
        assert main(["decompose", "--n", "3", "--block", "B"]) == 0
        out = capsys.readouterr().out
        assert "0.5 I" in out and "-0.5 I" not in out


class TestModuleEntryPoint:
    """``python -m lmgvqe`` runs ``cli()``, which exits with ``main``'s code."""

    @staticmethod
    def _run(*argv):
        src = str(Path(cli_module.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "lmgvqe", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )

    def test_decompose_prints_the_block(self, capsys):
        done = self._run("decompose", "--n", "3")
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith("# N=3 block A: H matrix\n")
        assert main(["decompose", "--n", "3"]) == 0
        assert done.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["spectrum", "--n", "5"], ["spectrum", "--config", "."]],
                             ids=["dim-3-block", "directory-config"])
    def test_bad_input_exits_2_without_traceback(self, argv):
        done = self._run(*argv)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
