"""Command-line front end emitting machine-readable experiment artifacts.

Commands:
    decompose   print/write the Pauli forms and dense matrices of H and H^2
    sweep       energy and variance over a one-parameter grid (CSV)
    minimize    a single variance minimization trace (JSON)
    spectrum    multistart eigenvalue discovery (JSON report + CSV tables)
    overlaps    fidelity matrix of discovered states vs exact eigenvectors

Exit codes: 0 success, 2 invalid configuration or a singular readout
calibration, 3 spectrum coverage below 100% (partial results are still
written).  All numeric output is printed at 9 significant digits and every
artifact carries a format_version field, so identical configurations and
seeds reproduce files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import numbers
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .analysis import HARDWARE_REFERENCE, eigensolve, overlap_table
from .circuits import _check_int, ansatz_1q, ansatz_2q
from .mitigation import Mitigation, MitigationError
from .optimizer import (
    EstimatorConfig,
    RunTrace,
    _matches,
    discover_spectrum,
    minimize_variance,
    sweep,
)
from .pauli import decompose
from .quasispin import ModelParams, QuasispinBlock, build_blocks, square_block
from .simulator import NoiseModel

__all__ = ["ExperimentConfig", "ConfigError", "main", "cli"]

FORMAT_VERSION = 1


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    return format(float(x), ".9g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one experiment; JSON round-trippable.  Construction
    checks every value and sets ``model`` and ``estimator``, which are not fields."""

    n: int = 3
    eps: float = 1.0
    v: float = 0.5
    w: float = 0.0
    block: str | None = None
    ansatz: str = "auto"
    shots: int | None = None
    seed: int = 1
    noise_readout: float = 0.0
    noise_cnot: float = 0.0
    mitigate: tuple[str, ...] = ()
    folds: tuple[int, ...] = (1, 3)
    starts: int | None = None
    steps: int = 50
    fixed: tuple[float, ...] | None = None
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        lists = [("mitigate", self.mitigate), ("folds", self.folds)]
        if self.fixed is not None:
            lists.append(("fixed", self.fixed))
        for name, value in lists:
            if not isinstance(value, (list, tuple)):  # a string would split into characters
                raise ConfigError(f"{name} must be a list, got {value!r}")
        for value in self.fixed or ():
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"fixed entries must be real numbers, got {value!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        object.__setattr__(self, "mitigate", tuple(self.mitigate))
        object.__setattr__(self, "folds", tuple(self.folds))
        if self.fixed is not None:
            object.__setattr__(self, "fixed", tuple(float(x) for x in self.fixed))
        for name in ("eps", "v", "w", "noise_readout", "noise_cnot"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if self.block not in (None, "A", "B"):
            raise ConfigError(f"block must be A or B, got {self.block!r}")
        if self.ansatz not in ("auto", "1q", "2q"):
            raise ConfigError(f"ansatz must be auto, 1q or 2q, got {self.ansatz!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        unknown = set(self.mitigate) - {"readout", "cnot"}
        if unknown:
            raise ConfigError(f"unknown mitigation scheme(s): {sorted(unknown)}")
        try:
            _check_int(self.steps, "steps")
            if self.starts is not None:
                _check_int(self.starts, "starts")
            model = ModelParams(self.n, self.eps, self.v, self.w)
            noise = NoiseModel(self.noise_readout, self.noise_readout, self.noise_cnot)
            mitigation = Mitigation("readout" in self.mitigate, "cnot" in self.mitigate, self.folds)
            estimator = EstimatorConfig(self.shots, noise, mitigation, self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "estimator", estimator)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["shots"] = "exact" if self.shots is None else self.shots
        data["format_version"] = FORMAT_VERSION
        return data

    def experiment_dict(self) -> dict:
        # config echo embedded in artifacts; the output location is
        # environment, not experiment, and would break byte-identical reruns
        data = self.to_dict()
        data.pop("out")
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        data.pop("format_version", None)
        if data.get("shots") == "exact":
            data["shots"] = None
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        try:
            return cls(**data)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


# ----------------------------------------------------------------- parsing

def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags override it")
    sub.add_argument("--n", type=int, help="particle number N")
    sub.add_argument("--eps", type=float, help="level splitting (energy unit)")
    sub.add_argument("--v", type=float, help="pair-excitation strength V")
    sub.add_argument("--w", type=float, help="scattering strength W")
    sub.add_argument("--block", choices=["A", "B"], help="parity block")
    sub.add_argument("--ansatz", choices=["auto", "1q", "2q"])
    sub.add_argument("--shots", help="shot count, or 'exact' for exact expectation values")
    sub.add_argument("--seed", type=int, help="master random seed")
    sub.add_argument("--noise-readout", type=float, dest="noise_readout",
                     help="symmetric readout flip probability per qubit")
    sub.add_argument("--noise-cnot", type=float, dest="noise_cnot",
                     help="depolarizing probability per CNOT")
    sub.add_argument("--mitigate", help="comma list from {readout,cnot}")
    sub.add_argument("--folds", help="comma list of odd CNOT folds, e.g. 1,3,5")
    sub.add_argument("--starts", type=int, help="number of multistart runs")
    sub.add_argument("--steps", type=int, help="sweep grid size")
    sub.add_argument("--fixed", help="comma list fixing all ansatz parameters (sweep)")
    sub.add_argument("--out", help="output directory for artifact files")
    sub.add_argument("--format", choices=["csv", "json"], help="tabular output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmgvqe",
        description="Variance-minimization VQE for LMG quasispin blocks",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("decompose", "Pauli forms and dense matrices of H and H^2"),
        ("sweep", "energy/variance over a one-parameter grid"),
        ("minimize", "single variance minimization trace"),
        ("spectrum", "multistart spectrum discovery"),
        ("overlaps", "fidelities of discovered states vs exact eigenvectors"),
    ):
        _add_common_arguments(subparsers.add_parser(name, help=help_text))
    return parser


def _parse_list(text: str, kind):
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse list {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer or 'exact', got {text!r}") from exc


_FLAG_PARSERS = {
    "shots": lambda text: text if text == "exact" else _parse_int(text),
    "mitigate": lambda text: _parse_list(text, str),
    "folds": lambda text: _parse_list(text, int),
    "fixed": lambda text: _parse_list(text, float),
}


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
    for name, value in vars(args).items():
        if value is not None and name not in ("command", "config"):
            data[name] = _FLAG_PARSERS[name](value) if name in _FLAG_PARSERS else value
    return ExperimentConfig.from_dict(data)


# ------------------------------------------------------------- block setup

def _selected_blocks(config: ExperimentConfig, default_both: bool) -> list[QuasispinBlock]:
    a, b = build_blocks(config.model)
    if config.block == "A":
        return [a]
    if config.block == "B":
        return [b]
    return [a, b] if default_both else [a]


def _problem(config: ExperimentConfig, block: QuasispinBlock):
    """(circuit, H, H^2) of the block: its ansatz and both Pauli sums."""
    by_dim = {2: "1q", 4: "2q"}
    needed = by_dim.get(block.dim)
    if needed is None:
        raise ConfigError(
            f"block dimension {block.dim} has no ansatz; the qubit workflow "
            f"supports dimensions 2 and 4 (odd N in {{3, 7}})"
        )
    if config.ansatz != "auto" and config.ansatz != needed:
        raise ConfigError(
            f"ansatz {config.ansatz} does not match block dimension {block.dim}"
        )
    circuit = ansatz_1q() if needed == "1q" else ansatz_2q()
    return circuit, decompose(block.matrix), decompose(square_block(block))


# ------------------------------------------------------------- output utils

def _round_floats(obj):
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_round_floats(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _dump_json(doc: dict) -> str:
    return json.dumps(_round_floats(doc), indent=2) + "\n"


def _write_table(rows: list[dict], path_base: Path | None, name: str,
                 config: ExperimentConfig) -> str:
    """Render rows as CSV (with a format_version comment) or a JSON list."""
    if config.format == "json":
        text = _dump_json({"format_version": FORMAT_VERSION, "rows": rows})
        suffix = ".json"
    else:
        buffer = io.StringIO()
        buffer.write(f"# format_version={FORMAT_VERSION}\n")
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        text = buffer.getvalue()
        suffix = ".csv"
    if path_base is not None:
        (path_base / f"{name}{suffix}").write_text(text)
    return text


def _out_dir(config: ExperimentConfig) -> Path | None:
    if config.out is None:
        return None
    path = Path(config.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _matrix_lines(matrix: np.ndarray) -> str:
    return "\n".join(" ".join(_fmt(x) for x in row) for row in matrix) + "\n"


def _run_summary(trace: RunTrace) -> dict:
    """What one run did and found, as ``minimize.json`` and every
    ``spectrum.json`` run entry report it."""
    return {
        "converged": trace.converged,
        "evaluations": len(trace.iterations),
        "reason": trace.reason,
        "restarts": trace.restarts,
        "energy": trace.final.energy,
        "energy_stderr": trace.final.energy_stderr,
        "variance": trace.final.variance,
    }


def _trace_doc(trace: RunTrace, config: ExperimentConfig, block: QuasispinBlock) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "minimize",
        "config": config.experiment_dict(),
        "block": block.parity,
        **_run_summary(trace),
        "variance_stderr": trace.final.variance_stderr,
        "final_parameters": list(trace.final_parameters),
        "iterations": [asdict(rec) for rec in trace.iterations],
    }


def _trace_rows(trace: RunTrace) -> list[dict]:
    rows = []
    for step, rec in enumerate(trace.iterations):
        row = {"iteration": step}
        for j, value in enumerate(rec.parameters):
            row[f"parameter{j}"] = _fmt(value)
        row.update(
            energy=_fmt(rec.energy), variance=_fmt(rec.variance),
            energy_stderr=_fmt(rec.energy_stderr),
            variance_stderr=_fmt(rec.variance_stderr),
        )
        rows.append(row)
    return rows


def _reference_rows(config: ExperimentConfig, block: QuasispinBlock):
    """Published hardware numbers for this model, or None; annotations only."""
    standard = (
        np.isclose(config.eps, 1.0)
        and np.isclose(config.v / config.eps, 0.5)
        and np.isclose(config.w, 0.0)
    )
    if not standard:
        return None
    return HARDWARE_REFERENCE.get((config.n, block.parity))


# ----------------------------------------------------------------- commands

def _pauli_text(matrix: np.ndarray) -> str:
    if matrix.shape == (1, 1):  # scalar block: a pure identity term
        return f"{_fmt(matrix[0, 0])} I"
    return decompose(matrix).to_text()


def cmd_decompose(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    for block in _selected_blocks(config, default_both=True):
        square = square_block(block)
        h_text, h2_text = _pauli_text(block.matrix), _pauli_text(square)
        print(f"# N={config.n} block {block.parity}: H matrix")
        print(_matrix_lines(block.matrix), end="")
        print(f"# N={config.n} block {block.parity}: H Pauli form")
        print(h_text)
        print(f"# N={config.n} block {block.parity}: H^2 matrix")
        print(_matrix_lines(square), end="")
        print(f"# N={config.n} block {block.parity}: H^2 Pauli form")
        print(h2_text)
        if out is not None:
            (out / f"h_pauli_{block.parity}.txt").write_text(h_text + "\n")
            (out / f"h2_pauli_{block.parity}.txt").write_text(h2_text + "\n")
            (out / f"h_matrix_{block.parity}.txt").write_text(_matrix_lines(block.matrix))
            (out / f"h2_matrix_{block.parity}.txt").write_text(_matrix_lines(square))
    return 0


def cmd_sweep(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    grid = np.linspace(-np.pi, np.pi, config.steps)
    rows = []
    for block in _selected_blocks(config, default_both=True):
        circuit, h, h2 = _problem(config, block)
        if circuit.num_parameters > 1 and config.fixed is None:
            raise ConfigError(
                "sweeping a multi-parameter ansatz needs --fixed with one value per slot"
            )
        points = sweep(
            h, h2, circuit, parameter_index=0, grid=grid,
            config=config.estimator, fixed_parameters=config.fixed,
        )
        for point in points:
            rows.append({
                "block": block.parity,
                "angle": _fmt(point.angle),
                "energy": _fmt(point.energy),
                "variance": _fmt(point.variance),
                "energy_stderr": _fmt(point.energy_stderr),
                "variance_stderr": _fmt(point.variance_stderr),
            })
    text = _write_table(rows, out, "sweep", config)
    if out is None:
        print(text, end="")
    else:
        print(f"wrote {len(rows)} sweep rows to {out}")
    return 0


def cmd_minimize(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    block = _selected_blocks(config, default_both=False)[0]
    circuit, h, h2 = _problem(config, block)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    initial = rng.uniform(-np.pi, np.pi, size=circuit.num_parameters)
    trace = minimize_variance(h, h2, circuit, initial, config.estimator)
    doc = _trace_doc(trace, config, block)
    if out is not None:
        (out / "minimize.json").write_text(_dump_json(doc))
        print(
            f"block {block.parity}: energy {_fmt(trace.final.energy)}"
            f" variance {_fmt(trace.final.variance)}"
            f" converged {trace.converged} ({len(trace.iterations)} evaluations)"
        )
    else:
        print(_dump_json(doc), end="")
    return 0


def _spectrum_report(config: ExperimentConfig):
    block = _selected_blocks(config, default_both=False)[0]
    circuit, h, h2 = _problem(config, block)
    starts = config.starts if config.starts is not None else (20 if block.dim == 2 else 40)
    report = discover_spectrum(
        h, h2, circuit, starts, config.estimator, master_seed=config.seed
    )
    return block, report


def _spectrum_doc(config: ExperimentConfig, block, report) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": "spectrum",
        "config": config.experiment_dict(),
        "block": block.parity,
        "n_starts": report.n_starts,
        "coverage": report.coverage,
        "oracle_eigenvalues": list(report.oracle_eigenvalues),
        "clusters": [
            {
                "energy": c.energy,
                "stderr": c.stderr,
                "members": list(c.members),
                "parameters": list(c.parameters),
                "variance": c.variance,
                "residual": c.residual,
                "state_re": list(np.real(c.state)),
                "state_im": list(np.imag(c.state)),
            }
            for c in report.clusters
        ],
        "runs": [{"seed": t.seed, **_run_summary(t)} for t in report.traces],
    }


def _cluster_rows(config: ExperimentConfig, block, report) -> list[dict]:
    reference = _reference_rows(config, block)
    rows = []
    matches = _matches(report.clusters, report.oracle_eigenvalues)
    for ordinal, (exact, match) in enumerate(zip(report.oracle_eigenvalues, matches)):
        row = {
            "ordinal": ordinal,
            "exact_value": _fmt(exact),
            "measured_value": _fmt(match.energy) if match else "",
            "stderr": _fmt(match.stderr) if match else "",
            "variance": _fmt(match.variance) if match else "",
        }
        if reference is not None:
            _, ref_var, ref_value, ref_err = reference[ordinal]
            row["published_qc_value"] = _fmt(ref_value)
            row["published_qc_uncertainty"] = _fmt(ref_err)
            row["published_qc_variance"] = _fmt(ref_var)
        rows.append(row)
    return rows


def cmd_spectrum(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    block, report = _spectrum_report(config)
    doc = _spectrum_doc(config, block, report)
    rows = _cluster_rows(config, block, report)
    if out is not None:
        (out / "spectrum.json").write_text(_dump_json(doc))
        _write_table(rows, out, "clusters", config)
        for i, trace in enumerate(report.traces):
            _write_table(_trace_rows(trace), out, f"trace_{i:03d}", config)
        print(
            f"block {block.parity}: {len(report.clusters)} cluster(s),"
            f" coverage {_fmt(report.coverage)}"
        )
    else:
        print(_dump_json(doc), end="")
    return 0 if report.coverage >= 1.0 else 3


def cmd_overlaps(config: ExperimentConfig) -> int:
    out = _out_dir(config)
    block, report = _spectrum_report(config)
    decomposition = eigensolve(block.matrix)
    table = overlap_table(report, decomposition)
    rows = []
    for cluster, fids in zip(report.clusters, table):
        row = {"measured_energy": _fmt(cluster.energy)}
        for value, fid in zip(decomposition.eigenvalues, fids):
            row[f"overlap_with_{_fmt(value)}"] = _fmt(fid)
        rows.append(row)
    text = _write_table(rows, out, "overlaps", config)
    if out is not None:
        (out / "spectrum.json").write_text(_dump_json(_spectrum_doc(config, block, report)))
        print(f"wrote overlap matrix ({table.shape[0]}x{table.shape[1]}) to {out}")
    else:
        print(text, end="")
    return 0 if report.coverage >= 1.0 else 3


_COMMANDS = {
    "decompose": cmd_decompose,
    "sweep": cmd_sweep,
    "minimize": cmd_minimize,
    "spectrum": cmd_spectrum,
    "overlaps": cmd_overlaps,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return _COMMANDS[args.command](config)
    except (ValueError, MitigationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
