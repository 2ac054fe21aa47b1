"""Command-line front end emitting machine-readable experiment artifacts.

Commands:
    decompose   print/write the Pauli forms and dense matrices of H and H^2
    sweep       energy and variance over a one-parameter grid (CSV)
    minimize    a single variance minimization trace (JSON)
    spectrum    multistart eigenvalue discovery (JSON report + CSV tables)
    overlaps    fidelity matrix of discovered states vs exact eigenvectors

Each command returns its stdout text, a one-line summary and its artifacts;
``main`` alone prints the text or, with ``--out``, creates the directory,
writes the artifacts and prints the summary.  A failed command writes nothing.

Exit codes: 0 success, 2 invalid configuration, a singular readout
calibration or an unwritable ``--out``, 3 spectrum coverage below 100%
(partial results are still written).  All numeric output is printed at 9
significant digits and every artifact carries a format_version field, so
identical configurations and seeds reproduce files byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import numbers
import sys
from collections.abc import Iterable
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves no state on
    it, so every ``main`` call shares it."""
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
        try:
            data = json.loads(path.read_text())
        except OSError as exc:  # missing, a directory, unreadable, ...
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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


def _table(name: str, rows: list[dict], config: ExperimentConfig) -> tuple[str, str]:
    """The artifact ``(filename, text)`` of rows as CSV (with a format_version
    comment) or a JSON list."""
    if config.format == "json":
        return f"{name}.json", _dump_json({"format_version": FORMAT_VERSION, "rows": rows})
    buffer = io.StringIO()
    buffer.write(f"# format_version={FORMAT_VERSION}\n")
    if rows:
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return f"{name}.csv", buffer.getvalue()


@dataclass(frozen=True)
class CommandOutput:
    """What a command produced.  ``main`` prints ``stdout`` when there is no
    ``--out``; otherwise it writes ``artifacts``, lazy ``(filename, text)``
    pairs, into the directory and prints ``summary`` with the directory in
    place of ``{out}``."""

    stdout: str
    summary: str
    artifacts: Iterable[tuple[str, str]]
    code: int = 0


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


def _trace_rows(trace: RunTrace) -> list[dict]:
    return [
        {"iteration": step, **{f"parameter{j}": _fmt(x) for j, x in enumerate(rec.parameters)},
         "energy": _fmt(rec.energy), "variance": _fmt(rec.variance),
         "energy_stderr": _fmt(rec.energy_stderr), "variance_stderr": _fmt(rec.variance_stderr)}
        for step, rec in enumerate(trace.iterations)
    ]


# ----------------------------------------------------------------- commands

def _pauli_text(matrix: np.ndarray) -> str:
    if matrix.shape == (1, 1):  # scalar block: a pure identity term
        return f"{_fmt(matrix[0, 0])} I"
    return decompose(matrix).to_text()


def cmd_decompose(config: ExperimentConfig) -> CommandOutput:
    text, artifacts = "", []
    for block in _selected_blocks(config, default_both=True):
        square = square_block(block)
        for name, label, matrix in (("h", "H", block.matrix), ("h2", "H^2", square)):
            matrix_text, pauli_text = _matrix_lines(matrix), _pauli_text(matrix) + "\n"
            text += f"# N={config.n} block {block.parity}: {label} matrix\n{matrix_text}"
            text += f"# N={config.n} block {block.parity}: {label} Pauli form\n{pauli_text}"
            artifacts += [(f"{name}_matrix_{block.parity}.txt", matrix_text),
                          (f"{name}_pauli_{block.parity}.txt", pauli_text)]
    return CommandOutput(text, text, artifacts)


def cmd_sweep(config: ExperimentConfig) -> CommandOutput:
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
        # the columns after the block are the SweepPoint fields, in order
        rows += [{"block": block.parity, **{k: _fmt(v) for k, v in asdict(point).items()}}
                 for point in points]
    table = _table("sweep", rows, config)
    return CommandOutput(table[1], f"wrote {len(rows)} sweep rows to {{out}}\n", [table])


def cmd_minimize(config: ExperimentConfig) -> CommandOutput:
    block = _selected_blocks(config, default_both=False)[0]
    circuit, h, h2 = _problem(config, block)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    initial = rng.uniform(-np.pi, np.pi, size=circuit.num_parameters)
    trace = minimize_variance(h, h2, circuit, initial, config.estimator)
    text = _dump_json({
        "format_version": FORMAT_VERSION,
        "command": "minimize",
        "config": config.experiment_dict(),
        "block": block.parity,
        **_run_summary(trace),
        "variance_stderr": trace.final.variance_stderr,
        "final_parameters": list(trace.final_parameters),
        "iterations": [asdict(rec) for rec in trace.iterations],
    })
    summary = (
        f"block {block.parity}: energy {_fmt(trace.final.energy)}"
        f" variance {_fmt(trace.final.variance)}"
        f" converged {trace.converged} ({len(trace.iterations)} evaluations)\n"
    )
    return CommandOutput(text, summary, [("minimize.json", text)])


def _spectrum_report(config: ExperimentConfig):
    block = _selected_blocks(config, default_both=False)[0]
    circuit, h, h2 = _problem(config, block)
    starts = config.starts if config.starts is not None else (20 if block.dim == 2 else 40)
    report = discover_spectrum(
        h, h2, circuit, starts, config.estimator, master_seed=config.seed
    )
    return block, report, 0 if report.coverage >= 1.0 else 3


def _spectrum_json(config: ExperimentConfig, block, report) -> str:
    """The text of ``spectrum.json``, which ``spectrum`` and ``overlaps`` both write."""
    return _dump_json({
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
    })


def _cluster_rows(config: ExperimentConfig, block, report) -> list[dict]:
    # published hardware numbers exist for the standard model only; annotations only
    standard = np.isclose([config.eps, config.v / config.eps, config.w], [1.0, 0.5, 0.0]).all()
    reference = HARDWARE_REFERENCE.get((config.n, block.parity)) if standard else None
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


def cmd_spectrum(config: ExperimentConfig) -> CommandOutput:
    block, report, code = _spectrum_report(config)
    text = _spectrum_json(config, block, report)

    def artifacts():
        yield "spectrum.json", text
        yield _table("clusters", _cluster_rows(config, block, report), config)
        for i, trace in enumerate(report.traces):
            yield _table(f"trace_{i:03d}", _trace_rows(trace), config)

    summary = (
        f"block {block.parity}: {len(report.clusters)} cluster(s),"
        f" coverage {_fmt(report.coverage)}\n"
    )
    return CommandOutput(text, summary, artifacts(), code)


def cmd_overlaps(config: ExperimentConfig) -> CommandOutput:
    block, report, code = _spectrum_report(config)
    decomposition = eigensolve(block.matrix)
    fidelities = overlap_table(report, decomposition)
    rows = []
    for cluster, fids in zip(report.clusters, fidelities):
        row = {"measured_energy": _fmt(cluster.energy)}
        for value, fid in zip(decomposition.eigenvalues, fids):
            row[f"overlap_with_{_fmt(value)}"] = _fmt(fid)
        rows.append(row)
    table = _table("overlaps", rows, config)

    def artifacts():
        yield table
        yield "spectrum.json", _spectrum_json(config, block, report)

    summary = f"wrote overlap matrix ({fidelities.shape[0]}x{fidelities.shape[1]}) to {{out}}\n"
    return CommandOutput(table[1], summary, artifacts(), code)


_COMMANDS = {
    "decompose": cmd_decompose,
    "sweep": cmd_sweep,
    "minimize": cmd_minimize,
    "spectrum": cmd_spectrum,
    "overlaps": cmd_overlaps,
}


def main(argv=None) -> int:
    """Run one command: print its stdout text, or with ``--out`` write its
    artifacts and print its summary.  The one place the CLI writes output."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        result = _COMMANDS[args.command](config)
        text = result.stdout
        if config.out is not None:
            out = Path(config.out)
            try:
                out.mkdir(parents=True, exist_ok=True)
                for name, artifact in result.artifacts:
                    (out / name).write_text(artifact)
            except OSError as exc:
                raise ConfigError(f"cannot write artifacts to {out}: {exc}") from exc
            text = result.summary.replace("{out}", str(out))
    except (ValueError, MitigationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text, end="")
    return result.code


def cli() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    cli()
