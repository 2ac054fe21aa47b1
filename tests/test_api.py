"""The package's public surface: exactly the names the pipeline, the CLI,
the demos and the benchmark use, and none of the entry points removed
because nothing but tests called them."""

import importlib

import pytest

import lmgvqe

PUBLIC = [
    "Circuit", "ConfusionMatrix", "DEFAULT_SYNTHETIC_NOISE", "EigenDecomposition",
    "EstimationResult", "EstimatorConfig", "Gate", "Mitigation", "MitigationError",
    "ModelParams", "NOISELESS", "NoiseModel", "PauliString", "PauliSum", "QuasispinBlock",
    "RunTrace", "SpectrumReport", "Statevector", "__version__", "accidental_zero_check",
    "ansatz_1q", "ansatz_2q", "build_blocks", "calibrate", "cnot_extrapolate", "decompose",
    "discover_spectrum", "eigensolve", "estimate", "fidelity", "fold_cnots",
    "ladder_squared_element", "measure_term", "minimize_variance", "mitigate_counts",
    "multiply", "overlap_table", "parity_signs", "run", "square_block", "sweep",
]

REMOVED = [
    ("pauli", "reconstruct"),
    ("simulator", "outcome_distributions"),
    ("estimator", "expectation_from_counts"),
    ("estimator", "expectation_exact"),
]


def test_public_names_pinned():
    assert sorted(lmgvqe.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(lmgvqe, name)] == []


@pytest.mark.parametrize("module, name", REMOVED, ids=[name for _, name in REMOVED])
def test_removed_entry_point_is_gone(module, name):
    module = importlib.import_module(f"lmgvqe.{module}")
    assert not hasattr(lmgvqe, name)
    assert not hasattr(module, name)
    assert name not in module.__all__


@pytest.mark.parametrize("cls", [lmgvqe.PauliString, lmgvqe.PauliSum])
def test_text_grammar_is_gone(cls):
    assert not hasattr(cls, "from_text")
