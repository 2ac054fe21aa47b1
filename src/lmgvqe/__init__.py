"""Variance-minimization VQE for the Lipkin-Meshkov-Glick model.

The package builds the quasispin parity blocks of the LMG Hamiltonian,
encodes them (and their squares) as weighted Pauli strings, prepares
parameterized ansatz states on a built-in statevector simulator with
configurable shot, readout and CNOT noise, and recovers the full block
spectrum by minimizing the Hamiltonian variance sigma^2 = <H^2> - <H>^2,
whose global zeros are exactly the eigenstates.
"""

from .analysis import EigenDecomposition, eigensolve, fidelity, overlap_table
from .circuits import Circuit, Gate, Statevector, ansatz_1q, ansatz_2q, fold_cnots, run
from .estimator import EstimationResult, estimate, expectation_exact, expectation_from_counts
from .mitigation import (
    ConfusionMatrix,
    Mitigation,
    MitigationError,
    calibrate,
    cnot_extrapolate,
    mitigate_counts,
)
from .optimizer import (
    EstimatorConfig,
    RunTrace,
    SpectrumReport,
    accidental_zero_check,
    discover_spectrum,
    minimize_variance,
    sweep,
)
from .pauli import PauliString, PauliSum, decompose, multiply, parity_signs, reconstruct
from .quasispin import (
    ModelParams,
    QuasispinBlock,
    build_blocks,
    ladder_squared_element,
    square_block,
)
from .simulator import (
    DEFAULT_SYNTHETIC_NOISE,
    NOISELESS,
    NoiseModel,
    measure_term,
    outcome_distributions,
)

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "QuasispinBlock", "build_blocks", "ladder_squared_element", "square_block",
    "PauliString", "PauliSum", "decompose", "reconstruct", "multiply",
    "Gate", "Circuit", "Statevector", "ansatz_1q", "ansatz_2q", "run", "fold_cnots",
    "NoiseModel", "NOISELESS", "DEFAULT_SYNTHETIC_NOISE",
    "outcome_distributions", "measure_term", "parity_signs", "expectation_from_counts",
    "Mitigation", "MitigationError", "ConfusionMatrix",
    "calibrate", "mitigate_counts", "cnot_extrapolate",
    "EstimationResult", "estimate", "expectation_exact",
    "EstimatorConfig", "RunTrace", "SpectrumReport",
    "minimize_variance", "sweep", "discover_spectrum", "accidental_zero_check",
    "EigenDecomposition", "eigensolve", "fidelity", "overlap_table",
    "__version__",
]
