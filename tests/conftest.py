"""Shared fixtures and frozen reference values.

The frozen numbers were computed with independent oracles before the
implementation: closed-form ladder coefficients and 2x2 eigenvalues, dense
numpy linear algebra for the larger blocks, and the published 3-4 digit
tables for cross-checks at their printed precision.
"""

import numpy as np
import pytest

from lmgvqe import NOISELESS, ModelParams, ansatz_1q, ansatz_2q, build_blocks, run, square_block
from lmgvqe.estimator import _term_estimates
from lmgvqe.pauli import decompose, parity_signs
from lmgvqe.simulator import _basis_table, _noisy_rows

SQRT3 = np.sqrt(3.0)

# N=3 blocks at v/eps = 0.5, w = 0
N3_A_MATRIX = np.array([[-1.5, -SQRT3 / 2], [-SQRT3 / 2, 0.5]])
N3_B_MATRIX = np.array([[-0.5, -SQRT3 / 2], [-SQRT3 / 2, 1.5]])
N3_A_SQUARED = np.array([[3.0, SQRT3 / 2], [SQRT3 / 2, 1.0]])
N3_B_SQUARED = np.array([[1.0, -SQRT3 / 2], [-SQRT3 / 2, 3.0]])

# closed-form 2x2 eigenvalues: (trace +/- sqrt(trace^2 - 4 det)) / 2
N3_A_EIGS = ((-1.0 - np.sqrt(7.0)) / 2.0, (-1.0 + np.sqrt(7.0)) / 2.0)
N3_B_EIGS = ((1.0 - np.sqrt(7.0)) / 2.0, (1.0 + np.sqrt(7.0)) / 2.0)

# published 3-digit matrix entries and Pauli coefficients for N=3
N3_A_PRINTED = np.array([[-1.5, -0.866], [-0.866, 0.5]])
N3_A_PAULI_PRINTED = {"I": -0.5, "Z0": -1.0, "X0": -0.8660254}
N3_B_PAULI_PRINTED = {"I": 0.5, "Z0": -1.0, "X0": -0.8660254}
N3_A_SQ_PAULI_PRINTED = {"I": 2.0, "X0": 0.8660254, "Z0": 1.0}
N3_B_SQ_PAULI_PRINTED = {"I": 2.0, "X0": -0.8660254, "Z0": -1.0}

# N=7 block A: published (rounded) form and full-precision off-diagonals
N7_PRINTED = np.array([
    [-3.5, -2.291, 0.0, 0.0],
    [-2.291, -1.5, -3.873, 0.0],
    [0.0, -3.873, 0.5, -3.354],
    [0.0, 0.0, -3.354, 2.5],
])
N7_OFFDIAG = (-2.29128784747792, -3.872983346207417, -3.3541019662496843)

# dense-eigensolver oracle values (numpy.linalg.eigvalsh, frozen)
N7_EIGS = (
    -6.208099243547832,
    -2.9440972086577935,
    1.2080992435478313,
    5.944097208657794,
)
# published to 3 decimals
N7_EIGS_PRINTED = (-6.208, -2.944, 1.208, 5.944)

# published Pauli coefficients (the H^2 ones come from squaring a rounded
# matrix, hence the looser 2e-3 agreement with full precision)
N7_PAULI_PRINTED = {
    "I": -0.5, "X1": -2.8225, "Z1": -1.0, "X0X1": -1.9365,
    "Y0Y1": -1.9365, "Z0": -2.0, "Z0X1": 0.5315,
}
N7_SQ_PAULI_PRINTED = {
    "I": 20.999063, "X1": 0.6965, "Z1": 1.0, "X0": 10.9315425,
    "X0X1": 1.9365, "X0Z1": -2.0584995, "Y0Y1": 1.93654,
    "Z0": -1.0003175, "Z0X1": 10.7585, "Z0Z1": -3.5,
}

# full-precision decomposition of the exact N=7 block and its exact square
N7_PAULI_EXACT = {
    "I": -0.5, "X1": -2.822694906863802, "Z1": -1.0,
    "X0X1": -1.9364916731037085, "Y0Y1": -1.9364916731037085,
    "Z0": -2.0, "Z0X1": 0.5314070593858822,
}
N7_SQ_PAULI_EXACT = {
    "I": 21.0, "X1": 0.6970666693202734, "Z1": 1.0,
    "X0": 10.932250365708, "X0X1": 1.9364916731037087,
    "X0Z1": -2.058130691058577, "Y0Y1": 1.9364916731037087,
    "Z0": -1.0, "Z0X1": 10.759372568069326, "Z0Z1": -3.5,
}


class BlockSetup:
    """A parity block with its circuit and Pauli-encoded H, H^2."""

    def __init__(self, block):
        self.block = block
        self.h = decompose(block.matrix)
        self.h2 = decompose(square_block(block))
        self.circuit = ansatz_1q() if block.dim == 2 else ansatz_2q()


@pytest.fixture(scope="session")
def n3_a():
    a, _ = build_blocks(ModelParams(3, v=0.5))
    return BlockSetup(a)


@pytest.fixture(scope="session")
def n3_b():
    _, b = build_blocks(ModelParams(3, v=0.5))
    return BlockSetup(b)


@pytest.fixture(scope="session")
def n7_a():
    a, _ = build_blocks(ModelParams(7, v=0.5))
    return BlockSetup(a)


@pytest.fixture(scope="session")
def n7_b():
    _, b = build_blocks(ModelParams(7, v=0.5))
    return BlockSetup(b)


def eigenstate_parameters_1q(vector):
    """Angle reproducing a real unit 2-vector with the single-RY ansatz."""
    return 2.0 * np.arctan2(vector[1], vector[0])


def eigenstate_parameters_2q(vector):
    """Angles reproducing a real unit 4-vector with the two-qubit ansatz."""
    x = np.asarray(vector, dtype=float)
    r01, r23 = np.hypot(x[0], x[1]), np.hypot(x[2], x[3])
    t1 = 2.0 * np.arctan2(r23, r01)
    alpha = np.arctan2(x[1], x[0]) if r01 > 1e-12 else 0.0
    beta = np.arctan2(-x[3], x[2]) if r23 > 1e-12 else 0.0
    return (alpha + beta, t1, alpha - beta)


def outcome_rows(circuit, params, terms, noise=NOISELESS):
    """Exact read-outcome distribution of each term's measurement circuit at
    one point, shape (len(terms), 2^n): the estimator's two table halves."""
    table, index = _basis_table(run(circuit, params), terms)
    return _noisy_rows(table, index, circuit.num_cnots, noise)


def term_estimate(counts, term, cal=None):
    """Mean and standard error of one term from one count vector, readout
    corrected when a calibration is given: the estimator's per-term formula."""
    mean, stderr = _term_estimates(np.asarray(counts)[None], parity_signs(term)[None], cal)
    return float(mean[0]), float(stderr[0])
