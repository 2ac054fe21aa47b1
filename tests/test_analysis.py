import numpy as np
import pytest

from lmgvqe import (
    EstimatorConfig,
    ModelParams,
    build_blocks,
    decompose,
    discover_spectrum,
    eigensolve,
    fidelity,
    overlap_table,
)
from lmgvqe.analysis import HARDWARE_REFERENCE

from conftest import N3_A_EIGS, N7_EIGS, N7_EIGS_PRINTED


def closed_form_2x2(matrix):
    trace, det = np.trace(matrix), np.linalg.det(matrix)
    root = np.sqrt(trace**2 - 4 * det)
    return (trace - root) / 2, (trace + root) / 2


class TestEigensolve:
    def test_n3_closed_form(self, n3_a):
        decomposition = eigensolve(n3_a.block.matrix)
        np.testing.assert_allclose(decomposition.eigenvalues, N3_A_EIGS, atol=1e-12)

    def test_n7_frozen_and_printed(self, n7_a):
        decomposition = eigensolve(n7_a.block.matrix)
        np.testing.assert_allclose(decomposition.eigenvalues, N7_EIGS, atol=1e-9)
        np.testing.assert_allclose(decomposition.eigenvalues, N7_EIGS_PRINTED, atol=1e-3)

    def test_identity_matrix(self):
        decomposition = eigensolve(np.eye(3))
        np.testing.assert_allclose(decomposition.eigenvalues, np.ones(3))
        np.testing.assert_allclose(
            decomposition.eigenvectors @ decomposition.eigenvectors.T, np.eye(3), atol=1e-12
        )

    def test_scalar_matrix(self):
        decomposition = eigensolve(np.array([[4.2]]))
        assert decomposition.eigenvalues[0] == pytest.approx(4.2)

    def test_random_2x2_against_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = rng.normal(size=(2, 2))
            m = (m + m.T) / 2
            decomposition = eigensolve(m)
            np.testing.assert_allclose(
                decomposition.eigenvalues, closed_form_2x2(m), atol=1e-12
            )

    def test_residual_orthonormality_and_sign(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 4, 6):
            for _ in range(10):
                m = rng.normal(size=(dim, dim))
                m = (m + m.T) / 2
                decomposition = eigensolve(m)
                values, vectors = decomposition.eigenvalues, decomposition.eigenvectors
                assert np.all(np.diff(values) >= -1e-12)
                np.testing.assert_allclose(vectors.T @ vectors, np.eye(dim), atol=1e-10)
                for k in range(dim):
                    residual = np.linalg.norm(m @ vectors[:, k] - values[k] * vectors[:, k])
                    assert residual < 1e-10
                    lead = vectors[np.flatnonzero(np.abs(vectors[:, k]) > 1e-12)[0], k]
                    assert lead > 0
                # independent route: numpy's tridiagonalization-based solver
                np.testing.assert_allclose(values, np.linalg.eigvalsh(m), atol=1e-10)

    def test_parity_mirror_via_oracle(self):
        for n in (3, 5, 7, 9):
            a, b = build_blocks(ModelParams(n, v=0.5))
            ev_a = eigensolve(a.matrix).eigenvalues
            ev_b = eigensolve(b.matrix).eigenvalues
            np.testing.assert_allclose(ev_b, -ev_a[::-1], atol=1e-12)

    def test_oracle_self_consistency_through_encoding(self, n7_a):
        direct = eigensolve(n7_a.block.matrix).eigenvalues
        encoded = eigensolve(decompose(n7_a.block.matrix).matrix).eigenvalues
        np.testing.assert_allclose(encoded, direct, atol=1e-9)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            eigensolve(np.array([[0.0, 1.0j], [-1.0j, 0.0]]) + np.array([[0, 0.5], [0.5, 0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="matrix must be square"):
            eigensolve(np.zeros(shape))


class TestFidelity:
    def test_identical_states(self):
        v = np.array([0.6, 0.8])
        assert fidelity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            f = fidelity(a, b)
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_sign_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=4)
        a /= np.linalg.norm(a)
        assert fidelity(a, -a) == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fidelity(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            fidelity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
    def test_non_finite_state_rejected(self, bad):
        good = np.array([1.0, 0.0])
        for psi, phi in ((np.array(bad), good), (good, np.array(bad))):
            with pytest.raises(ValueError, match="not normalized"):
                fidelity(psi, phi)


@pytest.fixture(scope="module")
def n7_report(n7_a):
    from lmgvqe import ansatz_2q

    return discover_spectrum(
        n7_a.h, n7_a.h2, ansatz_2q(), 40, EstimatorConfig(), master_seed=19
    )


class TestOverlapTable:
    def test_exact_spectrum_gives_identity_like_table(self, n7_a, n7_report):
        decomposition = eigensolve(n7_a.block.matrix)
        table = overlap_table(n7_report, decomposition)
        assert table.shape == (4, 4)
        assert np.all(np.diag(table) > 0.999)

    def test_rows_sum_to_one(self, n7_a, n7_report):
        # the ansatz states lie in the span of the full eigenbasis
        decomposition = eigensolve(n7_a.block.matrix)
        table = overlap_table(n7_report, decomposition)
        np.testing.assert_allclose(table.sum(axis=1), np.ones(len(table)), atol=1e-9)


class TestHardwareReference:
    def test_annotation_shape(self):
        assert set(HARDWARE_REFERENCE) == {(3, "A"), (3, "B"), (7, "A")}
        for (n, _), rows in HARDWARE_REFERENCE.items():
            assert len(rows) == (n + 1) // 2
            for exact, _, value, err in rows:
                # published device results sit within a few sigma of exact
                assert abs(value - exact) < 5 * err
