import numpy as np
import pytest

from lmgvqe import ModelParams, build_blocks, ladder_squared_element, square_block
from lmgvqe.quasispin import QuasispinBlock

from conftest import (
    N3_A_MATRIX,
    N3_A_PRINTED,
    N3_A_SQUARED,
    N3_B_MATRIX,
    N3_B_SQUARED,
    N7_OFFDIAG,
    N7_PRINTED,
)


class TestLadderElement:
    def test_bottom_of_n7_multiplet(self):
        # sqrt(7) * sqrt(12); scaled by v/2 = 0.25 this is the 2.291 entry
        value = ladder_squared_element(3.5, -3.5)
        assert value == pytest.approx(np.sqrt(7.0) * np.sqrt(12.0), abs=1e-12)
        assert 0.25 * value == pytest.approx(2.291, abs=5e-4)

    def test_interior_element(self):
        value = ladder_squared_element(3.5, -1.5)
        assert value == pytest.approx(np.sqrt(15.0) * 4.0, abs=1e-12)
        assert 0.25 * value == pytest.approx(3.873, abs=5e-4)

    def test_leaving_the_multiplet_is_an_error(self):
        with pytest.raises(ValueError):
            ladder_squared_element(0.5, -0.5)

    def test_rejects_misaligned_m(self):
        with pytest.raises(ValueError):
            ladder_squared_element(1.5, 0.0)
        with pytest.raises(ValueError):
            ladder_squared_element(1.0, 2.5)

    def test_rejects_m_outside_the_multiplet(self):
        with pytest.raises(ValueError, match=r"\|m\| must not exceed j"):
            ladder_squared_element(1.5, -2.5)

    def test_nonnegative_on_valid_domain(self):
        for n in range(1, 12):
            j = n / 2.0
            m = -j
            while m + 2 <= j + 1e-9:
                assert ladder_squared_element(j, m) >= 0.0
                m += 1.0


class TestBuildBlocks:
    def test_n3_matches_published_matrices(self):
        a, b = build_blocks(ModelParams(3, v=0.5))
        np.testing.assert_allclose(a.matrix, N3_A_PRINTED, atol=1e-3)
        np.testing.assert_allclose(a.matrix, N3_A_MATRIX, atol=1e-12)
        np.testing.assert_allclose(b.matrix, N3_B_MATRIX, atol=1e-12)
        assert a.parity == "A" and b.parity == "B"
        np.testing.assert_allclose(a.m_values, [-1.5, 0.5])
        np.testing.assert_allclose(b.m_values, [-0.5, 1.5])

    def test_n7_matches_published_matrix(self):
        a, _ = build_blocks(ModelParams(7, v=0.5))
        np.testing.assert_allclose(a.matrix, N7_PRINTED, atol=1e-3)
        np.testing.assert_allclose(np.diag(a.matrix), [-3.5, -1.5, 0.5, 2.5], atol=1e-12)
        np.testing.assert_allclose(np.diag(a.matrix, 1), N7_OFFDIAG, atol=1e-12)

    def test_rejects_non_finite_parameters(self):
        for kwargs in ({"eps": np.nan}, {"v": np.inf}, {"w": -np.inf}):
            with pytest.raises(ValueError, match="finite"):
                ModelParams(3, **kwargs)

    def test_n1_blocks_are_scalar(self):
        a, b = build_blocks(ModelParams(1, v=0.5))
        np.testing.assert_allclose(a.matrix, [[-0.5]])
        np.testing.assert_allclose(b.matrix, [[0.5]])

    def test_m_values_step_by_two(self):
        for n in (2, 3, 4, 5, 7, 9):
            for block in build_blocks(ModelParams(n, v=0.3, w=0.1)):
                assert np.allclose(np.diff(block.m_values), 2.0)

    def test_symmetry_and_diagonal_rule(self):
        params = ModelParams(5, eps=1.3, v=0.4, w=0.2)
        j = params.j
        for block in build_blocks(params):
            assert np.abs(block.matrix - block.matrix.T).max() < 1e-12
            expected = params.eps * block.m_values + params.w * (j * (j + 1) - block.m_values**2)
            np.testing.assert_allclose(np.diag(block.matrix), expected, atol=1e-12)

    def test_block_dimensions(self):
        for n in range(1, 10):
            a, b = build_blocks(ModelParams(n, v=0.5))
            assert a.dim + b.dim == n + 1
            if n % 2 == 1:
                assert a.dim == b.dim == (n + 1) // 2

    def test_trace_identity(self):
        # sum over all m of (j(j+1) - m^2) gives N(N+1)(N+2)/6
        for n in (1, 2, 3, 7):
            w = 0.3
            a, b = build_blocks(ModelParams(n, v=0.5, w=w))
            total = np.trace(a.matrix) + np.trace(b.matrix)
            assert total == pytest.approx(w * n * (n + 1) * (n + 2) / 6.0, abs=1e-12)
        a, b = build_blocks(ModelParams(7, v=0.5, w=0.0))
        assert np.trace(a.matrix) + np.trace(b.matrix) == pytest.approx(0.0, abs=1e-12)

    def test_parity_mirror_for_odd_n(self):
        for n in (3, 5, 7, 9):
            a, b = build_blocks(ModelParams(n, v=0.5))
            mirrored = -np.sort(np.linalg.eigvalsh(a.matrix))[::-1]
            np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(b.matrix)), mirrored, atol=1e-12)

    def test_off_diagonal_sign_is_a_similarity(self):
        a, _ = build_blocks(ModelParams(7, v=0.5))
        flipped = a.matrix.copy()
        off = ~np.eye(a.dim, dtype=bool)
        flipped[off] = -flipped[off]
        np.testing.assert_allclose(
            np.linalg.eigvalsh(flipped), np.linalg.eigvalsh(a.matrix), atol=1e-12
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ModelParams(0)
        with pytest.raises(ValueError):
            ModelParams(3, eps=0.0)
        for n in (2.5, True, 3.0):
            with pytest.raises(ValueError, match="n_particles"):
                ModelParams(n)  # type: ignore[arg-type]

    @pytest.mark.parametrize("parity, m_values, match", [
        ("C", [-0.5], "parity must be 'A' or 'B'"),
        ("A", [-0.5, 0.5], "matrix dimension does not match m_values"),
    ])
    def test_block_validation(self, parity, m_values, match):
        with pytest.raises(ValueError, match=match):
            QuasispinBlock(0.5, m_values, [[0.0]], parity)


class TestSquareBlock:
    def test_n3_squares(self):
        a, b = build_blocks(ModelParams(3, v=0.5))
        np.testing.assert_allclose(square_block(a), N3_A_SQUARED, atol=1e-12)
        np.testing.assert_allclose(square_block(b), N3_B_SQUARED, atol=1e-12)

    def test_n7_square_matches_published_within_rounding(self):
        # the published square came from a 3-4 digit rounded matrix
        a, _ = build_blocks(ModelParams(7, v=0.5))
        np.testing.assert_allclose(square_block(a), N7_PRINTED @ N7_PRINTED, atol=2e-3)

    def test_scalar_block(self):
        a, _ = build_blocks(ModelParams(1, v=0.5))
        np.testing.assert_allclose(square_block(a), [[0.25]])
