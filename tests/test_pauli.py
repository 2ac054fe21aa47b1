import numpy as np
import pytest

from lmgvqe import PauliString, PauliSum, decompose, multiply, parity_signs, reconstruct
from lmgvqe.pauli import _pauli_basis, identity_string

from conftest import (
    N3_A_PAULI_PRINTED,
    N3_A_SQ_PAULI_PRINTED,
    N3_B_PAULI_PRINTED,
    N3_B_SQ_PAULI_PRINTED,
    N7_PAULI_EXACT,
    N7_PAULI_PRINTED,
    N7_SQ_PAULI_EXACT,
    N7_SQ_PAULI_PRINTED,
)


def as_dict(psum):
    return {str(s): c for c, s in psum.terms}


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


class TestDecompose:
    def test_n3_block_a(self, n3_a):
        coeffs = as_dict(n3_a.h)
        assert set(coeffs) == set(N3_A_PAULI_PRINTED)
        for name, printed in N3_A_PAULI_PRINTED.items():
            assert coeffs[name] == pytest.approx(printed, abs=1e-7)

    def test_n3_block_b(self, n3_b):
        coeffs = as_dict(n3_b.h)
        for name, printed in N3_B_PAULI_PRINTED.items():
            assert coeffs[name] == pytest.approx(printed, abs=1e-7)

    def test_n3_squares(self, n3_a, n3_b):
        for setup, printed in ((n3_a, N3_A_SQ_PAULI_PRINTED), (n3_b, N3_B_SQ_PAULI_PRINTED)):
            coeffs = as_dict(setup.h2)
            assert set(coeffs) == set(printed)
            for name, value in printed.items():
                assert coeffs[name] == pytest.approx(value, abs=1e-7)

    def test_n7_block(self, n7_a):
        coeffs = as_dict(n7_a.h)
        assert set(coeffs) == set(N7_PAULI_PRINTED)
        for name, printed in N7_PAULI_PRINTED.items():
            assert coeffs[name] == pytest.approx(printed, abs=2e-3)
        for name, exact in N7_PAULI_EXACT.items():
            assert coeffs[name] == pytest.approx(exact, abs=1e-9)

    def test_n7_square(self, n7_a):
        coeffs = as_dict(n7_a.h2)
        assert set(coeffs) == set(N7_SQ_PAULI_PRINTED)
        for name, printed in N7_SQ_PAULI_PRINTED.items():
            assert coeffs[name] == pytest.approx(printed, abs=2e-3)
        for name, exact in N7_SQ_PAULI_EXACT.items():
            assert coeffs[name] == pytest.approx(exact, abs=1e-9)

    def test_term_counts(self, n3_a, n3_b, n7_a):
        assert len(n3_a.h) == len(n3_b.h) == 3
        assert len(n3_a.h2) == len(n3_b.h2) == 3
        assert len(n7_a.h) == 7
        assert len(n7_a.h2) == 10

    def test_identity_matrix(self):
        psum = decompose(np.eye(2))
        assert as_dict(psum) == {"I": 1.0}

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            decompose(np.eye(3))
        with pytest.raises(ValueError):
            decompose(np.ones((2, 4)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        # abs(nan) >= threshold is False, so NaN weights were pruned silently
        with pytest.raises(ValueError, match="non-finite"):
            decompose(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            decompose(np.diag([1.0, np.inf]))


class TestReconstruct:
    def test_inverts_n3_encoding(self, n3_a):
        np.testing.assert_allclose(reconstruct(n3_a.h), n3_a.block.matrix, atol=1e-7)

    def test_matrix_is_built_once_and_read_only(self, n3_a):
        assert n3_a.h.matrix is n3_a.h.matrix
        assert not n3_a.h.matrix.flags.writeable
        with pytest.raises(ValueError):
            n3_a.h.matrix[0, 0] = 1.0
        _, betas, _, stack = n3_a.h.measured_arrays
        assert n3_a.h.measured_arrays is n3_a.h.measured_arrays
        assert not betas.flags.writeable and not stack.flags.writeable

    def test_measured_signs_are_built_once_and_read_only(self, n7_a):
        signs = n7_a.h2.measured_signs
        assert signs is n7_a.h2.measured_signs
        assert not signs.flags.writeable
        _, _, strings, stack = n7_a.h2.measured_arrays
        assert signs.shape == (len(strings), 4)
        for row, string, matrix in zip(signs, strings, stack):
            assert row.tolist() == parity_signs(string).tolist()
            if set(string.labels) <= {"I", "Z"}:  # diagonal: the signs are its diagonal
                assert row.tolist() == np.diag(matrix).real.tolist()
        identity_only = PauliSum.from_terms([(2.0, identity_string(2))], 2)
        assert identity_only.measured_signs.shape == (0, 4)

    def test_returns_writeable_copy(self, n3_a):
        dense = reconstruct(n3_a.h)
        assert dense.flags.writeable
        assert not np.shares_memory(dense, n3_a.h.matrix)
        dense[0, 0] += 1.0
        np.testing.assert_allclose(n3_a.h.matrix, n3_a.block.matrix, atol=1e-7)

    def test_empty_sum_is_zero(self):
        psum = PauliSum((), num_qubits=2)
        np.testing.assert_allclose(reconstruct(psum), np.zeros((4, 4)))

    def test_round_trip_from_random_sum(self):
        rng = np.random.default_rng(11)
        strings = [s for s, _ in _pauli_basis(2)]
        picks = rng.choice(len(strings), size=10, replace=False)
        psum = PauliSum.from_terms(
            [(rng.normal(), strings[i]) for i in picks], num_qubits=2
        )
        again = decompose(reconstruct(psum))
        assert as_dict(again) == pytest.approx(as_dict(psum), abs=1e-12)

    def test_round_trip_random_hermitian(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4):
            for _ in range(25):
                m = random_hermitian(rng, dim)
                np.testing.assert_allclose(reconstruct(decompose(m)), m, atol=1e-10)


class TestMultiply:
    def test_square_matches_dense_square(self, n3_a, n3_b, n7_a):
        for setup in (n3_a, n3_b, n7_a):
            symbolic = multiply(setup.h, setup.h)
            dense = as_dict(setup.h2)
            sym = as_dict(symbolic)
            assert set(sym) == set(dense)
            for name in dense:
                assert sym[name] == pytest.approx(dense[name], abs=1e-10)
                assert np.isreal(sym[name])

    def test_n7_square_matches_published(self, n7_a):
        sym = as_dict(multiply(n7_a.h, n7_a.h))
        for name, printed in N7_SQ_PAULI_PRINTED.items():
            assert sym[name] == pytest.approx(printed, abs=2e-3)

    def test_x_squared_is_identity(self):
        x = PauliSum.from_terms([(1.0, PauliString(("X",)))], 1)
        assert as_dict(multiply(x, x)) == {"I": 1.0}

    def test_xz_gives_minus_i_y(self):
        x = PauliSum.from_terms([(1.0, PauliString(("X",)))], 1)
        z = PauliSum.from_terms([(1.0, PauliString(("Z",)))], 1)
        product = as_dict(multiply(x, z))
        assert list(product) == ["Y0"]
        assert product["Y0"] == pytest.approx(-1j)

    def test_qubit_count_mismatch(self):
        a = PauliSum.from_terms([(1.0, PauliString(("X",)))], 1)
        b = PauliSum.from_terms([(1.0, PauliString(("X", "I")))], 2)
        with pytest.raises(ValueError):
            multiply(a, b)


class TestOrthogonality:
    @pytest.mark.parametrize("num_qubits", [1, 2])
    def test_trace_orthogonality(self, num_qubits):
        basis = _pauli_basis(num_qubits)
        dim = 2**num_qubits
        for i, (_, p) in enumerate(basis):
            for j, (_, q) in enumerate(basis):
                trace = np.trace(p @ q)
                assert trace == pytest.approx(dim if i == j else 0.0, abs=1e-12)


class TestTextFormat:
    def test_string_rendering(self):
        assert str(PauliString(("Z", "X"))) == "Z0X1"
        assert str(PauliString(("I", "I"))) == "I"
        assert str(PauliString(("I", "Y"))) == "Y1"

    def test_parse_inverse(self):
        for text in ("Z0X1", "I", "Y1", "X0Y1Z2"):
            parsed = PauliString.from_text(text)
            assert str(parsed) == text
        assert PauliString.from_text("I", num_qubits=2).num_qubits == 2
        with pytest.raises(ValueError):
            PauliString.from_text("Q3")
        with pytest.raises(ValueError):
            PauliString.from_text("X0X0")

    def test_sum_round_trip(self, n7_a):
        text = n7_a.h.to_text(digits=17)
        again = PauliSum.from_text(text, num_qubits=2)
        assert as_dict(again) == pytest.approx(as_dict(n7_a.h), abs=1e-12)

    def test_coefficient_lookup(self, n3_a):
        assert n3_a.h.coefficient("Z0") == pytest.approx(-1.0)
        assert n3_a.h.coefficient("Y0") == 0.0
        assert n3_a.h.identity_coefficient == pytest.approx(-0.5)


class TestPauliSumValidation:
    def test_duplicate_strings_rejected(self):
        s = PauliString(("X",))
        with pytest.raises(ValueError):
            PauliSum(((1.0, s), (2.0, s)), 1)

    def test_from_terms_combines_and_prunes(self):
        s = PauliString(("X",))
        psum = PauliSum.from_terms([(1.0, s), (-1.0, s), (0.5, identity_string(1))], 1)
        assert as_dict(psum) == {"I": 0.5}

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, weight):
        with pytest.raises(ValueError):
            PauliSum.from_terms([(weight, PauliString(("Z",))), (1.0, identity_string(1))], 1)
        with pytest.raises(ValueError):
            PauliSum.from_text(f"{weight} Z0\n1.0 I")

    def test_mixed_qubit_counts_rejected(self):
        with pytest.raises(ValueError):
            PauliSum(((1.0, PauliString(("X", "I"))),), 1)
