import warnings

import numpy as np
import pytest

from qmaxent.errors import DomainError, ShapeError
from qmaxent.linalg import (
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    matrix_exp,
    matrix_log,
    trace_product,
)
from qmaxent.quantum import DensityMatrix

LN2 = 0.6931471805599453


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def naive_trace_product(a, b):
    total = 0.0 + 0.0j
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            total += a[i, j] * b[j, i]
    return total


class TestHermitianOperator:
    def test_symmetrizes_small_drift(self):
        m = np.array([[1.0, 0.1 + 1e-14j], [0.1, 2.0]])
        op = HermitianOperator(m)
        assert np.array_equal(op.matrix, op.matrix.conj().T)

    def test_stored_matrix_is_the_halved_sum_bit_for_bit(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = g + g.conj().T + 1e-13 * rng.normal(size=(6, 6))
        # odd subnormals, whose halves round
        m[0, 1], m[1, 0] = 5e-324, 1.5e-323
        expected = (m + m.conj().T) / 2.0
        assert HermitianOperator(m).matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "m",
        [1e308 * np.array([[1.0, 1.0], [1.0, -1.0]]),
         np.array([[1.7e308, 1e308 + 1e308j], [1e308 - 1e308j, -1.7e308]])],
        ids=["real", "complex"],
    )
    def test_entries_near_the_float_range_symmetrize_without_overflow(self, m):
        # (M + M^dag) * 0.5 overflowed to inf here, and to NaN off the diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = HermitianOperator(m)
        assert np.isfinite(op.matrix).all()
        np.testing.assert_array_equal(op.matrix, m)

    def test_rejects_large_drift(self):
        with pytest.raises(DomainError):
            HermitianOperator([[0, 1], [0, 0]])

    @pytest.mark.parametrize("scale", [1e3, 1e4, 1e6, 1e100])
    def test_large_hermitian_matrix_is_not_refused_by_an_absolute_drift_test(self, scale):
        # U diag(s t) U^dag drifts from Hermiticity by about eps s: an
        # absolute 1e-12 bound called it not Hermitian from s = 1e4
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        m = (u * (scale * np.linspace(-1, 1, 8))) @ u.conj().T
        op = HermitianOperator(m)
        np.testing.assert_allclose(np.linalg.eigvalsh(op.matrix), scale * np.linspace(-1, 1, 8),
                                   rtol=0, atol=1e-12 * scale)

    def test_drift_is_measured_against_the_largest_entry(self):
        assert not HermitianOperator(np.zeros((3, 3))).matrix.any()
        # a drift of 1e-13 is within 1e-12 of entries near 1, not of entries near 1e-13
        HermitianOperator([[1.0, 1e-13], [0.0, 1.0]])
        with pytest.raises(DomainError, match="not Hermitian"):
            HermitianOperator([[0.0, 1e-13], [0.0, 0.0]])
        with pytest.raises(DomainError, match="not Hermitian"):
            HermitianOperator(1e6 * np.array([[0.0, 1.0], [0.999, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            HermitianOperator(np.zeros((2, 3)))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ShapeError, match="dimension must be at least 1"):
            HermitianOperator(np.zeros((0, 0)))

    def test_stored_matrix_is_read_only(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestMatrixFunctions:
    def test_exp_of_zero(self):
        out = matrix_exp(HermitianOperator(np.zeros((3, 3))))
        np.testing.assert_allclose(out.matrix, np.eye(3))

    def test_log_of_uniform_qubit(self):
        out = matrix_log(HermitianOperator(np.eye(2) / 2))
        np.testing.assert_allclose(out.matrix, -LN2 * np.eye(2), atol=1e-15)

    def test_exp_log_roundtrip(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        rho = matrix_exp(h)
        np.testing.assert_allclose(matrix_log(rho).matrix, h.matrix, atol=1e-10)

    def test_log_domain_guard_reports_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            matrix_log(HermitianOperator(np.diag([1.0, 0.0])))

    def test_log_tensor_identity(self):
        # ln(rho (x) 1) = ln(rho) (x) 1
        rng = np.random.default_rng(6)
        for dim in (2, 3, 4):
            rho = matrix_exp(random_hermitian(rng, dim))
            eye2 = np.eye(2, dtype=complex)
            lhs = matrix_log(HermitianOperator(np.kron(rho.matrix, eye2))).matrix
            rhs = np.kron(matrix_log(rho).matrix, eye2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_exp_additive_on_commuting_blocks(self):
        a = np.diag([0.3, -0.7, 1.1])
        b = np.diag([0.5, 0.2, -0.4])
        lhs = matrix_exp(HermitianOperator(a + b)).matrix
        rhs = matrix_exp(HermitianOperator(a)).matrix @ matrix_exp(HermitianOperator(b)).matrix
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_result_is_exactly_hermitian(self):
        rng = np.random.default_rng(7)
        out = matrix_exp(random_hermitian(rng, 5))
        assert np.array_equal(out.matrix, out.matrix.conj().T)


class TestTraceProduct:
    def test_identity_pair(self):
        assert trace_product(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(2))) == pytest.approx(2.0)

    def test_orthogonal_paulis(self):
        assert trace_product(HermitianOperator(PAULI_X), HermitianOperator(PAULI_Y)) == pytest.approx(0.0, abs=1e-15)
        assert trace_product(HermitianOperator(PAULI_Z), HermitianOperator(PAULI_Z)) == pytest.approx(2.0)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            expected = naive_trace_product(a.matrix, b.matrix)
            assert abs(expected.imag) < 1e-12
            assert trace_product(a, b) == pytest.approx(expected.real, rel=1e-12, abs=1e-12)

    def test_rejects_imaginary_residue(self):
        # non-Hermitian raw arrays leave Tr(AB) complex
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        b = np.array([[0, 0], [1j, 0]], dtype=complex)
        with pytest.raises(DomainError):
            trace_product(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            trace_product(np.eye(2), np.eye(3))

    def test_large_hermitian_operands_are_not_rejected(self):
        # the rounding residue 3.5e-10 of Tr(rho 1e7 H) at dim 32 is 5e-18
        # of sum |A_ij B_ji|, but an absolute 1e-10 test called H non-Hermitian
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 32).matrix
        g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        e = matrix_exp(HermitianOperator(0.3 * (g + g.conj().T) / 2.0)).matrix
        rho = DensityMatrix(e / np.trace(e).real)
        value = trace_product(rho.matrix, HermitianOperator(1e7 * h))
        assert value == pytest.approx(1e7 * np.sum(rho.matrix * h.T).real, rel=1e-12)


class TestNonFiniteEntries:
    """NaN compares false against the Hermiticity tolerance, so it needs its own check."""

    def test_nan_entry_is_rejected_by_position(self):
        # this matrix used to construct; as an observable it then gave a
        # garbage spectral range (0.0, -0.0) and an infeasibility verdict
        with pytest.raises(DomainError, match=r"non-finite entries at \(0, 0\)"):
            HermitianOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_infinite_and_complex_nan_entries_are_rejected(self):
        with pytest.raises(DomainError, match=r"\(0, 1\), \(1, 0\)"):
            HermitianOperator(np.array([[0.0, np.inf], [np.inf, 1.0]]))
        with pytest.raises(DomainError, match="non-finite"):
            HermitianOperator(np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]))
