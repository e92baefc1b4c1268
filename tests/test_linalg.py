import numpy as np
import pytest

from qmaxent.checks import random_density_matrix
from qmaxent.errors import DomainError, ShapeError
from qmaxent.linalg import (
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    kron,
    matrix_exp,
    matrix_function,
    matrix_log,
    partial_trace,
    trace_product,
)

LN2 = 0.6931471805599453


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def naive_partial_trace(c, d1, d2, keep):
    """Index-summation oracle, no reshaping tricks."""
    if keep == 1:
        out = np.zeros((d1, d1), dtype=complex)
        for i in range(d1):
            for j in range(d1):
                for k in range(d2):
                    out[i, j] += c[i * d2 + k, j * d2 + k]
    else:
        out = np.zeros((d2, d2), dtype=complex)
        for k in range(d2):
            for l in range(d2):
                for i in range(d1):
                    out[k, l] += c[i * d2 + k, i * d2 + l]
    return out


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

    def test_rejects_large_drift(self):
        with pytest.raises(DomainError):
            HermitianOperator([[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            HermitianOperator(np.zeros((2, 3)))

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

    def test_custom_guard(self):
        with pytest.raises(DomainError):
            matrix_function(HermitianOperator(np.diag([1.0, 1e-13])), np.log, domain_guard=1e-12)

    def test_log_tensor_identity(self):
        # ln(rho (x) 1) = ln(rho) (x) 1
        rng = np.random.default_rng(6)
        for dim in (2, 3, 4):
            rho = matrix_exp(random_hermitian(rng, dim))
            eye2 = np.eye(2, dtype=complex)
            lhs = matrix_log(HermitianOperator(kron(rho.matrix, eye2))).matrix
            rhs = kron(matrix_log(rho).matrix, eye2)
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


class TestKron:
    def test_identities(self):
        np.testing.assert_allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_products(self):
        out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_mixed_product_rule(self):
        # (A (x) B)(C (x) D) = AC (x) BD
        rng = np.random.default_rng(8)
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestPartialTrace:
    def test_identity_halves(self):
        out = partial_trace(np.eye(4) / 4, (2, 2), keep=1)
        np.testing.assert_allclose(out, np.eye(2) / 2)

    def test_product_state_factors(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(rng, 2).matrix
        b = random_hermitian(rng, 3).matrix
        joint = kron(a, b)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=1), a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=2), b * np.trace(a), atol=1e-12)

    def test_bell_projector_marginal(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        proj = np.outer(bell, bell.conj())
        for keep in (1, 2):
            np.testing.assert_allclose(partial_trace(proj, (2, 2), keep), np.eye(2) / 2, atol=1e-15)
            np.testing.assert_allclose(
                partial_trace(proj, (2, 2), keep), naive_partial_trace(proj, 2, 2, keep), atol=1e-15
            )

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(10)
        for d1, d2 in ((2, 2), (2, 3), (3, 2), (4, 2)):
            c = rng.normal(size=(d1 * d2, d1 * d2)) + 1j * rng.normal(size=(d1 * d2, d1 * d2))
            for keep in (1, 2):
                np.testing.assert_allclose(
                    partial_trace(c, (d1, d2), keep), naive_partial_trace(c, d1, d2, keep), atol=1e-12
                )

    def test_preserves_trace_and_linearity(self):
        rng = np.random.default_rng(11)
        c = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        d = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        out = partial_trace(c, (2, 3), keep=2)
        np.testing.assert_allclose(np.trace(out), np.trace(c), atol=1e-12)
        np.testing.assert_allclose(
            partial_trace(c + 2 * d, (2, 3), keep=1),
            partial_trace(c, (2, 3), keep=1) + 2 * partial_trace(d, (2, 3), keep=1),
            atol=1e-12,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(4), (2, 3), keep=1)

    def test_bad_keep(self):
        with pytest.raises(ShapeError):
            partial_trace(np.eye(4), (2, 2), keep=0)


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
        rho = random_density_matrix(rng, 32, 0.3)
        value = trace_product(rho.op, HermitianOperator(1e7 * h))
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
