"""Hermitian matrix primitives: construction, spectra, matrix functions.

All operators are dense complex square matrices of modest dimension
(intended for dim <= 64). Matrix functions go through the spectral
decomposition, so exp/log of a Hermitian operator stay exactly Hermitian
after re-symmetrization.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

HERMITICITY_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _as_square_array(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ShapeError("matrix dimension must be at least 1")
    return arr


class HermitianOperator:
    """A Hermitian matrix, validated and symmetrized at construction.

    Entries must be finite. The input may drift from exact Hermiticity
    by at most HERMITICITY_TOL times its largest entry, max |M_ij|, in
    max norm, so the test reads the same at every scale of M; the stored
    matrix is (M + M^dag)/2 and is never mutated afterwards.
    """

    def __init__(self, matrix):
        arr = _as_square_array(matrix)
        if not np.isfinite(arr).all():
            # NaN also slips through the drift test below: NaN > tol is False
            bad = np.argwhere(~np.isfinite(arr))
            entries = ", ".join(f"({i}, {j})" for i, j in bad[:8].tolist())
            more = f" and {len(bad) - 8} more" if len(bad) > 8 else ""
            raise DomainError(f"matrix has non-finite entries at {entries}{more}")
        adj = arr.conj().T
        drift = float(np.max(np.abs(arr - adj)))
        scale = float(np.max(np.abs(arr)))
        if drift > HERMITICITY_TOL * scale:
            raise DomainError(
                f"matrix is not Hermitian: max |M - M^dag| = {drift:.3e} "
                f"exceeds tolerance {HERMITICITY_TOL:.0e} times max |M_ij| = {scale:.3e}"
            )
        # halved before they are added, so that entries near the float
        # range do not overflow; exact where the halves are normal numbers
        self._matrix = arr * 0.5 + adj * 0.5
        self._matrix.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def _spectral_matrix(vecs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V^dag for orthonormal eigenvector columns V, exactly Hermitian.

    The explicit symmetrization removes the rounding drift of the product.
    """
    out = (vecs * values) @ vecs.conj().T
    return (out + out.conj().T) / 2.0


def matrix_exp(operator: HermitianOperator) -> HermitianOperator:
    vals, vecs = np.linalg.eigh(operator.matrix)
    return HermitianOperator(_spectral_matrix(vecs, np.exp(vals)))


def matrix_log(operator: HermitianOperator) -> HermitianOperator:
    """ln A for positive definite A; an eigenvalue <= 0 is reported and no value is returned."""
    vals, vecs = np.linalg.eigh(operator.matrix)
    if vals[0] <= 0.0:
        raise DomainError(f"eigenvalue {float(vals[0]):.6e} is not above 0")
    return HermitianOperator(_spectral_matrix(vecs, np.log(vals)))


def trace_product(a, b) -> float:
    """Re Tr(AB) for Hermitian A, B.

    Tr(AB) is real for Hermitian operands; an imaginary residue above
    1e-10 times max(1, sum_ij |A_ij B_ji|), the scale of its rounding,
    indicates a non-Hermitian input and is rejected.
    """
    am = a.matrix if isinstance(a, HermitianOperator) else _as_square_array(a)
    bm = b.matrix if isinstance(b, HermitianOperator) else _as_square_array(b)
    if am.shape != bm.shape:
        raise ShapeError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    terms = am * bm.T
    value = np.sum(terms)
    if abs(value.imag) > 1e-10 * max(1.0, float(np.sum(np.abs(terms)))):
        raise DomainError(
            f"Tr(AB) has imaginary part {value.imag:.3e}; operands must be Hermitian"
        )
    return float(value.real)
