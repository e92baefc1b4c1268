"""Hermitian matrix primitives: construction, spectra, matrix functions.

All operators are dense complex square matrices of modest dimension
(intended for dim <= 64). Matrix functions go through the spectral
decomposition, so exp/log of a Hermitian operator stay exactly Hermitian
after re-symmetrization.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ShapeError

HERMITICITY_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


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
    by at most HERMITICITY_TOL in max norm; the stored matrix is
    (M + M^dag)/2 and is never mutated afterwards.
    """

    def __init__(self, matrix):
        arr = _as_square_array(matrix)
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            # NaN also slips through the drift test below: NaN > tol is False
            entries = ", ".join(f"({i}, {j})" for i, j in bad[:8].tolist())
            more = f" and {len(bad) - 8} more" if len(bad) > 8 else ""
            raise DomainError(f"matrix has non-finite entries at {entries}{more}")
        drift = float(np.max(np.abs(arr - arr.conj().T)))
        if drift > HERMITICITY_TOL:
            raise DomainError(
                f"matrix is not Hermitian: max |M - M^dag| = {drift:.3e} "
                f"exceeds tolerance {HERMITICITY_TOL:.3e}"
            )
        self._matrix = (arr + arr.conj().T) / 2.0
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


def matrix_function(
    operator: HermitianOperator,
    f: Callable[[np.ndarray], np.ndarray],
    domain_guard: float | None = None,
) -> HermitianOperator:
    """Apply a real scalar function to a Hermitian operator spectrally.

    f maps the array of eigenvalues elementwise, as a numpy ufunc does.
    With a domain_guard, every eigenvalue must exceed it; otherwise the
    offending eigenvalue is reported and no value is returned.
    """
    vals, vecs = np.linalg.eigh(operator.matrix)
    if domain_guard is not None and vals[0] <= domain_guard:
        raise DomainError(
            f"eigenvalue {float(vals[0]):.6e} is not above the domain guard "
            f"{domain_guard:.6e}"
        )
    return HermitianOperator(_spectral_matrix(vecs, np.asarray(f(vals), dtype=float)))


def matrix_exp(operator: HermitianOperator) -> HermitianOperator:
    return matrix_function(operator, np.exp)


def matrix_log(
    operator: HermitianOperator, domain_guard: float = 0.0
) -> HermitianOperator:
    return matrix_function(operator, np.log, domain_guard=domain_guard)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two square matrices."""
    return np.kron(_as_square_array(a), _as_square_array(b))


def partial_trace(matrix, dims: Sequence[int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite matrix on C^d1 (x) C^d2.

    keep selects the surviving subsystem: 1 for the first factor,
    2 for the second. The total trace is preserved by construction.
    """
    arr = _as_square_array(matrix)
    d1, d2 = int(dims[0]), int(dims[1])
    if d1 < 1 or d2 < 1:
        raise ShapeError(f"subsystem dims must be positive, got {dims}")
    if d1 * d2 != arr.shape[0]:
        raise ShapeError(
            f"dims {d1}x{d2} do not factor a matrix of dim {arr.shape[0]}"
        )
    blocks = arr.reshape(d1, d2, d1, d2)
    if keep == 1:
        return np.einsum("ikjk->ij", blocks)
    if keep == 2:
        return np.einsum("ikil->kl", blocks)
    raise ShapeError(f"keep must be 1 or 2, got {keep}")


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
