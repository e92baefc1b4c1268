"""Hermitian matrix primitives: construction, spectra, matrix functions.

All operators are dense complex square matrices of modest dimension.
The classical solve and the quantum entry points run their BLAS and
LAPACK calls on one OpenBLAS thread at every size (single_blas_thread),
so no result depends on the caller's thread count. Matrix functions go
through the spectral decomposition, so exp/log of a Hermitian operator
stay exactly Hermitian after re-symmetrization.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache

import numpy as np

from .errors import DomainError, ShapeError

HERMITICITY_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_scope_lock = threading.Lock()
_scope_entries = 0
_scope_saved = 0


@cache
def _openblas_threads():
    """numpy's OpenBLAS (get_num_threads, set_num_threads), or None where numpy has none.

    They are looked up through numpy's linear-algebra extension, whose
    dependencies hold the OpenBLAS that numpy loaded: scipy_openblas_*64_
    in numpy 2 wheels, openblas_*64_ in older ones, and without the 64_
    in 32-bit-integer builds.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
            except AttributeError:
                continue
            # int get(void) and void set(int), also in 64-bit-integer builds
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            return get, set_threads
    return None


@contextmanager
def single_blas_thread():
    """Run the block, or the decorated function, on one OpenBLAS thread.

    Every entry point runs on one thread at every size, so no result
    depends on the caller's thread count: two threads split products into
    other partial sums, which moved the last bits of solve_classical's
    results at n 1.5e5 and of solve_quantum's at dim 160. A second thread
    also costs CPU: after each threaded call its worker spins on a core
    until a timeout, and where the scheduler puts it on the caller's core
    every threaded GEMV waits about 8 ms for it. It saves at most 8% of
    a quantum solve's wall time up to dim 128, and more above: per planted
    solve_quantum with m = 8, 2 -> 1 thread took 92 -> 111 ms wall and
    182 -> 111 ms CPU at dim 192, 180 -> 235 ms and 355 -> 235 ms at dim
    256 (median of 3 fresh processes; 2-vCPU Xeon, OpenBLAS 0.3.31, numpy
    2.4). The CLI runs one thread anyway. It saves at most 11% of
    solve_classical's wall time; wall ms on planted problems (median of 3
    solves, range and median over 9 fresh processes; same host):

        n x m     2 threads               1 thread
        1e5 x 4      6.2 - 21.4   (8.1)      6.0 - 17.2   (8.1)
        1e5 x 16    17.3 - 78.8   (22.4)    18.1 - 43.4   (23.6)
        2e5 x 4     12.0 - 32.0   (16.4)    12.8 - 25.6   (15.6)
        2e5 x 16    34.9 - 58.5   (49.4)    38.9 - 62.4   (52.9)
        1e6 x 4     52.4 - 103.4  (89.8)    55.9 - 111.0  (90.4)
        1e6 x 16   235.8 - 328.7  (292.8)  262.7 - 370.2  (315.6)
        4e6 x 4    286.3 - 474.8  (390.5)  300.7 - 541.3  (391.7)
        4e6 x 16   999.0 - 1282.5 (1131.0) 1121.5 - 1454.3 (1277.5)

    The first scope to enter saves the thread count and sets 1, and the
    last to leave restores it, so nested scopes and solves on concurrent
    Python threads never leave the process at one thread; BLAS that other
    Python threads run meanwhile runs on one thread too. Where numpy uses
    no OpenBLAS the scope does nothing.
    """
    global _scope_entries, _scope_saved
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_threads = threads
    with _scope_lock:
        if _scope_entries == 0:
            _scope_saved = get()
            set_threads(1)
        _scope_entries += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope_entries -= 1
            if _scope_entries == 0:
                set_threads(_scope_saved)


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


@single_blas_thread()
def matrix_exp(operator: HermitianOperator) -> HermitianOperator:
    vals, vecs = np.linalg.eigh(operator.matrix)
    return HermitianOperator(_spectral_matrix(vecs, np.exp(vals)))


@single_blas_thread()
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
