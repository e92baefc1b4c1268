import sys
import threading
import warnings

import numpy as np
import pytest

from qmaxent import classical, linalg, quantum
from qmaxent.classical import ClassicalConstraint, ClassicalDistribution, solve_classical
from qmaxent.errors import DomainError, InfeasibleTargetError, ShapeError
from qmaxent.linalg import (
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    matrix_exp,
    matrix_log,
    single_blas_thread,
    trace_product,
)
from qmaxent.quantum import (
    DensityMatrix,
    QuantumConstraint,
    log_partition,
    posterior_from_multipliers,
    quantum_relative_entropy,
    solve_quantum,
)

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

    def test_drift_that_overflows_is_rejected_without_a_warning(self):
        # M - M^dag overflowed with a RuntimeWarning before the DomainError
        with pytest.raises(DomainError, match=r"max \|M - M\^dag\| = inf"):
            HermitianOperator([[0, 1e308], [-1e308, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            HermitianOperator(np.zeros((2, 3)))

    def test_dim_and_repr(self):
        op = HermitianOperator(np.eye(3))
        assert op.dim == 3
        assert repr(op) == "HermitianOperator(dim=3)"

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


def _qubit_problem():
    prior = DensityMatrix(np.diag([0.6, 0.4]))
    return prior, [QuantumConstraint(HermitianOperator(PAULI_X), 0.3),
                   QuantumConstraint(HermitianOperator(PAULI_Z), -0.2)]


def _planted_classical_problem(n, m, seed=0):
    """A prior on n states and m Gaussian observables whose targets are met at a planted beta."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, n))
    prior = np.exp(0.5 * rng.normal(size=n))
    ln_w = np.log(prior) + rng.normal(scale=0.3, size=m) @ values
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    return (ClassicalDistribution(prior),
            [ClassicalConstraint(v, float(v @ rho)) for v in values])


def _planted_quantum_problem(dim, m, seed=0):
    """A full-rank prior on dim levels and m observables whose targets are met at a planted beta."""
    rng = np.random.default_rng(seed)

    def observable():
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return HermitianOperator((g + g.conj().T) / (2.0 * np.sqrt(dim)))

    weights = matrix_exp(observable()).matrix
    prior = DensityMatrix(weights / np.trace(weights).real)
    observables = [observable() for _ in range(m)]
    beta = rng.normal(scale=0.8 / np.sqrt(m), size=m)
    rho = posterior_from_multipliers(prior, observables, beta).matrix
    return prior, [QuantumConstraint(a, float(np.sum(a.matrix * rho.T).real)) for a in observables]


class TestSingleBlasThread:
    """Both solvers run on one OpenBLAS thread and give the caller's count back."""

    @pytest.fixture
    def threads(self):
        # the caller's count, 3, set through the helper's own functions
        found = linalg._openblas_threads()
        if found is None:
            pytest.skip("numpy uses no OpenBLAS whose thread count can be set")
        get, set_threads = found
        saved = get()
        set_threads(3)
        yield get
        set_threads(saved)

    @staticmethod
    def spy(monkeypatch, owner, name, get):
        """Record the thread count each time owner.name runs."""
        seen = []
        real = getattr(owner, name)

        def spied(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)
        return seen

    def test_solve_runs_on_one_thread_and_restores_the_count(self, threads, monkeypatch):
        seen = self.spy(monkeypatch, np.linalg, "eigh", threads)
        prior, constraints = _qubit_problem()
        assert solve_quantum(prior, constraints).converged
        assert seen and set(seen) == {1}
        assert threads() == 3

    @pytest.mark.parametrize("entry", [
        lambda prior: DensityMatrix(prior.matrix),
        lambda prior: log_partition(prior, [HermitianOperator(PAULI_X)], [0.4]),
        lambda prior: posterior_from_multipliers(prior, [HermitianOperator(PAULI_X)], [0.4]),
        lambda prior: matrix_exp(HermitianOperator(prior.matrix)),
        lambda prior: matrix_log(HermitianOperator(prior.matrix)),
    ])
    def test_each_entry_point_decomposes_on_one_thread(self, entry, threads, monkeypatch):
        prior, _ = _qubit_problem()
        seen = self.spy(monkeypatch, np.linalg, "eigh", threads)
        entry(prior)
        assert seen == [1]
        assert threads() == 3

    def test_relative_entropy_takes_the_logarithm_on_one_thread(self, threads, monkeypatch):
        prior, _ = _qubit_problem()
        seen = self.spy(monkeypatch, quantum, "_spectral_matrix", threads)
        quantum_relative_entropy(prior, DensityMatrix(np.eye(2) / 2))
        assert seen == [1]
        assert threads() == 3

    def test_count_comes_back_after_a_domain_error_inside_the_solve(self, threads, monkeypatch):
        # the spectrum-overflow check raises after its eigvalsh, inside the scope
        seen = self.spy(monkeypatch, np.linalg, "eigvalsh", threads)
        observable = HermitianOperator(1.5e308 * np.ones((2, 2)))
        with pytest.raises(DomainError, match="passes the float range"):
            solve_quantum(DensityMatrix(np.eye(2) / 2), [QuantumConstraint(observable, 1e308)])
        assert seen == [1]
        assert threads() == 3

    def test_classical_solve_runs_on_one_thread_and_restores_the_count(self, threads, monkeypatch):
        evaluations = self.spy(monkeypatch, classical, "logsumexp", threads)
        hessians = self.spy(monkeypatch, classical, "_covariance", threads)
        prior, constraints = _planted_classical_problem(1000, 3)
        assert solve_classical(prior, constraints).converged
        assert evaluations and set(evaluations) == {1}
        assert hessians and set(hessians) == {1}
        assert threads() == 3

    def test_count_comes_back_after_a_classical_domain_error(self, threads, monkeypatch):
        # a constraint is a view of its values, so a NaN written after
        # construction reaches the solve, whose _check_problem rejects it
        values = np.array([1.0, 2.0, 3.0])
        constraint = ClassicalConstraint(values, 2.5)
        values[1] = np.nan
        prior = ClassicalDistribution([1.0, 1.0, 1.0])
        # the prior's check and the row's, both inside the scope
        seen = self.spy(monkeypatch, classical, "_finite_range", threads)
        with pytest.raises(DomainError, match="constraint 0: values must be finite"):
            solve_classical(prior, [constraint])
        assert seen == [1, 1]
        assert threads() == 3

    @pytest.mark.parametrize("constraints, message", [
        ([ClassicalConstraint([1.0, 2.0, 3.0], 4.0)], "not strictly inside"),
        ([ClassicalConstraint([-1.0, 1.0], 0.3), ClassicalConstraint([-1.0, 1.0], 0.5)],
         "Farkas certificate"),
    ], ids=["range", "farkas"])
    def test_count_comes_back_after_each_infeasible_target_error(
            self, constraints, message, threads, monkeypatch):
        prior = ClassicalDistribution(np.ones(constraints[0].values.size))
        seen = self.spy(monkeypatch, classical, "_finite_range", threads)
        with pytest.raises(InfeasibleTargetError, match=message):
            solve_classical(prior, constraints)
        assert seen and set(seen) == {1}
        assert threads() == 3

    @pytest.mark.usefixtures("classical_path")
    def test_threaded_gemv_no_longer_moves_the_last_bits_of_classical_results(self, threads):
        # at 3 threads OpenBLAS split the 13 rows of a @ rho into uneven
        # shares, which it summed in another order than one thread: the
        # multipliers and posterior weights moved by about 1e-16; the
        # streamed path's row dots run on the one thread too
        prior, constraints = _planted_classical_problem(150_000, 13)
        reports = []
        for count in (1, 3):
            linalg._openblas_threads()[1](count)
            reports.append(solve_classical(prior, constraints))
        one, three = reports
        assert one.converged
        assert np.array_equal(one.multipliers, three.multipliers)
        assert one.log_partition == three.log_partition
        assert np.array_equal(one.posterior.weights, three.posterior.weights)

    def test_threaded_eigh_no_longer_moves_the_last_bits_of_quantum_results(
            self, threads, monkeypatch):
        # above dim 128 the quantum kernels ran on the caller's count: at
        # dim 160 two threads moved the multipliers, ln Z and posterior by
        # about 2e-16 against one thread
        set_threads = linalg._openblas_threads()[1]
        set_threads(1)
        prior, constraints = _planted_quantum_problem(160, 4, seed=1)
        seen = self.spy(monkeypatch, np.linalg, "eigh", threads)
        reports = []
        for count in (1, 2):
            set_threads(count)
            reports.append(solve_quantum(prior, constraints))
        one, two = reports
        assert one.converged
        assert np.array_equal(one.multipliers, two.multipliers)
        assert one.log_partition == two.log_partition
        assert np.array_equal(one.posterior.matrix, two.posterior.matrix)
        assert seen and set(seen) == {1}

    def test_nested_scopes_restore_the_count_once_the_outer_one_leaves(self, threads):
        with single_blas_thread():
            with single_blas_thread():
                assert threads() == 1
            assert threads() == 1
            with pytest.raises(DomainError):
                matrix_log(HermitianOperator(-np.eye(2)))
            assert threads() == 1
        assert threads() == 3

    def test_concurrent_solves_leave_the_callers_count(self, threads, monkeypatch):
        # more Python threads than cores, switching often, each alternating
        # classical and quantum solves that share the scope's entry count:
        # a scope that restored the count while another solve ran, or saved
        # the 1 that another had set, shows as a count other than 1 inside
        # or 3 after
        decompositions = self.spy(monkeypatch, np.linalg, "eigh", threads)
        hessians = self.spy(monkeypatch, classical, "_covariance", threads)
        problems = [(solve_quantum, *_qubit_problem()),
                    (solve_classical, *_planted_classical_problem(1000, 3))]
        start = threading.Barrier(4)
        results = []

        def work(first):
            start.wait()
            for k in range(first, first + 50):
                solve, prior, constraints = problems[k % 2]
                results.append(solve(prior, constraints).converged)

        workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert results == [True] * 200
        assert set(decompositions) == {1}
        assert hessians and set(hessians) == {1}
        assert threads() == 3

    def test_without_openblas_the_scope_does_nothing(self, threads, monkeypatch):
        monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
        seen = self.spy(monkeypatch, np.linalg, "eigh", threads)
        prior, constraints = _qubit_problem()
        assert solve_quantum(prior, constraints).converged
        assert set(seen) == {3}
        assert threads() == 3


def test_the_thread_functions_are_found_where_numpy_reports_openblas():
    # a wheel that renamed its OpenBLAS symbols would bring the spinning
    # second thread back without a sign; here it fails instead
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        pytest.skip("numpy cannot report its BLAS (show_config(mode=...) needs numpy >= 1.25)")
    name = config["Build Dependencies"]["blas"]["name"]
    if "openblas" not in name.lower():
        pytest.skip(f"numpy uses {name}, not OpenBLAS")
    assert linalg._openblas_threads() is not None


@pytest.mark.parametrize("library", ["unloadable", "without-thread-functions"])
def test_where_numpy_has_no_openblas_nothing_changes(library, monkeypatch):
    # the extension cannot be loaded, or holds neither OpenBLAS's nor
    # scipy-openblas's thread functions: the scope leaves the count alone
    # and a solve reads the same to the last bit
    prior, constraints = _qubit_problem()
    expected = solve_quantum(prior, constraints)
    found = linalg._openblas_threads()

    def cdll(path):
        if library == "unloadable":
            raise OSError(f"{path}: cannot open shared object file")
        return object()

    linalg._openblas_threads.cache_clear()
    monkeypatch.setattr(linalg.ctypes, "CDLL", cdll)
    try:
        assert linalg._openblas_threads() is None
        if found is not None:
            get, set_threads = found
            saved = get()
            set_threads(3)
            try:
                with single_blas_thread():
                    assert get() == 3
            finally:
                set_threads(saved)
        report = solve_quantum(prior, constraints)
    finally:
        monkeypatch.undo()
        linalg._openblas_threads.cache_clear()
    assert report.iterations == expected.iterations
    assert report.log_partition == expected.log_partition
    for field in ("multipliers", "residuals"):
        assert getattr(report, field).tobytes() == getattr(expected, field).tobytes()
    assert report.posterior.matrix.tobytes() == expected.posterior.matrix.tobytes()
