"""The shared dual Newton iteration: one SVD per step, the dependency certificate, its arguments."""

import numpy as np
import pytest

from qmaxent.classical import ClassicalConstraint, ClassicalDistribution, solve_classical
from qmaxent.dual import RCOND, _newton_step
from qmaxent.errors import DomainError, InfeasibleTargetError
from qmaxent.linalg import PAULI_X, PAULI_Z, HermitianOperator
from qmaxent.quantum import DensityMatrix, QuantumConstraint, solve_quantum


class TestNewtonStep:
    def test_well_conditioned_hessian_gives_the_newton_step(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(5, 5))
        hess = b @ b.T + np.eye(5)
        grad = rng.normal(size=5)
        step, null = _newton_step(hess, grad)
        expected = np.linalg.solve(hess, -grad)
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)
        assert null.shape == (0, 5)

    def test_rank_deficient_hessian_gives_the_pseudoinverse_step_and_its_null_space(self):
        # rank 2 in 5 dimensions: three null directions
        rng = np.random.default_rng(4)
        b = rng.normal(size=(5, 2))
        hess = b @ b.T
        grad = rng.normal(size=5)
        step, null = _newton_step(hess, grad)
        expected = -np.linalg.pinv(hess, rcond=RCOND) @ grad
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)
        assert null.shape == (3, 5)
        np.testing.assert_allclose(null @ null.T, np.eye(3), atol=1e-14)
        # orthonormal, annihilated by H and orthogonal to its range: they
        # span the whole null space
        assert np.max(np.abs(hess @ null.T)) <= 1e-14 * np.max(np.abs(hess))
        np.testing.assert_allclose(null @ b, 0.0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_hessian_gives_steepest_descent(self, bad):
        grad = np.array([0.3, -1.2])
        hess = np.array([[1.0, bad], [bad, 2.0]])
        step, null = _newton_step(hess, grad)
        np.testing.assert_array_equal(step, -grad)
        assert len(null) == 0


def test_dependency_certificate_runs_no_hermitian_eigensolve(monkeypatch):
    # the step's SVD already holds the Hessian's null direction (1, -1)/sqrt 2
    # of a duplicated observable; the certificate used to find it with a
    # second decomposition, an eigh of the Hessian
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    prior = ClassicalDistribution([1.0, 1.0, 1.0])
    cons = [ClassicalConstraint([1.0, 2.0, 3.0], 2.2), ClassicalConstraint([1.0, 2.0, 3.0], 2.6)]
    with pytest.raises(InfeasibleTargetError, match="exact linear dependency"):
        solve_classical(prior, cons)
    assert calls == []


def _classical_solve(max_iter):
    # jointly infeasible: P(1) + P(2) = 1.2; an uncapped loop ran on until
    # the line search stalled
    prior = ClassicalDistribution([1.0, 1.0, 1.0])
    cons = [ClassicalConstraint([1.0, 0.0, 0.0], 0.6), ClassicalConstraint([0.0, 1.0, 0.0], 0.6)]
    return solve_classical(prior, cons, max_iter=max_iter)


def _quantum_solve(max_iter):
    prior = DensityMatrix(np.eye(2) / 2)
    cons = [
        QuantumConstraint(HermitianOperator(PAULI_Z), 0.4),
        QuantumConstraint(HermitianOperator(PAULI_X), 0.3),
    ]
    return solve_quantum(prior, cons, max_iter=max_iter)


@pytest.mark.parametrize("solve", [_classical_solve, _quantum_solve], ids=["classical", "quantum"])
class TestMaxIterArgument:
    @pytest.mark.parametrize("max_iter", [-1, 2.5, None])
    def test_max_iter_that_no_step_count_equals_is_rejected(self, solve, max_iter):
        # the cap is the test steps == max_iter, which these never meet, so
        # the loop used to run uncapped
        with pytest.raises(DomainError, match="max_iter must be a non-negative integer"):
            solve(max_iter)

    def test_zero_max_iter_takes_no_step(self, solve):
        report = solve(np.int64(0))
        assert report.iterations == 0
        assert not report.converged
