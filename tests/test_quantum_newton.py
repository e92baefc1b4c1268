"""The quantum Newton loop: exact BKM Hessian, eigendecomposition budget, stall certificate."""

import numpy as np
import pytest

from qmaxent.errors import InfeasibleTargetError
from qmaxent.linalg import PAULI_X, PAULI_Y, PAULI_Z, HermitianOperator
from qmaxent.quantum import (
    DensityMatrix,
    QuantumConstraint,
    _bkm_covariance,
    _exponent_matrix,
    expectation,
    posterior_from_multipliers,
    solve_quantum,
)


def scaled_hermitian(rng, dim):
    # spectrum of order one at every dim
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / (2.0 * np.sqrt(dim))


def gibbs_prior(rng, dim):
    vals, vecs = np.linalg.eigh(scaled_hermitian(rng, dim))
    w = np.exp(vals - vals[-1])
    rho = (vecs * (w / w.sum())) @ vecs.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2.0, normalized=True)


def exact_hessian(prior, observables, alpha):
    vals, vecs = np.linalg.eigh(_exponent_matrix(prior, observables, alpha))
    return _bkm_covariance(vals, vecs, [o.matrix for o in observables])


def fd_hessian(prior, observables, alpha, h=1e-5):
    """Central differences of the gradient Tr(rho(alpha) A_i), column by column."""
    m = len(observables)

    def means(a):
        rho, _ = posterior_from_multipliers(prior, observables, a)
        return np.array([expectation(rho, o) for o in observables])

    cols = []
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        cols.append((means(alpha + e) - means(alpha - e)) / (2 * h))
    return np.column_stack(cols)


def assert_matches_differences(prior, observables, alpha):
    exact = exact_hessian(prior, observables, alpha)
    fd = fd_hessian(prior, observables, alpha)
    np.testing.assert_allclose(exact, exact.T, rtol=0, atol=1e-15 * np.abs(exact).max())
    assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(exact)


class TestBKMCovariance:
    def test_matches_gradient_differences_on_random_instances(self):
        rng = np.random.default_rng(50)
        for _ in range(12):
            dim = int(rng.integers(2, 9))
            m = int(rng.integers(1, 5))
            prior = gibbs_prior(rng, dim)
            obs = [HermitianOperator(scaled_hermitian(rng, dim)) for _ in range(m)]
            assert_matches_differences(prior, obs, rng.normal(scale=0.8, size=m))

    def test_matches_differences_with_degenerate_spectrum(self):
        # maximally mixed prior and diagonal observables with repeated
        # values: C has exactly equal eigenvalues, where the divided
        # difference takes its limit p_k
        rng = np.random.default_rng(51)
        for dim in (2, 4, 6):
            prior = DensityMatrix(np.eye(dim) / dim, normalized=True)
            obs = [
                HermitianOperator(np.diag(rng.integers(-1, 2, size=dim).astype(float)))
                for _ in range(2)
            ]
            obs.append(HermitianOperator(scaled_hermitian(rng, dim)))
            for alpha in (np.zeros(3), np.array([0.7, -0.4, 0.0]), rng.normal(size=3)):
                assert_matches_differences(prior, obs, alpha)

    def test_fully_degenerate_point_is_plain_covariance(self):
        # at C = ln(I/d) every weight is 1/d, so H_ij = Tr(A_i A_j)/d - <A_i><A_j>
        rng = np.random.default_rng(52)
        dim = 5
        prior = DensityMatrix(np.eye(dim) / dim, normalized=True)
        obs = [HermitianOperator(scaled_hermitian(rng, dim)) for _ in range(3)]
        means = np.array([np.trace(o.matrix).real / dim for o in obs])
        expected = np.array(
            [[np.trace(a.matrix @ b.matrix).real / dim for b in obs] for a in obs]
        ) - np.outer(means, means)
        np.testing.assert_allclose(exact_hessian(prior, obs, np.zeros(3)), expected, atol=1e-14)

    def test_finite_for_widely_spread_spectrum(self):
        # gaps of hundreds would overflow exp(lambda_k) in the textbook
        # divided difference; the kernel form stays finite and PSD
        prior = DensityMatrix(np.eye(3) / 3, normalized=True)
        coupling = np.zeros((3, 3))
        coupling[0, 1] = coupling[1, 0] = 1.0
        obs = [HermitianOperator(np.diag([0.0, 1.0, 2.0])), HermitianOperator(coupling)]
        hess = exact_hessian(prior, obs, np.array([400.0, 0.0]))
        assert np.all(np.isfinite(hess))
        assert np.linalg.eigvalsh(hess)[0] >= -1e-15


def planted_problem(seed, dim, m):
    rng = np.random.default_rng(seed)
    prior = gibbs_prior(rng, dim)
    obs = [HermitianOperator(scaled_hermitian(rng, dim)) for _ in range(m)]
    beta = rng.normal(scale=0.8 / np.sqrt(m), size=m)
    reference, _ = posterior_from_multipliers(prior, obs, beta)
    return prior, [QuantumConstraint(o, expectation(reference, o)) for o in obs], beta


def test_eigh_calls_are_one_per_dual_evaluation(monkeypatch):
    # 2 (prior logarithm, starting point) + one per line-search trial; this
    # problem takes four full Newton steps, so no halvings add to it
    prior, cons, beta = planted_problem(3, dim=16, m=8)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    report = solve_quantum(prior, cons)
    assert report.converged
    np.testing.assert_allclose(report.multipliers, beta, atol=1e-9)
    assert report.iterations == 4
    assert len(calls) == 2 + report.iterations


class TestStallCertificate:
    """Targets outside the Bloch ball whose Newton iteration stalls below the norm guard.

    The line search stops improving the residual while |alpha| is still
    far under 1e3; the direction alpha/|alpha| then separates the targets
    from every state.
    """

    @pytest.mark.parametrize("targets", [(0.6, 0.6, 0.6), (0.9, 0.1, 0.9)])
    def test_stalled_search_raises_farkas_certificate(self, targets):
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(p), t)
            for p, t in zip((PAULI_X, PAULI_Y, PAULI_Z), targets)
        ]
        with pytest.raises(InfeasibleTargetError, match="line search stalled.*Farkas certificate"):
            solve_quantum(prior, cons)

    def test_certificate_is_scale_invariant(self):
        # scaling every observable and target by 1e3 changes nothing in
        # the decision: the certificate compares within one direction
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(1e3 * p), 1e3 * t)
            for p, t in zip((PAULI_X, PAULI_Y, PAULI_Z), (0.6, 0.6, 0.6))
        ]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_quantum(prior, cons)


class TestDependencyCertificate:
    """Targets that contradict an exact linear dependency among the observables.

    The Newton iteration stalls with |alpha| far below the norm guard, and
    alpha/|alpha| separates nothing: only the Hessian null direction d,
    along which sum_i d_i A_i is a constant, shows the contradiction.
    """

    def test_duplicated_observable_with_conflicting_targets_is_infeasible(self):
        # <X> = 0.3 and <X> = 0.5: the parent stalled at alpha = (0.212, 0.212)
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [QuantumConstraint(HermitianOperator(PAULI_X), t) for t in (0.3, 0.5)]
        with pytest.raises(InfeasibleTargetError, match="exact linear dependency"):
            solve_quantum(prior, cons)

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_certificate_is_scale_invariant(self, scale):
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(scale * PAULI_X), scale * t)
            for t in (0.3, 0.5)
        ]
        with pytest.raises(InfeasibleTargetError, match="exact linear dependency"):
            solve_quantum(prior, cons)

    def test_combination_with_identity_shift(self):
        # A_3 = A_1 + 2 A_2 + 1 forces <A_3> = <A_1> + 2 <A_2> + 1 = 1.7, not 1.9
        prior = DensityMatrix(np.eye(2) / 2)
        observables = (PAULI_X, PAULI_Z, PAULI_X + 2 * PAULI_Z + np.eye(2))
        cons = [
            QuantumConstraint(HermitianOperator(o), t)
            for o, t in zip(observables, (0.3, 0.2, 1.9))
        ]
        with pytest.raises(InfeasibleTargetError, match="exact linear dependency"):
            solve_quantum(prior, cons)

    def test_consistent_dependency_still_converges(self):
        prior = DensityMatrix(np.eye(2) / 2)
        observables = (PAULI_X, PAULI_Z, PAULI_X + 2 * PAULI_Z + np.eye(2))
        cons = [
            QuantumConstraint(HermitianOperator(o), t)
            for o, t in zip(observables, (0.3, 0.2, 1.7))
        ]
        report = solve_quantum(prior, cons)
        assert report.converged
        assert expectation(report.posterior, HermitianOperator(PAULI_X)) == pytest.approx(0.3)
