import warnings

import numpy as np
import pytest

from qmaxent.classical import ClassicalConstraint, ClassicalDistribution, relative_entropy, solve_classical
from qmaxent.errors import DomainError, InfeasibleTargetError, ShapeError
from qmaxent.linalg import HermitianOperator, PAULI_X, PAULI_Y, PAULI_Z
from qmaxent.quantum import (
    FULL_RANK_EIG,
    PSD_EIG_TOL,
    DensityMatrix,
    QuantumConstraint,
    expectation,
    log_partition,
    posterior_from_multipliers,
    quantum_relative_entropy,
    solve_quantum,
)

LN2 = 0.6931471805599453
LN_3_OVER_7 = -0.8472978603872037
# <X> = 1.5 on a uniform {0, 1, 2}: scalar bisection of the dual
ALPHA_UNIFORM_012 = 0.8341151943524006


def expm(matrix):
    # the exponential of a Hermitian matrix, from its eigendecomposition
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(vals)) @ vecs.conj().T


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def random_state(rng, dim):
    rho = expm(random_hermitian(rng, dim).matrix)
    return DensityMatrix(rho / np.trace(rho).real)


class TestDensityMatrix:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([1.0, -0.1]))

    def test_tolerates_tiny_negative_drift(self):
        DensityMatrix(np.diag([1.0, -1e-13]))

    def test_repr(self):
        assert repr(DensityMatrix(np.eye(3))) == "DensityMatrix(dim=3)"

    @pytest.mark.parametrize("trace", [1.0, 1e3, 1e6, 1e9, 1e200])
    def test_rank_deficient_state_is_not_refused_at_large_trace(self, trace):
        # eigh puts the zero eigenvalues at about -eps * trace: an absolute
        # bound of -1e-12 called most of these not positive semidefinite
        # from trace 1e6
        rng = np.random.default_rng(7)
        spectrum = np.array([0.0, 0.0, 1, 2, 3, 4, 5, 6]) * (trace / 21.0)
        for _ in range(50):
            u, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
            m = (u * spectrum) @ u.conj().T
            state = DensityMatrix((m + m.conj().T) / 2)
            assert not state.is_full_rank()
            assert state.trace == pytest.approx(trace, rel=1e-12)

    @pytest.mark.parametrize("trace", [1e-6, 1.0, 1e6])
    def test_negative_eigenvalue_is_judged_against_the_trace(self, trace):
        DensityMatrix(trace * np.diag([1.0, -0.9e-12]))
        with pytest.raises(DomainError, match="not positive semidefinite"):
            DensityMatrix(trace * np.diag([1.0, -1.1e-12]))

    def test_trace_is_checked_before_the_spectrum(self):
        with pytest.raises(DomainError, match="trace must be positive"):
            DensityMatrix(np.diag([1.0, -2.0]))

    def test_trace_beyond_the_float_range_is_named_without_a_warning(self):
        # the trace overflowed with a RuntimeWarning, and this full-rank
        # prior was then refused as "must be full rank"
        with pytest.raises(DomainError, match="trace must be finite, got inf"):
            DensityMatrix(np.diag([1e308, 1e308]))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_rejects_zero_trace(self, dim):
        with pytest.raises(DomainError, match="trace must be positive"):
            DensityMatrix(np.zeros((dim, dim)))

    def test_psd_boundary_smallest_eigenvalue_at_the_threshold_is_accepted(self):
        # diag(c, 1 - c) has trace 1 and smallest eigenvalue c exactly
        state = DensityMatrix(np.diag([PSD_EIG_TOL, 1.0 - PSD_EIG_TOL]))
        assert state.eigenvalues[0] == PSD_EIG_TOL * state.trace

    def test_full_rank_boundary_smallest_eigenvalue_at_the_threshold_is_not_full_rank(self):
        state = DensityMatrix(np.diag([FULL_RANK_EIG, 1.0 - FULL_RANK_EIG]))
        assert state.eigenvalues[0] == FULL_RANK_EIG * state.trace
        assert not state.is_full_rank()

    def test_full_rank_detection(self):
        assert DensityMatrix(np.eye(2) / 2).is_full_rank()
        assert not DensityMatrix(np.diag([1.0, 0.0])).is_full_rank()

    def test_tiny_full_rank_state_is_full_rank(self):
        # an absolute threshold of 1e-12 called this full-rank state rank-deficient
        assert DensityMatrix(np.diag([1e-200, 1e-200])).is_full_rank()

    @pytest.mark.parametrize("k", [1e-300, 1e-200, 1e-12, 1.0, 1e12, 1e200, 1e300])
    def test_rank_deficiency_does_not_depend_on_scale(self, k):
        assert not DensityMatrix(k * np.diag([1.0, 1e-13])).is_full_rank()


class TestStoredDecomposition:
    """The one eigendecomposition a DensityMatrix makes, and the one it is given."""

    def test_vectors_rebuild_the_matrix(self):
        rng = np.random.default_rng(36)
        for dim in (1, 2, 5):
            rho = random_state(rng, dim)
            u = rho.eigenvectors
            np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-14)
            np.testing.assert_allclose((u * rho.eigenvalues) @ u.conj().T, rho.matrix, atol=1e-14)

    def test_eigenvalues_ascending_and_read_only(self):
        rho = random_state(np.random.default_rng(37), 4)
        assert np.all(np.diff(rho.eigenvalues) >= 0)
        for stored in (rho.eigenvalues, rho.eigenvectors):
            with pytest.raises(ValueError):
                stored[0] = 0.5

    def test_matrix_is_read_only_for_input_and_solver_states(self):
        rng = np.random.default_rng(39)
        prior = random_state(rng, 3)
        obs = [random_hermitian(rng, 3)]
        post = posterior_from_multipliers(prior, obs, [0.5])
        report = solve_quantum(prior, [QuantumConstraint(obs[0], expectation(post, obs[0]))])
        for rho in (prior, post, report.posterior, solve_quantum(DensityMatrix(np.eye(3)), []).posterior):
            assert np.array_equal(rho.matrix, rho.matrix.conj().T)
            with pytest.raises(ValueError):
                rho.matrix[0, 0] = 0.5

    def test_posterior_eigenvalues_are_the_gibbs_weights(self):
        rng = np.random.default_rng(38)
        prior = random_state(rng, 4)
        obs = [random_hermitian(rng, 4) for _ in range(2)]
        ref = posterior_from_multipliers(prior, obs, [0.4, -0.6])
        report = solve_quantum(prior, [QuantumConstraint(o, expectation(ref, o)) for o in obs])
        assert report.converged
        for rho in (ref, report.posterior):
            assert abs(rho.trace - 1.0) <= 1e-10
            np.testing.assert_allclose(
                rho.eigenvalues, np.linalg.eigvalsh(rho.matrix), rtol=0, atol=1e-14
            )
            assert rho.eigenvalues.sum() == pytest.approx(1.0, abs=1e-15)
            u = rho.eigenvectors
            np.testing.assert_allclose((u * rho.eigenvalues) @ u.conj().T, rho.matrix, atol=1e-15)

    def test_solve_without_constraints_reuses_the_decomposition(self, monkeypatch):
        # the normalized prior, from the prior's own decomposition: an eigh would raise
        d = DensityMatrix(np.diag([1.0, 3.0]))
        monkeypatch.setattr(np.linalg, "eigh", None)
        n = solve_quantum(d, []).posterior
        np.testing.assert_allclose(n.eigenvalues, [0.25, 0.75], rtol=1e-15)
        assert n.eigenvectors is d.eigenvectors


class TestExpectation:
    def test_pauli_on_mixed_state(self):
        rho = DensityMatrix(np.eye(2) / 2)
        assert expectation(rho, HermitianOperator(PAULI_Z)) == pytest.approx(0.0)

    def test_pure_z_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        assert expectation(rho, HermitianOperator(PAULI_Z)) == pytest.approx(1.0)

    def test_against_naive_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            rho = random_state(rng, 3)
            a = random_hermitian(rng, 3)
            naive = np.trace(rho.matrix @ a.matrix)
            assert abs(naive.imag) < 1e-12
            assert expectation(rho, a) == pytest.approx(naive.real, rel=1e-12)


class TestQuantumRelativeEntropy:
    def test_zero_at_equal_states(self):
        rng = np.random.default_rng(32)
        rho = random_state(rng, 3)
        assert quantum_relative_entropy(rho, rho, "umegaki") == pytest.approx(0.0, abs=1e-12)
        assert quantum_relative_entropy(rho, rho, "full") == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_against_uniform(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        phi = DensityMatrix(np.eye(2) / 2)
        assert quantum_relative_entropy(rho, phi, "umegaki") == pytest.approx(-LN2)

    def test_diagonal_matches_classical(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            r = np.exp(rng.normal(size=n))
            r /= r.sum()
            p = np.exp(rng.normal(size=n))
            p /= p.sum()
            for qv, cv in (("umegaki", "normalized"), ("full", "full")):
                q = quantum_relative_entropy(
                    DensityMatrix(np.diag(r)), DensityMatrix(np.diag(p)), qv
                )
                c = relative_entropy(
                    ClassicalDistribution(r),
                    ClassicalDistribution(p),
                    cv,
                )
                assert q == pytest.approx(c, abs=1e-10)

    def test_rank_deficient_reference_rejected(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(DomainError):
            quantum_relative_entropy(rho, DensityMatrix(np.diag([1.0, 0.0])))

    def test_dim_mismatch_and_bad_variant(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ShapeError):
            quantum_relative_entropy(rho, DensityMatrix(np.eye(3) / 3))
        with pytest.raises(ValueError):
            quantum_relative_entropy(rho, rho, "renyi")


class TestPosteriorFromMultipliers:
    def test_zero_multipliers_recover_normalized_prior(self):
        rng = np.random.default_rng(34)
        phi = DensityMatrix(expm(random_hermitian(rng, 3).matrix))
        post = posterior_from_multipliers(phi, [], [])
        np.testing.assert_allclose(post.matrix, phi.matrix / phi.trace, atol=1e-12)
        assert log_partition(phi, [], []) == pytest.approx(np.log(phi.trace), abs=1e-12)

    def test_diagonal_closed_form(self):
        # prior I/2, observable diag(0, 1): posterior diag(1, e^a)/(1 + e^a)
        phi = DensityMatrix(np.eye(2) / 2)
        h = HermitianOperator(np.diag([0.0, 1.0]))
        for a in (-1.3, 0.0, 0.7, 2.1):
            post = posterior_from_multipliers(phi, [h], [a])
            expected = np.diag([1.0, np.exp(a)]) / (1 + np.exp(a))
            np.testing.assert_allclose(post.matrix, expected, atol=1e-12)
            assert np.exp(log_partition(phi, [h], [a])) == pytest.approx((1 + np.exp(a)) / 2, rel=1e-12)

    def test_posterior_is_normalized_psd(self):
        rng = np.random.default_rng(35)
        phi = random_state(rng, 4)
        obs = [random_hermitian(rng, 4) for _ in range(2)]
        post = posterior_from_multipliers(phi, obs, rng.normal(size=2))
        assert abs(post.trace - 1.0) <= 1e-10
        assert post.eigenvalues[0] > -1e-12

    def test_rank_deficient_prior_rejected(self):
        with pytest.raises(DomainError):
            posterior_from_multipliers(DensityMatrix(np.diag([1.0, 0.0])), [], [])

    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -np.inf])
    def test_non_finite_multiplier_is_rejected(self, alpha):
        # log_partition returned nan, after "invalid value encountered in
        # matmul" for inf, and posterior_from_multipliers called the
        # posterior not positive semidefinite, "smallest eigenvalue nan"
        phi = DensityMatrix(np.eye(2) / 2)
        for entry in (posterior_from_multipliers, log_partition):
            with warnings.catch_warnings(), pytest.raises(
                DomainError, match=rf"multipliers must be finite, got alpha\[1\] = {alpha!r}"
            ):
                warnings.simplefilter("error")
                entry(phi, [HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X)], [0.1, alpha])

    def test_huge_multiplier_gives_exact_weights_without_overflow_warning(self):
        # the shifted eigenvalue -2e308 overflows to -inf, whose weight 0 is
        # exact; the shift warned "overflow encountered in subtract"
        phi = DensityMatrix(np.eye(2) / 2)
        obs = [HermitianOperator(PAULI_X)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ln_z = log_partition(phi, obs, [1e308])
            post = posterior_from_multipliers(phi, obs, [1e308])
        assert ln_z == 1e308
        np.testing.assert_allclose(post.matrix, [[0.5, 0.5], [0.5, 0.5]], rtol=0, atol=1e-15)

    def test_length_mismatch(self):
        phi = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ShapeError):
            posterior_from_multipliers(phi, [HermitianOperator(PAULI_Z)], [0.1, 0.2])

    @pytest.mark.parametrize("entry", [posterior_from_multipliers, log_partition])
    def test_observable_dimension_mismatch(self, entry):
        # the one dims message of the stack, which names the observable's index
        phi = DensityMatrix(np.eye(2) / 2)
        observables = [HermitianOperator(PAULI_Z), HermitianOperator(np.eye(3))]
        with pytest.raises(ShapeError, match=r"^observable 1 has dim 3, prior has dim 2$"):
            entry(phi, observables, [0.1, 0.2])


class TestLogPartition:
    def test_zero_for_normalized_prior(self):
        phi = DensityMatrix(np.eye(3) / 3)
        assert log_partition(phi, [], []) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_closed_form(self):
        phi = DensityMatrix(np.eye(2) / 2)
        h = HermitianOperator(np.diag([0.0, 1.0]))
        a = 0.7
        assert log_partition(phi, [h], [a]) == pytest.approx(np.log((1 + np.exp(a)) / 2), rel=1e-12)

    def test_gradient_matches_posterior_expectations(self):
        # d lnZ / d alpha_i = Tr(rho(alpha) A_i), central differences
        rng = np.random.default_rng(36)
        phi = random_state(rng, 4)
        obs = [random_hermitian(rng, 4) for _ in range(3)]
        alpha = rng.normal(scale=0.5, size=3)
        post = posterior_from_multipliers(phi, obs, alpha)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (log_partition(phi, obs, alpha + e) - log_partition(phi, obs, alpha - e)) / (2 * h)
            assert fd == pytest.approx(expectation(post, obs[i]), rel=1e-6, abs=1e-9)


class TestSolveQuantum:
    def test_no_constraints_returns_the_prior_state(self):
        # the driver's start state: the Gibbs state of ln phi, from the
        # prior's stored decomposition, and its ln Z, ln Tr phi
        for prior in (DensityMatrix(np.eye(4) / 4), random_state(np.random.default_rng(1), 4)):
            report = solve_quantum(prior, [])
            np.testing.assert_allclose(report.posterior.matrix, prior.matrix, rtol=0, atol=1e-15)
            assert report.converged
            assert report.iterations == 0
            assert report.log_partition == pytest.approx(np.log(prior.trace), rel=0, abs=1e-15)

    def test_gibbs_logistic_inversion(self):
        prior = DensityMatrix(np.eye(2) / 2)
        h = HermitianOperator(np.diag([0.0, 1.0]))
        report = solve_quantum(prior, [QuantumConstraint(h, 0.3)])
        assert report.converged
        assert report.multipliers[0] == pytest.approx(LN_3_OVER_7, abs=1e-10)
        np.testing.assert_allclose(report.posterior.matrix, np.diag([0.7, 0.3]), atol=1e-10)

    def test_gibbs_form_from_flat_prior(self):
        # flat prior: posterior is exactly e^(alpha H) / Tr e^(alpha H)
        rng = np.random.default_rng(37)
        h = random_hermitian(rng, 3)
        prior = DensityMatrix(np.eye(3) / 3)
        spec = np.linalg.eigvalsh(h.matrix)
        target = 0.6 * float(spec[0]) + 0.4 * float(spec[-1])
        report = solve_quantum(prior, [QuantumConstraint(h, target)])
        assert report.converged
        a = float(report.multipliers[0])
        gibbs = expm(a * h.matrix)
        gibbs = gibbs / np.trace(gibbs).real
        np.testing.assert_allclose(report.posterior.matrix, gibbs, atol=1e-9)

    def test_already_satisfied_constraint_gives_zero_multiplier(self):
        rng = np.random.default_rng(38)
        prior = random_state(rng, 3)
        a = random_hermitian(rng, 3)
        report = solve_quantum(prior, [QuantumConstraint(a, expectation(prior, a))])
        assert report.converged
        assert abs(report.multipliers[0]) <= 1e-8

    def test_non_commuting_pair_meets_targets(self):
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(PAULI_X), 0.3),
            QuantumConstraint(HermitianOperator(PAULI_Z), -0.2),
        ]
        report = solve_quantum(prior, cons)
        assert report.converged
        assert expectation(report.posterior, cons[0].observable) == pytest.approx(0.3, abs=1e-9)
        assert expectation(report.posterior, cons[1].observable) == pytest.approx(-0.2, abs=1e-9)

    def test_target_outside_spectral_range(self):
        prior = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(InfeasibleTargetError):
            solve_quantum(prior, [QuantumConstraint(HermitianOperator(PAULI_Z), 1.5)])

    def test_boundary_target_rejected(self):
        prior = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(InfeasibleTargetError):
            solve_quantum(prior, [QuantumConstraint(HermitianOperator(PAULI_Z), 1.0)])

    def test_jointly_infeasible_targets_diverge(self):
        # each target is inside its own spectral range, but no qubit state
        # has Bloch vector of length > 1
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [
            QuantumConstraint(HermitianOperator(PAULI_X), 0.9),
            QuantumConstraint(HermitianOperator(PAULI_Z), 0.9),
        ]
        with pytest.raises(InfeasibleTargetError):
            solve_quantum(prior, cons)

    @pytest.mark.parametrize("k", [-200, -100, 0, 1, 100, 200])
    @pytest.mark.parametrize("planted", [False, True], ids=["mixed", "planted"])
    def test_prior_of_any_trace_gives_the_unit_trace_solve(self, k, planted):
        # Z absorbs the prior's scale: ln phi moves by ln(tr) I, which the
        # Gibbs weights divide out and ln Z carries
        if planted:
            rng = np.random.default_rng(7)
            base = random_state(rng, 4).matrix
            obs = [random_hermitian(rng, 4) for _ in range(2)]
            post = posterior_from_multipliers(DensityMatrix(base), obs, [0.4, -0.7])
            cons = [QuantumConstraint(o, expectation(post, o)) for o in obs]
        else:
            base = np.eye(3) / 3
            a = np.array([[1, 0.5, 0], [0.5, 0, 0.2j], [0, -0.2j, -1]])
            cons = [QuantumConstraint(HermitianOperator(a), 0.3)]
        unit = solve_quantum(DensityMatrix(base), cons)
        tr = 10.0**k
        report = solve_quantum(DensityMatrix(base * tr), cons)
        assert unit.converged and report.converged
        assert report.iterations == unit.iterations
        np.testing.assert_allclose(report.multipliers, unit.multipliers, rtol=1e-12, atol=0)
        assert report.log_partition - np.log(tr) == pytest.approx(unit.log_partition, abs=1e-12)
        np.testing.assert_allclose(report.posterior.matrix, unit.posterior.matrix, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_unnormalized_maximally_mixed_prior_gives_the_normalized_posterior(self, dim):
        rng = np.random.default_rng(40 + dim)
        obs = [random_hermitian(rng, dim) for _ in range(2)]
        post = posterior_from_multipliers(DensityMatrix(np.eye(dim) / dim), obs, [0.5, -0.3])
        cons = [QuantumConstraint(o, expectation(post, o)) for o in obs]
        unit = solve_quantum(DensityMatrix(np.eye(dim) / dim), cons)
        report = solve_quantum(DensityMatrix(np.eye(dim)), cons)
        assert report.converged
        np.testing.assert_allclose(report.posterior.matrix, unit.posterior.matrix, rtol=0, atol=1e-12)
        np.testing.assert_allclose(report.multipliers, unit.multipliers, rtol=1e-12, atol=0)
        assert report.log_partition == pytest.approx(unit.log_partition + np.log(dim), abs=1e-12)

    @pytest.mark.parametrize("target", [np.nan, np.inf], ids=["nan", "inf"])
    def test_constraint_rejects_non_finite_target(self, target):
        with pytest.raises(DomainError, match="constraint target must be finite"):
            QuantumConstraint(np.eye(2), target)

    def test_constraint_dimension_mismatch(self):
        # every observable is read into the stack before any target's range
        # is decided, so constraint 1's shape error wins over constraint 0's
        # infeasible target
        prior = DensityMatrix(np.eye(2) / 2)
        constraints = [
            QuantumConstraint(PAULI_Z, 2.0),
            QuantumConstraint(np.diag([0.0, 1.0, 2.0]), 1.0),
        ]
        with pytest.raises(ShapeError, match=r"^observable 1 has dim 3, prior has dim 2$"):
            solve_quantum(prior, constraints)

    def test_rank_deficient_prior_rejected(self):
        with pytest.raises(DomainError):
            solve_quantum(DensityMatrix(np.diag([1.0, 0.0])), [])

    def test_single_constraint_map_is_monotone(self):
        rng = np.random.default_rng(40)
        prior = random_state(rng, 3)
        a = random_hermitian(rng, 3)
        grid = np.linspace(-4, 4, 100)
        vals = [
            expectation(posterior_from_multipliers(prior, [a], [x]), a) for x in grid
        ]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_diagonal_problem_matches_classical(self):
        rng = np.random.default_rng(41)
        n = 4
        w = np.exp(rng.normal(size=n))
        w /= w.sum()
        v = rng.normal(size=n)
        mean = float(v @ w)
        target = mean + 0.35 * (float(v.max()) - mean)
        rc = solve_classical(
            ClassicalDistribution(w), [ClassicalConstraint(v, target)], tol=1e-12
        )
        rq = solve_quantum(
            DensityMatrix(np.diag(w)), [QuantumConstraint(HermitianOperator(np.diag(v)), target)],
            tol=1e-12,
        )
        np.testing.assert_allclose(rq.multipliers, rc.multipliers, atol=1e-9)
        np.testing.assert_allclose(
            rq.posterior.matrix, np.diag(rc.posterior.weights), atol=1e-9
        )

    def test_large_partition_function_solves_without_overflow_warning(self):
        # ln Z ~ 2199 here; the report used to store exp(ln Z) and numpy
        # printed "overflow encountered in exp" on a converged solve
        prior = DensityMatrix(np.eye(2) / 2)
        cons = [QuantumConstraint(HermitianOperator(np.diag([1000.0, 1001.0])), 1000.9)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_quantum(prior, cons)
        assert report.converged
        assert report.multipliers[0] == pytest.approx(np.log(9.0), rel=1e-9)

    @pytest.mark.parametrize("c", [0.0, 1e2, 1e4, 1e5])
    def test_offset_observable_converges_to_the_unshifted_multiplier(self, c):
        # the quantum twin of the classical offset regression: diag(0, 1, 2)
        # + c I on a maximally mixed qutrit has ln Z about c, and its
        # Gibbs weights are divided by their own sum like the classical ones
        prior = DensityMatrix(np.eye(3) / 3)
        observable = HermitianOperator(np.diag([0.0, 1.0, 2.0]) + c * np.eye(3))
        report = solve_quantum(prior, [QuantumConstraint(observable, c + 1.5)])
        assert report.converged
        assert abs(report.multipliers[0] - ALPHA_UNIFORM_012) <= 1e-10
        eps = np.finfo(float).eps
        assert abs(float(report.posterior.eigenvalues.sum()) - 1.0) <= 4 * eps
        assert abs(report.posterior.trace - 1.0) <= 4 * eps

    def test_max_iter_exhaustion_reports_not_converged(self):
        prior = DensityMatrix(np.eye(2) / 2)
        report = solve_quantum(
            prior, [QuantumConstraint(HermitianOperator(PAULI_Z), 0.4)], max_iter=1
        )
        assert not report.converged

    def test_report_invariants(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            prior = random_state(rng, 4)
            obs = [random_hermitian(rng, 4) for _ in range(2)]
            ref = posterior_from_multipliers(prior, obs, rng.normal(scale=0.6, size=2))
            cons = [QuantumConstraint(o, expectation(ref, o)) for o in obs]
            report = solve_quantum(prior, cons, tol=1e-10)
            assert report.converged
            assert report.max_residual <= 1e-10
            assert abs(report.posterior.trace - 1.0) <= 1e-10


def test_posterior_from_multipliers_past_the_float_range_of_z_without_overflow_warning():
    # ln Z ~ 2201.6 here; the Z this function used to return was inf, and
    # before that exp(ln Z) warned "overflow encountered in exp"
    prior = DensityMatrix(np.eye(2) / 2)
    obs = [HermitianOperator(np.diag([1000.0, 1001.0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        post = posterior_from_multipliers(prior, obs, [2.2])
        ln_z = log_partition(prior, obs, [2.2])
    assert ln_z == pytest.approx(2200.0 + np.log(0.5 + 0.5 * np.exp(2.2)))
    np.testing.assert_allclose(np.diag(post.matrix).real, [1, np.exp(2.2)] / (1 + np.exp(2.2)))
