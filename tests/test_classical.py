import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxent.classical import (
    ClassicalConstraint,
    ClassicalDistribution,
    _bisect_single,
    relative_entropy,
    solve_classical,
)
from qmaxent.errors import (
    DomainError,
    InfeasibleTargetError,
    ShapeError,
    SupportViolationError,
)

LN2 = 0.6931471805599453

# scalar bisection oracle for the uniform {1,2,3} problem with <x> = 2.5,
# frozen from 200 halvings of [0, 10]
ALPHA_UNIFORM_123 = 0.8341151943524006


def bisect_oracle(target, lo=0.0, hi=10.0):
    values = np.array([1.0, 2.0, 3.0])

    def mean(alpha):
        w = np.exp(values * alpha)
        return float(values @ w / w.sum())

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestClassicalDistribution:
    def test_auto_detects_normalization(self):
        assert ClassicalDistribution([0.25, 0.75]).normalized
        assert not ClassicalDistribution([1.0, 2.0]).normalized

    def test_declared_normalized_must_sum_to_one(self):
        with pytest.raises(DomainError):
            ClassicalDistribution([1.0, 2.0], normalized=True)

    def test_rejects_negative_and_empty(self):
        with pytest.raises(DomainError):
            ClassicalDistribution([0.5, -0.1])
        with pytest.raises(ShapeError):
            ClassicalDistribution([])

    def test_normalize_is_identity_when_normalized(self):
        d = ClassicalDistribution([0.3, 0.7])
        assert d.normalize() is d

    def test_normalize(self):
        d = ClassicalDistribution([2.0, 6.0]).normalize()
        np.testing.assert_allclose(d.weights, [0.25, 0.75])


class TestRelativeEntropy:
    def test_zero_at_equal_normalized(self):
        phi = ClassicalDistribution([0.2, 0.3, 0.5])
        assert relative_entropy(phi, phi, "normalized") == pytest.approx(0.0, abs=1e-15)
        assert relative_entropy(phi, phi, "full") == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_against_uniform(self):
        rho = ClassicalDistribution([1.0, 0.0])
        phi = ClassicalDistribution([0.5, 0.5])
        assert relative_entropy(rho, phi, "normalized") == pytest.approx(-LN2)

    def test_scaled_copy(self):
        # rho = 2 phi: S* = -2 ln 2, full adds the total weight
        phi = ClassicalDistribution([0.5, 0.5])
        rho = ClassicalDistribution([1.0, 1.0])
        assert relative_entropy(rho, phi, "normalized") == pytest.approx(-2 * LN2)
        assert relative_entropy(rho, phi, "full") == pytest.approx(2 - 2 * LN2)

    def test_zero_rho_entries_contribute_nothing(self):
        rho = ClassicalDistribution([0.0, 1.0])
        phi = ClassicalDistribution([0.0, 1.0])
        assert relative_entropy(rho, phi, "normalized") == pytest.approx(0.0)

    def test_support_violation(self):
        with pytest.raises(SupportViolationError):
            relative_entropy(
                ClassicalDistribution([0.5, 0.5]), ClassicalDistribution([0.0, 1.0])
            )

    def test_length_mismatch_and_bad_variant(self):
        phi = ClassicalDistribution([0.5, 0.5])
        with pytest.raises(ShapeError):
            relative_entropy(phi, ClassicalDistribution([1.0]))
        with pytest.raises(ValueError):
            relative_entropy(phi, phi, "starred")

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.05, 10.0), min_size=2, max_size=6), st.data())
    def test_gibbs_inequality(self, raw, data):
        # normalized relative entropy is nonpositive, zero only at rho = phi
        other = data.draw(
            st.lists(st.floats(0.05, 10.0), min_size=len(raw), max_size=len(raw))
        )
        rho = ClassicalDistribution(np.array(raw) / np.sum(raw), normalized=True)
        phi = ClassicalDistribution(np.array(other) / np.sum(other), normalized=True)
        assert relative_entropy(rho, phi, "normalized") <= 1e-12


class TestSolveClassical:
    def test_no_constraints_returns_prior(self):
        prior = ClassicalDistribution([0.2, 0.3, 0.5])
        report = solve_classical(prior, [])
        assert report.posterior is prior
        assert report.converged
        assert report.iterations == 0
        assert report.partition_value == pytest.approx(1.0)

    def test_no_constraints_normalizes_unnormalized_prior(self):
        report = solve_classical(ClassicalDistribution([1.0, 3.0]), [])
        np.testing.assert_allclose(report.posterior.weights, [0.25, 0.75])
        assert report.partition_value == pytest.approx(4.0)

    def test_already_satisfied_constraint_gives_zero_multiplier(self):
        prior = ClassicalDistribution([0.5, 0.5])
        report = solve_classical(prior, [ClassicalConstraint([0.0, 1.0], 0.5)])
        np.testing.assert_allclose(report.multipliers, [0.0])
        np.testing.assert_allclose(report.posterior.weights, [0.5, 0.5])

    def test_uniform_123_mean_25_matches_bisection_oracle(self):
        prior = ClassicalDistribution([1 / 3, 1 / 3, 1 / 3])
        report = solve_classical(prior, [ClassicalConstraint([1.0, 2.0, 3.0], 2.5)])
        assert report.converged
        assert report.multipliers[0] == pytest.approx(ALPHA_UNIFORM_123, abs=1e-10)
        assert report.multipliers[0] == pytest.approx(bisect_oracle(2.5), abs=1e-10)
        assert report.posterior.weights @ np.array([1.0, 2.0, 3.0]) == pytest.approx(2.5, abs=1e-10)

    def test_target_outside_hull(self):
        prior = ClassicalDistribution([1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(InfeasibleTargetError):
            solve_classical(prior, [ClassicalConstraint([1.0, 2.0, 3.0], 4.0)])

    def test_boundary_target_rejected(self):
        prior = ClassicalDistribution([1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(InfeasibleTargetError):
            solve_classical(prior, [ClassicalConstraint([1.0, 2.0, 3.0], 3.0)])

    def test_constant_observable_rejected(self):
        prior = ClassicalDistribution([0.5, 0.5])
        with pytest.raises(InfeasibleTargetError):
            solve_classical(prior, [ClassicalConstraint([2.0, 2.0], 2.0)])

    def test_zero_prior_entry_rejected(self):
        with pytest.raises(DomainError):
            solve_classical(
                ClassicalDistribution([0.0, 1.0]), [ClassicalConstraint([0.0, 1.0], 0.9)]
            )

    def test_constraint_length_mismatch(self):
        with pytest.raises(ShapeError):
            solve_classical(
                ClassicalDistribution([0.5, 0.5]), [ClassicalConstraint([1.0, 2.0, 3.0], 2.0)]
            )

    def test_canonical_form(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            w = np.exp(rng.normal(size=n))
            prior = ClassicalDistribution(w / w.sum(), normalized=True)
            a = rng.normal(size=(2, n))
            beta = rng.normal(scale=0.7, size=2)
            ln_t = np.log(prior.weights) + a.T @ beta
            rho_t = np.exp(ln_t - np.max(ln_t))
            rho_t /= rho_t.sum()
            constraints = [ClassicalConstraint(a[j], float(a[j] @ rho_t)) for j in range(2)]
            report = solve_classical(prior, constraints)
            assert report.converged
            lhs = report.posterior.weights * report.partition_value / prior.weights
            rhs = np.exp(a.T @ report.multipliers)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_log_partition_gradient_matches_expectations(self):
        # d lnZ / d alpha_j equals the posterior expectation of A_j
        rng = np.random.default_rng(22)
        n = 5
        w = np.exp(rng.normal(size=n))
        prior = ClassicalDistribution(w / w.sum(), normalized=True)
        a = rng.normal(size=(2, n))

        def ln_z(alpha):
            ln_w = np.log(prior.weights) + a.T @ alpha
            peak = np.max(ln_w)
            return peak + np.log(np.sum(np.exp(ln_w - peak)))

        alpha = rng.normal(size=2)
        ln_w = np.log(prior.weights) + a.T @ alpha
        rho = np.exp(ln_w - ln_z(alpha))
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (ln_z(alpha + e) - ln_z(alpha - e)) / (2 * h)
            assert fd == pytest.approx(float(a[j] @ rho), rel=1e-6, abs=1e-9)

    def test_dual_is_convex_along_a_line(self):
        rng = np.random.default_rng(23)
        n = 4
        w = np.exp(rng.normal(size=n))
        a = rng.normal(size=n)

        def ln_z(alpha):
            ln_w = np.log(w / w.sum()) + a * alpha
            peak = np.max(ln_w)
            return peak + np.log(np.sum(np.exp(ln_w - peak)))

        xs = np.linspace(-2, 2, 41)
        vals = np.array([ln_z(x) for x in xs])
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second >= -1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(24)
        n = 5
        w = np.exp(rng.normal(size=n))
        w /= w.sum()
        a = rng.normal(size=n)
        perm = rng.permutation(n)
        target = float(a @ w) + 0.3 * (a.max() - float(a @ w))
        r1 = solve_classical(ClassicalDistribution(w, normalized=True), [ClassicalConstraint(a, target)])
        r2 = solve_classical(
            ClassicalDistribution(w[perm], normalized=True), [ClassicalConstraint(a[perm], target)]
        )
        np.testing.assert_allclose(r1.multipliers, r2.multipliers, atol=1e-9)
        np.testing.assert_allclose(r1.posterior.weights[perm], r2.posterior.weights, atol=1e-10)

    def test_report_invariants(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            w = np.exp(rng.normal(size=n))
            prior = ClassicalDistribution(w / w.sum(), normalized=True)
            a = rng.normal(size=n)
            mean = float(a @ prior.weights)
            target = mean + 0.4 * (float(a.max()) - mean)
            report = solve_classical(prior, [ClassicalConstraint(a, target)], tol=1e-10)
            assert report.converged
            assert report.max_residual <= 1e-10
            assert report.partition_value > 0
            assert report.log_partition == pytest.approx(np.log(report.partition_value))
            assert report.posterior.normalized
            assert np.all(report.posterior.weights > 0)

    def test_max_iter_exhaustion_reports_not_converged(self):
        prior = ClassicalDistribution([1 / 3, 1 / 3, 1 / 3])
        report = solve_classical(
            prior, [ClassicalConstraint([1.0, 2.0, 3.0], 2.5)], max_iter=1
        )
        assert not report.converged

    def test_bisection_fallback_solves_single_constraint(self):
        w = np.full(3, 1 / 3)
        alpha, steps = _bisect_single(np.log(w), np.array([1.0, 2.0, 3.0]), 2.5, 1e-10, 200)
        assert alpha == pytest.approx(ALPHA_UNIFORM_123, abs=1e-9)
        assert steps > 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0.1, 5.0), min_size=2, max_size=5),
        st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5),
        st.floats(0.1, 0.9),
    )
    def test_solved_target_is_met(self, weights, values, frac):
        n = min(len(weights), len(values))
        w = np.array(weights[:n])
        a = np.array(values[:n])
        if a.max() - a.min() < 1e-3:
            return
        prior = ClassicalDistribution(w / w.sum(), normalized=True)
        mean = float(a @ prior.weights)
        target = mean + frac * 0.8 * (float(a.max()) - mean)
        if not (a.min() < target < a.max()):
            return
        report = solve_classical(prior, [ClassicalConstraint(a, target)])
        assert report.converged
        assert float(a @ report.posterior.weights) == pytest.approx(target, abs=1e-9)


class TestDependencyCertificate:
    """Targets that contradict an exact linear dependency among the observables."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_duplicated_observable_with_conflicting_targets_is_infeasible(self, scale):
        # values [-1, 1] with targets 0.3 and 0.5: the parent stalled at
        # alpha = (0.112, 0.312) and reported converged=False
        prior = ClassicalDistribution([0.5, 0.5])
        values = [-scale, scale]
        cons = [ClassicalConstraint(values, scale * t) for t in (0.3, 0.5)]
        with pytest.raises(InfeasibleTargetError, match="exact linear dependency"):
            solve_classical(prior, cons)

    def test_combination_with_constant_shift(self):
        # A_3 = A_1 + 2 A_2 + 1 forces <A_3> = 1.5 + 2 * 0.5 + 1 = 3.5, not 3.6
        prior = ClassicalDistribution([0.1, 0.2, 0.3, 0.4])
        a1 = np.array([0.0, 1.0, 2.0, 3.0])
        a2 = np.array([1.0, 0.0, 1.0, 0.0])
        cons = [
            ClassicalConstraint(a1, 1.5),
            ClassicalConstraint(a2, 0.5),
            ClassicalConstraint(a1 + 2 * a2 + 1, 3.6),
        ]
        with pytest.raises(InfeasibleTargetError, match="exact linear dependency"):
            solve_classical(prior, cons)

    def test_consistent_duplicate_still_converges(self):
        prior = ClassicalDistribution([0.5, 0.5])
        cons = [ClassicalConstraint([-1.0, 1.0], 0.3) for _ in range(2)]
        report = solve_classical(prior, cons)
        assert report.converged
        assert report.posterior.weights[1] - report.posterior.weights[0] == pytest.approx(0.3)
