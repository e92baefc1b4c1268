import functools
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmaxent import classical, dual, quantum
from qmaxent.checks import check_prior_recovery, random_density_matrix, random_hermitian
from qmaxent.classical import (
    ClassicalConstraint,
    ClassicalDistribution,
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


@functools.cache
def _study_draws():
    """2000 random problems, each target uniform over its row's range.

    default_rng(1) draws, per problem, n in [2, 6], m in [1, 3], a prior
    uniform on [0.1, 1], an m x n normal block and the targets. About half
    the target sets are jointly infeasible.
    """
    rng = np.random.default_rng(1)
    draws = []
    for _ in range(2000):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        prior = rng.uniform(0.1, 1, size=n)
        a = rng.normal(size=(m, n))
        draws.append((prior, a, [rng.uniform(row.min(), row.max()) for row in a]))
    return draws


def _count_newton_steps(monkeypatch):
    """A list that gains one entry per Newton step the shared driver computes."""
    steps = []
    step = dual._newton_step
    monkeypatch.setattr(dual, "_newton_step", lambda *args: steps.append(1) or step(*args))
    return steps


class TestClassicalDistribution:
    def test_rejects_negative_and_empty(self):
        with pytest.raises(DomainError):
            ClassicalDistribution([0.5, -0.1])
        with pytest.raises(ShapeError):
            ClassicalDistribution([])

    @pytest.mark.parametrize(
        "weights, message",
        [([1.0, np.nan], "weights must be finite"), ([0.0, 0.0], "total weight must be positive")],
        ids=["nan", "zero-total"],
    )
    def test_rejects_nan_and_zero_total(self, weights, message):
        with pytest.raises(DomainError, match=message):
            ClassicalDistribution(weights)

    def test_repr(self):
        assert repr(ClassicalDistribution([1.0, 3.0])) == "ClassicalDistribution(n=2)"

    def test_weights_are_a_read_only_view_that_leaves_the_callers_array_writable(self):
        # the distribution used to keep its own copy, one more length-n
        # vector beside the solve's
        arr = np.array([1.0, 2.0, 3.0])
        d = ClassicalDistribution(arr)
        assert arr.flags.writeable
        assert not d.weights.flags.writeable
        assert np.shares_memory(d.weights, arr)
        arr[0] = 0.5
        assert d.weights[0] == 0.5

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_weights(self, bad):
        with pytest.raises(DomainError, match="weights must be finite"):
            ClassicalDistribution([1.0, bad])

    def test_total_errstate_gives_inf_without_a_warning(self):
        # a bare sum warns "overflow encountered in reduce"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ClassicalDistribution([1e308, 1e308]).total == np.inf

    def test_weights_summing_beyond_the_float_range_are_normalized_by_the_solve(self):
        # the plain sum is inf: a normalization that divides by it warns
        # and raises "total weight must be positive"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = ClassicalDistribution([1e308, 1e308])
            np.testing.assert_array_equal(solve_classical(d, []).posterior.weights, [0.5, 0.5])
            result = check_prior_recovery(d)
        assert result.passed, result


class TestClassicalConstraint:
    @pytest.mark.parametrize(
        "values, target, error, message",
        [
            (np.ones((2, 2)), 0.5, ShapeError, "must be a nonempty vector"),
            ([1.0, 2.0], np.inf, DomainError, "constraint target must be finite"),
        ],
        ids=["matrix-values", "infinite-target"],
    )
    def test_rejects_matrix_values_and_infinite_target(self, values, target, error, message):
        with pytest.raises(error, match=message):
            ClassicalConstraint(values, target)

    def test_values_are_a_read_only_view_that_leaves_the_callers_array_writable(self):
        # the constraint used to keep its own copy, a second m x n block
        # next to the one the solve stacks
        arr = np.array([1.0, 2.0, 3.0])
        c = ClassicalConstraint(arr, 2.5)
        assert arr.flags.writeable
        assert not c.values.flags.writeable
        assert np.shares_memory(c.values, arr)
        arr[0] = 0.5
        assert c.values[0] == 0.5


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

    @pytest.mark.parametrize(
        "r, p", [([0.5, 0.5], [1e-320, 1.0]), ([1e-320, 1.0], [1e10, 1.0])],
        ids=["ratio-overflows", "ratio-underflows"],
    )
    def test_ratio_beyond_the_float_range_keeps_a_finite_value(self, r, p):
        # ln(r_i / p_i) gave +-inf with a RuntimeWarning for a ratio that
        # overflows or underflows to 0, where ln r_i - ln p_i is finite
        expected = -sum(ri * (math.log(ri) - math.log(pi)) for ri, pi in zip(r, p))
        got = relative_entropy(ClassicalDistribution(r), ClassicalDistribution(p), "normalized")
        assert got == pytest.approx(expected, rel=1e-15)

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
        rho = ClassicalDistribution(np.array(raw) / np.sum(raw))
        phi = ClassicalDistribution(np.array(other) / np.sum(other))
        assert relative_entropy(rho, phi, "normalized") <= 1e-12


class TestSolveClassical:
    @pytest.mark.usefixtures("classical_path")
    @pytest.mark.parametrize("weights", [[0.2, 0.3, 0.5], [1.0, 3.0, 7.5]])
    def test_no_constraints_returns_the_normalized_prior(self, weights):
        # the driver's start state: the Gibbs state of ln phi and its ln Z
        prior = ClassicalDistribution(weights)
        report = solve_classical(prior, [])
        np.testing.assert_allclose(
            report.posterior.weights, prior.weights / prior.total, rtol=0, atol=1e-15
        )
        assert report.converged
        assert report.iterations == 0
        assert report.log_partition == pytest.approx(np.log(prior.total), rel=0, abs=1e-15)

    def test_no_constraints_normalizes_unnormalized_prior(self):
        report = solve_classical(ClassicalDistribution([1.0, 3.0]), [])
        np.testing.assert_allclose(report.posterior.weights, [0.25, 0.75])
        assert np.exp(report.log_partition) == pytest.approx(4.0)

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

    @pytest.mark.usefixtures("classical_path")
    def test_target_outside_hull(self):
        prior = ClassicalDistribution([1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(InfeasibleTargetError):
            solve_classical(prior, [ClassicalConstraint([1.0, 2.0, 3.0], 4.0)])

    @pytest.mark.usefixtures("classical_path")
    def test_boundary_target_rejected(self):
        prior = ClassicalDistribution([1 / 3, 1 / 3, 1 / 3])
        with pytest.raises(InfeasibleTargetError):
            solve_classical(prior, [ClassicalConstraint([1.0, 2.0, 3.0], 3.0)])

    @pytest.mark.usefixtures("classical_path")
    def test_constant_observable_rejected(self):
        prior = ClassicalDistribution([0.5, 0.5])
        with pytest.raises(InfeasibleTargetError):
            solve_classical(prior, [ClassicalConstraint([2.0, 2.0], 2.0)])

    def test_zero_prior_entry_rejected(self):
        with pytest.raises(DomainError):
            solve_classical(
                ClassicalDistribution([0.0, 1.0]), [ClassicalConstraint([0.0, 1.0], 0.9)]
            )

    @pytest.mark.usefixtures("classical_path")
    def test_constraint_length_mismatch(self):
        with pytest.raises(ShapeError):
            solve_classical(
                ClassicalDistribution([0.5, 0.5]), [ClassicalConstraint([1.0, 2.0, 3.0], 2.0)]
            )

    @pytest.mark.usefixtures("classical_path")
    @pytest.mark.parametrize("written_after", [False, True], ids=["given", "written-after"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_is_rejected_by_the_solve(self, bad, written_after):
        # the constraint is a view of arr, so it checks no values: the solve
        # checks the ones it reads, given at construction or written after
        arr = np.array([1.0, 2.0, 3.0])
        if not written_after:
            arr[1] = bad
        c = ClassicalConstraint(arr, 2.5)
        arr[1] = bad
        with pytest.raises(DomainError, match="constraint 1: values must be finite"):
            solve_classical(
                ClassicalDistribution([1.0, 1.0, 1.0]),
                [ClassicalConstraint([0.0, 1.0, 1.0], 0.5), c],
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.0, "prior must be strictly positive entrywise"),
            (-1.0, "prior must be strictly positive entrywise"),
            (np.nan, "prior weights must be finite"),
            (np.inf, "prior weights must be finite"),
        ],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_prior_weight_written_after_construction_is_rejected_by_the_solve(self, bad, message):
        # the prior is a view of arr, as a constraint is of its values
        arr = np.array([1.0, 1.0, 1.0])
        prior = ClassicalDistribution(arr)
        arr[1] = bad
        with pytest.raises(DomainError, match=message):
            solve_classical(prior, [ClassicalConstraint([1.0, 2.0, 3.0], 2.5)])

    def test_posterior_holds_the_solves_last_weights_read_only(self):
        report = solve_classical(
            ClassicalDistribution([1.0, 1.0, 1.0]), [ClassicalConstraint([1.0, 2.0, 3.0], 2.5)]
        )
        weights = report.posterior.weights
        assert abs(report.posterior.total - 1.0) <= 1e-12
        assert not weights.flags.writeable
        # its own array, not a view of another
        assert weights.base is None

    @pytest.mark.usefixtures("classical_path")
    def test_range_is_taken_from_the_values_at_solve_time(self):
        arr = np.array([1.0, 2.0, 3.0])
        c = ClassicalConstraint(arr, 2.5)
        arr[:] = [0.0, 1.0, 2.0]
        message = (
            r"constraint 0: target 2\.5 is not strictly inside the spectral range \(0\.0, 2\.0\)"
        )
        with pytest.raises(InfeasibleTargetError, match=message):
            solve_classical(ClassicalDistribution([1.0, 1.0, 1.0]), [c])

    @pytest.mark.usefixtures("classical_path")
    def test_later_rows_values_are_checked_before_an_earlier_rows_range(self):
        # constraint 0's target lies outside its range, but every row's
        # values are checked first, so constraint 1's NaN is reported
        arr = np.array([1.0, 2.0, 3.0])
        later = ClassicalConstraint(arr, 2.0)
        arr[1] = np.nan
        with pytest.raises(DomainError, match="constraint 1: values must be finite"):
            solve_classical(
                ClassicalDistribution([1.0, 1.0, 1.0]),
                [ClassicalConstraint([1.0, 2.0, 3.0], 5.0), later],
            )

    def test_canonical_form(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            w = np.exp(rng.normal(size=n))
            prior = ClassicalDistribution(w / w.sum())
            a = rng.normal(size=(2, n))
            beta = rng.normal(scale=0.7, size=2)
            ln_t = np.log(prior.weights) + a.T @ beta
            rho_t = np.exp(ln_t - np.max(ln_t))
            rho_t /= rho_t.sum()
            constraints = [ClassicalConstraint(a[j], float(a[j] @ rho_t)) for j in range(2)]
            report = solve_classical(prior, constraints)
            assert report.converged
            lhs = report.posterior.weights * np.exp(report.log_partition) / prior.weights
            rhs = np.exp(a.T @ report.multipliers)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_log_partition_gradient_matches_expectations(self):
        # d lnZ / d alpha_j equals the posterior expectation of A_j
        rng = np.random.default_rng(22)
        n = 5
        w = np.exp(rng.normal(size=n))
        prior = ClassicalDistribution(w / w.sum())
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
        r1 = solve_classical(ClassicalDistribution(w), [ClassicalConstraint(a, target)])
        r2 = solve_classical(
            ClassicalDistribution(w[perm]), [ClassicalConstraint(a[perm], target)]
        )
        np.testing.assert_allclose(r1.multipliers, r2.multipliers, atol=1e-9)
        np.testing.assert_allclose(r1.posterior.weights[perm], r2.posterior.weights, atol=1e-10)

    def test_report_invariants(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            w = np.exp(rng.normal(size=n))
            prior = ClassicalDistribution(w / w.sum())
            a = rng.normal(size=n)
            mean = float(a @ prior.weights)
            target = mean + 0.4 * (float(a.max()) - mean)
            report = solve_classical(prior, [ClassicalConstraint(a, target)], tol=1e-10)
            assert report.converged
            assert report.max_residual <= 1e-10
            assert abs(report.posterior.total - 1.0) <= 1e-12
            assert np.all(report.posterior.weights > 0)

    def test_max_iter_exhaustion_reports_not_converged(self):
        prior = ClassicalDistribution([1 / 3, 1 / 3, 1 / 3])
        report = solve_classical(
            prior, [ClassicalConstraint([1.0, 2.0, 3.0], 2.5)], max_iter=1
        )
        assert not report.converged

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
        prior = ClassicalDistribution(w / w.sum())
        mean = float(a @ prior.weights)
        target = mean + frac * 0.8 * (float(a.max()) - mean)
        if not (a.min() < target < a.max()):
            return
        report = solve_classical(prior, [ClassicalConstraint(a, target)])
        assert report.converged
        assert float(a @ report.posterior.weights) == pytest.approx(target, abs=1e-9)


@pytest.mark.usefixtures("classical_path")
def test_evaluate_errstate_silences_an_overflowing_matmul():
    # a trial alpha for this tiny prior weight overflows a^T alpha; without
    # evaluate's errstate numpy warns "overflow encountered in matmul", or
    # in multiply where the rows are read in place
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_classical(
            ClassicalDistribution([1.0, 1e-312]), [ClassicalConstraint([0.0, 100.0], 0.5)]
        )
    assert np.all(np.isfinite(report.multipliers))


class TestDependencyCertificate:
    """Targets that contradict an exact linear dependency among the observables."""

    @pytest.mark.usefixtures("classical_path")
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_duplicated_observable_with_conflicting_targets_is_infeasible(self, scale):
        # values [-1, 1] with targets 0.3 and 0.5: the parent stalled at
        # alpha = (0.112, 0.312) and reported converged=False
        prior = ClassicalDistribution([0.5, 0.5])
        values = [-scale, scale]
        cons = [ClassicalConstraint(values, scale * t) for t in (0.3, 0.5)]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_classical(prior, cons)

    @pytest.mark.usefixtures("classical_path")
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
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_classical(prior, cons)

    @pytest.mark.usefixtures("classical_path")
    def test_consistent_duplicate_still_converges(self):
        prior = ClassicalDistribution([0.5, 0.5])
        cons = [ClassicalConstraint([-1.0, 1.0], 0.3) for _ in range(2)]
        report = solve_classical(prior, cons)
        assert report.converged
        assert report.posterior.weights[1] - report.posterior.weights[0] == pytest.approx(0.3)


class TestNewtonDriverRegressions:
    """Bugs of the per-solver Newton loops mended by the shared driver in qmaxent.dual."""

    def test_residual_norm_backtracking_stall_converges(self):
        # a feasible, well-conditioned n = 5, m = 2 problem (planted near
        # beta = (-1.44959, -0.15259)) on which backtracking on the
        # residual norm stalled at alpha = (-143, 184) with residual 0.15;
        # the residual in the Newton step's own metric, r.H+r, goes
        # straight to the optimum
        prior = ClassicalDistribution([1.24321, 0.95866, 1.03605, 1.98821, 0.30314])
        cons = [
            ClassicalConstraint([1.24594, -0.75542, -0.15025, 0.63541, -1.82765], -1.03476),
            ClassicalConstraint([-0.77713, -0.22865, -0.36152, -0.54756, -1.05657], -0.68312),
        ]
        report = solve_classical(prior, cons)
        assert report.converged
        np.testing.assert_allclose(report.multipliers, [-1.44959, -0.15259], atol=1e-4)

    @pytest.mark.parametrize("s", [1e-3, 1e-2, 1.0])
    def test_small_observable_feasible_target_is_not_called_infeasible(self, s):
        # the multiplier ln(999)/s is large only because the observable is
        # small; a fixed |alpha| > 1e3 guard called s = 1e-3 infeasible
        prior = ClassicalDistribution([0.5, 0.5])
        report = solve_classical(prior, [ClassicalConstraint([0.0, s], 0.999 * s)])
        assert report.converged
        assert report.multipliers[0] * s == pytest.approx(np.log(999.0), rel=1e-6)

    @pytest.mark.parametrize(
        "weights, constraints",
        [
            # a fair die with <X> = 3.5 and <X^2> = 11: variance 11 - 3.5^2 < 0
            (
                np.ones(6),
                [(np.arange(1.0, 7.0), 3.5), (np.arange(1.0, 7.0) ** 2, 11.0)],
            ),
            # P(1) = P(2) = 0.55 sum to more than one
            ([1.0, 2.0, 3.0], [([1.0, 0.0, 0.0], 0.55), ([0.0, 1.0, 0.0], 0.55)]),
        ],
        ids=["die_negative_variance", "probabilities_above_one"],
    )
    def test_jointly_infeasible_targets_are_not_reported_unconverged(self, weights, constraints):
        # each target lies inside its own range, so only a certificate at
        # the end of the iteration shows infeasibility; these used to
        # return converged=False
        prior = ClassicalDistribution(weights)
        cons = [ClassicalConstraint(v, t) for v, t in constraints]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_classical(prior, cons)

    def test_scaling_observables_and_targets_scales_multipliers_exactly(self):
        # a power of two s scales every intermediate exactly, so a solve
        # with observables, targets and tol times s takes the same path:
        # multipliers times 1/s and the same outcome, whether it converges,
        # stops short or is certified infeasible (targets drawn inside each
        # range are often jointly infeasible)
        rng = np.random.default_rng(26)

        def outcome(w, a, t, scale):
            cons = [ClassicalConstraint(scale * v, scale * x) for v, x in zip(a, t)]
            try:
                report = solve_classical(ClassicalDistribution(w), cons, tol=1e-10 * scale)
            except InfeasibleTargetError as exc:
                return "Farkas" if "Farkas" in str(exc) else "dependency", None
            return report.converged, report.multipliers * scale

        for _ in range(40):
            n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
            w = np.exp(rng.normal(size=n))
            a = rng.normal(size=(m, n))
            t = [rng.uniform(v.min(), v.max()) for v in a]
            s = 2.0 ** int(rng.integers(-10, 11))
            base, scaled = outcome(w, a, t, 1.0), outcome(w, a, t, s)
            assert base[0] == scaled[0]
            if base[1] is not None:
                np.testing.assert_array_equal(scaled[1], base[1])

    def test_alpha_norm_overflow_still_certifies_infeasible(self):
        # a pinv step threw alpha to ~1e268 in 3 iterations; |alpha|
        # overflowed to inf, d = alpha/inf was 0, the Farkas test could not
        # fire and the report said converged=False with multipliers near 1e268
        prior = ClassicalDistribution([
            0.9310399896570716, 0.7651573639735735, 0.14241426307441135,
            0.4464509580953292, 0.7183362696880015, 0.5966611503093201,
        ])
        a = [
            [0.5378417412230189, 0.2431185162217607, -1.9535443826988845,
             -0.6628699831728421, -0.8895664463631375, -0.045187736742557535],
            [-0.6097856233278652, 0.48501511321171, -0.495619625071848,
             -0.24998636302839403, 1.2663987349152548, -0.21453066058979697],
            [-0.47244087614917546, 0.061977818644863236, -1.2737098067435353,
             -1.5731248410372924, -0.008812396226744042, -0.5703673296671212],
        ]
        t = [0.5272249343785824, -0.511260812935294, -1.2919764009795314]
        cons = [ClassicalConstraint(v, x) for v, x in zip(a, t)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
                solve_classical(prior, cons)

    @pytest.mark.parametrize(
        "k", [177, 464, 609, 735, 829, 1109, 1119, 1447, 1509, 1624, 1778]
    )
    def test_overflowing_trial_points_raise_the_certificate_not_a_warning(self, k):
        # jointly infeasible draws of the study generator whose Newton
        # steps and trial points overflow on the way to the Farkas
        # certificate; numpy warned "overflow encountered in divide" in the
        # step, and in a.T @ alpha, ln_w - ln_z and logsumexp, and under
        # warnings-as-errors the warning was raised instead
        prior, a, t = _study_draws()[k]
        cons = [ClassicalConstraint(v, x) for v, x in zip(a, t)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
                solve_classical(ClassicalDistribution(prior), cons)

    @pytest.mark.parametrize("k", [560, 965, 1214, 1779])
    def test_formerly_uncertified_study_draws_are_certified(self, k):
        # jointly infeasible draws whose line search stalled after 9-12
        # iterations at residuals 3.3e-4 to 0.28, reported converged=False:
        # along a Hessian null direction the targets lie more than tol
        # beyond every state, but the Farkas test looked only along alpha,
        # and the dependency rule also asked that the observables combine
        # to a constant there
        prior, a, t = _study_draws()[k]
        cons = [ClassicalConstraint(v, x) for v, x in zip(a, t)]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_classical(ClassicalDistribution(prior), cons)

    def test_study_draws_keep_their_outcomes(self, monkeypatch):
        # the 2000 draws' outcomes, against which changes to newton_dual are
        # measured; every draw is now either converged or certified. The
        # certified draws take 6473 Newton steps: 23227 when the
        # certificate ran only once the iteration stopped, 76 of them after
        # all 200 iterations
        steps = _count_newton_steps(monkeypatch)
        outcomes = Counter()
        certified_steps = 0
        for prior, a, t in _study_draws():
            cons = [ClassicalConstraint(v, x) for v, x in zip(a, t)]
            steps.clear()
            try:
                report = solve_classical(ClassicalDistribution(prior), cons)
            except InfeasibleTargetError as exc:
                assert "Farkas certificate" in str(exc)
                outcomes["farkas"] += 1
                certified_steps += len(steps)
            else:
                outcomes["converged" if report.converged else "uncertified"] += 1
        assert outcomes == {"converged": 940, "farkas": 1060}
        assert certified_steps <= 7000

    def test_draw_walking_out_along_one_direction_is_certified_early(self, monkeypatch):
        # draw 177 took 96 -grad steps along one fixed direction, then a step
        # whose slope overflowed, and was certified only when that step's
        # line search stalled, after 97 Newton steps; the certificate now
        # runs before the line search of a step that leaves residual along
        # a null direction of H (10 steps)
        steps = _count_newton_steps(monkeypatch)
        prior, a, t = _study_draws()[177]
        cons = [ClassicalConstraint(v, x) for v, x in zip(a, t)]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_classical(ClassicalDistribution(prior), cons)
        assert len(steps) <= 15

    def test_draw_with_all_weight_on_one_state_is_certified_by_minus_grad(self, monkeypatch):
        # draw 1168 reaches |alpha| ~ 1e8 in two steps, where all the weight
        # sits on one state and H = 0: every direction is a null direction,
        # and neither they nor alpha/|alpha| separate the targets. That state
        # is the reachable point nearest to t, so -grad/|grad| does (3 steps;
        # 201, at max_iter, before the early certificate)
        steps = _count_newton_steps(monkeypatch)
        prior, a, t = _study_draws()[1168]
        cons = [ClassicalConstraint(v, x) for v, x in zip(a, t)]
        with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
            solve_classical(ClassicalDistribution(prior), cons)
        assert len(steps) <= 15

    def test_large_partition_function_solves_without_overflow_warning(self):
        # ln Z ~ 2199 here; the report used to store exp(ln Z) and numpy
        # printed "overflow encountered in exp" on a converged solve
        prior = ClassicalDistribution([0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_classical(prior, [ClassicalConstraint([1000.0, 1001.0], 1000.9)])
        assert report.converged
        assert report.multipliers[0] == pytest.approx(np.log(9.0), rel=1e-9)

    @pytest.mark.parametrize("c", [0.0, 1e2, 1e4, 1e5, 1e6])
    def test_offset_observable_converges_to_the_unshifted_multiplier(self, c):
        # <X> = 2.5 on {1, 2, 3} shifted by a constant c: ln Z is about c,
        # and weights from a second exp(ln_w - ln Z) summed to 1 only to
        # about eps c; c = 1e4 "converged" after 9 iterations at an alpha
        # 9e-9 off, and from c = 1e5 the posterior failed its own
        # normalization check with a DomainError
        prior = ClassicalDistribution([1.0, 1.0, 1.0])
        observable = ClassicalConstraint(c + np.array([0.0, 1.0, 2.0]), c + 1.5)
        report = solve_classical(prior, [observable])
        assert report.converged
        assert abs(report.multipliers[0] - ALPHA_UNIFORM_123) <= 1e-10
        assert abs(float(report.posterior.weights.sum()) - 1.0) <= 4 * np.finfo(float).eps

    @pytest.mark.usefixtures("classical_path")
    def test_nan_tol_is_rejected_not_reported_unconverged(self):
        # max|grad| > nan is False, so the iteration never started and the
        # report said converged=False after 0 iterations
        prior = ClassicalDistribution([1.0, 1.0, 1.0])
        with pytest.raises(DomainError, match="tol must be finite and positive"):
            solve_classical(prior, [ClassicalConstraint([1.0, 2.0, 3.0], 2.5)], tol=float("nan"))


def test_peak_memory_stays_within_one_and_three_quarter_constraint_blocks():
    # the solve stacks one copy of the m x n constraint block (1.0) and
    # holds a few length-n vectors, one eighth of a block each at m = 8;
    # the covariance is added up in one cache-sized buffer, so no Newton
    # step makes an m x n temporary (one made the peak 2.38 blocks)
    rng = np.random.default_rng(7)
    n, m = 200_000, 8
    w = np.exp(0.5 * rng.normal(size=n))
    a = rng.normal(size=(m, n))
    beta = rng.normal(scale=0.1, size=m)
    ln_w = np.log(w) + a.T @ beta
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    prior = ClassicalDistribution(w)
    cons = [ClassicalConstraint(a[j], float(a[j] @ rho)) for j in range(m)]
    tracemalloc.start()
    try:
        report = solve_classical(prior, cons)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 1.75 * a.nbytes


def test_constraints_and_solve_together_stay_within_one_and_three_quarter_blocks():
    # the constraints hold views of the rows of a (nothing), the solve
    # its one stacked copy (1.0) and a few length-n vectors; constraints
    # that copied their values made this 2.67 blocks
    rng = np.random.default_rng(7)
    n, m = 200_000, 8
    w = np.exp(0.5 * rng.normal(size=n))
    a = rng.normal(size=(m, n))
    beta = rng.normal(scale=0.1, size=m)
    ln_w = np.log(w) + a.T @ beta
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    targets = a @ rho
    prior = ClassicalDistribution(w)
    tracemalloc.start()
    try:
        cons = [ClassicalConstraint(a[j], float(targets[j])) for j in range(m)]
        report = solve_classical(prior, cons)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 1.75 * a.nbytes


def _planted(n, m, seed):
    """A prior on n states, m normal rows and their targets at normal multipliers beta."""
    rng = np.random.default_rng(seed)
    w = np.exp(0.5 * rng.normal(size=n))
    a = rng.normal(size=(m, n))
    beta = rng.normal(scale=0.3, size=m)
    ln_w = np.log(w) + a.T @ beta
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    return w, a, beta, a @ rho


def test_streamed_solve_peaks_below_one_stacked_block(monkeypatch):
    # ln phi, one Gibbs weight vector and the trial exponent (three eighths
    # of a block at m = 8), plus one scratch slice and the covariance's
    # (m, cols) buffer; the rows are read in place, not stacked
    monkeypatch.setattr(classical, "STACK_BYTES", 0)
    n, m = 200_000, 8
    w, a, _, targets = _planted(n, m, seed=7)
    cons = [ClassicalConstraint(a[j], float(targets[j])) for j in range(m)]
    tracemalloc.start()
    try:
        report = solve_classical(ClassicalDistribution(w), cons)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak < a.nbytes


@pytest.mark.parametrize(
    "n, m", [(2, 1), (7, 3), (1000, 16), (2 * classical.SLICE_COLS + 5, 4), (70_000, 13)]
)
def test_streamed_and_stacked_solves_agree_on_planted_problems(n, m, monkeypatch):
    # the streamed path adds its sums up in another order, so the two
    # agree to rounding, not to the bit, and take the same Newton steps
    w, a, beta, targets = _planted(n, m, seed=n + m)
    cons = [ClassicalConstraint(a[j], float(targets[j])) for j in range(m)]
    stacked = solve_classical(ClassicalDistribution(w), cons)
    monkeypatch.setattr(classical, "STACK_BYTES", -1)
    streamed = solve_classical(ClassicalDistribution(w), cons)
    assert stacked.converged and streamed.converged
    assert streamed.iterations == stacked.iterations
    np.testing.assert_allclose(stacked.multipliers, beta, rtol=0, atol=1e-8)
    bound = 1e-12 * (1 + float(np.max(np.abs(beta))))
    assert float(np.max(np.abs(streamed.multipliers - stacked.multipliers))) <= bound
    assert streamed.log_partition == pytest.approx(stacked.log_partition, rel=1e-13, abs=1e-13)
    np.testing.assert_allclose(streamed.posterior.weights, stacked.posterior.weights,
                               rtol=1e-11, atol=0)


@pytest.mark.usefixtures("classical_path")
def test_strided_rows_solve_as_their_contiguous_copies():
    # each constraint is a column of an (n, m) array, a view whose values
    # are 8 m bytes apart, which the streamed path reads in place
    n, m = 2 * classical.SLICE_COLS + 5, 3
    w, a, beta, targets = _planted(n, m, seed=4)
    columns = np.ascontiguousarray(a.T)
    strided = solve_classical(
        ClassicalDistribution(w), [ClassicalConstraint(columns[:, j], targets[j]) for j in range(m)]
    )
    contiguous = solve_classical(
        ClassicalDistribution(w), [ClassicalConstraint(a[j], targets[j]) for j in range(m)]
    )
    assert strided.converged and contiguous.converged
    assert strided.iterations == contiguous.iterations
    np.testing.assert_allclose(strided.multipliers, contiguous.multipliers, rtol=0, atol=1e-12)
    np.testing.assert_allclose(strided.multipliers, beta, rtol=0, atol=1e-8)


def test_stack_budget_le_a_block_of_exactly_the_budget_is_stacked(monkeypatch):
    # a block of STACK_BYTES is stacked and one byte less of budget streams
    # it; the streamed path alone takes the means by _row_dots
    calls = []
    row_dots = classical._row_dots
    monkeypatch.setattr(classical, "_row_dots", lambda *args: calls.append(1) or row_dots(*args))
    n, m = 100, 3
    w, a, _, targets = _planted(n, m, seed=2)
    cons = [ClassicalConstraint(a[j], float(targets[j])) for j in range(m)]
    for budget, streamed in ((8 * m * n, False), (8 * m * n - 1, True)):
        calls.clear()
        monkeypatch.setattr(classical, "STACK_BYTES", budget)
        assert solve_classical(ClassicalDistribution(w), cons).converged
        assert bool(calls) == streamed


@pytest.mark.parametrize("m", [1, 2, 8])
def test_prior_and_solve_stay_within_the_block_and_three_length_n_vectors(m):
    # the block, ln phi and one Gibbs weight vector, plus the (m, cols)
    # buffer and its row of sqrt(rho); a prior that copied its weights, a
    # second live weight vector during the line search, the trial
    # exponent beside logsumexp's own shifted copy and a length-n sqrt(rho)
    # made this the block plus 5.33 vectors
    rng = np.random.default_rng(7)
    n = 200_000
    w = np.exp(0.5 * rng.normal(size=n))
    a = rng.normal(size=(m, n))
    beta = rng.normal(scale=0.1, size=m)
    ln_w = np.log(w) + a.T @ beta
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    targets = a @ rho
    cons = [ClassicalConstraint(a[j], float(targets[j])) for j in range(m)]
    tracemalloc.start()
    try:
        report = solve_classical(ClassicalDistribution(w), cons)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= a.nbytes + 3 * w.nbytes


def test_logsumexp_calls_are_one_per_dual_evaluation(monkeypatch):
    # one for the starting point and one per line-search trial, in both
    # solvers, which share the normalizer; each planted problem takes four
    # full Newton steps, so no halvings add to it
    rng = np.random.default_rng(5)
    n, m = 200, 4
    w = np.exp(0.5 * rng.normal(size=n))
    a = rng.normal(size=(m, n))
    beta = rng.normal(scale=0.4, size=m)
    ln_w = np.log(w) + a.T @ beta
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    cons = [ClassicalConstraint(a[j], float(a[j] @ rho)) for j in range(m)]
    # a quantum problem planted the same way, at dim 8 with m = 3
    prior = random_density_matrix(rng, 8)
    observables = [random_hermitian(rng, 8) for _ in range(3)]
    q_beta = rng.normal(scale=0.2, size=3)
    q_rho = quantum.posterior_from_multipliers(prior, observables, q_beta)
    q_cons = [quantum.QuantumConstraint(o, quantum.expectation(q_rho, o)) for o in observables]
    calls = []
    original = dual.logsumexp

    def counting_logsumexp(x):
        calls.append(1)
        return original(x)

    # where each solver looks the normalizer up
    monkeypatch.setattr(classical, "logsumexp", counting_logsumexp)
    monkeypatch.setattr(quantum, "logsumexp", counting_logsumexp)
    report = solve_classical(ClassicalDistribution(w), cons)
    assert report.converged
    np.testing.assert_allclose(report.multipliers, beta, atol=1e-9)
    assert report.iterations == 4
    assert len(calls) == 1 + report.iterations
    calls.clear()
    report = quantum.solve_quantum(prior, q_cons)
    assert report.converged
    np.testing.assert_allclose(report.multipliers, q_beta, atol=1e-9)
    assert report.iterations == 4
    assert len(calls) == 1 + report.iterations


@pytest.mark.parametrize("m", [1, 3, 16])
def test_blocked_covariance_matches_the_direct_centered_formula(m):
    cols = max(1, classical.BLOCK_BYTES // (8 * m))
    rng = np.random.default_rng(m)
    for n in (1, cols - 1, cols, cols + 1, 2 * cols + 3):
        a = rng.normal(size=(m, n))
        rho = rng.random(n) + 0.01
        rho /= rho.sum()
        means = a @ rho
        scaled = (a - means[:, None]) * np.sqrt(rho)
        direct = scaled @ scaled.T
        hess = classical._covariance(a, rho, means)
        np.testing.assert_array_equal(hess, hess.T)
        scale = float(np.max(np.abs(direct)))
        assert float(np.max(np.abs(hess - direct))) <= 1e-13 * scale
        vals = np.linalg.eigvalsh(hess)
        assert vals[0] >= -1e-15 * vals[-1]


@pytest.mark.parametrize("m", [1, 3, 16])
def test_blocked_covariance_peaks_at_one_block_and_one_row(m):
    # the (m, cols) block, one (cols,) row of sqrt(rho) and the (m, m)
    # result, never an m x n temporary (two blocks and more at this n);
    # where the row is shorter than numpy's ufunc buffer, numpy 2.4 copies
    # it, broadcast, into that buffer to scale the block, and a few small
    # array and slice objects come on top
    cols = max(1, classical.BLOCK_BYTES // (8 * m))
    n = 2 * cols + 3
    rng = np.random.default_rng(m)
    a = rng.normal(size=(m, n))
    rho = rng.random(n) + 0.01
    rho /= rho.sum()
    means = a @ rho
    tracemalloc.start()
    try:
        classical._covariance(a, rho, means)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    buffered = 8 * np.getbufsize() if cols < np.getbufsize() else 0
    assert peak <= 8 * (m * cols + cols + m * m) + buffered + 4096
