import math
import sys

import numpy as np
import pytest

from qmaxent.errors import DomainError, InfeasibleTargetError
from qmaxent.linalg import HermitianOperator, PAULI_X, PAULI_Y, PAULI_Z
from qmaxent.quantum import (
    DensityMatrix,
    QuantumConstraint,
    expectation,
    log_partition,
    posterior_from_multipliers,
    quantum_relative_entropy,
    solve_quantum,
)
from qmaxent.spin import (
    SpinProblem,
    _log_partition,
    _tanh_over,
    solve_spin,
    spin_constraint_value,
    spin_posterior,
    spin_relative_entropy,
)

ARTANH_04 = 0.42364893019360184


def expm(matrix):
    # the exponential of a Hermitian matrix, from its eigendecomposition
    vals, vecs = np.linalg.eigh(matrix)
    return (vecs * np.exp(vals)) @ vecs.conj().T


def observable_matrix(p):
    return p.c1 * np.eye(2) + p.cx * PAULI_X + p.cy * PAULI_Y + p.cz * PAULI_Z


def exponent_operator(p, alpha):
    ln_phi = np.diag([math.log(p.a), math.log(p.b)]).astype(complex)
    return HermitianOperator(alpha * observable_matrix(p) + ln_phi)


def random_problem(rng):
    a, b = np.exp(rng.normal(scale=0.8, size=2))
    c1, cx, cy, cz = rng.normal(size=4)
    return SpinProblem(a=a, b=b, c1=c1, cx=cx, cy=cy, cz=cz, target=0.0)


class TestSpinProblem:
    def test_rejects_nonpositive_prior(self):
        with pytest.raises(DomainError):
            SpinProblem(a=0.0, b=0.5, c1=0, cx=0, cy=0, cz=1, target=0.1)
        with pytest.raises(DomainError):
            SpinProblem(a=0.5, b=-0.5, c1=0, cx=0, cy=0, cz=1, target=0.1)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SpinProblem(a=0.5, b=0.5, c1=0, cx=np.inf, cy=0, cz=1, target=0.1)

    @pytest.mark.parametrize("cx", [1e154, 1e160, 1e200])
    def test_components_whose_square_overflows_are_solved(self, cx):
        # cx * cx overflowed: the feasible target cx / 10 raised "failed to
        # bracket a multiplier", then a DomainError bounded |c| by 6.7e153
        p = SpinProblem(a=0.5, b=0.5, c1=0, cx=cx, cy=0, cz=0, target=cx / 10)
        report = solve_spin(p)
        assert report.multipliers[0] * cx == pytest.approx(math.atanh(0.1), rel=1e-12, abs=0)

    def test_amplitude_bound_lies_where_hypot_leaves_the_float_range(self):
        edge = sys.float_info.max
        for c in ([edge, 0.0, 0.0], [0.0, 0.0, -edge], [0.6 * edge, 0.8 * edge, 0.0]):
            p = SpinProblem(a=0.5, b=0.5, c1=0, cx=c[0], cy=c[1], cz=c[2], target=edge / 10)
            # at 1e-300, where r is saturated, c.r summed 0.36 max + 0.64 max
            # past the float range for the third c; |c| g, with g clamped to
            # [-1, 1], cannot pass |c|
            for alpha in (1e-320, 1e-300, -1e-300):
                assert math.isfinite(spin_constraint_value(p, alpha))
        with pytest.raises(DomainError, match=r"\|c\| = hypot\(.*\) must be finite"):
            SpinProblem(a=0.5, b=0.5, c1=0, cx=0.8 * edge, cy=0.8 * edge, cz=0, target=0.0)


class TestTanhOver:
    def test_limit_value(self):
        assert _tanh_over(0.0) == 1.0

    def test_tiny_arguments(self):
        assert _tanh_over(1e-14) == pytest.approx(1.0, abs=1e-12)
        assert _tanh_over(-1e-9) == pytest.approx(1.0, abs=1e-12)
        assert _tanh_over(5e-324) == 1.0


class TestLogPartition:
    def test_normalized_prior_zero_multiplier(self):
        p = SpinProblem(a=0.3, b=0.7, c1=0, cx=0, cy=0, cz=1, target=0.0)
        assert _log_partition(p, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_unnormalized_prior(self):
        p = SpinProblem(a=1.2, b=0.5, c1=0, cx=1, cy=0, cz=0, target=0.0)
        assert _log_partition(p, 0.0) == pytest.approx(math.log(1.7), rel=1e-15)

    def test_finite_where_the_partition_function_overflows(self):
        # ln Z ~ 4401.5 here, where 2 e^lam cosh|w| overflows
        p = SpinProblem(0.5, 0.5, 2000, 0, 0, 1, 2000.9)
        assert _log_partition(p, 2.2) == pytest.approx(
            2.2 * 2000 + math.log(0.5) + 2.2 + math.log1p(math.exp(-4.4)), rel=1e-15
        )
        assert _log_partition(p, 0.3) == pytest.approx(600.0 + math.log(math.cosh(0.3)), rel=1e-15)

    def test_matches_trace_of_exponential(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            p = random_problem(rng)
            alpha = float(rng.normal())
            direct = np.trace(expm(exponent_operator(p, alpha).matrix)).real
            assert _log_partition(p, alpha) == pytest.approx(math.log(direct), abs=1e-10)


class TestSpinConstraintValue:
    def test_zero_multiplier_is_prior_expectation(self):
        # normalized prior: F(0) = c1 + cz (a - b)
        p = SpinProblem(a=0.6, b=0.4, c1=0.3, cx=0.5, cy=-0.2, cz=0.8, target=0.0)
        assert spin_constraint_value(p, 0.0) == pytest.approx(0.3 + 0.8 * 0.2)

    def test_symmetric_prior_z_only(self):
        p = SpinProblem(a=0.5, b=0.5, c1=0.1, cx=0, cy=0, cz=2.0, target=0.0)
        for alpha in (-0.7, 0.2, 1.3):
            assert spin_constraint_value(p, alpha) == pytest.approx(0.1 + 2.0 * math.tanh(2.0 * alpha))

    def test_matches_general_posterior_expectation(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            p = random_problem(rng)
            alpha = float(rng.normal())
            prior = DensityMatrix(np.diag([p.a, p.b]).astype(complex))
            obs = HermitianOperator(observable_matrix(p))
            post = posterior_from_multipliers(prior, [obs], [alpha])
            assert spin_constraint_value(p, alpha) == pytest.approx(
                expectation(post, obs), abs=1e-10
            )

    def test_removable_singularity(self):
        # symmetric prior makes half_gap = |alpha * cz|, arbitrarily small
        p = SpinProblem(a=0.5, b=0.5, c1=0.2, cx=0, cy=0, cz=1.0, target=0.0)
        tiny = spin_constraint_value(p, 1e-14)
        assert tiny == pytest.approx(0.2 + 1e-14, abs=1e-20)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            p = random_problem(rng)
            amp = math.sqrt(p.cx**2 + p.cy**2 + p.cz**2)
            grid = np.linspace(-8, 8, 200)
            vals = np.array([spin_constraint_value(p, x) for x in grid])
            assert np.all(np.diff(vals) >= -1e-12)
            assert np.all(vals > p.c1 - amp - 1e-12)
            assert np.all(vals < p.c1 + amp + 1e-12)


class TestSpinPosterior:
    def test_zero_multiplier_normalizes_prior(self):
        p = SpinProblem(a=1.0, b=3.0, c1=0, cx=1, cy=0, cz=0, target=0.0)
        np.testing.assert_allclose(
            spin_posterior(p, 0.0).matrix, np.diag([0.25, 0.75]), atol=1e-15
        )

    def test_symmetric_prior_matches_matrix_exponential(self):
        p = SpinProblem(a=0.5, b=0.5, c1=0.4, cx=0.3, cy=-0.8, cz=0.6, target=0.0)
        alpha = 0.9
        raw = expm(alpha * (0.3 * PAULI_X - 0.8 * PAULI_Y + 0.6 * PAULI_Z))
        np.testing.assert_allclose(
            spin_posterior(p, alpha).matrix, raw / np.trace(raw).real, atol=1e-12
        )

    def test_matches_general_route(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            p = random_problem(rng)
            alpha = float(rng.normal())
            prior = DensityMatrix(np.diag([p.a, p.b]).astype(complex))
            obs = HermitianOperator(observable_matrix(p))
            general = posterior_from_multipliers(prior, [obs], [alpha])
            np.testing.assert_allclose(spin_posterior(p, alpha).matrix, general.matrix, atol=1e-10)


class TestSpinRelativeEntropy:
    @pytest.mark.parametrize("variant", ["full", "umegaki"])
    def test_matches_general_route(self, variant):
        rng = np.random.default_rng(56)
        for _ in range(30):
            p = random_problem(rng)
            rho = spin_posterior(p, float(rng.normal()))
            prior = DensityMatrix(np.diag([p.a, p.b]).astype(complex))
            assert spin_relative_entropy(rho, p, variant) == pytest.approx(
                quantum_relative_entropy(rho, prior, variant), rel=1e-12, abs=1e-14
            )

    def test_bad_variant(self):
        p = SpinProblem(a=1.0, b=1.0, c1=0, cx=0, cy=0, cz=1, target=0.0)
        with pytest.raises(ValueError):
            spin_relative_entropy(spin_posterior(p, 0.0), p, "renyi")


class TestSolveSpin:
    def test_artanh_inversion(self):
        p = SpinProblem(a=0.5, b=0.5, c1=0, cx=0, cy=0, cz=1, target=0.4)
        report = solve_spin(p)
        assert report.converged
        assert report.multipliers[0] == pytest.approx(ARTANH_04, abs=1e-10)
        np.testing.assert_allclose(
            report.posterior.matrix, np.diag([0.7, 0.3]), atol=1e-10
        )

    def test_prior_expectation_target_gives_zero(self):
        p = SpinProblem(a=0.6, b=0.4, c1=0.3, cx=0.5, cy=-0.2, cz=0.8, target=0.3 + 0.8 * 0.2)
        report = solve_spin(p)
        assert report.converged
        assert abs(report.multipliers[0]) <= 1e-10

    def test_degenerate_observable_matching_target(self):
        p = SpinProblem(a=0.5, b=0.5, c1=0.7, cx=0, cy=0, cz=0, target=0.7)
        report = solve_spin(p)
        assert report.converged
        assert report.multipliers[0] == 0.0
        assert report.iterations == 0

    def test_degenerate_observable_mismatched_target(self):
        p = SpinProblem(a=0.5, b=0.5, c1=0.7, cx=0, cy=0, cz=0, target=0.5)
        with pytest.raises(InfeasibleTargetError):
            solve_spin(p)

    def test_degenerate_observable_takes_only_the_exact_target(self):
        # a constant observable reaches c1 and nothing else: the target one
        # ulp above it was accepted at alpha = 0 within the old tol
        p = SpinProblem(a=0.5, b=0.5, c1=0.7, cx=0, cy=0, cz=0, target=math.nextafter(0.7, math.inf))
        with pytest.raises(InfeasibleTargetError):
            solve_spin(p)

    def test_target_outside_open_range(self):
        p = SpinProblem(a=0.5, b=0.5, c1=0.0, cx=0, cy=0, cz=1.0, target=1.0)
        with pytest.raises(InfeasibleTargetError):
            solve_spin(p)
        p = SpinProblem(a=0.5, b=0.5, c1=0.0, cx=0, cy=0, cz=1.0, target=-1.2)
        with pytest.raises(InfeasibleTargetError):
            solve_spin(p)

    def test_solves_realizable_targets(self):
        rng = np.random.default_rng(56)
        for _ in range(100):
            base = random_problem(rng)
            alpha_true = float(rng.uniform(-1.5, 1.5))
            target = spin_constraint_value(base, alpha_true)
            p = SpinProblem(
                a=base.a, b=base.b, c1=base.c1, cx=base.cx, cy=base.cy, cz=base.cz,
                target=target,
            )
            report = solve_spin(p)
            assert report.converged
            assert report.multipliers[0] == pytest.approx(alpha_true, abs=1e-8)
            assert report.iterations > 0

    def test_saturated_constraint_value_still_brackets_the_multiplier(self):
        # F(1) = -1.0 and F(-1) = -0.9999999999999999 here: the solve used
        # to take the orientation from that rounded comparison, searched
        # the wrong way and raised "failed to bracket a multiplier"
        p = SpinProblem(a=1e-200, b=1.0, c1=0, cx=0, cy=0, cz=1, target=0.3)
        report = solve_spin(p)
        assert report.converged
        # alpha is about 231, so 2e-12 is a few of its ulp
        assert report.multipliers[0] == pytest.approx(
            math.atanh(0.3) + 100 * math.log(10), abs=2e-12
        )

    def test_small_observable_brackets_a_multiplier_far_beyond_one(self):
        # alpha = atanh(0.5) / 1e-150 is past 2^300, where the bracket that
        # doubled from +-1 stopped: this raised "failed to bracket a multiplier"
        p = SpinProblem(a=0.5, b=0.5, c1=0, cx=1e-150, cy=0, cz=0, target=5e-151)
        report = solve_spin(p)
        assert report.converged
        assert report.multipliers[0] * p.cx == pytest.approx(math.atanh(0.5), rel=1e-12, abs=0)

    def test_large_observable_bisects_to_tol(self):
        # the bracket narrowed to 4e-16 max(1, |alpha|) before |F - target|
        # reached tol, and the report said converged=False, residual -8.3e-9
        p = SpinProblem(a=0.5, b=0.5, c1=0, cx=1e4, cy=0, cz=0, target=1e3)
        report = solve_spin(p)
        assert report.converged
        assert report.multipliers[0] * p.cx == pytest.approx(math.atanh(0.1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", range(-150, 151, 10))
    def test_multiplier_is_right_at_every_scale_of_the_observable(self, k):
        # the doubled bracket and the absolute stop rules raised "failed to
        # bracket" for k <= -100, were 6-50% off with converged=True for
        # -90 <= k <= -10, and missed by 5e-7 to 2e135 relative for k >= 10;
        # then an absolute tol reported converged=False for 22 of the k from
        # -150 to 150 (50 among them), where F(alpha) - cx/10 rounds past it
        cx = 10.0**k
        report = solve_spin(SpinProblem(a=0.5, b=0.5, c1=0, cx=cx, cy=0, cz=0, target=cx / 10))
        assert report.converged
        assert report.multipliers[0] * cx == pytest.approx(math.atanh(0.1), rel=1e-12, abs=0)

    @pytest.mark.parametrize("target", [0.0, 1e-300, -5e-324])
    def test_tiny_or_zero_multiplier_takes_at_most_64_steps(self, target):
        # bisection in value walked down through the subnormals: the target
        # 0 took 1115 steps and 1e-300 took 1090; on the floats' ordered
        # keys each step halves the floats left in the bracket
        report = solve_spin(SpinProblem(a=0.5, b=0.5, c1=0, cx=0, cy=0, cz=1, target=target))
        assert report.converged
        assert report.iterations <= 64
        assert report.multipliers[0] == pytest.approx(target, rel=1e-15, abs=0)

    def test_multiplier_beyond_the_float_range_is_a_domain_error(self):
        # u = atanh(0.5) is found, but alpha = u / 1e-310 is not a float;
        # this raised "failed to bracket a multiplier"
        p = SpinProblem(a=0.5, b=0.5, c1=0, cx=1e-310, cy=0, cz=0, target=5e-311)
        with pytest.raises(DomainError, match="leaves the float range"):
            solve_spin(p)

    @pytest.mark.parametrize("target", [1e290, 1e298])
    def test_multiplier_that_underflows_is_a_domain_error(self, target):
        # u = target / 1e308 is found, but alpha = u / 1e308 underflows: it
        # was returned as 0.0 (exit 3) for 1e290 and as the subnormal 1e-318,
        # with about 17 significant bits, for 1e298
        p = SpinProblem(a=0.5, b=0.5, c1=0, cx=0, cy=0, cz=1e308, target=target)
        with pytest.raises(DomainError, match="leaves the float range"):
            solve_spin(p)

    def test_problems_at_the_float_limits_are_solved(self):
        # prior weights from the smallest subnormal to 1.7e308, components at
        # scales 1e-100 to 1e100 and targets up to 1e-15 from the range's
        # edge; 17 of these 277 raised "failed to bracket a multiplier"
        weights = [5e-324, 1e-300, 1e-200, 1e-10, 0.3, 1, 7, 1e10, 1e200, 1.7e308]
        rng = np.random.default_rng(3)
        solved = 0
        for _ in range(300):
            a, b = rng.choice(weights), rng.choice(weights)
            c = rng.normal(size=4) * 10.0 ** rng.integers(-100, 101)
            if rng.random() < 0.3:
                c[1] = c[2] = 0
            if rng.random() < 0.3:
                c[3] = 0
            amp = math.hypot(*c[1:])
            if amp == 0:
                continue
            s = rng.uniform(-1, 1) * (1 - 10.0 ** -rng.integers(1, 16))
            p = SpinProblem(float(a), float(b), *map(float, c), float(c[0] + s * amp))
            report = solve_spin(p)
            # an absolute tol of 1e-12 reported 56 of these converged=False
            assert report.converged
            # the worst of all 2727 solvable draws of this set is 287 eps
            eps = sys.float_info.epsilon
            assert abs(report.residuals[0]) <= 1024 * eps * (abs(p.c1) + amp)
            assert report.iterations <= 64
            solved += 1
        assert solved == 277

    @pytest.mark.parametrize(
        "a, b",
        [(1e-200, 1e-200), (1e200, 1e200), (1e200, 1e-200), (1e-200, 1e200)],
        ids=["product-underflows", "product-overflows", "ratio-overflows", "ratio-underflows"],
    )
    def test_prior_weights_whose_product_or_ratio_leaves_the_float_range(self, a, b):
        # ln(a*b) and ln(a/b) raised ValueError at 0, gave ln Z = inf, or
        # failed to bracket; ln a +- ln b is finite for every positive a, b
        p = SpinProblem(a=a, b=b, c1=0, cx=0, cy=0, cz=1, target=0.3)
        report = solve_spin(p)
        assert report.converged
        assert report.multipliers[0] == pytest.approx(
            math.atanh(0.3) - 0.5 * (math.log(a) - math.log(b)), abs=2e-12
        )
        # at the solution |w| = atanh(0.3), so Z = sqrt(ab) 2 cosh|w|
        assert report.log_partition == pytest.approx(
            0.5 * (math.log(a) + math.log(b)) + math.log(2 / math.sqrt(1 - 0.3**2)),
            rel=1e-14, abs=1e-12,
        )

    def test_agrees_with_general_quantum_solver(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            base = random_problem(rng)
            total = base.a + base.b
            p = SpinProblem(
                a=base.a / total, b=base.b / total, c1=base.c1, cx=base.cx, cy=base.cy,
                cz=base.cz, target=spin_constraint_value(base, float(rng.uniform(-1, 1))),
            )
            oracle = solve_spin(p)
            prior = DensityMatrix(np.diag([p.a, p.b]).astype(complex))
            obs = HermitianOperator(observable_matrix(p))
            general = solve_quantum(prior, [QuantumConstraint(obs, p.target)], tol=1e-12)
            assert oracle.converged and general.converged
            assert general.multipliers[0] == pytest.approx(oracle.multipliers[0], abs=1e-8)
            np.testing.assert_allclose(
                general.posterior.matrix, oracle.posterior.matrix, atol=1e-8
            )

    def test_log_partition_agrees_with_general_route(self):
        rng = np.random.default_rng(58)
        for _ in range(10):
            p = random_problem(rng)
            alpha = float(rng.normal())
            prior = DensityMatrix(np.diag([p.a, p.b]).astype(complex))
            obs = HermitianOperator(observable_matrix(p))
            # log_partition requires a full-rank prior but not normalization
            assert _log_partition(p, alpha) == pytest.approx(
                log_partition(prior, [obs], [alpha]), abs=1e-10
            )
