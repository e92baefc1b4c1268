"""The shared Newton iteration: its start, one SVD per step, the certificate, its arguments."""

import warnings

import numpy as np
import pytest

from qmaxent import classical, dual, quantum
from qmaxent.checks import random_density_matrix, random_hermitian
from qmaxent.classical import ClassicalConstraint, ClassicalDistribution, solve_classical
from qmaxent.dual import RCOND, STEP_SCALES, _newton_step, newton_dual
from qmaxent.errors import DomainError, InfeasibleTargetError
from qmaxent.linalg import PAULI_X, PAULI_Z, HermitianOperator
from qmaxent.quantum import (
    DensityMatrix,
    QuantumConstraint,
    expectation,
    posterior_from_multipliers,
    solve_quantum,
)


class TestNewtonStep:
    def test_well_conditioned_hessian_gives_the_newton_step(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=(5, 5))
        hess = b @ b.T + np.eye(5)
        grad = rng.normal(size=5)
        step, decrement, null = _newton_step(hess, grad)
        assert decrement(grad) == -float(grad @ step)
        expected = np.linalg.solve(hess, -grad)
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)
        assert null.shape == (0, 5)

    def test_rank_deficient_hessian_gives_the_pseudoinverse_step_and_its_null_space(self):
        # rank 2 in 5 dimensions: three null directions
        rng = np.random.default_rng(4)
        b = rng.normal(size=(5, 2))
        hess = b @ b.T
        grad = rng.normal(size=5)
        step, decrement, null = _newton_step(hess, grad)
        assert decrement(grad) == -float(grad @ step)
        expected = -np.linalg.pinv(hess, rcond=RCOND) @ grad
        assert np.linalg.norm(step - expected) <= 1e-12 * np.linalg.norm(expected)
        assert null.shape == (3, 5)
        np.testing.assert_allclose(null @ null.T, np.eye(3), atol=1e-14)
        # orthonormal, annihilated by H and orthogonal to its range: they
        # span the whole null space
        assert np.max(np.abs(hess @ null.T)) <= 1e-14 * np.max(np.abs(hess))
        np.testing.assert_allclose(null @ b, 0.0, atol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_hessian_gives_no_step(self, bad):
        # it gave the steepest-descent step -grad, with decrement(r) = r.r
        grad = np.array([0.3, -1.2])
        hess = np.array([[1.0, bad], [bad, 2.0]])
        step, decrement, null = _newton_step(hess, grad)
        assert step is None and decrement is None
        assert null.shape == (0, 2)

    def test_gradient_in_the_null_space_gives_no_step(self):
        # the pseudoinverse step is 0, with decrement(grad) = 0: no descent
        step, decrement, null = _newton_step(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))
        assert step is None and decrement is None
        np.testing.assert_array_equal(np.abs(null), [[0.0, 1.0]])

    def test_step_that_overflows_gives_no_step(self):
        # H is finite and nonsingular, but grad / H = 1e310 is not a float
        with np.errstate(over="ignore", invalid="ignore"):
            step, decrement, null = _newton_step(np.array([[1e-300]]), np.array([1e10]))
        assert step is None and decrement is None
        assert null.shape == (0, 1)

    def test_decrement_that_overflows_gives_no_step(self):
        # step = -1e10 / 1e-290 is finite, but decrement(grad) = 1e310 is
        # not: a line-search bound of inf would accept any trial
        with np.errstate(over="ignore", invalid="ignore"):
            step, decrement, null = _newton_step(np.array([[1e-290]]), np.array([1e10]))
        assert step is None and decrement is None
        assert null.shape == (0, 1)

    def test_overflowing_decrement_stops_the_solve_without_a_warning(self):
        # H ~ 1e10^2 w and grad ~ 5e9: decrement(grad) = 0.25 / w passes the
        # float range while the step 0.5 / (1e10 w) does not
        report = solve_classical(
            ClassicalDistribution([1.0, 1e-310]), [ClassicalConstraint([0.0, 1e10], 5e9)]
        )
        assert not report.converged
        assert report.iterations == 0

    def test_decrement_errstate_silences_an_overflowing_divide(self):
        # the decrement's (ut @ r) / sk overflows for this tiny prior weight;
        # without its errstate numpy warns "overflow encountered in divide"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = solve_classical(
                ClassicalDistribution([1.0, 2e-309]), [ClassicalConstraint([0.0, 2.0], 0.5)]
            )
        assert np.all(np.isfinite(report.multipliers))


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
    with pytest.raises(InfeasibleTargetError, match="Farkas certificate"):
        solve_classical(prior, cons)
    assert calls == []


def _classical_solve(max_iter):
    # jointly infeasible: P(1) + P(2) = 1.2; an uncapped loop ran on until
    # the line search stalled, and the -grad candidate certifies it at once
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


def test_zero_max_iter_certifies_the_classical_fixture_at_the_start():
    # at alpha = 0, t - <A> = (0.6, 0.6) - (1/3, 1/3) is normal to the face
    # P(1) + P(2) = 1 that the targets lie beyond, so the -grad candidate
    # separates them before any step
    with pytest.raises(InfeasibleTargetError, match="no convergence in 0 iterations at "
                       r"\|alpha\| = 0.000e\+00; along d = \[0.707107 0.707107\].*Farkas"):
        _classical_solve(np.int64(0))


def test_zero_max_iter_takes_no_step():
    report = _quantum_solve(np.int64(0))
    assert report.iterations == 0
    assert not report.converged


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_stop_rule_ge_a_start_residual_equal_to_tol_is_converged(mode):
    # the loop runs while max |grad| > tol: a residual of exactly tol at
    # alpha = 0 meets it, so the solve takes no step
    if mode == "classical":
        report = solve_classical(
            ClassicalDistribution([1.0, 1.0]), [ClassicalConstraint([0.0, 1.0], 0.25)], tol=0.25
        )
    else:
        report = solve_quantum(
            DensityMatrix(np.eye(2) / 2),
            [QuantumConstraint(HermitianOperator(PAULI_Z), 0.25)], tol=0.25,
        )
    assert report.converged
    assert report.iterations == 0
    assert abs(report.residuals[0]) == 0.25


@pytest.mark.parametrize("mode", ["classical", "quantum"])
def test_targets_on_a_face_stop_where_no_step_descends(mode):
    # t = (5e5, 5e5) puts all the weight on the first two of three states,
    # a face of the reachable set that no finite alpha reaches. After 27
    # steps the Newton step no longer descends, decrement(grad) <= 0, and
    # the solve stops there; taking that step anyway ran all 200 iterations
    rows = 1e6 * np.eye(3)[:2]
    if mode == "classical":
        report = solve_classical(
            ClassicalDistribution(np.ones(3) / 3), [ClassicalConstraint(r, 5e5) for r in rows]
        )
    else:
        report = solve_quantum(
            DensityMatrix(np.eye(3) / 3),
            [QuantumConstraint(HermitianOperator(np.diag(r)), 5e5) for r in rows],
        )
    assert not report.converged
    assert report.iterations <= 30


def _start_and_evaluate(monkeypatch, module, solve, prior, constraints):
    """The start a solver hands newton_dual, and its evaluate at alpha = 0."""
    seen = {}

    def capture(start, targets, bounds, evaluate, *args):
        seen["start"], seen["zero"] = start(), evaluate(np.zeros(len(targets)))
        return newton_dual(start, targets, bounds, evaluate, *args)

    monkeypatch.setattr(module, "newton_dual", capture)
    solve(prior, constraints)
    return seen["start"], seen["zero"]


def _unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


class TestStartState:
    """Each solver starts at alpha = 0 from what the prior holds, with no evaluation there.

    Its state, ln Z and residuals must be those evaluate(0) computes:
    the Gibbs state of ln phi is phi over its trace, and ln Z is the log
    of that trace, which is not 0 for a prior within rounding of unit trace.
    """

    @pytest.mark.parametrize(
        "spectrum",
        [[0.1, 0.2, 0.3, 0.4], [0.2, 0.2, 0.3, 0.3], [0.25] * 4, [0.1, 0.2, 0.3, 0.4 + 5e-11]],
        ids=["distinct", "degenerate", "maximally-mixed", "trace-1+5e-11"],
    )
    def test_quantum_start_is_the_gibbs_state_at_zero(self, monkeypatch, spectrum):
        rng = np.random.default_rng(8)
        u = _unitary(rng, 4)
        prior = DensityMatrix((u * np.array(spectrum)) @ u.conj().T)
        assert abs(prior.trace - 1.0) <= 1e-10
        observables = [HermitianOperator(PAULI_Z), HermitianOperator(PAULI_X)]
        cons = [
            QuantumConstraint(np.kron(o.matrix, np.eye(2)), t)
            for o, t in zip(observables, (0.2, -0.1))
        ]
        start, zero = _start_and_evaluate(monkeypatch, quantum, solve_quantum, prior, cons)
        np.testing.assert_allclose(start[0].rho, zero[0].rho, rtol=0, atol=1e-14)
        assert abs(start[1] - zero[1]) <= 1e-14
        assert abs(start[1] - np.log(prior.trace)) <= 1e-15
        np.testing.assert_allclose(start[2], zero[2], rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "weights",
        [[0.1, 0.2, 0.3, 0.4], [0.25] * 4, [0.1, 0.2, 0.3, 0.4 + 5e-11]],
        ids=["distinct", "uniform", "total-1+5e-11"],
    )
    def test_classical_start_is_the_gibbs_state_at_zero(self, monkeypatch, weights):
        prior = ClassicalDistribution(weights)
        cons = [
            ClassicalConstraint([1.0, 2.0, 3.0, 4.0], 2.2),
            ClassicalConstraint([0.0, 1.0, 0.0, -1.0], 0.1),
        ]
        start, zero = _start_and_evaluate(monkeypatch, classical, solve_classical, prior, cons)
        (rho, means), ln_z, grad = start
        np.testing.assert_allclose(rho, zero[0][0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(means, zero[0][1], rtol=0, atol=1e-14)
        assert abs(ln_z - zero[1]) <= 1e-14
        assert abs(ln_z - np.log(prior.total)) <= 1e-15
        np.testing.assert_allclose(grad, zero[2], rtol=0, atol=1e-14)


def test_smallest_step_scale_still_asks_for_descent():
    # a trial at the last scale is accepted only if its decrement is below
    # (1 - scale / 4)^2 times the step's; were that factor to round to 1,
    # as it does from 2^-52 on, the line search would accept a trial that
    # does not descend: with 53 halvings a prior weight of 1e-20 leaves
    # alpha at 11102 after one step, not at ln 1e20 = 46
    assert (1 - STEP_SCALES[-1] / 4) ** 2 < 1


def test_prior_weight_of_1e_14_on_a_needed_state_is_solved():
    # H = 1e-14 at alpha = 0 makes the Newton step 0.5 / H, and every
    # trial down to 2^-39 of it fails the monotonicity test; it exited 3
    # after 0 iterations before the damped trials
    report = solve_classical(ClassicalDistribution([1.0, 1e-14]), [ClassicalConstraint([0.0, 1.0], 0.5)])
    assert report.converged
    assert report.multipliers[0] == pytest.approx(np.log(1e14), rel=1e-10)


def test_prior_weights_from_1e_13_to_1e_300_on_a_needed_state_are_solved():
    # prior (1, w), row (0, 1), target 0.5: alpha = -ln w, whose step the
    # damped trials reach once the halvings fail, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(13, 301):
            report = solve_classical(
                ClassicalDistribution([1.0, 10.0 ** -k]), [ClassicalConstraint([0.0, 1.0], 0.5)]
            )
            assert report.converged, k
            assert report.multipliers[0] == pytest.approx(k * np.log(10), rel=1e-12), k


@pytest.mark.usefixtures("classical_path")
def test_damped_trial_whose_width_passes_the_float_range_is_solved():
    # prior (1, 1e-312), row (0, 100), target 0.5: the Newton step is 5e307
    # and its W = 5e309 passes the float range, so no damped trial ran and
    # the solve exited 3 after 0 iterations; ln(1 + W) / W from ln W
    # damps the step to about 7.13, next to alpha; that no trial warns is
    # test_evaluate_errstate_silences_an_overflowing_matmul's
    report = solve_classical(
        ClassicalDistribution([1.0, 1e-312]), [ClassicalConstraint([0.0, 100.0], 0.5)]
    )
    assert report.converged
    assert report.iterations == 3
    expected = (np.log(0.005 / 0.995) - np.log(1e-312)) / 100
    assert report.multipliers[0] == pytest.approx(expected, rel=1e-12)


class TestLineSearchRounding:
    """The line search reads the gradient alone, so a rounded ln Z cannot stall it.

    G = alpha^2 / 2 - alpha t with t = 4e-8: the full Newton step lowers G
    by 8e-16, and each trial's ln Z is 1e-13 too high, as an eigensolve of
    a C of norm 1e3 may round it while ln Z itself is near 0. Armijo on G
    rejected every trial unless the solver declared that rounding.
    """

    def test_rounding_of_ln_z_does_not_stall_the_newton_step(self):
        t = np.array([4e-8])

        def point(alpha, error):
            return None, 0.5 * float(alpha @ alpha) + error, alpha - t

        report = newton_dual(
            lambda: point(np.zeros(1), 0.0), t, (-np.inf, np.inf),
            lambda alpha: point(alpha, 1e-13),
            lambda state: np.eye(1), lambda d: d, lambda state: state, 1e-12, 5,
        )
        assert report.converged
        assert report.iterations == 1


def _planted_problem(rng, k):
    """A feasible problem whose targets are the canonical posterior's at normal multipliers.

    Even k gives a quantum problem (dim 2-5, m 1-3), odd k a classical one
    (n 2-7, m 1-4). With m >= 2, half the problems make the last observable
    the exact dependency A_m = A_1 + 2 A_2 + 1, which the targets then meet.
    """
    is_quantum = k % 2 == 0
    size = int(rng.integers(2, 6) if is_quantum else rng.integers(2, 8))
    m = int(rng.integers(1, 4) if is_quantum else rng.integers(1, 5))
    if is_quantum:
        prior = random_density_matrix(rng, size)
        obs = [random_hermitian(rng, size).matrix for _ in range(m)]
        unit = np.eye(size)
    else:
        prior = ClassicalDistribution(rng.uniform(0.1, 1.0, size=size))
        obs = list(rng.normal(size=(m, size)))
        unit = np.ones(size)
    if m >= 2 and rng.random() < 0.5:
        obs[-1] = obs[0] + 2 * obs[1] + unit
    beta = rng.normal(scale=0.8, size=m)
    if is_quantum:
        obs = [HermitianOperator(o) for o in obs]
        post = posterior_from_multipliers(prior, obs, beta)
        return solve_quantum, prior, [QuantumConstraint(o, expectation(post, o)) for o in obs]
    ln_w = np.log(prior.weights) + np.array(obs).T @ beta
    rho = np.exp(ln_w - ln_w.max())
    rho /= rho.sum()
    return solve_classical, prior, [ClassicalConstraint(o, float(o @ rho)) for o in obs]


def test_feasible_problems_stopped_early_are_not_certified(monkeypatch):
    # a solve cut off by max_iter 0-3 runs the certificate on feasible
    # targets; along a null direction of an exact dependency that the
    # targets meet, rounding puts d.t and the spectrum's one point about
    # 1e-16 apart either way, so a margin of 0 there certified 21 of these.
    # They made 736 eigvalsh calls while every candidate took an
    # eigensolve, both signs of each null direction among them
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    rng = np.random.default_rng(8)
    stopped = 0
    for k in range(600):
        solve, prior, cons = _planted_problem(rng, k)
        report = solve(prior, cons, max_iter=int(rng.integers(0, 4)))
        stopped += not report.converged
    assert stopped >= 500
    assert len(calls) == 600


def test_certificate_needs_d_t_strictly_above_the_spectrum():
    # alpha/|alpha| = (1, 1)/sqrt(2) gives d.t and max spectrum(d) both
    # 0.7071067811865475: the targets (0.5, 0.5) lie on the face P(1) +
    # P(2) = 1 of the reachable set, so no certificate is sound there; a
    # test bound - top >= margin would raise one
    a = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    targets = np.array([0.5, 0.5])
    d = np.array([1.0, 1.0]) / np.sqrt(2)
    assert float(d @ targets) == float((a.T @ d).max()) == 0.7071067811865475
    assert dual._certify(np.empty((0, 2)), np.array([1.0, 1.0]), np.array([-1e-3, -1e-3]),
                         lambda d: a.T @ d, targets, 1e-10, "max_iter") is None


@pytest.mark.parametrize(
    "solve",
    [
        lambda **kw: solve_classical(ClassicalDistribution([0.2, 0.3, 0.5]), [], **kw),
        lambda **kw: solve_quantum(DensityMatrix(np.eye(2) / 2), [], **kw),
    ],
    ids=["classical", "quantum"],
)
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": float("nan")}, "tol must be finite and positive"),
        ({"tol": -1.0}, "tol must be finite and positive"),
        ({"max_iter": -1}, "max_iter must be a non-negative integer"),
    ],
    ids=["nan_tol", "negative_tol", "negative_max_iter"],
)
def test_zero_constraint_solve_no_longer_skips_the_tol_and_max_iter_checks(solve, kwargs, message):
    # a solve with no constraints had its own branch, which returned
    # converged=True before the driver could check its arguments
    with pytest.raises(DomainError, match=message):
        solve(**kwargs)


def test_zero_constraint_quantum_solve_runs_no_eigensolve(monkeypatch):
    # the start state comes from the prior's stored decomposition; a call
    # to either solver would raise TypeError
    prior = random_density_matrix(np.random.default_rng(5), 3)
    monkeypatch.setattr(np.linalg, "eigh", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    report = solve_quantum(prior, [])
    assert report.converged and report.iterations == 0


class TestOneStateAtATime:
    """newton_dual holds one state: a classical one is a length-n weight vector.

    G(alpha) = alpha^2 / 2 - alpha with a Hessian of 2 is given a half
    Newton step, so the first trial, alpha = 0.5, is accepted unconverged.
    Every other trial has a non-finite ln Z and gradient, so the line search
    of the next step stalls, or that of the first where first_ok is False.
    """

    class State:
        live = 0

        def __init__(self, origin):
            self.origin = origin
            type(self).live += 1

        def __del__(self):
            type(self).live -= 1

    def _solve(self, first_ok):
        state_type = self.State
        calls, live_at_evaluate = [], []

        def start():
            calls.append("start")
            return state_type("start"), 0.0, np.array([-1.0])

        def evaluate(alpha):
            calls.append(float(alpha[0]))
            live_at_evaluate.append(state_type.live)
            if first_ok and alpha[0] == 0.5:
                return state_type(0.5), 0.125, alpha - 1.0
            return state_type(float(alpha[0])), np.inf, np.array([np.nan])

        report = newton_dual(
            start, np.array([1.0]), (-np.inf, np.inf), evaluate, lambda state: 2 * np.eye(1),
            lambda d: np.array([10.0]), lambda state: state.origin, 1e-12, 10,
        )
        return report, calls, live_at_evaluate

    def test_no_state_is_alive_when_a_trial_is_evaluated(self):
        _, calls, live = self._solve(first_ok=True)
        assert len(calls) == 1 + 1 + 40 + 1
        # the rebuild at the end runs after the stall dropped every trial
        assert live == [0] * (len(calls) - 1)

    def test_stall_after_a_step_rebuilds_the_accepted_state_by_evaluate(self):
        report, calls, _ = self._solve(first_ok=True)
        assert not report.converged and report.iterations == 1
        assert report.multipliers[0] == 0.5
        assert calls[-1] == 0.5 and calls.count("start") == 1
        assert report.posterior == 0.5
        assert self.State.live == 0

    def test_stall_at_the_start_rebuilds_the_start_state(self):
        report, calls, _ = self._solve(first_ok=False)
        assert not report.converged and report.iterations == 0
        assert calls[0] == calls[-1] == "start" and len(calls) == 1 + 40 + 1
        assert report.posterior == "start"


@pytest.mark.parametrize(
    "solve, prior, constraints",
    [
        # 5.0 lies outside the range (1, 3), and below outside (-1, 1)
        (
            solve_classical,
            ClassicalDistribution([1.0, 1.0, 1.0]),
            [ClassicalConstraint([1.0, 2.0, 3.0], 5.0)],
        ),
        # one observable with two targets
        (
            solve_classical,
            ClassicalDistribution([1.0, 1.0, 1.0]),
            [ClassicalConstraint([1.0, 2.0, 3.0], 2.5), ClassicalConstraint([1.0, 2.0, 3.0], 1.5)],
        ),
        (
            solve_quantum,
            DensityMatrix(np.eye(2) / 2),
            [QuantumConstraint(HermitianOperator(PAULI_Z), 5.0)],
        ),
        # <X>^2 + <Z>^2 <= 1 for every qubit state
        (
            solve_quantum,
            DensityMatrix(np.eye(2) / 2),
            [
                QuantumConstraint(HermitianOperator(PAULI_X), 0.9),
                QuantumConstraint(HermitianOperator(PAULI_Z), 0.9),
            ],
        ),
    ],
    ids=["classical-range", "classical-joint", "quantum-range", "quantum-joint"],
)
def test_every_infeasible_target_is_raised_in_dual(solve, prior, constraints):
    # one place decides infeasibility: newton_dual's module raises both the
    # range verdict and the Farkas certificate
    with pytest.raises(InfeasibleTargetError) as excinfo:
        solve(prior, constraints)
    tb = excinfo.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_filename == dual.__file__


class TestRangeTest:
    """newton_dual decides each target's range from the bounds, and from spectrum where they cannot.

    A quadratic G(alpha) = |alpha|^2 / 2 - alpha.t, whose Newton step
    converges at once; row 0 reaches (-2, 2) and row 1 (-1, 3).
    """

    @staticmethod
    def _solve(targets, calls, tol=1e-12):
        t = np.array(targets)

        def point(alpha):
            calls.append("point")
            return None, 0.5 * float(alpha @ alpha), alpha - t

        def spectrum(d):
            calls.append("spectrum")
            return d @ np.array([[-2.0, 2.0], [-1.0, 3.0]])

        return newton_dual(
            lambda: point(np.zeros(2)), t, (np.array([-1.0, 0.0]), np.array([1.0, 2.0])),
            point, lambda state: np.eye(2), spectrum, lambda state: state, tol, 5,
        )

    def test_targets_inside_the_bounds_take_no_spectrum(self):
        calls = []
        assert self._solve([0.5, 1.5], calls).converged
        assert "spectrum" not in calls

    def test_target_outside_the_bounds_but_inside_the_spectrum_takes_one_and_solves(self):
        calls = []
        report = self._solve([0.5, 2.5], calls)
        assert calls.count("spectrum") == 1
        assert calls[0] == "spectrum"
        assert report.converged
        np.testing.assert_array_equal(report.multipliers, [0.5, 2.5])

    def test_target_outside_the_spectrum_is_raised_before_start(self):
        # before tol is checked, so even a NaN tol gives the range verdict
        calls = []
        with pytest.raises(InfeasibleTargetError) as excinfo:
            self._solve([0.5, 3.0], calls, tol=np.nan)
        assert str(excinfo.value) == (
            "constraint 1: target 3.0 is not strictly inside the spectral range (-1.0, 3.0)"
        )
        assert calls == ["spectrum"]
