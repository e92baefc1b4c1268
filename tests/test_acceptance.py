"""Acceptance gate: the behaviors the package promises, end to end.

Each test prints one pass/fail line (bypassing capture) so a suite run
shows the scorecard at a glance. Random instances are seeded; every
criterion is deterministic run-to-run.
"""

import math
import sys

import numpy as np

from qmaxent.checks import (
    check_commuting_reduction,
    check_log_tensor_additivity,
    check_zero_multiplier,
    random_classical_prior,
    random_density_matrix,
    random_hermitian,
    _classical_realizable_targets,
)
from qmaxent.classical import ClassicalConstraint, solve_classical
from qmaxent.cli import main
from qmaxent.linalg import PAULI_X, PAULI_Y, PAULI_Z, HermitianOperator
from qmaxent.quantum import (
    DensityMatrix,
    QuantumConstraint,
    expectation,
    log_partition,
    posterior_from_multipliers,
    solve_quantum,
)
from qmaxent.spin import SpinProblem, solve_spin, spin_constraint_value

LN_3_OVER_7 = -0.8472978603872037


def report_line(name: str, deviation: float, threshold: float) -> None:
    status = "PASS" if deviation <= threshold else "FAIL"
    print(
        f"[{status}] {name}: max deviation {deviation:.3e} (tolerance {threshold:.0e})",
        file=sys.__stdout__,
    )


def random_spin_problem(rng):
    """Feasible two-level problem with a comfortably conditioned dual."""
    a = math.exp(rng.uniform(-0.6, 0.6))
    b = math.exp(rng.uniform(-0.6, 0.6))
    total = a + b
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    c = rng.uniform(0.6, 1.8) * direction
    base = SpinProblem(
        a=a / total, b=b / total, c1=float(rng.normal()),
        cx=c[0], cy=c[1], cz=c[2], target=0.0,
    )
    alpha_true = float(rng.uniform(-1.5, 1.5))
    target = spin_constraint_value(base, alpha_true)
    return SpinProblem(
        a=base.a, b=base.b, c1=base.c1, cx=base.cx, cy=base.cy, cz=base.cz,
        target=target,
    ), alpha_true


def spin_observable(p):
    return HermitianOperator(
        p.c1 * np.eye(2) + p.cx * PAULI_X + p.cy * PAULI_Y + p.cz * PAULI_Z
    )


def test_prior_recovery_no_constraints():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        prior = random_classical_prior(rng, int(rng.integers(2, 10)))
        report = solve_classical(prior, [])
        worst = max(worst, float(np.max(np.abs(report.posterior.weights - prior.weights))))
    for _ in range(50):
        prior = random_density_matrix(rng, int(rng.integers(2, 6)))
        report = solve_quantum(prior, [])
        worst = max(worst, float(np.max(np.abs(report.posterior.matrix - prior.matrix))))
    report_line("prior recovery with no constraints", worst, 1e-10)
    assert worst <= 1e-10


def test_classical_canonical_form():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 3))
        prior = random_classical_prior(rng, n)
        values = rng.normal(size=(k, n))
        beta = rng.normal(scale=0.5, size=k)
        targets = _classical_realizable_targets(prior, values, beta)
        constraints = [ClassicalConstraint(v, t) for v, t in zip(values, targets)]
        report = solve_classical(prior, constraints, tol=1e-12)
        assert report.converged
        lhs = report.posterior.weights * np.exp(report.log_partition) / prior.weights
        rhs = np.exp(values.T @ report.multipliers)
        worst = max(worst, float(np.max(np.abs(lhs / rhs - 1.0))))
    report_line("canonical posterior form (relative)", worst, 1e-9)
    assert worst <= 1e-9


def test_spin_oracle_matches_general_solver():
    rng = np.random.default_rng(103)
    worst_alpha = 0.0
    worst_state = 0.0
    for _ in range(1000):
        problem, _ = random_spin_problem(rng)
        oracle = solve_spin(problem)
        assert oracle.converged  # bisection bracketed and closed
        prior = DensityMatrix(np.diag([problem.a, problem.b]).astype(complex))
        general = solve_quantum(
            prior, [QuantumConstraint(spin_observable(problem), problem.target)],
            tol=1e-12,
        )
        assert general.converged
        worst_alpha = max(
            worst_alpha, abs(float(general.multipliers[0]) - float(oracle.multipliers[0]))
        )
        worst_state = max(
            worst_state,
            float(np.max(np.abs(general.posterior.matrix - oracle.posterior.matrix))),
        )
    report_line("two-level oracle vs general solver (multiplier)", worst_alpha, 1e-8)
    report_line("two-level oracle vs general solver (posterior)", worst_state, 1e-8)
    assert worst_alpha <= 1e-8
    assert worst_state <= 1e-8


def test_spin_constraint_map_monotone():
    rng = np.random.default_rng(104)
    grid = np.linspace(-6.0, 6.0, 200)
    reversals = 0
    for _ in range(100):
        problem, _ = random_spin_problem(rng)
        vals = np.array([spin_constraint_value(problem, x) for x in grid])
        diffs = np.diff(vals)
        if not (np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)):
            reversals += 1
    report_line("constraint map slope sign constant", float(reversals), 0.0)
    assert reversals == 0


def test_two_level_gibbs_state():
    prior = DensityMatrix(np.eye(2, dtype=complex) / 2)
    constraint = QuantumConstraint(HermitianOperator(np.diag([0.0, 1.0])), 0.3)
    report = solve_quantum(prior, [constraint], tol=1e-12)
    assert report.converged
    state_gap = float(np.max(np.abs(report.posterior.matrix - np.diag([0.7, 0.3]))))
    alpha_gap = abs(float(report.multipliers[0]) - LN_3_OVER_7)
    report_line("two-level Gibbs state", max(state_gap, alpha_gap), 1e-10)
    assert state_gap <= 1e-10
    assert alpha_gap <= 1e-10


def test_log_partition_gradient():
    rng = np.random.default_rng(105)
    step = 1e-5
    worst = 0.0
    for trial in range(50):
        dim = 4 if trial % 2 == 0 else 8
        prior = random_density_matrix(rng, dim)
        observables = [random_hermitian(rng, dim) for _ in range(2)]
        alpha = rng.normal(scale=0.5, size=2)
        state = posterior_from_multipliers(prior, observables, alpha)
        for i, obs in enumerate(observables):
            analytic = expectation(state, obs)
            bumped = alpha.copy()
            bumped[i] += step
            upper = log_partition(prior, observables, bumped)
            bumped[i] -= 2 * step
            lower = log_partition(prior, observables, bumped)
            fd = (upper - lower) / (2 * step)
            worst = max(worst, abs(fd - analytic) / max(abs(analytic), 1e-3))
    report_line("log-partition gradient vs central differences", worst, 1e-6)
    assert worst <= 1e-6


def test_product_posterior_complete_bases():
    rng = np.random.default_rng(106)
    paulis = [PAULI_X, PAULI_Y, PAULI_Z]
    eye = np.eye(2, dtype=complex)
    worst = 0.0
    for _ in range(50):
        factors = []
        for _ in range(2):
            prior = random_density_matrix(rng, 2)
            basis = [HermitianOperator(p) for p in paulis]
            beta = rng.normal(scale=0.6, size=3)
            reference = posterior_from_multipliers(prior, basis, beta)
            constraints = [
                QuantumConstraint(obs, expectation(reference, obs)) for obs in basis
            ]
            factors.append((prior, constraints, solve_quantum(prior, constraints, tol=1e-12)))
        (p1, c1, r1), (p2, c2, r2) = factors
        assert r1.converged and r2.converged
        joint_prior = DensityMatrix(np.kron(p1.matrix, p2.matrix))
        embedded = [
            QuantumConstraint(HermitianOperator(np.kron(c.observable.matrix, eye)), c.target)
            for c in c1
        ] + [
            QuantumConstraint(HermitianOperator(np.kron(eye, c.observable.matrix)), c.target)
            for c in c2
        ]
        joint = solve_quantum(joint_prior, embedded, tol=1e-12)
        assert joint.converged
        product = np.kron(r1.posterior.matrix, r2.posterior.matrix)
        worst = max(worst, float(np.max(np.abs(joint.posterior.matrix - product))))
    report_line("product posterior from per-factor bases", worst, 1e-8)
    assert worst <= 1e-8


def test_commuting_diagonal_reduction():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n)))
        prior = random_classical_prior(rng, n)
        values = rng.normal(size=(k, n))
        beta = rng.normal(scale=0.5, size=k)
        targets = _classical_realizable_targets(prior, values, beta)
        result = check_commuting_reduction(prior.weights, list(values), targets)
        worst = max(worst, result.max_deviation)
    report_line("diagonal problems reduce to the classical solver", worst, 1e-9)
    assert worst <= 1e-9


def test_log_tensor_additivity():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(100):
        result = check_log_tensor_additivity(
            random_density_matrix(rng, 2),
            random_density_matrix(rng, 2),
            random_density_matrix(rng, 2),
            random_density_matrix(rng, 2),
        )
        worst = max(worst, result.max_deviation)
    report_line("log-gap additivity over tensor factors", worst, 1e-9)
    assert worst <= 1e-9


def test_redundant_constraint_zero_multiplier():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        prior = random_classical_prior(rng, n)
        vals = rng.normal(size=n)
        result = check_zero_multiplier(
            prior, ClassicalConstraint(vals, float(vals @ prior.weights))
        )
        worst = max(worst, result.max_deviation)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        prior = random_density_matrix(rng, dim)
        obs = random_hermitian(rng, dim)
        result = check_zero_multiplier(
            prior, QuantumConstraint(obs, expectation(prior, obs))
        )
        worst = max(worst, result.max_deviation)
    report_line("redundant constraints get zero multipliers", worst, 1e-8)
    assert worst <= 1e-8


def test_verify_report_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(["verify", "--seed", "42", "--trials", "100", "--out", str(first)]) == 0
    assert main(["verify", "--seed", "42", "--trials", "100", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report_line("verify report byte determinism", 0.0 if identical else 1.0, 0.0)
    assert identical
