"""Executable checks of the structural properties the updaters must obey.

Each check solves one or more small problems and reports the worst
deviation from the property it exercises, together with the threshold it
is held to. run_all_checks aggregates every check over seeded random
instances, so two runs with the same seed and trial count produce
identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .classical import ClassicalConstraint, ClassicalDistribution, relative_entropy, solve_classical
from .dual import logsumexp
from .errors import DomainError, ShapeError
from .linalg import HermitianOperator, matrix_exp
from .quantum import (
    DensityMatrix,
    QuantumConstraint,
    _log,
    _require_full_rank,
    expectation,
    posterior_from_multipliers,
    quantum_relative_entropy,
    solve_quantum,
)

PRIOR_RECOVERY_TOL = 1e-10
SUBSYSTEM_TOL = 1e-8
COMMUTING_TOL = 1e-9
ZERO_MULTIPLIER_TOL = 1e-8
LOG_TENSOR_TOL = 1e-9
SUBDOMAIN_TOL = 1e-10

DEFAULT_SEED = 42
DEFAULT_TRIALS = 20

# the checks solve tighter than the deviation thresholds they certify
SOLVE_TOL = 1e-12


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of one property check; passed iff max_deviation <= threshold."""

    name: str
    max_deviation: float
    threshold: float
    detail: str = ""
    passed: bool = field(init=False, default=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.max_deviation <= self.threshold))


def _normalized(weights: np.ndarray) -> np.ndarray:
    """weights over their sum, taken of weights / max so that the sum stays in the float range."""
    scaled = weights / weights.max()
    return scaled / scaled.sum()


def check_prior_recovery(prior) -> PropertyResult:
    """With no constraints the posterior is the normalized prior.

    That reference is normalized here, apart from the solve: the weights
    over their sum, or the matrix over its trace, finite and positive.
    """
    if isinstance(prior, ClassicalDistribution):
        report = solve_classical(prior, [])
        deviation = float(np.max(np.abs(report.posterior.weights - _normalized(prior.weights))))
    elif isinstance(prior, DensityMatrix):
        report = solve_quantum(prior, [])
        deviation = float(np.max(np.abs(report.posterior.matrix - prior.matrix / prior.trace)))
    else:
        raise TypeError(f"unsupported prior type {type(prior).__name__}")
    return PropertyResult("prior_recovery", deviation, PRIOR_RECOVERY_TOL)


def check_subsystem_independence(
    prior1: DensityMatrix,
    prior2: DensityMatrix,
    constraints1: Sequence[QuantumConstraint],
    constraints2: Sequence[QuantumConstraint],
) -> PropertyResult:
    """Constraints on separate factors give a product posterior.

    Each factor problem is solved on its own; the joint problem embeds
    the observables as A (x) I and I (x) B over the product prior. The
    deviation is the max-norm gap between the joint posterior and the
    tensor product of the factor posteriors.
    """
    r1 = solve_quantum(prior1, constraints1, tol=SOLVE_TOL)
    r2 = solve_quantum(prior2, constraints2, tol=SOLVE_TOL)
    i1 = np.eye(prior1.dim, dtype=complex)
    i2 = np.eye(prior2.dim, dtype=complex)
    embedded = [
        QuantumConstraint(HermitianOperator(np.kron(c.observable.matrix, i2)), c.target)
        for c in constraints1
    ] + [
        QuantumConstraint(HermitianOperator(np.kron(i1, c.observable.matrix)), c.target)
        for c in constraints2
    ]
    joint_prior = DensityMatrix(np.kron(prior1.matrix, prior2.matrix))
    joint = solve_quantum(joint_prior, embedded, tol=SOLVE_TOL)
    product = np.kron(r1.posterior.matrix, r2.posterior.matrix)
    deviation = float(np.max(np.abs(joint.posterior.matrix - product)))
    return PropertyResult("subsystem_independence", deviation, SUBSYSTEM_TOL)


def check_commuting_reduction(
    prior_diagonal,
    observable_diagonals: Sequence,
    targets,
) -> PropertyResult:
    """Diagonal quantum problems reduce to the classical updater.

    The same weights and observable values are solved once as a discrete
    problem and once as diagonal matrices; the deviation covers both the
    posterior gap (including any off-diagonal leakage) and the entropy
    gap between the umegaki and normalized variants.
    """
    weights = np.asarray(prior_diagonal, dtype=float)
    weights = weights / weights.sum()
    targets = np.asarray(targets, dtype=float)
    c_prior = ClassicalDistribution(weights)
    c_constraints = [
        ClassicalConstraint(np.asarray(v, dtype=float), t)
        for v, t in zip(observable_diagonals, targets)
    ]
    q_prior = DensityMatrix(np.diag(weights).astype(complex))
    q_constraints = [
        QuantumConstraint(HermitianOperator(np.diag(np.asarray(v, dtype=float))), t)
        for v, t in zip(observable_diagonals, targets)
    ]
    rc = solve_classical(c_prior, c_constraints, tol=SOLVE_TOL)
    rq = solve_quantum(q_prior, q_constraints, tol=SOLVE_TOL)
    posterior_gap = float(
        np.max(np.abs(rq.posterior.matrix - np.diag(rc.posterior.weights)))
    )
    entropy_gap = abs(
        quantum_relative_entropy(rq.posterior, q_prior, "umegaki")
        - relative_entropy(rc.posterior, c_prior, "normalized")
    )
    deviation = max(posterior_gap, entropy_gap)
    return PropertyResult("commuting_reduction", deviation, COMMUTING_TOL)


def check_zero_multiplier(prior, constraint) -> PropertyResult:
    """A constraint already satisfied by the prior gets multiplier zero."""
    if isinstance(prior, ClassicalDistribution):
        report = solve_classical(prior, [constraint], tol=SOLVE_TOL)
    elif isinstance(prior, DensityMatrix):
        report = solve_quantum(prior, [constraint], tol=SOLVE_TOL)
    else:
        raise TypeError(f"unsupported prior type {type(prior).__name__}")
    deviation = float(np.max(np.abs(report.multipliers)))
    return PropertyResult("zero_multiplier", deviation, ZERO_MULTIPLIER_TOL)


def _log_gap(rho: DensityMatrix, phi: DensityMatrix) -> np.ndarray:
    # both logs come from the decompositions the states already hold
    _require_full_rank(rho, "rho")
    _require_full_rank(phi, "phi")
    return -(_log(rho) - _log(phi))


def check_log_tensor_additivity(
    rho1: DensityMatrix,
    phi1: DensityMatrix,
    rho2: DensityMatrix,
    phi2: DensityMatrix,
) -> PropertyResult:
    """The log-gap map -(ln rho - ln phi) is additive over tensor factors.

    All four states must be full rank so both logs exist.
    """
    lhs = _log_gap(
        DensityMatrix(np.kron(rho1.matrix, rho2.matrix)),
        DensityMatrix(np.kron(phi1.matrix, phi2.matrix)),
    )
    i1 = np.eye(rho1.dim, dtype=complex)
    i2 = np.eye(rho2.dim, dtype=complex)
    rhs = np.kron(_log_gap(rho1, phi1), i2) + np.kron(i1, _log_gap(rho2, phi2))
    deviation = float(np.max(np.abs(lhs - rhs)))
    return PropertyResult("log_tensor_additivity", deviation, LOG_TENSOR_TOL)


def check_subdomain_independence(
    prior: ClassicalDistribution,
    domain_mask,
    local_constraint: ClassicalConstraint | None = None,
    domain_probability: float | None = None,
) -> PropertyResult:
    """Constraints inside a domain leave conditionals outside unchanged.

    The solve always includes the indicator constraint fixing the domain
    probability (defaulting to the prior mass of the domain); the local
    constraint, when given, must vanish outside the domain. The deviation
    compares posterior and prior conditionals on the complement.
    """
    mask = np.asarray(domain_mask, dtype=bool)
    if mask.shape != (prior.n,):
        raise ShapeError(f"mask shape {mask.shape} does not match {prior.n} states")
    if not mask.any() or mask.all():
        raise DomainError("domain must be a proper nonempty subset of the states")
    weights = _normalized(prior.weights)
    if domain_probability is None:
        domain_probability = float(weights[mask].sum())
    constraints = [ClassicalConstraint(mask.astype(float), domain_probability)]
    if local_constraint is not None:
        if np.any(local_constraint.values[~mask] != 0):
            raise DomainError("local constraint must vanish outside the domain")
        constraints.append(local_constraint)
    report = solve_classical(prior, constraints, tol=SOLVE_TOL)
    post = report.posterior.weights[~mask]
    base = weights[~mask]
    deviation = float(np.max(np.abs(post / post.sum() - base / base.sum())))
    return PropertyResult("subdomain_independence", deviation, SUBDOMAIN_TOL)


def random_hermitian(rng: np.random.Generator, dim: int) -> HermitianOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return HermitianOperator((g + g.conj().T) / 2.0)


def random_density_matrix(rng: np.random.Generator, dim: int) -> DensityMatrix:
    """Normalized exp of a random Hermitian matrix; full rank up to dim 40.

    Its smallest weight falls like exp(-4 sqrt(dim)): of 20 draws from
    default_rng(0), is_full_rank() failed 1 at dim 48 and all from dim 56.
    """
    rho = matrix_exp(random_hermitian(rng, dim)).matrix
    return DensityMatrix(rho / np.trace(rho).real)


def random_classical_prior(rng: np.random.Generator, n: int) -> ClassicalDistribution:
    w = np.exp(rng.normal(size=n))
    return ClassicalDistribution(w / w.sum())


def _classical_realizable_targets(
    prior: ClassicalDistribution, values: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Targets realized by the canonical posterior at multipliers beta."""
    return values @ logsumexp(np.log(prior.weights) + values.T @ beta)[1]


def run_all_checks(seed: int = DEFAULT_SEED, trials: int = DEFAULT_TRIALS) -> list[PropertyResult]:
    """Run every check over seeded random instances and aggregate.

    Returns one PropertyResult per check with the worst deviation seen
    across all trials. Deterministic for a given (seed, trials) pair.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = np.random.default_rng(seed)
    # the first trial records each name once, in the order of the report
    worst: dict[str, PropertyResult] = {}

    def record(result: PropertyResult) -> None:
        # a NaN deviation ranks above every number, so it is never hidden
        worst[result.name] = max(
            worst.get(result.name, result), result,
            key=lambda r: (np.isnan(r.max_deviation), r.max_deviation),
        )

    for _ in range(trials):
        # prior recovery, classical and quantum
        record(check_prior_recovery(random_classical_prior(rng, int(rng.integers(2, 7)))))
        record(check_prior_recovery(random_density_matrix(rng, int(rng.integers(2, 5)))))

        # subsystem independence: one realizable constraint per qubit factor
        p1 = random_density_matrix(rng, 2)
        p2 = random_density_matrix(rng, 2)
        factor_constraints = []
        for p in (p1, p2):
            obs = random_hermitian(rng, 2)
            beta = float(rng.normal(scale=0.8))
            reference = posterior_from_multipliers(p, [obs], [beta])
            factor_constraints.append([QuantumConstraint(obs, expectation(reference, obs))])
        record(check_subsystem_independence(p1, p2, factor_constraints[0], factor_constraints[1]))

        # commuting reduction: diagonal problems with realizable targets;
        # keep k < n so the multipliers stay identifiable
        n = int(rng.integers(2, 7))
        prior = random_classical_prior(rng, n)
        k = int(rng.integers(1, min(3, n)))
        values = rng.normal(size=(k, n))
        beta = rng.normal(scale=0.5, size=k)
        targets = _classical_realizable_targets(prior, values, beta)
        record(check_commuting_reduction(prior.weights, list(values), targets))

        # zero multiplier: targets set to the prior's own expectations
        n = int(rng.integers(2, 7))
        prior = random_classical_prior(rng, n)
        vals = rng.normal(size=n)
        record(
            check_zero_multiplier(
                prior, ClassicalConstraint(vals, float(vals @ prior.weights))
            )
        )
        dim = int(rng.integers(2, 5))
        qprior = random_density_matrix(rng, dim)
        obs = random_hermitian(rng, dim)
        record(
            check_zero_multiplier(qprior, QuantumConstraint(obs, expectation(qprior, obs)))
        )

        # log tensor additivity on random full-rank factors
        d1 = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 4))
        record(
            check_log_tensor_additivity(
                random_density_matrix(rng, d1),
                random_density_matrix(rng, d1),
                random_density_matrix(rng, d2),
                random_density_matrix(rng, d2),
            )
        )

        # subdomain independence with realizable domain and local targets
        n = int(rng.integers(4, 9))
        prior = random_classical_prior(rng, n)
        size = int(rng.integers(1, n))
        members = rng.choice(n, size=size, replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[members] = True
        if size >= 2:
            local_values = np.zeros(n)
            local_values[mask] = rng.normal(size=size)
            beta = rng.normal(scale=0.5, size=2)
            targets = _classical_realizable_targets(
                prior, np.stack([mask.astype(float), local_values]), beta
            )
            record(
                check_subdomain_independence(
                    prior,
                    mask,
                    ClassicalConstraint(local_values, float(targets[1])),
                    domain_probability=float(targets[0]),
                )
            )
        else:
            record(check_subdomain_independence(prior, mask))

    detail = f"seed={seed} trials={trials}"
    return [replace(r, detail=detail) for r in worst.values()]
