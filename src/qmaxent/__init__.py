"""Relative-entropy updating of probability distributions and density matrices.

Given a prior and linear expectation-value constraints, the solvers
return the posterior of canonical form prior * exp(multipliers . observables)
(normalized), found by maximizing entropy relative to the prior. The
package covers discrete distributions, density matrices, an analytic
single-qubit solver used as a cross-check oracle, and an executable
suite of structural property checks.
"""

from .checks import (
    PropertyResult,
    check_commuting_reduction,
    check_log_tensor_additivity,
    check_prior_recovery,
    check_subdomain_independence,
    check_subsystem_independence,
    check_zero_multiplier,
    random_classical_prior,
    random_density_matrix,
    random_hermitian,
    run_all_checks,
)
from .classical import (
    ClassicalConstraint,
    ClassicalDistribution,
    relative_entropy,
    solve_classical,
)
from .errors import (
    DomainError,
    InfeasibleTargetError,
    ShapeError,
    SupportViolationError,
)
from .linalg import (
    HermitianOperator,
    matrix_exp,
    matrix_log,
    trace_product,
)
from .quantum import (
    DensityMatrix,
    QuantumConstraint,
    expectation,
    log_partition,
    posterior_from_multipliers,
    quantum_relative_entropy,
    solve_quantum,
)
from .report import SolverReport
from .spin import (
    SpinProblem,
    solve_spin,
    spin_constraint_value,
    spin_partition,
    spin_posterior,
)

__all__ = [
    "ClassicalConstraint",
    "ClassicalDistribution",
    "DensityMatrix",
    "DomainError",
    "HermitianOperator",
    "InfeasibleTargetError",
    "PropertyResult",
    "QuantumConstraint",
    "ShapeError",
    "SolverReport",
    "SpinProblem",
    "SupportViolationError",
    "check_commuting_reduction",
    "check_log_tensor_additivity",
    "check_prior_recovery",
    "check_subdomain_independence",
    "check_subsystem_independence",
    "check_zero_multiplier",
    "expectation",
    "log_partition",
    "matrix_exp",
    "matrix_log",
    "posterior_from_multipliers",
    "quantum_relative_entropy",
    "random_classical_prior",
    "random_density_matrix",
    "random_hermitian",
    "relative_entropy",
    "run_all_checks",
    "solve_classical",
    "solve_quantum",
    "solve_spin",
    "spin_constraint_value",
    "spin_partition",
    "spin_posterior",
    "trace_product",
]
