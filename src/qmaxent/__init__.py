"""Relative-entropy updating of probability distributions and density matrices.

Given a prior and linear expectation-value constraints, the solvers
return the posterior of canonical form prior * exp(multipliers . observables)
(normalized), found by maximizing entropy relative to the prior. The
package covers discrete distributions, density matrices, an analytic
single-qubit solver used as a cross-check oracle, and an executable
suite of structural property checks.

``import qmaxent`` loads no submodule and so not numpy: each public name,
and each submodule, is imported on first use (PEP 562) and kept here
after that. This lets ``python -m qmaxent`` choose its BLAS thread count
before numpy starts (see __main__).
"""

import importlib

# public name -> the submodule that defines it
_HOME = {
    "ClassicalConstraint": "classical",
    "ClassicalDistribution": "classical",
    "DensityMatrix": "quantum",
    "DomainError": "errors",
    "HermitianOperator": "linalg",
    "InfeasibleTargetError": "errors",
    "PropertyResult": "checks",
    "QuantumConstraint": "quantum",
    "ShapeError": "errors",
    "SolverReport": "dual",
    "SpinProblem": "spin",
    "SupportViolationError": "errors",
    "check_commuting_reduction": "checks",
    "check_log_tensor_additivity": "checks",
    "check_prior_recovery": "checks",
    "check_subdomain_independence": "checks",
    "check_subsystem_independence": "checks",
    "check_zero_multiplier": "checks",
    "expectation": "quantum",
    "log_partition": "quantum",
    "posterior_from_multipliers": "quantum",
    "quantum_relative_entropy": "quantum",
    "random_classical_prior": "checks",
    "random_density_matrix": "checks",
    "random_hermitian": "checks",
    "relative_entropy": "classical",
    "run_all_checks": "checks",
    "solve_classical": "classical",
    "solve_quantum": "quantum",
    "solve_spin": "spin",
    "spin_constraint_value": "spin",
    "spin_posterior": "spin",
    "trace_product": "linalg",
}

__all__ = sorted(_HOME)

# reached as qmaxent.<name> after a plain import qmaxent, as when the
# package imported them all
_SUBMODULES = frozenset(_HOME.values()) | {"cli", "dual", "serialization"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule here, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    # cached, so later lookups skip this function, and where tools that
    # walk the module's namespace find it
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
