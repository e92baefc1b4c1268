"""Relative-entropy updating of discrete distributions.

Given a strictly positive prior and expectation constraints
sum_i rho_i A_j(x_i) = t_j, the posterior maximizing relative entropy is
rho_i = phi_i exp(sum_j alpha_j A_j(x_i)) / Z. The multipliers alpha are
found by Newton iteration on the convex dual G(alpha) = ln Z - alpha.t,
whose gradient is the residual vector and whose Hessian is the
constraint covariance under the current iterate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import PINV_RCOND, certify_dependency
from .errors import (
    DomainError,
    InfeasibleTargetError,
    ShapeError,
    SupportViolationError,
)
from .report import SolverReport

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DIVERGENCE_NORM = 1e3


def logsumexp(x: np.ndarray) -> float:
    """ln sum_i exp(x_i), shifted by the largest entry so no term overflows."""
    shift = float(np.max(x))
    if not np.isfinite(shift):
        # all -inf gives -inf, any +inf gives +inf, a NaN stays NaN
        return shift
    return shift + float(np.log(np.sum(np.exp(x - shift))))


class ClassicalDistribution:
    """Nonnegative weights over a finite ordered set of states."""

    def __init__(self, weights, normalized: bool | None = None):
        arr = np.asarray(weights, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError(f"weights must be a nonempty vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("weights must be finite")
        if np.any(arr < 0):
            raise DomainError("weights must be nonnegative")
        total = float(arr.sum())
        if total <= 0:
            raise DomainError("total weight must be positive")
        if normalized is None:
            normalized = abs(total - 1.0) <= 1e-12
        elif normalized and abs(total - 1.0) > 1e-12:
            raise DomainError(f"declared normalized but total weight is {total!r}")
        self.weights = arr.copy()
        self.weights.setflags(write=False)
        self.normalized = bool(normalized)

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def normalize(self) -> "ClassicalDistribution":
        if self.normalized:
            return self
        return ClassicalDistribution(self.weights / self.total, normalized=True)

    def __repr__(self) -> str:
        return f"ClassicalDistribution(n={self.n}, normalized={self.normalized})"


@dataclass(frozen=True, eq=False)
class ClassicalConstraint:
    """Expectation constraint: sum_i rho_i values[i] = target."""

    values: np.ndarray
    target: float

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError(f"constraint values must be a nonempty vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("constraint values must be finite")
        if not np.isfinite(self.target):
            raise DomainError("constraint target must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "target", float(self.target))


def relative_entropy(
    rho: ClassicalDistribution, phi: ClassicalDistribution, variant: str = "full"
) -> float:
    """Entropy of rho relative to phi.

    variant "full": -sum_i (rho_i ln(rho_i/phi_i) - rho_i), which is
    sum rho - sum rho ln(rho/phi). variant "normalized" drops the linear
    term: -sum_i rho_i ln(rho_i/phi_i). Terms with rho_i = 0 contribute
    zero (0 ln 0 = 0); rho may not have weight where phi has none.
    """
    if variant not in ("full", "normalized"):
        raise ValueError(f"unknown variant {variant!r}")
    if rho.n != phi.n:
        raise ShapeError(f"length mismatch: {rho.n} vs {phi.n}")
    r, p = rho.weights, phi.weights
    support = r > 0
    if np.any(support & (p == 0)):
        raise SupportViolationError("rho has weight where phi vanishes")
    s = float(np.sum(r[support] * np.log(r[support] / p[support])))
    if variant == "normalized":
        return -s
    return float(r.sum()) - s


def _check_problem(
    prior: ClassicalDistribution, constraints: Sequence[ClassicalConstraint]
) -> tuple[np.ndarray, np.ndarray]:
    if np.any(prior.weights == 0):
        raise DomainError("prior must be strictly positive entrywise")
    for k, c in enumerate(constraints):
        if c.values.size != prior.n:
            raise ShapeError(
                f"constraint {k} has {c.values.size} values for {prior.n} states"
            )
        lo, hi = float(c.values.min()), float(c.values.max())
        if not (lo < c.target < hi):
            raise InfeasibleTargetError(
                f"constraint {k}: target {c.target!r} is not strictly inside "
                f"({lo!r}, {hi!r})"
            )
    if constraints:
        a = np.stack([c.values for c in constraints])
        t = np.array([c.target for c in constraints])
    else:
        a = np.zeros((0, prior.n))
        t = np.zeros(0)
    return a, t


def _bisect_single(
    ln_phi: np.ndarray, a: np.ndarray, target: float, tol: float, max_iter: int
) -> tuple[float, int]:
    """Bisection on the monotone map alpha -> E_alpha[A] for one constraint."""

    def mean(alpha: float) -> float:
        ln_w = ln_phi + alpha * a
        return float(np.dot(a, np.exp(ln_w - logsumexp(ln_w))))

    lo, hi = -1.0, 1.0
    for _ in range(300):
        if mean(lo) < target:
            break
        lo *= 2.0
    for _ in range(300):
        if mean(hi) > target:
            break
        hi *= 2.0
    if not (mean(lo) < target < mean(hi)):
        raise InfeasibleTargetError(
            f"failed to bracket a multiplier for target {target!r}"
        )
    alpha = 0.5 * (lo + hi)
    steps = 0
    for steps in range(1, max_iter + 1):
        alpha = 0.5 * (lo + hi)
        r = mean(alpha) - target
        if abs(r) <= tol:
            break
        if r < 0:
            lo = alpha
        else:
            hi = alpha
    return alpha, steps


def solve_classical(
    prior: ClassicalDistribution,
    constraints: Sequence[ClassicalConstraint],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolverReport:
    """Multipliers and posterior for a classical constrained update.

    Targets must be strictly inside the range of their observable values;
    boundary or exterior targets raise InfeasibleTargetError, as does a
    diverging iteration (|alpha| beyond 1e3 signals a jointly infeasible
    target set) and a stalled line search along a Hessian null direction
    d whose combination sum_i d_i A_i is a constant the targets
    contradict. Hitting max_iter returns a report with converged=False.
    """
    constraints = list(constraints)
    a, t = _check_problem(prior, constraints)
    m = len(constraints)
    ln_phi = np.log(prior.weights)

    if m == 0:
        total = prior.total
        return SolverReport(
            multipliers=np.zeros(0),
            partition_value=total,
            log_partition=float(np.log(total)),
            posterior=prior.normalize(),
            residuals=np.zeros(0),
            iterations=0,
            converged=True,
        )

    def evaluate(alpha: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        # the one logsumexp per dual evaluation: ln Z, rho and the residuals
        ln_w = ln_phi + a.T @ alpha
        ln_z = logsumexp(ln_w)
        rho = np.exp(ln_w - ln_z)
        return ln_z, rho, a @ rho - t

    alpha = np.zeros(m)
    steps = 0
    ln_z, rho, grad = evaluate(alpha)
    for _ in range(max_iter):
        if np.max(np.abs(grad)) <= tol:
            break
        mean = a @ rho
        centered = a - mean[:, None]
        hess = (centered * rho) @ centered.T
        # a rank-deficient constraint family leaves the dual flat along a
        # subspace; the pseudoinverse step stays out of it
        if not np.all(np.isfinite(hess)) or np.linalg.cond(hess) > 1e12:
            step = -np.linalg.pinv(hess, rcond=PINV_RCOND) @ grad
        else:
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = -np.linalg.pinv(hess, rcond=PINV_RCOND) @ grad
        if not np.all(np.isfinite(step)) or float(grad @ step) >= 0:
            step = -grad
        # backtrack on the residual norm: the dual value flattens to
        # rounding noise near the optimum, the gradient does not
        grad_norm = float(np.linalg.norm(grad))
        scale = 1.0
        accepted = False
        while scale >= 1e-12:
            cand = alpha + scale * step
            cand_ln_z, cand_rho, cand_grad = evaluate(cand)
            if float(np.linalg.norm(cand_grad)) < grad_norm:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            certify_dependency(hess, grad, lambda d: d @ a, np.abs(a).max(axis=1), tol)
            break
        alpha, ln_z, rho, grad = cand, cand_ln_z, cand_rho, cand_grad
        steps += 1
        if float(np.linalg.norm(alpha)) > DIVERGENCE_NORM:
            raise InfeasibleTargetError(
                "multiplier norm exceeded 1e3; targets are jointly infeasible"
            )

    if np.max(np.abs(grad)) > tol and m == 1:
        alpha_1, extra = _bisect_single(ln_phi, a[0], t[0], tol, max_iter)
        alpha = np.array([alpha_1])
        steps += extra
        ln_z, rho, grad = evaluate(alpha)

    return SolverReport(
        multipliers=alpha,
        partition_value=float(np.exp(ln_z)),
        log_partition=ln_z,
        posterior=ClassicalDistribution(rho, normalized=True),
        residuals=grad,
        iterations=steps,
        converged=bool(np.max(np.abs(grad)) <= tol),
    )
