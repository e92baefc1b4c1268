"""Relative-entropy updating of density matrices.

The posterior for expectation constraints Tr(rho A_i) = t_i over a
full-rank prior phi is rho = exp(sum_i alpha_i A_i + ln phi) / Z with
Z = Tr exp(...). The multipliers solve the convex dual
G(alpha) = ln Z(alpha) - alpha.t whose gradient components are
Tr(rho(alpha) A_i) - t_i and whose Hessian is the Bogoliubov-Kubo-Mori
covariance of the observables. Both are exact and come from the same
eigendecomposition of C = ln phi + sum_i alpha_i A_i, which also gives
rho and ln Z: a Newton step costs one Hermitian eigendecomposition per
line-search trial and none besides. An ill-conditioned Hessian is
inverted by pseudoinverse, as in the classical solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dual import PINV_RCOND, certify_dependency
from .errors import DomainError, InfeasibleTargetError, ShapeError
from .linalg import HermitianOperator, matrix_log, trace_product
from .report import SolverReport

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DIVERGENCE_NORM = 1e3
FULL_RANK_EIG = 1e-12
PSD_EIG_TOL = -1e-12
CONDITION_LIMIT = 1e12


class DensityMatrix:
    """A positive semidefinite Hermitian matrix with positive trace."""

    def __init__(self, matrix, trace_tol: float = 1e-10, normalized: bool | None = None):
        op = matrix if isinstance(matrix, HermitianOperator) else HermitianOperator(matrix)
        eigenvalues = np.linalg.eigvalsh(op.matrix)
        if eigenvalues[0] < PSD_EIG_TOL:
            raise DomainError(
                f"matrix is not positive semidefinite: smallest eigenvalue "
                f"{eigenvalues[0]:.3e}"
            )
        trace = float(np.trace(op.matrix).real)
        if trace <= 0:
            raise DomainError("trace must be positive")
        if normalized is None:
            normalized = abs(trace - 1.0) <= trace_tol
        elif normalized and abs(trace - 1.0) > trace_tol:
            raise DomainError(f"declared normalized but trace is {trace!r}")
        self.op = op
        self.eigenvalues = eigenvalues
        self.eigenvalues.setflags(write=False)
        self.trace = trace
        self.normalized = bool(normalized)

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def dim(self) -> int:
        return self.op.dim

    def is_full_rank(self) -> bool:
        return float(self.eigenvalues[0]) > FULL_RANK_EIG

    def normalize(self) -> "DensityMatrix":
        if self.normalized:
            return self
        return DensityMatrix(self.matrix / self.trace, normalized=True)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, normalized={self.normalized})"


@dataclass(frozen=True, eq=False)
class QuantumConstraint:
    """Expectation constraint: Tr(rho observable) = target."""

    observable: HermitianOperator
    target: float

    def __post_init__(self):
        obs = self.observable
        if not isinstance(obs, HermitianOperator):
            obs = HermitianOperator(obs)
        if not np.isfinite(self.target):
            raise DomainError("constraint target must be finite")
        object.__setattr__(self, "observable", obs)
        object.__setattr__(self, "target", float(self.target))


def expectation(rho: DensityMatrix, observable: HermitianOperator) -> float:
    """Tr(rho A), real for Hermitian operands."""
    return trace_product(rho.op, observable)


def _require_full_rank(phi: DensityMatrix, role: str) -> None:
    if not phi.is_full_rank():
        raise DomainError(
            f"{role} must be full rank: smallest eigenvalue "
            f"{float(phi.eigenvalues[0]):.3e} is not above {FULL_RANK_EIG:.0e}"
        )


def quantum_relative_entropy(
    rho: DensityMatrix, phi: DensityMatrix, variant: str = "full"
) -> float:
    """Entropy of rho relative to phi.

    variant "full": -Tr(rho ln rho - rho ln phi - rho); variant
    "umegaki": -Tr(rho ln rho - rho ln phi), the negative of the usual
    divergence. Zero eigenvalues of rho contribute nothing (0 ln 0 = 0);
    phi must be full rank.
    """
    if variant not in ("full", "umegaki"):
        raise ValueError(f"unknown variant {variant!r}")
    if rho.dim != phi.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {phi.dim}")
    _require_full_rank(phi, "phi")
    vals = rho.eigenvalues
    positive = vals[vals > 0]
    tr_rho_ln_rho = float(np.sum(positive * np.log(positive)))
    ln_phi = matrix_log(phi.op, domain_guard=FULL_RANK_EIG)
    tr_rho_ln_phi = trace_product(rho.op, ln_phi)
    umegaki = -(tr_rho_ln_rho - tr_rho_ln_phi)
    if variant == "umegaki":
        return umegaki
    return umegaki + rho.trace


def _exponent(ln_phi: np.ndarray, obs_arrays: Sequence[np.ndarray], alphas) -> np.ndarray:
    """C = ln phi + sum_i alpha_i A_i as a fresh array."""
    c = ln_phi.copy()
    for a, obs in zip(alphas, obs_arrays):
        c += float(a) * obs
    return c


def _exponent_matrix(
    phi: DensityMatrix,
    observables: Sequence[HermitianOperator],
    alphas: np.ndarray,
) -> np.ndarray:
    _require_full_rank(phi, "prior")
    if len(observables) != len(alphas):
        raise ShapeError(
            f"{len(observables)} observables but {len(alphas)} multipliers"
        )
    for obs in observables:
        if obs.dim != phi.dim:
            raise ShapeError(f"observable dim {obs.dim} does not match prior dim {phi.dim}")
    ln_phi = matrix_log(phi.op, domain_guard=FULL_RANK_EIG).matrix
    return _exponent(ln_phi, [obs.matrix for obs in observables], alphas)


def _gibbs_weights(vals: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights exp(vals) / Z and ln Z for ascending eigenvalues, without overflow."""
    shift = vals[-1]
    w = np.exp(vals - shift)
    total = float(w.sum())
    return w / total, float(shift + np.log(total))


class _GibbsState(NamedTuple):
    """Eigendecomposition of Hermitian C, ln Tr exp(C) and exp(C) / Tr exp(C)."""

    vals: np.ndarray
    vecs: np.ndarray
    ln_z: float
    rho: np.ndarray


def _gibbs_state(c: np.ndarray) -> _GibbsState:
    """The Gibbs state of C from one eigendecomposition."""
    vals, vecs = np.linalg.eigh(c)
    p, ln_z = _gibbs_weights(vals)
    rho = (vecs * p) @ vecs.conj().T
    return _GibbsState(vals, vecs, ln_z, (rho + rho.conj().T) / 2.0)


def _bkm_covariance(
    vals: np.ndarray, vecs: np.ndarray, obs_arrays: Sequence[np.ndarray]
) -> np.ndarray:
    """Hessian of ln Tr exp(C) in the multipliers, from the eigendecomposition of C.

    This is the Bogoliubov-Kubo-Mori covariance of the observables in the
    Gibbs state of C. With B_i = V^dag A_i V in the eigenbasis and Gibbs
    weights p, H_ij = Re sum_kl K_kl (B_i)_kl conj((B_j)_kl) - <A_i><A_j>,
    where K_kl = (p_k - p_l) / (lambda_k - lambda_l) is the divided
    difference of the Gibbs weights (Daleckii-Krein). It is evaluated as
    max(p_k, p_l) (1 - exp(-|lambda_k - lambda_l|)) / |lambda_k - lambda_l|,
    which cannot overflow and tends to p_k as the gap closes, so equal
    and nearly equal eigenvalues need no cutoff.
    """
    p, _ = _gibbs_weights(vals)
    gap = np.abs(vals[:, None] - vals[None, :])
    closed = gap == 0.0
    ratio = -np.expm1(-gap) / np.where(closed, 1.0, gap)
    ratio[closed] = 1.0
    kernel = np.maximum(p[:, None], p[None, :]) * ratio
    vh = vecs.conj().T
    # one d x d array per observable; a stacked (m, d, d) tensor costs
    # noticeably more peak memory at m = 16, d = 64
    rotated = [vh @ obs @ vecs for obs in obs_arrays]
    means = np.array([float(p @ np.diagonal(b).real) for b in rotated])
    m = len(rotated)
    hess = np.empty((m, m))
    for j in range(m):
        weighted = kernel * rotated[j]
        for i in range(j + 1):
            hess[i, j] = hess[j, i] = np.vdot(rotated[i], weighted).real
    return hess - np.outer(means, means)


def posterior_from_multipliers(
    phi: DensityMatrix,
    observables: Sequence[HermitianOperator],
    alphas,
) -> tuple[DensityMatrix, float]:
    """Canonical posterior exp(sum_i alpha_i A_i + ln phi)/Z and Z."""
    alphas = np.asarray(alphas, dtype=float)
    state = _gibbs_state(_exponent_matrix(phi, observables, alphas))
    return DensityMatrix(state.rho, normalized=True), float(np.exp(state.ln_z))


def log_partition(
    phi: DensityMatrix,
    observables: Sequence[HermitianOperator],
    alphas,
) -> float:
    """ln Tr exp(sum_i alpha_i A_i + ln phi), computed without overflow."""
    alphas = np.asarray(alphas, dtype=float)
    vals = np.linalg.eigvalsh(_exponent_matrix(phi, observables, alphas))
    return _gibbs_weights(vals)[1]


def _check_feasible(constraints: Sequence[QuantumConstraint], dim: int) -> None:
    for k, c in enumerate(constraints):
        if c.observable.dim != dim:
            raise ShapeError(
                f"constraint {k} has dim {c.observable.dim}, prior has dim {dim}"
            )
        spec = np.linalg.eigvalsh(c.observable.matrix)
        lo, hi = float(spec[0]), float(spec[-1])
        if not (lo < c.target < hi):
            raise InfeasibleTargetError(
                f"constraint {k}: target {c.target!r} is not strictly inside "
                f"the spectral range ({lo!r}, {hi!r})"
            )


def _combination(obs_arrays: Sequence[np.ndarray], d: np.ndarray) -> np.ndarray:
    """sum_i d_i A_i."""
    return sum(float(di) * obs for di, obs in zip(d, obs_arrays))


def _certify_infeasible(
    alpha: np.ndarray, obs_arrays: Sequence[np.ndarray], targets: np.ndarray
) -> None:
    """Raise InfeasibleTargetError if the direction of alpha proves the targets unreachable.

    With d = alpha / |alpha|, every state rho has
    sum_i d_i Tr(rho A_i) <= lambda_max(sum_i d_i A_i); if that bound lies
    below d.t, no state meets all targets (a Farkas certificate). The test
    depends only on the direction of alpha, not on its size.
    """
    norm = float(np.linalg.norm(alpha))
    if norm == 0.0:
        return
    d = alpha / norm
    top = float(np.linalg.eigvalsh(_combination(obs_arrays, d))[-1])
    bound = float(d @ targets)
    if top < bound:
        raise InfeasibleTargetError(
            f"line search stalled at |alpha| = {norm:.3e}; along d = alpha/|alpha| "
            f"every state has sum_i d_i <A_i> <= {top!r} < d.t = {bound!r}, a Farkas "
            f"certificate that no state meets the targets: they are jointly infeasible"
        )


def solve_quantum(
    prior: DensityMatrix,
    constraints: Sequence[QuantumConstraint],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    initial_multipliers=None,
) -> SolverReport:
    """Multipliers and posterior for a quantum constrained update.

    The prior must be full rank and normalized. Targets must lie strictly
    inside each observable's spectral range. Three exits report a target
    set as jointly infeasible with InfeasibleTargetError: the multiplier
    norm growing beyond 1e3, and a stalled line search with a certificate,
    either a Hessian null direction d along which sum_i d_i A_i is a
    constant that the targets contradict, or a direction alpha/|alpha|
    that separates the targets from every state. A stall without a
    certificate, or hitting max_iter, returns a report with
    converged=False.
    """
    _require_full_rank(prior, "prior")
    if not prior.normalized:
        raise DomainError("prior must be normalized (unit trace)")
    constraints = list(constraints)
    _check_feasible(constraints, prior.dim)
    m = len(constraints)

    if m == 0:
        return SolverReport(
            multipliers=np.zeros(0),
            partition_value=prior.trace,
            log_partition=float(np.log(prior.trace)),
            posterior=prior,
            residuals=np.zeros(0),
            iterations=0,
            converged=True,
        )

    obs_arrays = [c.observable.matrix for c in constraints]
    targets = np.array([c.target for c in constraints])
    ln_phi = matrix_log(prior.op, domain_guard=FULL_RANK_EIG).matrix

    def evaluate(alpha: np.ndarray) -> tuple[_GibbsState, np.ndarray]:
        # the one eigendecomposition per dual evaluation
        state = _gibbs_state(_exponent(ln_phi, obs_arrays, alpha))
        means = np.array([float(np.sum(obs * state.rho.T).real) for obs in obs_arrays])
        return state, means - targets

    if initial_multipliers is None:
        alpha = np.zeros(m)
    else:
        alpha = np.asarray(initial_multipliers, dtype=float).copy()
        if alpha.shape != (m,):
            raise ShapeError(f"initial multipliers must have shape ({m},)")

    steps = 0
    state, grad = evaluate(alpha)
    for _ in range(max_iter):
        if float(np.max(np.abs(grad))) <= tol:
            break
        hess = _bkm_covariance(state.vals, state.vecs, obs_arrays)
        # a rank-deficient constraint family leaves the dual flat along a
        # subspace; the pseudoinverse step stays out of it
        if np.all(np.isfinite(hess)) and np.linalg.cond(hess) <= CONDITION_LIMIT:
            step = np.linalg.solve(hess, -grad)
        else:
            step = -np.linalg.pinv(hess, rcond=PINV_RCOND) @ grad
        if float(grad @ step) >= 0:
            step = -grad
        # backtrack on the residual norm: unlike the dual value, the
        # gradient stays accurate near the optimum, so this comparison
        # is meaningful all the way down to machine scale
        grad_norm = float(np.linalg.norm(grad))
        scale = 1.0
        accepted = False
        while scale >= 1e-12:
            cand = alpha + scale * step
            cand_state, cand_grad = evaluate(cand)
            if float(np.linalg.norm(cand_grad)) < grad_norm:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            # the Frobenius norm bounds the spectral norm
            norms = np.array([np.linalg.norm(obs) for obs in obs_arrays])
            certify_dependency(
                hess, grad, lambda d: np.linalg.eigvalsh(_combination(obs_arrays, d)), norms, tol
            )
            _certify_infeasible(alpha, obs_arrays, targets)
            break
        alpha, state, grad = cand, cand_state, cand_grad
        steps += 1
        if float(np.linalg.norm(alpha)) > DIVERGENCE_NORM:
            raise InfeasibleTargetError(
                "multiplier norm exceeded 1e3; targets are jointly infeasible"
            )

    return SolverReport(
        multipliers=alpha,
        partition_value=float(np.exp(state.ln_z)),
        log_partition=state.ln_z,
        posterior=DensityMatrix(state.rho, normalized=True),
        residuals=grad,
        iterations=steps,
        converged=bool(np.max(np.abs(grad)) <= tol),
    )
