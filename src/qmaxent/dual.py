"""The Newton iteration on the convex dual, shared by the solvers.

Both the classical and the quantum solver minimize G(alpha) = ln Z(alpha)
- alpha.t, whose gradient is the residual vector <A> - t and whose
Hessian is a covariance of the observables. They differ only in how ln Z,
the means and the covariance are computed, which they hand to
newton_dual.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .errors import DomainError, InfeasibleTargetError
from .report import SolverReport

RCOND = 1e-12
DEPENDENCY_RTOL = 1e-12
ARMIJO = 1e-4
# backtracking halves the step from 1 down to 2^-39, about 1.8e-12
STEP_SCALES = 0.5 ** np.arange(40)
ROUNDING = 64 * np.finfo(float).eps


def _norm(x: np.ndarray) -> float:
    """Euclidean norm, taken of x / max|x_i| so that it does not overflow."""
    big = float(np.max(np.abs(x)))
    return big * float(np.linalg.norm(x / big)) if big > 0 else 0.0


def _newton_step(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One SVD of H gives the step and, as rows, H's null directions.

    Singular values above RCOND times the largest give the Newton step, or
    the pseudoinverse step if H is rank deficient, flat along the dropped
    singular vectors; a non-finite H or a non-descent step gives -grad.
    """
    if not np.all(np.isfinite(hess)):
        return -grad, np.empty((0, len(grad)))
    u, s, vt = np.linalg.svd(hess)
    keep = s > RCOND * s[0]
    step = -vt[keep].T @ ((u[:, keep].T @ grad) / s[keep])
    if not (np.all(np.isfinite(step)) and float(grad @ step) < 0):
        step = -grad
    return step, vt[~keep]


def newton_dual(
    alpha: np.ndarray,
    targets: np.ndarray,
    evaluate: Callable[[np.ndarray], tuple[Any, float, np.ndarray]],
    hessian: Callable[[Any], np.ndarray],
    spectrum: Callable[[np.ndarray], np.ndarray],
    posterior: Callable[[Any], Any],
    tol: float,
    max_iter: int,
) -> SolverReport:
    """Minimize G(alpha) = ln Z(alpha) - alpha.t by damped Newton steps from alpha.

    evaluate(alpha) does the one expensive computation per trial point
    and returns a state, ln Z and the gradient <A> - t there; hessian(state)
    is the covariance of the observables in that state; spectrum(d) gives
    the eigenvalues of sum_i d_i A_i (for a classical problem, its values
    on the states); posterior(state) is the reported posterior. The
    iteration stops when max |gradient| <= tol. If it stops otherwise, on
    a stalled line search or after max_iter steps, _certify may raise
    InfeasibleTargetError. tol must be finite and positive and max_iter a
    non-negative integer: a NaN tol stops the loop at once, -1 never.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise DomainError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    state, ln_z, grad = evaluate(alpha)
    steps = 0
    stop = None
    while float(np.max(np.abs(grad))) > tol:
        step, null = _newton_step(hessian(state), grad)
        if steps == max_iter:
            stop = f"no convergence in {max_iter} iterations"
            break
        # Armijo decrease of G, except where the predicted decrease is
        # within the rounding error of G itself, near the optimum: there a
        # smaller residual norm is accepted, since the gradient stays
        # accurate down to machine scale and G does not
        g0 = ln_z - float(alpha @ targets)
        noise = ROUNDING * (abs(ln_z) + _norm(alpha) * _norm(targets))
        slope = float(grad @ step)
        grad_norm = float(np.linalg.norm(grad))
        for scale in STEP_SCALES:
            cand = alpha + scale * step
            cand_state, cand_ln_z, cand_grad = evaluate(cand)
            if -scale * slope > noise:
                if cand_ln_z - float(cand @ targets) <= g0 + ARMIJO * scale * slope:
                    break
            elif float(np.linalg.norm(cand_grad)) < grad_norm:
                break
        else:
            stop = "line search stalled"
            break
        alpha, state, ln_z, grad = cand, cand_state, cand_ln_z, cand_grad
        steps += 1
    if stop:
        _certify(null, grad, alpha, spectrum, targets, tol, stop)
    return SolverReport(
        multipliers=alpha,
        log_partition=ln_z,
        posterior=posterior(state),
        residuals=grad,
        iterations=steps,
        converged=bool(np.max(np.abs(grad)) <= tol),
    )


def _certify(
    null: np.ndarray,
    grad: np.ndarray,
    alpha: np.ndarray,
    spectrum: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    tol: float,
    stop: str,
) -> None:
    """Raise InfeasibleTargetError if a certificate proves the targets jointly unreachable.

    Both certificates are sound, so neither fires on a feasible problem,
    and both are relative, so the decision does not depend on the units
    of the observables. stop says why the iteration ended.

    Dependency: candidates are the rows d of null, the unit Hessian null
    directions that the step's SVD dropped. When the spectrum of sum_i
    d_i A_i spans at most DEPENDENCY_RTOL of sum_i |d_i| norm(A_i), with
    norm the largest absolute eigenvalue, sum_i d_i A_i is a constant c
    to rounding: the sum may cancel to noise, so its own size is no
    yardstick. Then every state has sum_i d_i <A_i> = c, and the residual
    component d.grad = c - d.t is the same at every alpha. If it exceeds
    tol, no state meets the targets.

    Separation (Farkas): with d = alpha / |alpha|, every state has
    sum_i d_i <A_i> <= max spectrum(d); if that bound lies below d.t, no
    state meets the targets. Only the direction of alpha matters.
    """
    if len(null):
        norms = np.array([np.abs(spectrum(e)).max() for e in np.eye(null.shape[1])])
    for d in null:
        spec = spectrum(d)
        if float(spec.max() - spec.min()) > DEPENDENCY_RTOL * float(np.abs(d) @ norms):
            continue
        miss = float(d @ grad)
        if abs(miss) > tol:
            raise InfeasibleTargetError(
                f"along d = {np.array2string(d, precision=6)} the observables combine "
                f"to a constant, so sum_i d_i <A_i> is the same for every state, but "
                f"the targets miss it by {miss!r}: they contradict an exact linear "
                f"dependency and are jointly infeasible"
            )
    norm = _norm(alpha)
    if norm == 0.0:
        return
    d = alpha / norm
    top = float(spectrum(d).max())
    bound = float(d @ targets)
    if top < bound:
        raise InfeasibleTargetError(
            f"{stop} at |alpha| = {norm:.3e}; along d = alpha/|alpha| every state has "
            f"sum_i d_i <A_i> <= {top!r} < d.t = {bound!r}, a Farkas certificate that "
            f"no state meets the targets: they are jointly infeasible"
        )
