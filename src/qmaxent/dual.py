"""Pieces of the Newton iteration on the convex dual shared by the solvers.

Both the classical and the quantum solver minimize G(alpha) = ln Z(alpha)
- alpha.t, whose gradient is the residual vector <A> - t and whose
Hessian is a covariance of the observables.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InfeasibleTargetError

PINV_RCOND = 1e-12
DEPENDENCY_RTOL = 1e-12


def certify_dependency(
    hess: np.ndarray,
    grad: np.ndarray,
    spectrum: Callable[[np.ndarray], np.ndarray],
    norms: np.ndarray,
    tol: float,
) -> None:
    """Raise InfeasibleTargetError if the targets contradict an exact linear dependency.

    Candidates are the Hessian's null directions d: unit eigenvectors whose
    eigenvalue is at most PINV_RCOND times the largest, the cutoff of the
    pseudoinverse step. spectrum(d) gives the spectrum of sum_i d_i A_i
    (for a classical problem, its values on the states), and norms[i]
    bounds the spectrum of A_i. When that spectrum spans at most
    DEPENDENCY_RTOL of sum_i |d_i| norms[i], sum_i d_i A_i is a constant c
    to rounding: the sum may cancel to noise, so its own size is no
    yardstick. Then every state has sum_i d_i <A_i> = c, and the residual
    component d.grad = c - d.t is the same at every alpha. If it exceeds
    tol, no state meets the targets. Both tests are relative, so the
    decision does not depend on the units of the observables.
    """
    if not np.all(np.isfinite(hess)):
        return
    vals, vecs = np.linalg.eigh(hess)
    for d in vecs[:, vals <= PINV_RCOND * vals[-1]].T:
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
