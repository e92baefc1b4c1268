"""The Newton iteration on the convex dual, shared by the solvers, and its SolverReport.

Both the classical and the quantum solver minimize G(alpha) = ln Z(alpha)
- alpha.t, whose gradient is the residual vector <A> - t and whose
Hessian is a covariance of the observables. Both take ln Z and the Gibbs
weights from logsumexp and differ only in how the means and the
covariance are computed, which they hand to newton_dual. It raises
every InfeasibleTargetError: a target outside its row's range, from the
solver's bounds and spectrum, and jointly unreachable targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .errors import DomainError, InfeasibleTargetError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
RCOND = 1e-12
# backtracking halves the step from 1 down to 2^-39, about 1.8e-12
STEP_SCALES = 0.5 ** np.arange(40)


@dataclass
class SolverReport:
    """Outcome of a constrained update.

    posterior is a ClassicalDistribution or a DensityMatrix depending on
    the solver. log_partition is ln Z, which stays finite where Z
    overflows. For the classical and quantum solvers, converged means the
    residual max norm met the requested tolerance; the spin solver takes
    no tolerance, and reports converged for every multiplier it returns,
    the float at which F first reaches the target.
    """

    multipliers: np.ndarray
    log_partition: float
    posterior: Any
    residuals: np.ndarray
    iterations: int
    converged: bool

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals), initial=0.0))


def logsumexp(x: np.ndarray) -> tuple[float, np.ndarray]:
    """ln sum_i exp(x_i) and the weights exp(x_i) / sum_j exp(x_j), from one shifted exp.

    The weights are written over x, a float array, which is returned as
    them: a caller that needs x afterwards passes a copy.
    """
    shift = float(x.max())
    if not math.isfinite(shift):
        # all -inf gives -inf, any +inf gives +inf, a NaN stays NaN
        x.fill(np.nan)
        return shift, x
    # an entry whose difference overflows to -inf has weight 0, as it should
    with np.errstate(over="ignore"):
        x -= shift
    np.exp(x, out=x)
    total = float(x.sum())
    x /= total
    return shift + float(np.log(total)), x


def _norm(x: np.ndarray) -> float:
    """Euclidean norm, taken of x / max|x_i| so that it does not overflow."""
    big = float(np.max(np.abs(x), initial=0.0))
    return big * float(np.linalg.norm(x / big)) if big > 0 else 0.0


def _newton_step(
    hess: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray | None, Callable[[np.ndarray], float] | None, np.ndarray]:
    """One SVD of H gives the step, its metric decrement(r) and, as rows, H's null directions.

    Singular values above RCOND times the largest give the Newton step, or
    the pseudoinverse step if H is rank deficient, flat along the dropped
    singular vectors, and decrement(r) = r.H+r over the kept ones, so that
    decrement(grad) = -grad.step. A non-finite H or step, or a
    decrement(grad) outside (0, inf), gives (None, None, null): no step.
    """
    if not np.all(np.isfinite(hess)):
        return None, None, np.empty((0, len(grad)))
    u, s, vt = np.linalg.svd(hess)
    keep = s > RCOND * s[0]
    ut, sk, v = u[:, keep].T, s[keep], vt[keep].T

    def decrement(r: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return float(r @ (v @ ((ut @ r) / sk)))

    step = -v @ ((ut @ grad) / sk)
    if 0 < -(grad @ step) < np.inf:
        return step, decrement, vt[~keep]
    return None, None, vt[~keep]


def _trial_scales(step: np.ndarray, spectrum: Callable[[np.ndarray], np.ndarray]) -> Iterator[float]:
    """STEP_SCALES, then, once all fail, the positive ones of STEP_SCALES * ln(1 + W) / W.

    The step moves the exponent over a range W, spectrum(step)'s, so the
    damped one moves no weight by more than a factor 1 + W. W is taken as
    max|step| times the range of spectrum(step / max|step|), a range that
    must be positive and finite for a damped trial. Where W itself passes
    the float range, ln(1 + W) / W is formed from ln W, which does not.
    """
    yield from STEP_SCALES
    big = float(np.max(np.abs(step)))
    # a unit step whose spectrum overflows gives an infinite range, so no damped trial
    with np.errstate(over="ignore", invalid="ignore"):
        spec = spectrum(step / big)
        width = float(spec.max() - spec.min())
    if 0 < width < math.inf:
        total = big * width
        if total < math.inf:
            damp = math.log1p(total) / total
        else:
            damp = (math.log(big) + math.log(width)) / big / width
        scales = STEP_SCALES * damp
        # scales that underflow to 0 would retry alpha itself
        yield from scales[scales > 0]


def newton_dual(
    start: Callable[[], tuple[Any, float, np.ndarray]],
    targets: np.ndarray,
    bounds: tuple[np.ndarray, np.ndarray],
    evaluate: Callable[[np.ndarray], tuple[Any, float, np.ndarray]],
    hessian: Callable[[Any], np.ndarray],
    spectrum: Callable[[np.ndarray], np.ndarray],
    posterior: Callable[[Any], Any],
    tol: float,
    max_iter: int,
) -> SolverReport:
    """Minimize G(alpha) = ln Z(alpha) - alpha.t by damped Newton steps from alpha = 0.

    evaluate(alpha) does the one expensive computation per trial point
    and returns a state, ln Z and the gradient <A> - t there. start()
    returns that triple at alpha = 0, where the state is the normalized
    prior: each solver builds it from what the prior already holds, and
    evaluate runs only for line-search trials. start is a callable, not
    the triple, so that no caller's frame holds the starting state, for a
    classical problem one more length-n vector, until the solve returns.
    The driver holds one state at a time: it drops the accepted state once
    the step is computed, and each rejected trial before it evaluates the
    next, so a classical solve holds one Gibbs weight vector, not two.
    Where the line search stalls, the posterior's state is built again,
    by start() if no step was taken and else by evaluate(alpha); both are
    deterministic. hessian(state) is the covariance of the observables in
    that state, on both paths the Gram product of a centered,
    square-root-weighted factor, so positive semidefinite by construction;
    spectrum(d) gives the eigenvalues of sum_i d_i A_i (for a classical
    problem, its values on the states); posterior(state) is the reported
    posterior. The line search halves the step from 1, and then from the
    damped scale of _trial_scales, until a trial's gradient r has
    decrement(r) <= (1 - scale / 4)^2 decrement(grad) (_newton_step),
    Deuflhard's natural monotonicity test, which a NaN r fails; it reads
    no ln Z, so it needs nothing about how a solver rounds it. The
    iteration stops when max |gradient| <= tol, which an empty gradient
    meets at once: a problem with no targets returns the start.
    _certify may raise InfeasibleTargetError before the line search of a
    step that leaves more than tol of the gradient along a null direction
    of H, and once the iteration stops otherwise: where H gives no step
    (_newton_step), on a stalled line search or after max_iter steps. tol
    must be finite and positive and max_iter a non-negative integer,
    whatever the number of targets: a NaN tol stops the loop at once, -1
    never. bounds = (lo, hi) lie inside each row's spectral range; a
    target t_k outside them is decided by spectrum(e_k), and one not
    strictly inside that spectrum raises InfeasibleTargetError before tol,
    max_iter or start() are read.
    """
    lo, hi = bounds
    for k in np.flatnonzero(~((lo < targets) & (targets < hi))):
        spec = spectrum(np.identity(len(targets))[k])
        lo_k, hi_k, target = float(spec.min()), float(spec.max()), float(targets[k])
        if not (lo_k < target < hi_k):
            raise InfeasibleTargetError(
                f"constraint {k}: target {target!r} is not strictly inside "
                f"the spectral range ({lo_k!r}, {hi_k!r})"
            )
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    if not (isinstance(max_iter, (int, np.integer)) and max_iter >= 0):
        raise DomainError(f"max_iter must be a non-negative integer, got {max_iter!r}")
    alpha = np.zeros(len(targets))
    state, ln_z, grad = start()
    # what state holds from the first trial until one is accepted
    dropped = object()
    steps = 0
    stop = None
    while float(np.max(np.abs(grad), initial=0.0)) > tol:
        # an H or a step that overflows gives no step, so its overflow is no error
        with np.errstate(over="ignore", invalid="ignore"):
            step, decrement, null = _newton_step(hessian(state), grad)
        if steps == max_iter:
            stop = f"no convergence in {max_iter} iterations"
            break
        if step is None:
            stop = f"singular Hessian after {steps} iterations"
            break
        # residual along H's null space: alpha may be running off toward
        # a face of the reachable set
        if np.any(np.abs(null @ grad) > tol):
            _certify(null, alpha, grad, spectrum, targets, tol,
                     f"singular Hessian after {steps} iterations")
        bound = -(grad @ step)
        # one state at a time: the accepted one is dropped before the
        # first trial, and each rejected trial before the next
        state = dropped
        for scale in _trial_scales(step, spectrum):
            cand = alpha + scale * step
            cand_state = None
            cand_state, cand_ln_z, cand_grad = evaluate(cand)
            if decrement(cand_grad) <= (1 - scale / 4) ** 2 * bound:
                break
        else:
            stop = "line search stalled"
            break
        alpha, state, ln_z, grad = cand, cand_state, cand_ln_z, cand_grad
        steps += 1
    if stop:
        _certify(null, alpha, grad, spectrum, targets, tol, stop)
    if state is dropped:
        # the line search stalled after dropping the accepted state; both
        # builders are deterministic, so this is that state again
        cand_state = None
        state = (start() if steps == 0 else evaluate(alpha))[0]
    return SolverReport(
        multipliers=alpha,
        log_partition=ln_z,
        posterior=posterior(state),
        residuals=grad,
        iterations=steps,
        converged=bool(np.max(np.abs(grad), initial=0.0) <= tol),
    )


def _certify(
    null: np.ndarray,
    alpha: np.ndarray,
    grad: np.ndarray,
    spectrum: Callable[[np.ndarray], np.ndarray],
    targets: np.ndarray,
    tol: float,
    stop: str,
) -> None:
    """Raise InfeasibleTargetError if a direction d separates the targets from every state.

    For a unit d every state has sum_i d_i <A_i> <= max spectrum(d), so
    d.t - max spectrum(d) above a margin is a Farkas certificate that no
    state meets the targets. It is sound along any d and depends only on
    d's direction, so the decision does not depend on the units of the
    observables. stop says why the iteration ended, or is checked early.

    The candidates are alpha/|alpha| and -grad/|grad|, which separates
    where the mean <A> is the reachable point nearest to t, with margin 0,
    and each row of null, the unit Hessian null directions that the step's
    SVD dropped, signed so that -d.grad >= 0, with margin tol. Where
    sum_i d_i A_i is a constant c, every state has sum_i d_i <A_i> = c,
    spectrum(d) is that one point, and the test is -d.grad = |c - d.t| >
    tol: targets that contradict the dependency by more than tol. Targets
    that meet it exactly put d.t on c, where rounding can leave
    spectrum(d) on either side of d.t, so a margin of 0 would certify some
    feasible problems. The mean t + grad is a state's, so d.t - max
    spectrum(d) <= -d.grad: a candidate with -d.grad <= margin, never
    -grad/|grad|, is skipped before its eigensolve.
    """
    norm = _norm(alpha)
    candidates = [(v / _norm(v), 0.0) for v in (alpha, -grad) if _norm(v) > 0]
    candidates += [(d, tol) for d in null * -np.sign(null @ grad)[:, None]]
    for d, margin in candidates:
        if -(d @ grad) <= margin:
            continue
        top = float(spectrum(d).max())
        bound = float(d @ targets)
        if bound - top > margin:
            raise InfeasibleTargetError(
                f"{stop} at |alpha| = {norm:.3e}; along d = {np.array2string(d, precision=6)} "
                f"every state has sum_i d_i <A_i> <= {top!r} < d.t = {bound!r}, a Farkas "
                f"certificate that no state meets the targets: they are jointly infeasible"
            )
