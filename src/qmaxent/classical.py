"""Relative-entropy updating of discrete distributions.

Given a strictly positive prior and expectation constraints
sum_i rho_i A_j(x_i) = t_j, the posterior maximizing relative entropy is
rho_i = phi_i exp(sum_j alpha_j A_j(x_i)) / Z. The multipliers alpha are
found by Newton iteration on the convex dual G(alpha) = ln Z - alpha.t,
whose gradient is the residual vector and whose Hessian is the
constraint covariance under the current iterate. Each evaluation takes
one exp of the exponent shifted by its largest entry and divides it by
its own sum (qmaxent.dual.logsumexp, which the quantum solver applies to
the eigenvalues of C), so the weights sum to 1 whatever ln Z is; it
writes them over the exponent, so an evaluation makes one length-n
vector. The iteration starts at alpha = 0, whose exponent is a copy of
ln phi, so the start skips a^T alpha, one of an evaluation's two passes
over the block.

A distribution holds a read-only view of its weights and a constraint
one of its values, not copies; a solve checks both where it reads them.
Where the m x n constraint block takes at most STACK_BYTES, a solve
stacks its own copy of the values, which it checks row by row, and
then uses exactly the values it checked. Above that it reads the
constraints' own arrays in place, after checking each, so they must
not change during the solve; its exponents, spectra and means then go
through the rows in SLICE_COLS-column slices. Either way it holds ln phi
and one Gibbs weight vector at a time: two length-n vectors, beside the
stacked block if there is one. Each Hessian is added up block by block
in one cache-sized (m, cols) buffer allocated per Hessian, so no Newton
step makes an m x n temporary, and the posterior keeps the last weight
vector, not a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dual import DEFAULT_MAX_ITER, DEFAULT_TOL, SolverReport, logsumexp, newton_dual
from .errors import DomainError, ShapeError, SupportViolationError
from .linalg import single_blas_thread

# bytes of the (m, cols) buffer the covariance is added up in, and of
# one slice of a length-n vector, sized to stay in a per-core cache
BLOCK_BYTES = 1 << 19
# the largest m x n constraint block, in bytes, that a solve stacks. At
# m = 16 a stacked block, one GEMV per product, solves up to 15% faster
# than row slices for n = 2e5 to 2.5e5, as fast for n = 5e5 to 1e6 and
# 10% faster for n = 2e6, where its copy doubles the caller's 256 MB
STACK_BYTES = 1 << 26
# columns per slice of a solve that reads the rows in place
SLICE_COLS = BLOCK_BYTES // 8


def _finite_range(arr: np.ndarray, what: str) -> tuple[float, float]:
    """The smallest and largest entry of arr, which must be finite; no temporary is made."""
    # the extremes are NaN if any entry is, and infinite if any entry is
    lo, hi = float(arr.min()), float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{what} must be finite")
    return lo, hi


class ClassicalDistribution:
    """Nonnegative weights over a finite ordered set of states.

    weights is a read-only view of the array given, not a copy, as
    ClassicalConstraint.values is: a float64 array shares its memory, so
    later writes to it show through here. solve_classical checks the
    prior weights it reads.
    """

    def __init__(self, weights):
        # a view, so that freezing it leaves the caller's array writable
        arr = np.asarray(weights, dtype=float).view()
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError(f"weights must be a nonempty vector, got shape {arr.shape}")
        lo, hi = _finite_range(arr, "weights")
        if lo < 0:
            raise DomainError("weights must be nonnegative")
        # finite nonnegative weights sum to at least the largest
        if hi == 0:
            raise DomainError("total weight must be positive")
        self._setup(arr)

    @classmethod
    def _from_weights(cls, weights: np.ndarray) -> "ClassicalDistribution":
        """The solver's own Gibbs weights, finite and summing to 1, kept as they are."""
        dist = cls.__new__(cls)
        dist._setup(weights)
        return dist

    def _setup(self, weights: np.ndarray) -> None:
        weights.setflags(write=False)
        self.weights = weights

    @property
    def n(self) -> int:
        return self.weights.size

    @property
    def total(self) -> float:
        """The sum of the weights, inf where it is beyond the float range."""
        with np.errstate(over="ignore"):
            return float(self.weights.sum())

    def __repr__(self) -> str:
        return f"ClassicalDistribution(n={self.n})"


@dataclass(frozen=True, eq=False)
class ClassicalConstraint:
    """Expectation constraint: sum_i rho_i values[i] = target.

    values is a read-only view of the array given, not a copy: a float64
    array shares its memory, so later writes to it show through here.
    So the constraint checks only its shape and its target: the one check
    of the values is solve_classical's. A solve that stacks the values
    checks its own copy and uses exactly the values it checked; one whose
    block passes STACK_BYTES checks and then reads this array in place,
    so it must not change while the solve runs.
    """

    values: np.ndarray
    target: float

    def __post_init__(self):
        # a view, so that freezing it leaves the caller's array writable
        arr = np.asarray(self.values, dtype=float).view()
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError(f"constraint values must be a nonempty vector, got shape {arr.shape}")
        if not np.isfinite(self.target):
            raise DomainError("constraint target must be finite")
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
    rs, ps = r[support], p[support]
    with np.errstate(over="ignore", divide="ignore"):
        ln_ratio = np.log(rs / ps)
    lost = np.isinf(ln_ratio)  # the ratio left the float range; ln r - ln p did not
    ln_ratio[lost] = np.log(rs[lost]) - np.log(ps[lost])
    s = float(np.sum(rs * ln_ratio))
    if variant == "normalized":
        # not -s, which is -0.0 for rho = phi
        return 0.0 - s
    return float(r.sum()) - s


def _check_problem(
    prior: ClassicalDistribution, constraints: Sequence[ClassicalConstraint]
) -> tuple[np.ndarray | list[np.ndarray], np.ndarray, np.ndarray]:
    # the prior and each constraint are views that show later writes to
    # their arrays, so what the solve reads is checked here
    if _finite_range(prior.weights, "prior weights")[0] <= 0:
        raise DomainError("prior must be strictly positive entrywise")
    m, n = len(constraints), prior.n
    # the solve's one copy of the values up to STACK_BYTES, else the
    # constraints' own rows; each row is checked where the solve reads
    # it, and its range is newton_dual's bounds
    stacked = 8 * m * n <= STACK_BYTES
    a = np.empty((m, n)) if stacked else [c.values for c in constraints]
    bounds = np.empty((2, m))
    for k, c in enumerate(constraints):
        if c.values.size != n:
            raise ShapeError(
                f"constraint {k} has {c.values.size} values for {n} states"
            )
        if stacked:
            a[k] = c.values
        bounds[:, k] = _finite_range(a[k], f"constraint {k}: values")
    return a, np.array([c.target for c in constraints], dtype=float), bounds


def _row_sum(rows: list[np.ndarray], coef: np.ndarray) -> np.ndarray:
    """sum_k coef_k rows[k], a new length-n vector, added up in SLICE_COLS-column slices.

    Each row's slice is scaled into one scratch slice and added to the
    output's, so besides the output only that slice is made.
    """
    n = rows[0].size
    out = np.zeros(n)
    scratch = np.empty(min(n, SLICE_COLS))
    for s in range(0, n, SLICE_COLS):
        o = out[s : s + SLICE_COLS]
        tmp = scratch[: o.size]
        for c, row in zip(coef, rows):
            np.multiply(row[s : s + SLICE_COLS], c, out=tmp)
            o += tmp
    return out


def _row_dots(rows: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """rows[k] @ x for every k, summed over SLICE_COLS-column slices, each read once from x."""
    dots = np.zeros(len(rows))
    for s in range(0, x.size, SLICE_COLS):
        xs = x[s : s + SLICE_COLS]
        for k, row in enumerate(rows):
            dots[k] += row[s : s + SLICE_COLS] @ xs
    return dots


def _covariance(
    a: np.ndarray | list[np.ndarray], rho: np.ndarray, means: np.ndarray
) -> np.ndarray:
    """sum_i rho_i (a_i - means)(a_i - means)^T, added up over column blocks.

    Each block of columns is centered and scaled by sqrt(rho) into one
    cache-sized (m, cols) buffer, whose Gram product is added to the
    result, so neither an m x n temporary nor a length-n sqrt(rho) is made.
    a is the stacked block or the list of rows a solve reads in place.
    """
    m, n = len(means), rho.size
    cols = min(n, max(1, BLOCK_BYTES // (8 * m)))
    block = np.empty((m, cols))
    hess = np.zeros((m, m))
    for s in range(0, n, cols):
        e = min(s + cols, n)
        b = block[:, : e - s]
        if isinstance(a, np.ndarray):
            np.subtract(a[:, s:e], means[:, None], out=b)
        else:
            for row, out, mean in zip(a, b, means):
                np.subtract(row[s:e], mean, out=out)
        b *= np.sqrt(rho[s:e])
        hess += b @ b.T
    return hess


@single_blas_thread()
def solve_classical(
    prior: ClassicalDistribution,
    constraints: Sequence[ClassicalConstraint],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolverReport:
    """Multipliers and posterior for a classical constrained update.

    Every row's size and values are checked before any target's range,
    which newton_dual decides: a target not strictly inside its row's
    range, or a jointly infeasible target set once the Newton iteration
    stops short and a direction separating the targets from every state
    certifies it (qmaxent.dual), raises InfeasibleTargetError. Without a
    certificate the report says converged=False. The solve runs on one
    OpenBLAS thread (linalg.single_blas_thread), so its results do not
    depend on the caller's thread count.
    """
    constraints = list(constraints)
    a, t, bounds = _check_problem(prior, constraints)
    stacked = isinstance(a, np.ndarray)
    ln_phi = np.log(prior.weights)

    def point(ln_w: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float, np.ndarray]:
        # the one logsumexp per dual evaluation: rho, written over ln_w,
        # ln Z and the means, which the covariance reads back instead of
        # forming a @ rho again
        ln_z, rho = logsumexp(ln_w)
        means = a @ rho if stacked else _row_dots(a, rho)
        return (rho, means), ln_z, means - t

    # sum_k c_k a_k as a new length-n vector: a^T alpha, to which evaluate
    # adds ln phi, and spectrum(d), the values of sum_k d_k A_k on the states
    combine = (lambda c: a.T @ c) if stacked else (lambda c: _row_sum(a, c))

    def evaluate(alpha: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float, np.ndarray]:
        # jointly infeasible targets drive alpha far out, where a^T alpha
        # and ln Z overflow; newton_dual rejects a trial whose gradient
        # is not finite, and an exponent of -inf only makes a weight 0,
        # so that overflow is no error
        with np.errstate(over="ignore", invalid="ignore"):
            ln_w = combine(alpha)
            ln_w += ln_phi
            return point(ln_w)

    return newton_dual(
        lambda: point(ln_phi.copy()), t, bounds, evaluate,
        lambda state: _covariance(a, *state), combine,
        lambda state: ClassicalDistribution._from_weights(state[0]), tol, max_iter,
    )
