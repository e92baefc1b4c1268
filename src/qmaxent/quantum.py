"""Relative-entropy updating of density matrices.

The posterior for expectation constraints Tr(rho A_i) = t_i over a
full-rank prior phi is rho = exp(sum_i alpha_i A_i + ln phi) / Z with
Z = Tr exp(...). The multipliers solve the convex dual
G(alpha) = ln Z(alpha) - alpha.t whose gradient components are
Tr(rho(alpha) A_i) - t_i and whose Hessian is the Bogoliubov-Kubo-Mori
covariance of the observables. Both are exact and come from the same
eigendecomposition of C = ln phi + sum_i alpha_i A_i, which also gives
rho and ln Z: a Newton step costs one Hermitian eigendecomposition per
line-search trial and none besides. Its eigenvalues give the Gibbs
weights and ln Z through qmaxent.dual's logsumexp, which the classical
solver shares, so they sum to 1 whatever ln Z is. At the start,
alpha = 0, C is ln phi, whose spectrum the prior's decomposition at
construction gives; the posterior comes from the last one of C, so a
solve runs no other. The observables are read once per solve, into an
(m, d^2) stack, so C and the m means are one matrix-vector product each
and the Hessian is one Gram product of the rotated observables,
centered and kernel-scaled. One bracket of Rayleigh quotients over all
rows bounds each target's range for newton_dual, the Newton iteration
the classical solver shares; it takes an eigenvalue solve only where a
row's bracket cannot tell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dual import DEFAULT_MAX_ITER, DEFAULT_TOL, SolverReport, logsumexp, newton_dual
from .errors import DomainError, ShapeError
from .linalg import HermitianOperator, _spectral_matrix, single_blas_thread, trace_product

FULL_RANK_EIG = 1e-12
PSD_EIG_TOL = -1e-12
BRACKET_SLACK = 4.0


class DensityMatrix:
    """A positive semidefinite Hermitian matrix with positive trace.

    It holds its read-only matrix and that matrix's one eigendecomposition,
    taken at construction: the ascending eigenvalues and orthonormal
    eigenvector columns that the checks, ln phi and the relative entropy read.
    """

    @single_blas_thread()
    def __init__(self, matrix):
        op = matrix if isinstance(matrix, HermitianOperator) else HermitianOperator(matrix)
        self._setup(op.matrix, *np.linalg.eigh(op.matrix))

    @classmethod
    def _from_spectrum(cls, matrix, eigenvalues, eigenvectors) -> "DensityMatrix":
        """The normalized, exactly Hermitian state V diag(eigenvalues) V^dag, kept as is."""
        state = cls.__new__(cls)
        state._setup(matrix, eigenvalues, eigenvectors)
        return state

    def _setup(self, matrix, eigenvalues, eigenvectors) -> None:
        # finite entries can still sum past the float range
        with np.errstate(over="ignore"):
            trace = float(np.trace(matrix).real)
        if not np.isfinite(trace):
            raise DomainError(f"trace must be finite, got {trace!r}")
        if trace <= 0:
            raise DomainError("trace must be positive")
        # relative to the trace, as eigh's rounding is; not >=, so that a
        # NaN spectrum is rejected too
        if not eigenvalues[0] >= PSD_EIG_TOL * trace:
            raise DomainError(
                f"matrix is not positive semidefinite: smallest eigenvalue "
                f"{eigenvalues[0]:.3e}"
            )
        self.matrix = matrix
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        for arr in (matrix, eigenvalues, eigenvectors):
            arr.setflags(write=False)
        self.trace = trace

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_full_rank(self) -> bool:
        return float(self.eigenvalues[0]) > FULL_RANK_EIG * self.trace

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


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
    return trace_product(rho.matrix, observable)


def _require_full_rank(phi: DensityMatrix, role: str) -> None:
    if not phi.is_full_rank():
        raise DomainError(
            f"{role} must be full rank: smallest eigenvalue "
            f"{float(phi.eigenvalues[0]):.3e} is not above {FULL_RANK_EIG:.0e} times the trace"
        )


def _log(phi: DensityMatrix) -> np.ndarray:
    """ln phi from the stored decomposition of a full-rank phi."""
    return _spectral_matrix(phi.eigenvectors, np.log(phi.eigenvalues))


@single_blas_thread()
def quantum_relative_entropy(
    rho: DensityMatrix, phi: DensityMatrix, variant: str = "full"
) -> float:
    """Entropy of rho relative to phi.

    variant "full": -Tr(rho ln rho - rho ln phi - rho); variant
    "umegaki": -Tr(rho ln rho - rho ln phi), the negative of the usual
    divergence. Zero eigenvalues of rho contribute nothing (0 ln 0 = 0);
    phi must be full rank.
    """
    if rho.dim != phi.dim:
        raise ShapeError(f"dimension mismatch: {rho.dim} vs {phi.dim}")
    _require_full_rank(phi, "phi")
    return _relative_entropy_to_log(rho, _log(phi), variant)


def _relative_entropy_to_log(rho: DensityMatrix, ln_phi: np.ndarray, variant: str) -> float:
    """quantum_relative_entropy(rho, phi, variant) from ln phi, of rho's dimension."""
    if variant not in ("full", "umegaki"):
        raise ValueError(f"unknown variant {variant!r}")
    vals = rho.eigenvalues
    positive = vals[vals > 0]
    tr_rho_ln_rho = float(np.sum(positive * np.log(positive)))
    tr_rho_ln_phi = trace_product(rho.matrix, ln_phi)
    # not -(a - b), which gives -0.0 when the two are equal
    umegaki = tr_rho_ln_phi - tr_rho_ln_rho
    if variant == "umegaki":
        return umegaki
    return umegaki + rho.trace


def _stack(observables: Sequence[HermitianOperator], dim: int) -> np.ndarray:
    """The observables as rows of an (m, dim^2) array, each matrix read once."""
    matrices = [obs.matrix for obs in observables]
    for k, a in enumerate(matrices):
        if len(a) != dim:
            raise ShapeError(f"observable {k} has dim {len(a)}, prior has dim {dim}")
    return np.array(matrices, dtype=complex).reshape(len(matrices), dim * dim)


def _exponent(ln_phi: np.ndarray, flat: np.ndarray, alphas) -> np.ndarray:
    """C = ln phi + sum_i alpha_i A_i as a fresh array, from the stacked observables."""
    return ln_phi + (alphas @ flat).reshape(ln_phi.shape)


class _GibbsState(NamedTuple):
    """Eigendecomposition of Hermitian C, and exp(C) / Tr exp(C) = V diag(p) V^dag.

    p are the Gibbs weights, ascending with vals, and ln_z = ln Tr exp(C).
    """

    vals: np.ndarray
    vecs: np.ndarray
    p: np.ndarray
    ln_z: float
    rho: np.ndarray

    def posterior(self) -> DensityMatrix:
        return DensityMatrix._from_spectrum(self.rho, self.p, self.vecs)


def _gibbs(vals: np.ndarray, vecs: np.ndarray) -> _GibbsState:
    """The Gibbs state of C = V diag(vals) V^dag, whose ln Z and weights logsumexp gives."""
    # logsumexp writes the weights over its argument; the state keeps vals
    ln_z, p = logsumexp(vals.copy())
    return _GibbsState(vals, vecs, p, ln_z, _spectral_matrix(vecs, p))


@single_blas_thread()
def _gibbs_at(
    phi: DensityMatrix, observables: Sequence[HermitianOperator], alphas
) -> _GibbsState:
    """The Gibbs state of ln phi + sum_i alpha_i A_i, for the public entry points."""
    _require_full_rank(phi, "prior")
    alphas = np.asarray(alphas, dtype=float)
    if len(observables) != len(alphas):
        raise ShapeError(
            f"{len(observables)} observables but {len(alphas)} multipliers"
        )
    bad = np.flatnonzero(~np.isfinite(alphas))
    if len(bad):
        raise DomainError(
            "multipliers must be finite, got "
            + ", ".join(f"alpha[{i}] = {float(alphas[i])!r}" for i in bad)
        )
    return _gibbs(*np.linalg.eigh(_exponent(_log(phi), _stack(observables, phi.dim), alphas)))


def _bkm_covariance(state: _GibbsState, observables: np.ndarray) -> np.ndarray:
    """Hessian of ln Tr exp(C) in the multipliers, from the eigendecomposition of C.

    This is the Bogoliubov-Kubo-Mori covariance of the observables in the
    Gibbs state of C. With B_i = V^dag A_i V in the eigenbasis and Gibbs
    weights p, H_ij = Re sum_kl K_kl (B_i)_kl conj((B_j)_kl) - <A_i><A_j>,
    where K_kl = (p_k - p_l) / (lambda_k - lambda_l) is the divided
    difference of the Gibbs weights (Daleckii-Krein). It is evaluated as
    max(p_k, p_l) (1 - exp(-|lambda_k - lambda_l|)) / |lambda_k - lambda_l|,
    which cannot overflow and tends to p_k as the gap closes, so equal
    and nearly equal eigenvalues need no cutoff.

    observables is the (m, d^2) stack of the solver. All B_i are rotated
    into one (m, d, d) buffer and their diagonals centered by the means;
    as K_kk = p_k, that buffer scaled by sqrt(K) >= 0 is a factor F with
    H = Re(F conj(F)^T).
    """
    vals, vecs, p = state.vals, state.vecs, state.p
    gap = np.abs(vals[:, None] - vals[None, :])
    closed = gap == 0.0
    ratio = -np.expm1(-gap) / np.where(closed, 1.0, gap)
    ratio[closed] = 1.0
    kernel = np.maximum(p[:, None], p[None, :]) * ratio
    d = len(vals)
    m = len(observables)
    rotated = (observables.reshape(m * d, d) @ vecs).reshape(m, d, d)
    vh = vecs.conj().T
    # slice by slice, so the rotation needs no second (m, d, d) array
    for b in rotated:
        b[...] = vh @ b
    flat = rotated.reshape(m, d * d)
    means = flat[:, :: d + 1].real @ p
    flat[:, :: d + 1] -= means[:, None]
    rotated *= np.sqrt(kernel)
    factor = flat.view(np.float64)
    return factor @ factor.T


def posterior_from_multipliers(
    phi: DensityMatrix,
    observables: Sequence[HermitianOperator],
    alphas,
) -> DensityMatrix:
    """Canonical posterior exp(sum_i alpha_i A_i + ln phi)/Z; log_partition gives ln Z."""
    return _gibbs_at(phi, observables, alphas).posterior()


def log_partition(
    phi: DensityMatrix,
    observables: Sequence[HermitianOperator],
    alphas,
) -> float:
    """ln Tr exp(sum_i alpha_i A_i + ln phi), computed without overflow."""
    return _gibbs_at(phi, observables, alphas).ln_z


def _spectral_brackets(flat: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Bounds lambda_min(A_i) <= lo_i and hi_i <= lambda_max(A_i) for each row of the stack.

    Every unit vector v has lambda_min <= v^dag A v <= lambda_max. The
    vector e_j gives A_jj, and for j != k, (e_j + e^{i theta} e_k)/sqrt 2
    with a suitable phase theta gives (A_jj + A_kk)/2 -+ |A_jk|. A row's
    extremes of these quotients are pulled in by its BRACKET_SLACK d^2 eps
    max|A_jk| >= BRACKET_SLACK d eps |A|_F, an allowance well above the
    rounding of this computation and of eigvalsh (whose error is a small
    multiple of eps |A|_2), so a target strictly inside (lo, hi) is
    strictly inside the spectral range that eigvalsh reports. Taken from
    the largest entry, the slack cannot overflow, so the bracket decides
    at every finite scale. For d = 1 it is empty. A row whose quotients
    pass the float range, as its spectrum then does, gets an infinite or
    NaN bound, without a warning.
    """
    # halved before they are added, so that entries near the float range
    # do not overflow; exact where the halves are normal numbers
    half = flat[:, :: dim + 1].real / 2.0
    mid = (half[:, :, None] + half[:, None, :]).reshape(flat.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        radius = np.abs(flat)
        slack = BRACKET_SLACK * dim * dim * np.finfo(float).eps * radius.max(axis=1)
        # |A_jj| is no radius: e_j alone gives A_jj
        radius[:, :: dim + 1] = 0.0
        return (mid - radius).min(axis=1) + slack, (mid + radius).max(axis=1) - slack


@single_blas_thread()
def solve_quantum(
    prior: DensityMatrix,
    constraints: Sequence[QuantumConstraint],
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SolverReport:
    """Multipliers and posterior for a quantum constrained update.

    The prior must be full rank, of any positive trace, which ln Z then
    includes as ln Tr phi. Every observable must be of its dimension,
    which reading them into one stack checks, and of a spectrum inside
    the float range, both before any target's range.
    Since |lambda| <= d max|A_jk| and a row's bracket bounds max|A_jk|,
    only a row whose bracket passes the float range over 2d takes an
    eigvalsh, of the row scaled by its largest real or imaginary part,
    to decide the latter. Targets must lie strictly inside each observable's
    spectral range, which newton_dual decides from one bracket of all
    stacked rows, at every finite scale as each row's slack comes from
    its largest entry. A jointly infeasible target set raises
    InfeasibleTargetError once the Newton iteration stops short and a
    direction separating the targets from every state certifies it
    (qmaxent.dual). Without a certificate the report says converged=False.
    """
    _require_full_rank(prior, "prior")
    dim = prior.dim
    constraints = list(constraints)
    flat = _stack([c.observable for c in constraints], dim)
    targets = np.array([c.target for c in constraints])
    bounds = _spectral_brackets(flat, dim)
    top = np.maximum(np.abs(bounds[0]), np.abs(bounds[1]))
    # not >, so that a NaN bound is decided too
    for k in np.flatnonzero(~(top <= np.finfo(float).max / (2 * dim))):
        big = float(np.abs(flat[k].view(float)).max())
        spec = np.abs(np.linalg.eigvalsh((flat[k] / big).reshape(dim, dim))).max()
        if spec > np.finfo(float).max / big:
            raise DomainError(
                f"constraint {k}: the observable's spectrum passes the float range, "
                f"its largest |eigenvalue| is {float(spec)!r} * {big!r}"
            )
    ln_phi = _log(prior)

    def point(state: _GibbsState) -> tuple[_GibbsState, float, np.ndarray]:
        # Tr(A_i rho) = sum_kl (A_i)_kl rho_lk
        means = (flat @ state.rho.T.ravel()).real
        return state, state.ln_z, means - targets

    def evaluate(alpha: np.ndarray) -> tuple[_GibbsState, float, np.ndarray]:
        # the one eigendecomposition per dual evaluation
        return point(_gibbs(*np.linalg.eigh(_exponent(ln_phi, flat, alpha))))

    return newton_dual(
        lambda: point(_gibbs(np.log(prior.eigenvalues), prior.eigenvectors)), targets,
        bounds, evaluate,
        lambda state: _bkm_covariance(state, flat),
        lambda d: np.linalg.eigvalsh((d @ flat).reshape(ln_phi.shape)),
        _GibbsState.posterior, tol, max_iter,
    )
