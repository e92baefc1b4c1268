"""Closed-form single-qubit updating.

For a diagonal prior diag(a, b) and one observable
A = c1*I + cx*sx + cy*sy + cz*sz, the exponent
C = alpha*A + ln phi decomposes as lam*I + w.sigma with
w = (alpha*cx, alpha*cy, alpha*cz + ln(a/b)/2), so every quantity has an
explicit formula: eigenvalues lam +- |w|, partition 2 e^lam cosh|w|,
posterior (I + tanh|w| what.sigma)/2, and constraint value

    F(alpha) = c1 + tanh(d)/(2d) * (2*alpha*(cx^2+cy^2+cz^2) + cz*ln(a/b))

with d = |w|. F is nondecreasing with range (c1 - |c|, c1 + |c|), so the
multiplier is found by bracketing and bisection, independent of any
eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleTargetError
from .quantum import DensityMatrix, _relative_entropy_to_log
from .report import SolverReport

DEFAULT_TOL = 1e-12
SERIES_CUTOFF = 1e-6


@dataclass(frozen=True)
class SpinProblem:
    """Prior diag(a, b), observable components (c1, cx, cy, cz), target."""

    a: float
    b: float
    c1: float
    cx: float
    cy: float
    cz: float
    target: float

    def __post_init__(self):
        for name in ("a", "b", "c1", "cx", "cy", "cz", "target"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.a <= 0 or self.b <= 0:
            raise DomainError("prior weights a, b must be strictly positive")
        # F and ln Z take 4 |c|^2 at the bracket's start, alpha = +-1
        if not math.isfinite(4.0 * (self.cx * self.cx + self.cy * self.cy + self.cz * self.cz)):
            raise DomainError(
                f"|c| = {math.hypot(self.cx, self.cy, self.cz):.6e} must be at most "
                f"{math.sqrt(np.finfo(float).max) / 2:.6e}, so that 4 |c|^2 stays inside the "
                "float range"
            )


def _tanh_over(x: float) -> float:
    """tanh(x)/x with the removable singularity at 0 handled by series."""
    if abs(x) < SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0
    return math.tanh(x) / x


def _log_ratio(p: SpinProblem) -> float:
    """ln(a/b), from the two logs: a * b and a / b can leave the float range."""
    return math.log(p.a) - math.log(p.b)


def _bloch_parts(p: SpinProblem, alpha: float) -> tuple[float, float]:
    """(lam, half_gap): exponent is lam*I + w.sigma with |w| = half_gap."""
    lam = alpha * p.c1 + 0.5 * (math.log(p.a) + math.log(p.b))
    half_gap = 0.5 * math.sqrt(
        (2.0 * alpha * p.cz + _log_ratio(p)) ** 2
        + 4.0 * alpha * alpha * (p.cx * p.cx + p.cy * p.cy)
    )
    return lam, half_gap


def spin_partition(p: SpinProblem, alpha: float) -> float:
    """Z(alpha) = Tr exp(alpha*A + ln phi) = 2 e^lam cosh(half_gap).

    Taken as exp(ln Z), so it is inf where Z exceeds the float range.
    """
    try:
        return math.exp(_log_partition(p, alpha))
    except OverflowError:
        return math.inf


def _log_partition(p: SpinProblem, alpha: float) -> float:
    lam, half_gap = _bloch_parts(p, alpha)
    return lam + half_gap + math.log1p(math.exp(-2.0 * half_gap))


def spin_constraint_value(p: SpinProblem, alpha: float) -> float:
    """F(alpha) = Tr(rho(alpha) A) = d/dalpha ln Z."""
    _, half_gap = _bloch_parts(p, alpha)
    amp2 = p.cx * p.cx + p.cy * p.cy + p.cz * p.cz
    numerator = 2.0 * alpha * amp2 + p.cz * _log_ratio(p)
    return p.c1 + 0.5 * _tanh_over(half_gap) * numerator


def spin_posterior(p: SpinProblem, alpha: float) -> DensityMatrix:
    """Posterior (I + t w.sigma)/2 with t = tanh(|w|)/|w|, no eigensolver."""
    wx = alpha * p.cx
    wy = alpha * p.cy
    wz = alpha * p.cz + 0.5 * _log_ratio(p)
    t = _tanh_over(math.sqrt(wx * wx + wy * wy + wz * wz))
    bx, by, bz = t * wx, t * wy, t * wz
    rho = 0.5 * np.array(
        [[1.0 + bz, bx - 1j * by], [bx + 1j * by, 1.0 - bz]], dtype=complex
    )
    return DensityMatrix(rho)


def spin_relative_entropy(rho: DensityMatrix, p: SpinProblem, variant: str = "full") -> float:
    """quantum_relative_entropy(rho, diag(a, b), variant) for any a, b > 0.

    Takes ln phi = diag(ln a, ln b) directly, since diag(a, b) fails the
    full-rank test of quantum_relative_entropy once min(a, b) <= 1e-12 (a + b).
    """
    return _relative_entropy_to_log(rho, np.diag(np.log([p.a, p.b])), variant)


def _report(p: SpinProblem, alpha: float, steps: int, tol: float) -> SolverReport:
    residual = spin_constraint_value(p, alpha) - p.target
    return SolverReport(
        multipliers=np.array([alpha]),
        log_partition=_log_partition(p, alpha),
        posterior=spin_posterior(p, alpha),
        residuals=np.array([residual]),
        iterations=steps,
        converged=bool(abs(residual) <= tol),
    )


def solve_spin(p: SpinProblem, tol: float = DEFAULT_TOL) -> SolverReport:
    """Bisection solve of F(alpha) = target.

    When cx = cy = cz = 0 the constraint value is the constant c1: alpha
    is 0 if the target matches, otherwise no multiplier exists. For a
    nondegenerate observable the attainable targets are exactly the open
    interval (c1 - |c|, c1 + |c|). F is nondecreasing (its derivative is
    a variance), so the bracket [lo, hi] with F(lo) < target < F(hi) is
    found by doubling from [-1, 1], then bisected to tol, which must be
    finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    amp2 = p.cx * p.cx + p.cy * p.cy + p.cz * p.cz
    if amp2 == 0.0:
        if abs(p.c1 - p.target) <= tol:
            return _report(p, 0.0, 0, tol)
        raise InfeasibleTargetError(
            f"constraint value is constant {p.c1!r}; target {p.target!r} unreachable"
        )
    amp = math.sqrt(amp2)
    if not (p.c1 - amp < p.target < p.c1 + amp):
        raise InfeasibleTargetError(
            f"target {p.target!r} is not strictly inside "
            f"({p.c1 - amp!r}, {p.c1 + amp!r})"
        )

    def value(alpha: float) -> float:
        return spin_constraint_value(p, alpha)

    lo, hi = -1.0, 1.0
    for _ in range(300):
        if value(lo) < p.target:
            break
        lo *= 2.0
    for _ in range(300):
        if value(hi) > p.target:
            break
        hi *= 2.0
    if not (value(lo) < p.target and value(hi) > p.target):
        raise InfeasibleTargetError(
            f"failed to bracket a multiplier for target {p.target!r}"
        )

    steps = 0
    for _ in range(1000):
        alpha = 0.5 * (lo + hi)
        steps += 1
        r = value(alpha) - p.target
        if abs(r) <= tol:
            break
        if r < 0:
            lo = alpha
        else:
            hi = alpha
        if hi - lo <= 4e-16 * max(1.0, abs(alpha)):
            break
    return _report(p, alpha, steps, tol)
