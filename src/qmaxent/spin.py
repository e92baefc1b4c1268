"""Closed-form single-qubit updating.

For a diagonal prior diag(a, b) and one observable
A = c1*I + cx*sx + cy*sy + cz*sz, the exponent C = alpha*A + ln phi
decomposes as lam*I + w.sigma with lam = alpha*c1 + (ln a + ln b)/2 and
w = (alpha*cx, alpha*cy, alpha*cz + ln(a/b)/2). Every quantity follows
from the posterior's Bloch vector r = tanh|w| w/|w|: the partition
function 2 e^lam cosh|w|, the posterior (I + r.sigma)/2 and the
constraint value

    F(alpha) = c1 + c.r

F is nondecreasing with range (c1 - |c|, c1 + |c|). The multiplier is
found by bisection in the scale-free u = alpha*|c|, on the unit
observable c/|c| with target (target - c1)/|c|, independent of any
eigensolver; no |c|^2 is formed, so every finite |c| is accepted.
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
# |ln a - ln b| < 1455 for positive floats, so beyond |u| = 2^40 the unit
# observable's value is within 3e-19 of -1 or 1, below its rounding: this
# bracket holds every target that floats can tell from the range's edge
U_BRACKET = 2.0**40


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
        if not math.isfinite(math.hypot(self.cx, self.cy, self.cz)):
            raise DomainError(
                f"|c| = hypot({self.cx!r}, {self.cy!r}, {self.cz!r}) must be finite"
            )


def _tanh_over(x: float) -> float:
    """tanh(x)/x with the removable singularity at 0 handled by series."""
    if abs(x) < SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 3.0 + 2.0 * x2 * x2 / 15.0
    return math.tanh(x) / x


def _bloch(p: SpinProblem, alpha: float) -> tuple[list[float], float]:
    """(r, |w|): the posterior's Bloch vector r = tanh|w| w/|w| and |w|.

    ln(a/b) is taken from the two logs: a / b can leave the float range.
    """
    w = [alpha * p.cx, alpha * p.cy, alpha * p.cz + 0.5 * (math.log(p.a) - math.log(p.b))]
    half_gap = math.hypot(*w)
    t = _tanh_over(half_gap)
    return [t * x for x in w], half_gap


def spin_partition(p: SpinProblem, alpha: float) -> float:
    """Z(alpha) = Tr exp(alpha*A + ln phi) = 2 e^lam cosh|w|.

    Taken as exp(ln Z), so it is inf where Z exceeds the float range.
    """
    try:
        return math.exp(_log_partition(p, alpha))
    except OverflowError:
        return math.inf


def _log_partition(p: SpinProblem, alpha: float) -> float:
    _, half_gap = _bloch(p, alpha)
    lam = alpha * p.c1 + 0.5 * (math.log(p.a) + math.log(p.b))
    return lam + half_gap + math.log1p(math.exp(-2.0 * half_gap))


def spin_constraint_value(p: SpinProblem, alpha: float) -> float:
    """F(alpha) = Tr(rho(alpha) A) = c1 + c.r = d/dalpha ln Z."""
    r, _ = _bloch(p, alpha)
    return p.c1 + (p.cx * r[0] + p.cy * r[1] + p.cz * r[2])


def spin_posterior(p: SpinProblem, alpha: float) -> DensityMatrix:
    """Posterior (I + r.sigma)/2, no eigensolver."""
    (rx, ry, rz), _ = _bloch(p, alpha)
    rho = 0.5 * np.array(
        [[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]], dtype=complex
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
    is 0 if the target matches, otherwise no multiplier exists. Otherwise
    the solve finds u = alpha*|c| on the unit observable c/|c|, whose
    value g(u) = (c/|c|).r is nondecreasing (its derivative is a variance)
    and, beyond |u| = 2^40, within 3e-19 of -1 or 1, below its rounding.
    So s = (target - c1)/|c| is taken as attainable exactly when
    g(-2^40) < s < g(2^40), and that bracket is bisected until its
    midpoint no longer splits it, with no iteration budget: about 100
    steps where |u| is near 1, at any scale of c, and at most 1115, the
    steps to a subnormal u. tol, which must be finite and positive,
    only judges converged = |F(alpha) - target| <= tol. A DomainError is
    raised where alpha = u/|c| leaves the float range.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be finite and positive, got {tol!r}")
    amp = math.hypot(p.cx, p.cy, p.cz)
    if amp == 0.0:
        if abs(p.c1 - p.target) <= tol:
            return _report(p, 0.0, 0, tol)
        raise InfeasibleTargetError(
            f"constraint value is constant {p.c1!r}; target {p.target!r} unreachable"
        )
    unit = SpinProblem(p.a, p.b, 0.0, p.cx / amp, p.cy / amp, p.cz / amp, 0.0)
    s = (p.target - p.c1) / amp
    lo, hi = -U_BRACKET, U_BRACKET
    g_lo, g_hi = spin_constraint_value(unit, lo), spin_constraint_value(unit, hi)
    if not g_lo < s < g_hi:
        raise InfeasibleTargetError(
            f"target {p.target!r} is not strictly inside "
            f"({p.c1 + amp * g_lo!r}, {p.c1 + amp * g_hi!r})"
        )
    steps = 0
    u = 0.5 * (lo + hi)
    while lo < u < hi:
        steps += 1
        if spin_constraint_value(unit, u) < s:
            lo = u
        else:
            hi = u
        u = 0.5 * (lo + hi)
    alpha = u / amp
    if not math.isfinite(alpha):
        raise DomainError(f"multiplier u / |c| = {u!r} / {amp!r} leaves the float range")
    return _report(p, alpha, steps, tol)
