"""Closed-form single-qubit updating.

For a diagonal prior diag(a, b) and one observable
A = c1*I + cx*sx + cy*sy + cz*sz, the exponent C = alpha*A + ln phi
decomposes as lam*I + w.sigma with lam = alpha*c1 + (ln a + ln b)/2 and
w = (alpha*cx, alpha*cy, alpha*cz + ln(a/b)/2). Every quantity follows
from the posterior's Bloch vector r = tanh|w| w/|w|: the log-partition
function ln Z = lam + ln(2 cosh|w|), the posterior (I + r.sigma)/2 and
the constraint value

    F(alpha) = c1 + |c| g,  g = (c/|c|).r in [-1, 1]

F is nondecreasing with range (c1 - |c|, c1 + |c|). The multiplier is
found by bisection in u = alpha*|c| on the unit observable c/|c|, with
no eigensolver and no |c|^2, so every finite |c| is accepted.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .dual import SolverReport
from .errors import DomainError, InfeasibleTargetError
from .quantum import DensityMatrix, _relative_entropy_to_log

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
    """tanh(x)/x, with its limit 1 at 0: tanh rounds to x itself where x is tiny."""
    return math.tanh(x) / x if x else 1.0


def _float(key: int) -> float:
    """The float whose bit pattern k folds to key by k if k >= 0 else -2**63 - k, an involution."""
    return struct.unpack("<d", struct.pack("<q", key if key >= 0 else -(2**63) - key))[0]


def _bloch(p: SpinProblem, alpha: float) -> tuple[list[float], float]:
    """The posterior's Bloch vector r = tanh|w| w/|w| and |w| at alpha.

    ln(a/b)/2 is taken from the two logs: a / b can leave the float range.
    """
    w = [alpha * p.cx, alpha * p.cy, alpha * p.cz + 0.5 * (math.log(p.a) - math.log(p.b))]
    half_gap = math.hypot(*w)
    t = _tanh_over(half_gap)
    return [t * x for x in w], half_gap


def _log_partition(p: SpinProblem, alpha: float) -> float:
    """ln Z(alpha) = ln Tr exp(alpha*A + ln phi) = lam + ln(2 cosh|w|), finite where Z overflows."""
    _, half_gap = _bloch(p, alpha)
    lam = alpha * p.c1 + 0.5 * (math.log(p.a) + math.log(p.b))
    return lam + half_gap + math.log1p(math.exp(-2.0 * half_gap))


def spin_constraint_value(p: SpinProblem, alpha: float) -> float:
    """F(alpha) = Tr(rho(alpha) A) = c1 + |c| g = d/dalpha ln Z, finite where c1 +- |c| are."""
    amp = math.hypot(p.cx, p.cy, p.cz) or 1.0
    r, _ = _bloch(p, alpha)
    g = p.cx / amp * r[0] + p.cy / amp * r[1] + p.cz / amp * r[2]
    return p.c1 + amp * max(-1.0, min(1.0, g))


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


def _report(p: SpinProblem, alpha: float, steps: int) -> SolverReport:
    return SolverReport(
        multipliers=np.array([alpha]),
        log_partition=_log_partition(p, alpha),
        posterior=spin_posterior(p, alpha),
        residuals=np.array([spin_constraint_value(p, alpha) - p.target]),
        iterations=steps,
        converged=True,
    )


def solve_spin(p: SpinProblem) -> SolverReport:
    """Bisection solve of F(alpha) = target.

    When c = 0, F is the constant c1: alpha is 0 if the target equals it,
    otherwise no multiplier exists. Otherwise g(u) is nondecreasing (its
    derivative is a variance), so s = (target - c1)/|c| is attainable
    exactly when g(-2^40) < s < g(2^40). That bracket is bisected on the
    floats' ordered keys (-u has minus u's key) until its ends are
    adjacent, at most 64 steps; u is the smallest float whose g reaches
    s, so no tolerance is taken and every multiplier returned is reported
    converged. A DomainError is raised where alpha = u/|c| leaves the
    float range, or where the division underflows: |alpha| below both
    |u| and the smallest normal float.
    """
    amp = math.hypot(p.cx, p.cy, p.cz)
    if amp == 0.0:
        if p.c1 == p.target:
            return _report(p, 0.0, 0)
        raise InfeasibleTargetError(
            f"constraint value is constant {p.c1!r}; target {p.target!r} unreachable"
        )
    unit = SpinProblem(p.a, p.b, 0.0, p.cx / amp, p.cy / amp, p.cz / amp, 0.0)
    s = (p.target - p.c1) / amp
    hi = struct.unpack("<q", struct.pack("<d", U_BRACKET))[0]
    lo = -hi
    g_lo, g_hi = spin_constraint_value(unit, -U_BRACKET), spin_constraint_value(unit, U_BRACKET)
    if not g_lo < s < g_hi:
        raise InfeasibleTargetError(
            f"target {p.target!r} is not strictly inside "
            f"({p.c1 + amp * g_lo!r}, {p.c1 + amp * g_hi!r})"
        )
    steps = 0
    while hi - lo > 1:
        steps += 1
        mid = (lo + hi) // 2
        if spin_constraint_value(unit, _float(mid)) < s:
            lo = mid
        else:
            hi = mid
    u = _float(hi)
    alpha = u / amp
    if not math.isfinite(alpha) or abs(alpha) < min(abs(u), sys.float_info.min):
        raise DomainError(f"multiplier u / |c| = {u!r} / {amp!r} leaves the float range")
    return _report(p, alpha, steps)
