"""Solver result container shared by the classical, quantum and spin solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


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
