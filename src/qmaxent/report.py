"""Solver result container shared by the classical, quantum and spin solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np


@dataclass
class SolverReport:
    """Outcome of a constrained update.

    posterior is a ClassicalDistribution or a DensityMatrix depending on
    the solver. log_partition is ln Z, the stable form, and is what gets
    serialized; partition_value is derived from it. converged means the
    residual max norm met the requested tolerance.
    """

    multipliers: np.ndarray
    log_partition: float
    posterior: Any
    residuals: np.ndarray
    iterations: int
    converged: bool

    @property
    def partition_value(self) -> float:
        """Z = exp(log_partition), inf where Z exceeds the float range."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_partition))

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residuals), initial=0.0))
