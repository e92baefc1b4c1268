"""qmaxent imports numpy only, and its numpy logsumexp is exact to rounding."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmaxent.classical import logsumexp

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    code = (
        "import sys, qmaxent, qmaxent.cli\n"
        "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def fsum_reference(x) -> float:
    # every exp term is rounded once and the sum is exact
    shift = max(x)
    return shift + math.log(math.fsum(math.exp(v - shift) for v in x))


class TestLogSumExp:
    def test_matches_direct_formula_on_moderate_inputs(self):
        x = np.random.default_rng(5).normal(scale=3.0, size=200)
        assert logsumexp(x) == pytest.approx(float(np.log(np.sum(np.exp(x)))), rel=1e-14)

    def test_large_equal_entries_do_not_overflow(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-15
        )

    @pytest.mark.parametrize("lo, hi", [(-745.0, -5.0), (-2000.0, -700.0), (-60.0, -0.5)])
    def test_wide_negative_range_matches_exact_sum(self, lo, hi):
        x = np.linspace(lo, hi, 1001)
        assert logsumexp(x) == pytest.approx(fsum_reference(x.tolist()), rel=1e-15)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double has no more precision than float64 here",
    )
    def test_matches_extended_precision_reference(self):
        x = np.random.default_rng(6).uniform(-900.0, -1.0, size=5000)
        xl = x.astype(np.longdouble)
        shift = xl.max()
        reference = float(shift + np.log(np.sum(np.exp(xl - shift))))
        assert logsumexp(x) == pytest.approx(reference, rel=1e-15)

    def test_non_finite_maximum_passes_through(self):
        assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
        assert logsumexp(np.array([0.0, np.inf])) == np.inf
