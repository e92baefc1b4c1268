"""qmaxent imports numpy only, its numpy logsumexp is exact to rounding, and the
names the traced benchmark wraps exist."""

import importlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qmaxent.classical import logsumexp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def test_traced_benchmark_names_resolve(monkeypatch):
    # perfbench/tracing.py wraps these module attributes by name; one
    # deleted or renamed in src/ would break the traced benchmark silently
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for module, name, _, _ in tracing.TRACED:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
    from qmaxent.quantum import DensityMatrix

    assert "__init__" in vars(DensityMatrix)


def fsum_reference(x) -> float:
    # every exp term is rounded once and the sum is exact
    shift = max(x)
    return shift + math.log(math.fsum(math.exp(v - shift) for v in x))


class TestLogSumExp:
    def test_matches_direct_formula_on_moderate_inputs(self):
        x = np.random.default_rng(5).normal(scale=3.0, size=200)
        ln_z, _ = logsumexp(x)
        assert ln_z == pytest.approx(float(np.log(np.sum(np.exp(x)))), rel=1e-14)

    def test_weights_sum_to_one_and_match_the_shifted_formula(self):
        # the weights are the one exp divided by its own sum, not a second
        # exp(x - ln Z), whose sum is off by about eps |ln Z|
        x = np.random.default_rng(5).normal(scale=3.0, size=200)
        ln_z, w = logsumexp(x)
        assert abs(float(w.sum()) - 1.0) <= 4 * np.finfo(float).eps
        np.testing.assert_allclose(w, np.exp(x - ln_z), rtol=1e-14, atol=0)

    def test_large_equal_entries_do_not_overflow(self):
        assert logsumexp(np.array([1000.0, 1000.0]))[0] == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-15
        )

    @pytest.mark.parametrize("lo, hi", [(-745.0, -5.0), (-2000.0, -700.0), (-60.0, -0.5)])
    def test_wide_negative_range_matches_exact_sum(self, lo, hi):
        x = np.linspace(lo, hi, 1001)
        assert logsumexp(x)[0] == pytest.approx(fsum_reference(x.tolist()), rel=1e-15)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double has no more precision than float64 here",
    )
    def test_matches_extended_precision_reference(self):
        x = np.random.default_rng(6).uniform(-900.0, -1.0, size=5000)
        xl = x.astype(np.longdouble)
        shift = xl.max()
        reference = float(shift + np.log(np.sum(np.exp(xl - shift))))
        assert logsumexp(x)[0] == pytest.approx(reference, rel=1e-15)

    def test_non_finite_maximum_passes_through(self):
        assert logsumexp(np.array([-np.inf, -np.inf]))[0] == -np.inf
        assert logsumexp(np.array([0.0, np.inf]))[0] == np.inf

    @pytest.mark.parametrize("x", [[-np.inf, -np.inf], [0.0, np.inf], [0.0, np.nan]])
    def test_non_finite_maximum_gives_nan_weights_without_warning(self, x):
        # a weight vector of the input's length, all NaN, so the means are NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, w = logsumexp(np.array(x))
        assert w.shape == (2,)
        assert np.all(np.isnan(w))
