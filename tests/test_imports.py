"""qmaxent imports numpy only and that lazily, each command loads only the
modules it runs, its numpy logsumexp, shared by both solvers, is exact to
rounding, and the names the traced benchmark wraps exist."""

import importlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qmaxent
from qmaxent.classical import logsumexp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_child(code: str) -> str:
    """Run code in a fresh interpreter that imports qmaxent from src; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy():
    code = (
        "import sys, qmaxent, qmaxent.cli\n"
        "print(sorted(n for n in sys.modules if n == 'scipy' or n.startswith('scipy.')))\n"
    )
    assert run_child(code) == "[]"


class TestLazyPackage:
    def test_import_loads_neither_numpy_nor_a_submodule(self):
        # python -m qmaxent picks its BLAS thread count after this import
        code = (
            "import sys, qmaxent\n"
            "print(sorted(n for n in sys.modules if n == 'numpy' or n.startswith('qmaxent.')))\n"
        )
        assert run_child(code) == "[]"

    def test_first_use_imports_the_home_module_and_keeps_the_name(self):
        code = (
            "import sys, qmaxent\n"
            "before = 'solve_quantum' in vars(qmaxent)\n"
            "solve = qmaxent.solve_quantum\n"
            "print(before, vars(qmaxent)['solve_quantum'] is solve,\n"
            "      solve is sys.modules['qmaxent.quantum'].solve_quantum)\n"
        )
        assert run_child(code) == "False True True"

    def test_submodules_are_reached_from_a_plain_import(self):
        code = (
            "import sys, numpy, qmaxent\n"
            "ln_z, weights = qmaxent.classical.logsumexp(numpy.zeros(2))\n"
            "print(round(ln_z, 12), qmaxent.classical is sys.modules['qmaxent.classical'])\n"
        )
        assert run_child(code) == f"{round(math.log(2), 12)} True"

    @pytest.mark.parametrize(
        "name",
        ["checks", "classical", "cli", "dual", "errors", "linalg", "quantum", "serialization",
         "spin"],
    )
    def test_each_submodule_is_an_attribute(self, name):
        module = getattr(qmaxent, name)
        assert module is importlib.import_module(f"qmaxent.{name}")
        assert vars(qmaxent)[name] is module
        assert name in dir(qmaxent)

    def test_public_names_are_their_home_modules_objects(self):
        for name in qmaxent.__all__:
            value = getattr(qmaxent, name)
            assert value.__module__.startswith("qmaxent."), name
            assert getattr(importlib.import_module(value.__module__), name) is value, name
            assert vars(qmaxent)[name] is value, name

    def test_star_import_gives_all(self):
        namespace: dict = {}
        exec("from qmaxent import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(qmaxent.__all__)

    def test_dir_lists_all_and_unknown_names_raise(self):
        assert set(qmaxent.__all__) <= set(dir(qmaxent))
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            qmaxent.no_such_name


class TestCommandLoadsOnlyItsModules:
    OPTIONAL = ("qmaxent.checks", "qmaxent.spin")

    def loaded_after_update(self, problem: str, tmp_path) -> str:
        # the entry point of python -m qmaxent, in a fresh interpreter
        code = (
            "import sys, qmaxent.__main__\n"
            f"code = qmaxent.__main__.main(['update', {str(ROOT / 'tests' / 'data' / problem)!r},"
            f" '--out', {str(tmp_path / 'report.json')!r}])\n"
            f"print(code, [n for n in {self.OPTIONAL!r} if n in sys.modules])\n"
        )
        return run_child(code)

    @pytest.mark.parametrize("problem", ["quantum_dim2.problem.json", "classical.problem.json"])
    def test_update_loads_neither_checks_nor_spin(self, problem, tmp_path):
        assert self.loaded_after_update(problem, tmp_path) == "0 []"

    def test_spin_update_loads_spin_but_not_checks(self, tmp_path):
        assert self.loaded_after_update("spin.problem.json", tmp_path) == "0 ['qmaxent.spin']"

    def test_cli_import_loads_both_solvers(self):
        # a benchmark that imports qmaxent.cli before its first timed op
        # must not pay for a solver's compile inside that op
        code = (
            "import sys, qmaxent.cli\n"
            "print([n for n in ('qmaxent.classical', 'qmaxent.quantum', 'qmaxent.checks',"
            " 'qmaxent.spin') if n in sys.modules])\n"
        )
        assert run_child(code) == "['qmaxent.classical', 'qmaxent.quantum']"


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
        # references are taken before the call, which writes the weights over x
        x = np.random.default_rng(5).normal(scale=3.0, size=200)
        reference = float(np.log(np.sum(np.exp(x))))
        ln_z, _ = logsumexp(x)
        assert ln_z == pytest.approx(reference, rel=1e-14)

    def test_weights_sum_to_one_and_match_the_shifted_formula(self):
        # the weights are the one exp divided by its own sum, not a second
        # exp(x - ln Z), whose sum is off by about eps |ln Z|
        x = np.random.default_rng(5).normal(scale=3.0, size=200)
        x_before = x.copy()
        ln_z, w = logsumexp(x)
        assert abs(float(w.sum()) - 1.0) <= 4 * np.finfo(float).eps
        np.testing.assert_allclose(w, np.exp(x_before - ln_z), rtol=1e-14, atol=0)

    def test_large_equal_entries_do_not_overflow(self):
        assert logsumexp(np.array([1000.0, 1000.0]))[0] == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-15
        )

    @pytest.mark.parametrize("lo, hi", [(-745.0, -5.0), (-2000.0, -700.0), (-60.0, -0.5)])
    def test_wide_negative_range_matches_exact_sum(self, lo, hi):
        x = np.linspace(lo, hi, 1001)
        reference = fsum_reference(x.tolist())
        assert logsumexp(x)[0] == pytest.approx(reference, rel=1e-15)

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

    def test_spread_beyond_the_float_range_gives_weight_zero_without_warning(self):
        # -1e308 - 1e308 overflows to -inf, whose exp is the weight 0; the
        # normalizer ignores that overflow itself, outside any solver
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ln_z, w = logsumexp(np.array([-1e308, 1e308]))
        assert ln_z == 1e308
        np.testing.assert_array_equal(w, [0.0, 1.0])

    def test_weights_are_written_over_x(self):
        # so that a classical evaluation makes one length-n vector, not two
        x = np.random.default_rng(7).normal(size=50)
        _, w = logsumexp(x)
        assert w is x
        assert abs(float(x.sum()) - 1.0) <= 4 * np.finfo(float).eps

    def test_quantum_gibbs_keeps_the_eigenvalues_it_stores(self):
        # the BKM kernel's gaps read state.vals
        from qmaxent import quantum

        vals = np.array([-1.5, 0.25, 2.0])
        state = quantum._gibbs(vals, np.eye(3, dtype=complex))
        assert state.vals is vals
        np.testing.assert_array_equal(vals, [-1.5, 0.25, 2.0])
        assert not np.shares_memory(state.p, vals)

    def test_is_the_one_normalizer_of_both_solvers(self):
        from qmaxent import classical, dual, quantum

        assert classical.logsumexp is dual.logsumexp is quantum.logsumexp

    @pytest.mark.parametrize("x", [[-np.inf, -np.inf], [0.0, np.inf], [0.0, np.nan]])
    def test_non_finite_maximum_gives_nan_weights_without_warning(self, x):
        # a weight vector of the input's length, all NaN, so the means are NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, w = logsumexp(np.array(x))
        assert w.shape == (2,)
        assert np.all(np.isnan(w))
