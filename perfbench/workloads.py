"""The three benchmark workloads.

Each workload builds, from its seed, a pool of raw numpy inputs (or
problem files) with planted answers, and a schedule that cycles through
the pool. An op is one call into qmaxent; objects such as DensityMatrix
and the constraints are built inside the op, because users pay for their
validation on every problem. ``call`` runs the op, ``check`` compares
its outcome with the planted answer and returns an error message or
None. Checking is kept out of ``call`` so it is neither timed nor traced.

The schedule starts with the largest problem, so the untimed warm-up op
(the schedule's first item) also pays the one-time costs, such as BLAS
thread start-up, that the largest sizes trigger.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import qmaxent
import qmaxent.cli

import problems

MULTIPLIER_TOL = 1e-6


def multiplier_error(alpha, beta) -> str | None:
    """None when |alpha - beta| <= 1e-6 (1 + |beta|) in max norm."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != beta.shape:
        return f"multipliers have shape {alpha.shape}, expected {beta.shape}"
    gap = float(np.max(np.abs(alpha - beta)))
    if not gap <= MULTIPLIER_TOL * (1.0 + float(np.max(np.abs(beta)))):
        return f"multipliers miss the planted beta by {gap:.3e}"
    return None


class PlantedSolve:
    """A solver workload whose reports must converge to the planted beta."""

    per_op_process = False

    @property
    def cycle(self) -> int:
        """Ops in one round of the mix; timed runs measure whole rounds."""
        return len(self.cells)

    def check(self, item, report) -> str | None:
        if not report.converged:
            return f"did not converge after {report.iterations} iterations"
        return multiplier_error(report.multipliers, item["beta"])


class QuantumDense(PlantedSolve):
    """solve_quantum on dim {16, 32, 64} x m {4, 8, 16}, round robin over the cells.

    Each evaluation of the dual costs one Hermitian eigendecomposition, so
    this is where changes to the quantum Newton loop and its Hessian show.
    The slowest cell, (64, 16), is run twice per cycle: with nine equal
    cells p90 fell at the low edge of that cell, between it and a cell
    half as slow, and jumped between them from seed to seed. With ten
    slots p90 is the middle of the (64, 16) block and p50 the middle of
    the overlapping (16, 16) and (64, 4) cells.
    """

    name = "quantum_dense"
    cells = [(64, 16), (64, 8), (64, 4), (32, 16), (32, 8), (32, 4), (16, 16), (16, 8), (16, 4),
             (64, 16)]
    per_cell = 12
    trace_ops = 60

    def __init__(self, seed: int, tiny: bool = False, limit: int | None = None, workdir=None):
        if tiny:
            self.cells, self.per_cell, self.trace_ops = [(4, 2), (3, 1)], 2, 4
        rng = np.random.default_rng(seed)
        count = len(self.cells) * self.per_cell if limit is None else limit
        self.schedule = [
            problems.quantum_problem(rng, *self.cells[k % len(self.cells)]) for k in range(count)
        ]

    def call(self, item):
        prior = qmaxent.DensityMatrix(item["prior"])
        constraints = [
            qmaxent.QuantumConstraint(qmaxent.HermitianOperator(a), t)
            for a, t in zip(item["observables"], item["targets"])
        ]
        return qmaxent.solve_quantum(prior, constraints)


class ClassicalLarge(PlantedSolve):
    """solve_classical with n from 1e5 to 1e6 states and m from 4 to 16.

    The m x n observable block is 3 MB to 128 MB, so the working set
    spans the 2 MiB per-core L2 but stays under the 300 MiB shared L3.
    No eigensolver runs here. A cycle is one n = 1e6, m = 16 op and a
    ladder of 14 sizes, each about 1.13 times the work of the one before
    (n from 1e5 to 2e5 as m goes from 4 to 16). Distinct steps keep p50
    and p90 off ties between sizes, and the mean op (~110 ms) leaves at
    least ten samples beyond p90 in a 30 s run even when the host runs
    1.5 times slower than usual.
    """

    name = "classical_large"
    cells = [(1_000_000, 16)] + [(round(1e5 * 2 ** (i / 13)), min(16, 4 + i)) for i in range(14)]
    per_cell = 3
    trace_ops = 30
    base_rows = 16
    base_slack = 1 << 16

    def __init__(self, seed: int, tiny: bool = False, limit: int | None = None, workdir=None):
        if tiny:
            self.cells, self.per_cell, self.trace_ops = [(1000, 3), (500, 2)], 2, 4
            self.base_rows, self.base_slack = 4, 100
        rng = np.random.default_rng(seed)
        columns = max(n for n, _ in self.cells) + self.base_slack
        base = problems.ClassicalBase(rng, self.base_rows, columns)
        count = len(self.cells) * self.per_cell if limit is None else limit
        self.schedule = [
            problems.classical_problem(rng, base, *self.cells[k % len(self.cells)])
            for k in range(count)
        ]

    def call(self, item):
        prior = qmaxent.ClassicalDistribution(item["prior"])
        constraints = [
            qmaxent.ClassicalConstraint(v, t)
            for v, t in zip(item["observables"], item["targets"])
        ]
        return qmaxent.solve_classical(prior, constraints)


class CliOneshot:
    """One `python -m qmaxent update FILE --out OUT` process per op.

    Interpreter start and `import qmaxent` dominate each command, and the
    serialization and cli modules sit on the blocking path only here. The
    file mix cycles through spin, classical (n ~ 1e3), small quantum
    (dim 2-8), large quantum (dim 16-32) and one infeasible target that
    must exit 2. Every file recurs, and a recurring file must give
    byte-identical output.
    """

    name = "cli_oneshot"
    per_op_process = True
    # (kind, size, m): the dim-32 file comes first, as the warm-up op; an
    # odd count keeps p50 on one file rather than between two
    files = [
        ("quantum", 32, 4), ("spin", 0, 1), ("classical", 1000, 2), ("quantum", 2, 1),
        ("infeasible", 4, 1), ("quantum", 16, 4), ("classical", 1200, 3), ("quantum", 8, 3),
        ("quantum", 24, 4),
    ]
    trace_ops = 9

    @property
    def cycle(self) -> int:
        return len(self.files)

    def __init__(self, seed: int, tiny: bool = False, limit: int | None = None, workdir=None):
        if tiny:
            self.files = [("quantum", 4, 2), ("spin", 0, 1), ("classical", 20, 2),
                          ("infeasible", 3, 1)]
            self.trace_ops = 4
        self.root = Path(qmaxent.__file__).resolve().parents[2]
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.outputs: dict[int, bytes] = {}
        rng = np.random.default_rng(seed)
        specs = self.files if limit is None else self.files[:limit]
        self.schedule = [self._write(rng, k, *spec) for k, spec in enumerate(specs)]

    def _write(self, rng, k: int, kind: str, size: int, m: int) -> dict:
        expect = 0
        if kind == "spin":
            p = problems.spin_problem(rng)
            doc = {"mode": "spin", "a": p["a"], "b": p["b"], "c": p["c"], "target": p["target"]}
        elif kind == "classical":
            base = problems.ClassicalBase(rng, m, size)
            p = problems.classical_problem(rng, base, size, m)
            doc = {
                "mode": "classical",
                "prior": p["prior"].tolist(),
                "constraints": [
                    {"observable": v.tolist(), "target": t}
                    for v, t in zip(p["observables"], p["targets"].tolist())
                ],
            }
        else:
            p = problems.quantum_problem(rng, size, m)
            if kind == "infeasible":
                expect = 2
                top = float(np.linalg.eigvalsh(p["observables"][0])[-1])
                p["targets"][0] = top + 0.5
            doc = {
                "mode": "quantum",
                "prior": _matrix_obj(p["prior"]),
                "constraints": [
                    {"observable": _matrix_obj(a), "target": t}
                    for a, t in zip(p["observables"], p["targets"].tolist())
                ],
            }
        path = self.workdir / f"problem-{k}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return {"index": k, "path": path, "out": self.workdir / f"report-{k}.json",
                "expect": expect, "beta": p["beta"]}

    def call(self, item):
        """Run the CLI in a child process; returns (exit code, child rusage)."""
        item["out"].unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, "-m", "qmaxent", "update", str(item["path"]), "--out", str(item["out"])],
            cwd=self.root, env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def call_main(self, item):
        """The same command through qmaxent.cli.main in this process."""
        item["out"].unlink(missing_ok=True)
        with contextlib.redirect_stderr(io.StringIO()):
            code = qmaxent.cli.main(["update", str(item["path"]), "--out", str(item["out"])])
        return code, None

    def check(self, item, outcome) -> str | None:
        code = outcome[0]
        name = item["path"].name
        if code != item["expect"]:
            return f"{name}: exit code {code}, expected {item['expect']}"
        if code != 0:
            return None
        data = item["out"].read_bytes()
        first = self.outputs.setdefault(item["index"], data)
        if data != first:
            return f"{name}: output differs from the first run of the same file"
        report = json.loads(data)
        if not report["converged"]:
            return f"{name}: report says not converged"
        return multiplier_error(report["multipliers"], item["beta"])


def _matrix_obj(matrix: np.ndarray) -> dict:
    return {
        "dim": int(matrix.shape[0]),
        "entries": [[float(z.real), float(z.imag)] for z in matrix.reshape(-1)],
    }


WORKLOADS = {w.name: w for w in (QuantumDense, ClassicalLarge, CliOneshot)}
