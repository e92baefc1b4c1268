"""Spans around qmaxent's public functions, recorded from outside the package.

Each traced function is wrapped under every module-attribute name its
callers look it up by (``qmaxent.quantum.posterior_from_multipliers``,
``qmaxent.cli.solve_quantum``, ...), so calls between qmaxent modules
are seen as well as the benchmark's own calls. ``numpy.linalg.eigh`` and
``eigvalsh`` are wrapped on ``numpy.linalg``, where ``np.linalg.eigh``
looks them up. Spans are recorded only while an op runs, kept in memory
and written out when the run ends.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span (-1 for an op's root span) and ``info`` holds
what a layer metric needs from the call, such as the matrix dimension or
the iteration count of a report.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

import numpy as np


def _dims(args, kwargs, result):
    a = np.asarray(args[0])
    return {"dim": int(a.shape[-1]), "complex": bool(np.iscomplexobj(a))}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _classical_solve(args, kwargs, result):
    return {"iterations": int(result.iterations), "n": int(args[0].n), "m": len(args[1])}


def _output_bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, function, span name, info extractor)
TRACED = [
    ("qmaxent.linalg", "matrix_log", "linalg.matrix_log", None),
    ("qmaxent.quantum", "solve_quantum", "quantum.solve", _iterations),
    ("qmaxent.quantum", "posterior_from_multipliers", "quantum.posterior_from_multipliers", None),
    ("qmaxent.quantum", "log_partition", "quantum.log_partition", None),
    ("qmaxent.quantum", "expectation", "quantum.expectation", None),
    ("qmaxent.quantum", "quantum_relative_entropy", "quantum.relative_entropy", None),
    ("qmaxent.classical", "solve_classical", "classical.solve", _classical_solve),
    ("qmaxent.classical", "logsumexp", "classical.logsumexp", None),
    ("qmaxent.classical", "relative_entropy", "classical.relative_entropy", None),
    ("qmaxent.spin", "solve_spin", "spin.solve", _iterations),
    ("qmaxent.serialization", "parse_problem", "serialization.parse", None),
    ("qmaxent.serialization", "report_to_obj", "serialization.report", None),
    ("qmaxent.serialization", "canonical_dumps", "serialization.dumps", _output_bytes),
    ("qmaxent.cli", "main", "cli.main", None),
]


class Tracer:
    """Records spans per op; the wrappers are installed only while `with` holds."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        linalg = np.linalg
        for fname in ("eigh", "eigvalsh"):
            self._wrappers.append(
                (linalg, fname, self._wrap(getattr(linalg, fname), f"linalg.{fname}", _dims)))
        homes = {home: importlib.import_module(home) for home, _, _, _ in TRACED}
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qmaxent"]
        for home, fname, span, info in TRACED:
            original = getattr(homes[home], fname)
            wrapper = self._wrap(original, span, info)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._wrappers.append((module, attr, wrapper))
        density = homes["qmaxent.quantum"].DensityMatrix
        self._wrappers.append(
            (density, "__init__", self._wrap(density.__init__, "quantum.DensityMatrix", None)))

    def __enter__(self) -> "Tracer":
        for owner, attr, wrapper in self._wrappers:
            self._patch(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1], self._op, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if info is not None:
                record[5] = info(args, kwargs, result)
            return result

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op op_id, under a root span named "op"."""
        self._op = op_id
        index = len(self.spans)
        record = ["op", time.perf_counter(), 0.0, -1, op_id, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args)
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def eig_flops(dim: int, is_complex: bool, vectors: bool) -> float:
    """Flop model for a dense Hermitian eigensolve (Golub and Van Loan, 8.3).

    A real symmetric solve costs about 4/3 n^3 flops for the eigenvalues
    alone and 9 n^3 with eigenvectors; a complex multiply-add costs four
    real ones, so complex Hermitian input costs four times as much.
    """
    flops = (9.0 if vectors else 4.0 / 3.0) * dim**3
    return 4.0 * flops if is_complex else flops


def classical_bytes(n: int, m: int, iterations: int, evaluations: int) -> float:
    """Bytes the classical solve streams, by model rather than measurement.

    Building the constraints copies the m x n observable block twice
    (ClassicalConstraint, then np.stack). Each dual evaluation streams it
    twice (exponent and means) plus about three length-n vectors; each
    Newton iteration streams it about four more times to form the
    covariance. Eight bytes per float64.
    """
    return 8.0 * n * (2 * m + evaluations * (2 * m + 3) + iterations * (4 * m + 1))


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-op layer figures from one traced pass of ``ops`` ops."""
    names = [s[0] for s in spans]
    duration = [(s[2] - s[1]) * 1e3 for s in spans]
    child_ms = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            child_ms[s[3]] += d

    def ancestor(index: int, name: str) -> int:
        parent = spans[index][3]
        while parent >= 0 and names[parent] != name:
            parent = spans[parent][3]
        return parent

    def ms(name: str) -> float:
        return sum(d for n, d in zip(names, duration) if n == name) / ops

    def count(name: str) -> int:
        return sum(1 for n in names if n == name)

    def info_sum(name: str, key: str) -> int:
        # spans of calls that raised carry no info
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    eig = [i for i, n in enumerate(names) if n in ("linalg.eigh", "linalg.eigvalsh")]
    eig_ms = sum(duration[i] for i in eig)
    op_ms = sum(d for n, d in zip(names, duration) if n == "op")
    quantum_iters = info_sum("quantum.solve", "iterations")
    quantum_eigs = sum(1 for i in eig if ancestor(i, "quantum.solve") >= 0)
    finalize = ("quantum.posterior_from_multipliers", "quantum.log_partition", "quantum.expectation")
    finalize_ms = sum(
        duration[i] for i, n in enumerate(names)
        if n in finalize and spans[i][3] >= 0 and names[spans[i][3]] == "quantum.solve"
    )
    classical_iters = info_sum("classical.solve", "iterations")
    evals_in_solve: dict[int, int] = {}
    for i, n in enumerate(names):
        if n == "classical.logsumexp":
            parent = ancestor(i, "classical.solve")
            if parent >= 0:
                evals_in_solve[parent] = evals_in_solve.get(parent, 0) + 1
    classical_bytes_total = sum(
        classical_bytes(s[5]["n"], s[5]["m"], s[5]["iterations"], evals_in_solve.get(i, 0))
        for i, s in enumerate(spans) if s[0] == "classical.solve" and s[5]
    )
    return {
        "linalg.eig_calls_per_op": len(eig) / ops,
        "linalg.eig_ms_per_op": eig_ms / ops,
        "linalg.eig_share": eig_ms / op_ms if op_ms else 0.0,
        "linalg.eig_flops_computed_per_op": sum(
            eig_flops(spans[i][5]["dim"], spans[i][5]["complex"], names[i] == "linalg.eigh")
            for i in eig if spans[i][5]
        ) / ops,
        "linalg.matrix_log_calls_per_op": count("linalg.matrix_log") / ops,
        "linalg.matrix_log_ms_per_op": ms("linalg.matrix_log"),
        "quantum.solve_ms_per_op": ms("quantum.solve"),
        "quantum.self_ms_per_op": sum(
            d - c for n, d, c in zip(names, duration, child_ms) if n == "quantum.solve"
        ) / ops,
        "quantum.iterations_per_op": quantum_iters / ops,
        "quantum.eig_calls_per_iteration": quantum_eigs / quantum_iters if quantum_iters else 0.0,
        "quantum.finalize_ms_per_op": finalize_ms / ops,
        "quantum.density_matrix_ms_per_op": ms("quantum.DensityMatrix"),
        "quantum.entropy_ms_per_op": ms("quantum.relative_entropy"),
        "classical.solve_ms_per_op": ms("classical.solve"),
        "classical.iterations_per_op": classical_iters / ops,
        "classical.dual_evals_per_op": count("classical.logsumexp") / ops,
        "classical.evals_per_iteration": (
            sum(evals_in_solve.values()) / classical_iters if classical_iters else 0.0
        ),
        "classical.logsumexp_ms_per_op": ms("classical.logsumexp"),
        "classical.bytes_computed_per_op": classical_bytes_total / ops,
        "classical.entropy_ms_per_op": ms("classical.relative_entropy"),
        "spin.solve_ms_per_op": ms("spin.solve"),
        "spin.bisection_steps_per_op": info_sum("spin.solve", "iterations") / ops,
        "serialization.parse_ms_per_op": ms("serialization.parse"),
        "serialization.report_ms_per_op": ms("serialization.report"),
        "serialization.dumps_ms_per_op": ms("serialization.dumps"),
        "serialization.output_bytes_per_op": info_sum("serialization.dumps", "bytes") / ops,
        "cli.main_ms_per_op": ms("cli.main"),
    }
