"""JSON interchange: matrices, problem files, solver and check reports.

Matrices travel as { "dim": n, "entries": [[re, im], ...] } with entries
row-major of length n^2. Report writing goes through canonical_dumps,
which formats every float with 17 significant digits and preserves key
order, so identical inputs produce byte-identical output.

Numbers cross between JSON and numpy in bulk: a matrix is read with one
check of each pair and one array conversion, and a list of floats or of
[re, im] float pairs is written with one join. Only the spin branch of
parse_problem loads qmaxent.spin, and qmaxent.checks is never loaded
here, so `qmaxent update` on a classical or quantum file compiles
neither module.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .classical import ClassicalConstraint, ClassicalDistribution
from .dual import SolverReport
from .linalg import HermitianOperator
from .quantum import DensityMatrix, QuantumConstraint

if TYPE_CHECKING:
    from .checks import PropertyResult


class ProblemFormatError(ValueError):
    """A problem file or matrix object does not match the expected shape."""


# JSON integers have no size limit; float() raises OverflowError past 2^1024
_BEYOND_FLOAT = "integer is beyond the float range"


def matrix_to_obj(matrix) -> dict:
    arr = np.ascontiguousarray(matrix, dtype=complex)
    # each complex entry viewed as its [re, im] float pair
    pairs = arr.reshape(-1).view(float).reshape(-1, 2)
    return {"dim": arr.shape[0], "entries": pairs.tolist()}


def _real_pair(pair, where: str) -> tuple[float, float]:
    """The [re, im] pair as two floats, or a ProblemFormatError naming it."""
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
    ):
        raise ProblemFormatError(f"{where}: expected a [re, im] pair of reals, got {pair!r}")
    try:
        return float(pair[0]), float(pair[1])
    except OverflowError:
        raise ProblemFormatError(f"{where}: {_BEYOND_FLOAT}") from None


def matrix_from_obj(obj, where: str = "matrix") -> np.ndarray:
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object with dim and entries")
    dim = obj.get("dim")
    entries = obj.get("entries")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ProblemFormatError(f"{where}.dim: expected a positive integer, got {dim!r}")
    if not isinstance(entries, list) or len(entries) != dim * dim:
        found = len(entries) if isinstance(entries, list) else type(entries).__name__
        raise ProblemFormatError(
            f"{where}.entries: expected {dim * dim} [re, im] pairs, got {found}"
        )
    copied = False
    for k, pair in enumerate(entries):
        # a pair of two floats needs no check; any other is checked and
        # replaced by its floats, in a copy, so integers convert as float() does
        if type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is float:
            continue
        if not copied:
            entries, copied = list(entries), True
        entries[k] = _real_pair(pair, f"{where}.entries[{k}]")
    return np.array(entries, dtype=float).view(complex).reshape(dim, dim)


def _real_vector(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ProblemFormatError(f"{where}: expected a nonempty array of reals")
    for k, x in enumerate(obj):
        # a float needs no check; _real_scalar names any other entry that
        # is not a real number or is an integer beyond the float range
        if type(x) is not float:
            _real_scalar(x, f"{where}[{k}]")
    return np.asarray(obj, dtype=float)


def _hermitian(obj, where: str) -> HermitianOperator:
    return HermitianOperator(matrix_from_obj(obj, where))


def _real_scalar(obj, where: str) -> float:
    if not isinstance(obj, (int, float)) or isinstance(obj, bool):
        raise ProblemFormatError(f"{where}: expected a real number, got {obj!r}")
    try:
        return float(obj)
    except OverflowError:
        raise ProblemFormatError(f"{where}: {_BEYOND_FLOAT}") from None


def _solver_options(obj) -> dict:
    options: dict = {}
    if obj is None:
        return options
    if not isinstance(obj, dict):
        raise ProblemFormatError("solver: expected an object")
    if "tol" in obj:
        tol = _real_scalar(obj["tol"], "solver.tol")
        if not (math.isfinite(tol) and tol > 0):
            raise ProblemFormatError(f"solver.tol: must be finite and positive, got {tol!r}")
        options["tol"] = tol
    if "max_iter" in obj:
        it = obj["max_iter"]
        if not isinstance(it, int) or isinstance(it, bool) or it < 1:
            raise ProblemFormatError(f"solver.max_iter: expected a positive integer, got {it!r}")
        options["max_iter"] = it
    return options


def parse_problem(obj) -> tuple[str, dict]:
    """Split a parsed problem file into (mode, payload).

    classical payload: prior (ClassicalDistribution), constraints, options.
    quantum payload: prior (DensityMatrix), constraints, options.
    spin payload: problem (SpinProblem); its solver block is checked, then ignored.
    """
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    mode = obj.get("mode")
    if mode not in ("classical", "quantum", "spin"):
        raise ProblemFormatError(
            f"mode: expected classical, quantum or spin, got {mode!r}"
        )
    options = _solver_options(obj.get("solver"))

    if mode == "spin":
        c = obj.get("c")
        if not isinstance(c, list) or len(c) != 4:
            raise ProblemFormatError("c: expected [c1, cx, cy, cz]")
        from .spin import SpinProblem

        problem = SpinProblem(
            a=_real_scalar(obj.get("a"), "a"),
            b=_real_scalar(obj.get("b"), "b"),
            c1=_real_scalar(c[0], "c[0]"),
            cx=_real_scalar(c[1], "c[1]"),
            cy=_real_scalar(c[2], "c[2]"),
            cz=_real_scalar(c[3], "c[3]"),
            target=_real_scalar(obj.get("target"), "target"),
        )
        return mode, {"problem": problem}

    raw_constraints = obj.get("constraints", [])
    if not isinstance(raw_constraints, list):
        raise ProblemFormatError("constraints: expected an array")

    if mode == "classical":
        prior = ClassicalDistribution(_real_vector(obj.get("prior"), "prior"))
        read, constraint = _real_vector, ClassicalConstraint
    else:
        prior = DensityMatrix(matrix_from_obj(obj.get("prior"), "prior"))
        read, constraint = _hermitian, QuantumConstraint
    constraints = []
    for k, entry in enumerate(raw_constraints):
        if not isinstance(entry, dict):
            raise ProblemFormatError(f"constraints[{k}]: expected an object")
        observable = read(entry.get("observable"), f"constraints[{k}].observable")
        target = _real_scalar(entry.get("target"), f"constraints[{k}].target")
        constraints.append(constraint(observable, target))
    return mode, {"prior": prior, "constraints": constraints, "options": options}


def report_to_obj(mode: str, report: SolverReport, entropy: dict) -> dict:
    if isinstance(report.posterior, ClassicalDistribution):
        posterior = report.posterior.weights.tolist()
    else:
        posterior = matrix_to_obj(report.posterior.matrix)
    return {
        "mode": mode,
        "converged": bool(report.converged),
        "iterations": int(report.iterations),
        "multipliers": [float(a) for a in report.multipliers],
        "log_partition": float(report.log_partition),
        "residuals": [float(r) for r in report.residuals],
        "posterior": posterior,
        "entropy": entropy,
    }


def property_results_to_obj(results: Sequence[PropertyResult]) -> list:
    return [
        {
            "name": r.name,
            "max_deviation": float(r.max_deviation),
            "threshold": float(r.threshold),
            "passed": bool(r.passed),
            "detail": r.detail,
        }
        for r in results
    ]


def _format_floats(values: list) -> list[str]:
    """Each float with 17 significant digits, NaN and +-inf as null."""
    texts = [format(x, ".17g") for x in values]
    if "nan" in texts or "inf" in texts or "-inf" in texts:
        texts = ["null" if t in ("nan", "inf", "-inf") else t for t in texts]
    return texts


def _float_lines(items: list, inner: str) -> str | None:
    """The item lines, at indent inner, of a list of floats or of [float, float] pairs.

    The text is what the recursive emitter writes for them. None for any
    other list, which that emitter then writes item by item.
    """
    kinds = set(map(type, items))
    if kinds == {float}:
        return inner + f",\n{inner}".join(_format_floats(items))
    if kinds != {list} or set(map(len, items)) != {2}:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float}:
        return None
    texts = _format_floats(flat)
    deeper = inner + "  "
    # re and im joined within each pair, then the pairs joined
    within, between = f",\n{deeper}", f"\n{inner}],\n{inner}[\n{deeper}"
    body = between.join(map(within.join, zip(texts[::2], texts[1::2])))
    return f"{inner}[\n{deeper}{body}\n{inner}]"


def canonical_dumps(value) -> str:
    """Deterministic JSON text: 17-significant-digit floats, stable keys, two-space indent."""
    pieces: list[str] = []

    def emit(node, depth: int) -> None:
        pad = "  " * depth
        inner = pad + "  "
        if node is None:
            pieces.append("null")
        elif isinstance(node, bool):
            pieces.append("true" if node else "false")
        elif isinstance(node, (int, np.integer)):
            pieces.append(str(int(node)))
        elif isinstance(node, (float, np.floating)):
            pieces.extend(_format_floats([float(node)]))
        elif isinstance(node, str):
            pieces.append(json.dumps(node))
        elif isinstance(node, dict):
            if not node:
                pieces.append("{}")
                return
            pieces.append("{\n")
            for i, (key, item) in enumerate(node.items()):
                pieces.append(f"{inner}{json.dumps(str(key))}: ")
                emit(item, depth + 1)
                pieces.append(",\n" if i < len(node) - 1 else "\n")
            pieces.append(pad + "}")
        elif isinstance(node, (list, tuple, np.ndarray)):
            items = list(node)
            if not items:
                pieces.append("[]")
                return
            lines = _float_lines(items, inner)
            if lines is not None:
                pieces.append(f"[\n{lines}\n{pad}]")
                return
            pieces.append("[\n")
            for i, item in enumerate(items):
                pieces.append(inner)
                emit(item, depth + 1)
                pieces.append(",\n" if i < len(items) - 1 else "\n")
            pieces.append(pad + "]")
        else:
            raise TypeError(f"cannot serialize {type(node).__name__}")

    emit(value, 0)
    pieces.append("\n")
    return "".join(pieces)
