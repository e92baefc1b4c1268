"""Command-line front end.

update runs a one-shot solve from a JSON problem file and writes the
report; verify runs the property-check suite over seeded random
instances. Machine-readable JSON goes to --out or standard output;
the human-readable summary goes to standard error. Exit codes: 0
success/converged, 1 parse/domain/usage error, 2 infeasible target,
3 non-convergence (verify: 1 when any check fails).

Each command loads only what it runs: update loads qmaxent.spin only
for a spin file, and only verify loads qmaxent.checks. The classical and
quantum solvers load with this module.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .classical import relative_entropy, solve_classical
from .errors import DomainError, InfeasibleTargetError, ShapeError
from .quantum import quantum_relative_entropy, solve_quantum
from .serialization import canonical_dumps, parse_problem, property_results_to_obj, report_to_obj

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the exit contract
    # reserves 2 for infeasibility, so route usage errors to 1.
    def error(self, message):
        raise _UsageError(message)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def run_update(path: str, out_path: str | None = None) -> int:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        mode, payload = parse_problem(json.loads(text))
    except OSError as exc:
        _say(f"error: {exc}")
        return EXIT_ERROR
    except json.JSONDecodeError as exc:
        _say(f"error: {path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        return EXIT_ERROR
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, an integer with more digits than int()
        # converts from text, arrays nested deeper than the decoder's
        # recursion limit, or a problem that parse_problem rejects: its
        # ProblemFormatError, DomainError and ShapeError are ValueErrors
        _say(f"error: {path}: {exc}")
        return EXIT_ERROR

    try:
        if mode == "spin":
            from .spin import solve_spin, spin_relative_entropy

            problem = payload["problem"]
            report = solve_spin(problem)
            entropy = {
                v: spin_relative_entropy(report.posterior, problem, v) for v in ("full", "umegaki")
            }
        else:
            prior = payload["prior"]
            solve = solve_classical if mode == "classical" else solve_quantum
            report = solve(prior, payload["constraints"], **payload["options"])
            if mode == "classical":
                entropy_of, variants = relative_entropy, ("full", "normalized")
            else:
                entropy_of, variants = quantum_relative_entropy, ("full", "umegaki")
            entropy = {v: entropy_of(report.posterior, prior, v) for v in variants}
    except InfeasibleTargetError as exc:
        _say(f"infeasible: {exc}")
        return EXIT_INFEASIBLE
    except (DomainError, ShapeError, np.linalg.LinAlgError) as exc:
        _say(f"error: {exc}")
        return EXIT_ERROR

    try:
        _write_output(canonical_dumps(report_to_obj(mode, report, entropy)), out_path)
    except OSError as exc:
        _say(f"error: {exc}")
        return EXIT_ERROR
    verdict = "converged" if report.converged else "did not converge"
    _say(f"{mode}: {verdict} in {report.iterations} iterations, max residual {report.max_residual:.3e}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def run_verify(
    seed: int | None = None, trials: int | None = None, out_path: str | None = None
) -> int:
    """Run the property checks; a seed or trials of None takes the default in qmaxent.checks."""
    from . import checks

    seed = checks.DEFAULT_SEED if seed is None else seed
    trials = checks.DEFAULT_TRIALS if trials is None else trials
    if trials < 1:
        _say(f"error: trials must be at least 1, got {trials}")
        return EXIT_ERROR
    if seed < 0:
        _say(f"error: seed must be non-negative, got {seed}")
        return EXIT_ERROR
    results = checks.run_all_checks(seed=seed, trials=trials)
    try:
        _write_output(canonical_dumps(property_results_to_obj(results)), out_path)
    except OSError as exc:
        _say(f"error: {exc}")
        return EXIT_ERROR
    for r in results:
        status = "pass" if r.passed else "FAIL"
        _say(f"{status}  {r.name}: max deviation {r.max_deviation:.3e} (threshold {r.threshold:.0e})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_ERROR


def main(argv=None) -> int:
    parser = _Parser(
        prog="qmaxent",
        description="Relative-entropy updating of distributions and density matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    update = sub.add_parser("update", help="solve a problem file and write the report")
    update.add_argument("problem", help="path to a JSON problem file")
    update.add_argument("--out", help="write the JSON report here instead of stdout")

    verify = sub.add_parser("verify", help="run the property-check suite")
    verify.add_argument("--seed", type=int, help="random seed")
    verify.add_argument("--trials", type=int, help="instances per check")
    verify.add_argument("--out", help="write the JSON report here instead of stdout")

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _say(f"usage error: {exc}")
        return EXIT_ERROR

    if args.command == "update":
        return run_update(args.problem, args.out)
    return run_verify(args.seed, args.trials, args.out)
