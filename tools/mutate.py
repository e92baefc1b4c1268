"""Mutation audit: does some test fail when one decision line is changed?

Each mutant is a (name, file, old, new) edit; old must occur exactly once
in the file. Every mutant is applied, one at a time, to its own copy of
the repository in a temporary directory, and the test suite is run there
with `python -m pytest -x -q -p no:cacheprovider` and PYTHONPATH=src,
leaving out tests/test_tools.py: it checks that each old text is in the
source, which every mutant removes. A mutant is killed when the run
fails; the first failing test is printed with it. A survivor is either
a rule no test pins or an edit that cannot change any output (an
equivalent mutant).

    python tools/mutate.py            # every mutant
    python tools/mutate.py NAME ...   # only the named ones

The exit status is 1 when a mutant survives that is not in
EXPECTED_SURVIVORS, or when one that is in it is killed, and else 0.
Needs only the standard library and what the tests need. Each mutant
costs up to one full test run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        "decrement-errstate",
        "src/qmaxent/dual.py",
        "        with np.errstate(over=\"ignore\", invalid=\"ignore\"):\n"
        "            return float(r @ (v @ ((ut @ r) / sk)))\n",
        "        return float(r @ (v @ ((ut @ r) / sk)))\n",
    ),
    (
        "evaluate-errstate",
        "src/qmaxent/classical.py",
        "        with np.errstate(over=\"ignore\", invalid=\"ignore\"):\n"
        "            ln_w = a.T @ alpha if stacked else _row_sum(a, alpha)\n"
        "            ln_w += ln_phi\n"
        "            return point(ln_w)\n",
        "        ln_w = a.T @ alpha if stacked else _row_sum(a, alpha)\n"
        "        ln_w += ln_phi\n"
        "        return point(ln_w)\n",
    ),
    # the streamed exponent shares evaluate's errstate; this mutant warns
    # again on that path alone
    (
        "streamed-evaluate-errstate",
        "src/qmaxent/classical.py",
        "ln_w = a.T @ alpha if stacked else _row_sum(a, alpha)",
        "ln_w = a.T @ alpha if stacked else np.errstate(over=\"warn\")(_row_sum)(a, alpha)",
    ),
    (
        "stack-budget-le",
        "src/qmaxent/classical.py",
        "stacked = 8 * m * n <= STACK_BYTES",
        "stacked = 8 * m * n < STACK_BYTES",
    ),
    (
        "entropy-log-difference",
        "src/qmaxent/classical.py",
        "    ln_ratio[lost] = np.log(rs[lost]) - np.log(ps[lost])\n",
        "",
    ),
    (
        "damped-trial",
        "src/qmaxent/dual.py",
        "        yield from scales[scales > 0]\n",
        "        return\n",
    ),
    (
        "damped-trial-width-guard",
        "src/qmaxent/dual.py",
        "    if 0 < width < math.inf:\n",
        "    if True:\n",
    ),
    (
        "classical-row-check",
        "src/qmaxent/classical.py",
        "bounds[:, k] = _finite_range(a[k], f\"constraint {k}: values\")",
        "bounds[:, k] = a[k].min(), a[k].max()",
    ),
    (
        "normalized-reference-scaling",
        "src/qmaxent/checks.py",
        "    scaled = weights / weights.max()\n",
        "    scaled = weights\n",
    ),
    (
        "spin-constant-observable-tol",
        "src/qmaxent/spin.py",
        "if p.c1 == p.target:",
        "if abs(p.c1 - p.target) <= 1e-12:",
    ),
    (
        "stop-rule-ge",
        "src/qmaxent/dual.py",
        "    while float(np.max(np.abs(grad), initial=0.0)) > tol:\n",
        "    while float(np.max(np.abs(grad), initial=0.0)) >= tol:\n",
    ),
    (
        "total-errstate",
        "src/qmaxent/classical.py",
        "        with np.errstate(over=\"ignore\"):\n"
        "            return float(self.weights.sum())\n",
        "        return float(self.weights.sum())\n",
    ),
    (
        "psd-boundary",
        "src/qmaxent/quantum.py",
        "if not eigenvalues[0] >= PSD_EIG_TOL * trace:",
        "if not eigenvalues[0] > PSD_EIG_TOL * trace:",
    ),
    (
        "full-rank-boundary",
        "src/qmaxent/quantum.py",
        "return float(self.eigenvalues[0]) > FULL_RANK_EIG * self.trace",
        "return float(self.eigenvalues[0]) >= FULL_RANK_EIG * self.trace",
    ),
    # survives: a search of 13.1 million targets at k eps max|A| of either
    # computed spectral edge, k = -4d^2 .. 4d^2, on 1200 matrices of dim
    # 2-64 with clustered edge eigenvalues found no target whose range
    # verdict the smaller slack changes; the bracket's quotients passed
    # eigvalsh's edge by at most 10.8 eps max|A| (dim 64), under 4 d eps
    (
        "bracket-slack-dim",
        "src/qmaxent/quantum.py",
        "BRACKET_SLACK * dim * dim *",
        "BRACKET_SLACK * dim *",
    ),
    # survives as an equivalent mutant: the two differ only where a
    # trial's decrement equals the bound exactly
    (
        "line-search-strict",
        "src/qmaxent/dual.py",
        "if decrement(cand_grad) <= (1 - scale / 4) ** 2 * bound:",
        "if decrement(cand_grad) < (1 - scale / 4) ** 2 * bound:",
    ),
    # survives: no input is known that makes a solve raise LinAlgError
    (
        "cli-linalgerror",
        "src/qmaxent/cli.py",
        "except (DomainError, ShapeError, np.linalg.LinAlgError) as exc:",
        "except (DomainError, ShapeError) as exc:",
    ),
    # these three survive: each differs only where a residual along a null
    # direction, a candidate's -d.grad or a scaled spectrum equals its
    # bound exactly, which no known input hits
    (
        "early-trigger-ge",
        "src/qmaxent/dual.py",
        "if np.any(np.abs(null @ grad) > tol):",
        "if np.any(np.abs(null @ grad) >= tol):",
    ),
    (
        "certify-skip-lt",
        "src/qmaxent/dual.py",
        "if -(d @ grad) <= margin:",
        "if -(d @ grad) < margin:",
    ),
    (
        "float-range-gt",
        "src/qmaxent/quantum.py",
        "if spec > np.finfo(float).max / big:",
        "if spec >= np.finfo(float).max / big:",
    ),
    # survives: the factor 2 is a rounding margin on the bracket's bound
    # of the spectrum, and no known input falls between max/(2d) and max/d
    (
        "float-range-trigger-dim",
        "src/qmaxent/quantum.py",
        "np.finfo(float).max / (2 * dim)",
        "np.finfo(float).max / dim",
    ),
    # the three fast paths survive as equivalent mutants: each skips work
    # whose result the general path computes to the same bytes
    (
        "matrix-pair-fast-path",
        "src/qmaxent/serialization.py",
        "type(pair[0]) is type(pair[1]) is float:",
        "type(pair[0]) is type(pair[1]) is float and False:",
    ),
    (
        "vector-float-fast-path",
        "src/qmaxent/serialization.py",
        "        if type(x) is not float:\n",
        "        if True:\n",
    ),
    (
        "float-lines-fast-path",
        "src/qmaxent/serialization.py",
        "            if lines is not None:\n",
        "            if False:\n",
    ),
]

EXPECTED_SURVIVORS = {
    "bracket-slack-dim",
    "line-search-strict",
    "cli-linalgerror",
    "early-trigger-ge",
    "certify-skip-lt",
    "float-range-gt",
    "float-range-trigger-dim",
    "matrix-pair-fast-path",
    "vector-float-fast-path",
    "float-lines-fast-path",
}

IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work", "_out", "*.egg-info"
)


def first_failure(output: str) -> str:
    """The first FAILED or ERROR line of pytest's short summary, else the output's last line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    lines = output.strip().splitlines()
    return lines[-1] if lines else ""


def run(name: str, path: str, old: str, new: str) -> tuple[bool, str]:
    """(killed, first failing test) for one mutant, run in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        target = tree / path
        text = target.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit(f"{name}: expected one match in {path}, found {text.count(old)}")
        target.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_tools.py"],
            cwd=tree, env=env, capture_output=True, text=True,
        )
    if done.returncode == 0:
        return False, ""
    return True, first_failure(done.stdout + done.stderr)


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    width = max(len(m[0]) for m in chosen)
    survivors, unexpected = 0, []
    for name, path, old, new in chosen:
        killed, test = run(name, path, old, new)
        survivors += not killed
        if killed == (name in EXPECTED_SURVIVORS):
            unexpected.append(name)
        verdict = f"killed    {test}" if killed else "survived"
        print(f"{name:<{width}}  {path:<28}  {verdict}", flush=True)
    print(f"{len(chosen) - survivors} killed, {survivors} survived")
    if unexpected:
        print(f"not as expected: {', '.join(unexpected)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
