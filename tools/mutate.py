"""Mutation audit: does some test fail when one decision line is changed?

Each mutant is a (name, file, old, new) edit; old must occur exactly once
in the file. Every mutant is applied, one at a time, to its own copy of
the repository in a temporary directory, and the test suite is run there
with `python -m pytest -x -q -p no:cacheprovider` and PYTHONPATH=src. A
mutant is killed when the run fails; the first failing test is printed
with it. A survivor is either a rule no test pins or an edit that cannot
change any output (an equivalent mutant).

    python tools/mutate.py            # every mutant
    python tools/mutate.py NAME ...   # only the named ones

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
        "            ln_w = a.T @ alpha\n"
        "            ln_w += ln_phi\n"
        "            return point(ln_w)\n",
        "        ln_w = a.T @ alpha\n"
        "        ln_w += ln_phi\n"
        "        return point(ln_w)\n",
    ),
    (
        "entropy-log-difference",
        "src/qmaxent/classical.py",
        "    ln_ratio[lost] = np.log(rs[lost]) - np.log(ps[lost])\n",
        "",
    ),
    (
        "spin-constant-observable-tol",
        "src/qmaxent/spin.py",
        "if p.c1 == p.target:",
        "if abs(p.c1 - p.target) <= 1e-12:",
    ),
    # survives: no input is known where the smaller slack is unsound
    (
        "bracket-slack-dim",
        "src/qmaxent/quantum.py",
        "BRACKET_SLACK * dim * dim *",
        "BRACKET_SLACK * dim *",
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
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
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
    survivors = 0
    for name, path, old, new in chosen:
        killed, test = run(name, path, old, new)
        survivors += not killed
        verdict = f"killed    {test}" if killed else "survived"
        print(f"{name:<{width}}  {path:<28}  {verdict}", flush=True)
    print(f"{len(chosen) - survivors} killed, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
