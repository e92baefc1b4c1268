"""Rewrite the expected outputs of the golden problem files in this folder.

For each NAME.problem.json, runs `qmaxent update NAME.problem.json --out
NAME.report.json` through qmaxent.cli.main and keeps what it gives:
NAME.report.json (absent when the command writes no report), the
standard error text in NAME.stderr and the exit code in NAME.exit.
tests/test_golden.py compares the current code against these bytes.

Run it only when a change of output is intended, and say so with the
change:

    PYTHONPATH=src python tests/data/regenerate.py
"""

import contextlib
import io
import os
from pathlib import Path

from qmaxent import cli

HERE = Path(__file__).resolve().parent


def run(problem: Path) -> tuple[int, str, bytes | None]:
    """Exit code, standard error and report bytes of one update, run from this folder.

    The file is named relative to this folder, so that a message naming
    it reads the same wherever the repository is.
    """
    out = HERE / problem.name.replace(".problem.json", ".tmp.json")
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["update", problem.name, "--out", str(out)])
    report = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, err.getvalue(), report


def main() -> None:
    os.chdir(HERE)
    for problem in sorted(HERE.glob("*.problem.json")):
        stem = problem.name.removesuffix(".problem.json")
        code, err, report = run(problem)
        (HERE / f"{stem}.exit").write_text(f"{code}\n", encoding="utf-8")
        (HERE / f"{stem}.stderr").write_text(err, encoding="utf-8")
        report_path = HERE / f"{stem}.report.json"
        if report is None:
            report_path.unlink(missing_ok=True)
        else:
            report_path.write_bytes(report)
        print(f"{stem}: exit {code}")


if __name__ == "__main__":
    main()
