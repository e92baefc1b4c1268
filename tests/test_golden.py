"""`qmaxent update` on the problem files in tests/data gives the committed
report, standard error and exit code byte for byte.

The expected outputs come from tests/data/regenerate.py; a change that
alters any of them on purpose regenerates them and says why.
"""

from pathlib import Path

import pytest

from qmaxent import classical, cli

DATA = Path(__file__).resolve().parent / "data"
PROBLEMS = sorted(p.name.removesuffix(".problem.json") for p in DATA.glob("*.problem.json"))


def test_the_golden_set_covers_every_exit_code():
    codes = {int((DATA / f"{name}.exit").read_text()) for name in PROBLEMS}
    assert codes == {0, 1, 2, 3}


@pytest.mark.parametrize("name", PROBLEMS)
def test_update_output_is_byte_identical(name, tmp_path, monkeypatch, capsys):
    # run from the data folder, so a message naming the file reads as committed
    monkeypatch.chdir(DATA)
    out = tmp_path / "report.json"
    code = cli.main(["update", f"{name}.problem.json", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == int((DATA / f"{name}.exit").read_text())
    assert captured.out == ""
    assert captured.err == (DATA / f"{name}.stderr").read_text(encoding="utf-8")
    expected = DATA / f"{name}.report.json"
    if expected.exists():
        assert out.read_bytes() == expected.read_bytes()
    else:
        assert not out.exists()


@pytest.mark.parametrize("name", [p for p in PROBLEMS if p.startswith("classical")])
def test_streamed_classical_update_keeps_the_exit_code_and_message(
        name, tmp_path, monkeypatch, capsys):
    # every block streamed: its sums are added up in another order, so the
    # report may move in its last bits, but not the exit code or stderr
    monkeypatch.setattr(classical, "STACK_BYTES", -1)
    monkeypatch.chdir(DATA)
    code = cli.main(["update", f"{name}.problem.json", "--out", str(tmp_path / "report.json")])
    assert code == int((DATA / f"{name}.exit").read_text())
    assert capsys.readouterr().err == (DATA / f"{name}.stderr").read_text(encoding="utf-8")
