"""tools/mutate.py stays in step with the source: every mutant it lists applies."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_mutate():
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_old_text_occurs_once_in_its_file():
    for name, path, old, _ in load_mutate().MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        assert count == 1, f"{name}: {count} matches in {path}"


def test_every_expected_survivor_is_a_listed_mutant():
    mutate = load_mutate()
    assert mutate.EXPECTED_SURVIVORS <= {m[0] for m in mutate.MUTANTS}
