"""Test-wide settings: every @given test draws the same examples on every run,
and the fixture that runs a classical test on both of the solve's paths."""

import pytest
from hypothesis import settings

from qmaxent import classical

# derandomize seeds each test from a hash of its own code, so tier-1 is
# deterministic and a failure reproduces; it also turns off the example
# database
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(params=["stacked", "streamed"])
def classical_path(request, monkeypatch):
    """Run a classical test as given, and again with every constraint block streamed.

    A STACK_BYTES of -1 puts every block above the budget, one with no
    rows too, so solve_classical reads each row in place in slices.
    """
    if request.param == "streamed":
        monkeypatch.setattr(classical, "STACK_BYTES", -1)
    return request.param
