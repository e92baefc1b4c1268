"""Test-wide settings: every @given test draws the same examples on every run."""

from hypothesis import settings

# derandomize seeds each test from a hash of its own code, so tier-1 is
# deterministic and a failure reproduces; it also turns off the example
# database
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
