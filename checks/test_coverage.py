"""CI job ``coverage``: the tier-1 suite under ``pytest-cov``."""

import pytest

from tests.layers import ALL


@pytest.mark.guards("tests/*", layers=ALL, budget=1800)
def test_tier1_coverage_ratchet(run):
    """The floor is a ratchet: raise it when coverage rises, never lower
    it to merge — a conservative few points under the measured line rate
    so flaky skips cannot break CI."""
    pytest.importorskip("pytest_cov")
    run("-m", "pytest", "-q", "--cov=repro", "--cov-report=term",
        "--cov-fail-under=80")
