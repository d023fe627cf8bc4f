"""CI job ``chaos_smoke``: the fault-injection recovery drills through
the ``contract-broker chaos`` CLI (``tests/chaos`` is tier-1's)."""

import json
import shutil

import pytest

from repro.broker.journal import open_database
from repro.check.chaos import DEFAULT_MUTATIONS, _spec


@pytest.mark.guards(layers=("cli", "check", "dist"), budget=120)
def test_journal_crash_recovery_drill(run, artifacts):
    """The full stride-1 sweep: every truncation point of a 12-mutation
    journal recovers a consistent prefix and reconverges; plus the
    persist-crash and quarantine drills.  The journal the drill sweeps
    is left in the artifacts, byte for byte."""
    shutil.rmtree(artifacts / "journal-db", ignore_errors=True)
    db = open_database(artifacts / "journal-db")
    for i in range(DEFAULT_MUTATIONS):
        db.register(_spec(i))
    db.journal.close()
    out = run("-m", "repro.cli", "chaos", "--json").stdout
    (artifacts / "chaos-report.json").write_text(out)
    assert json.loads(out)["ok"], out
