"""CI job ``conformance_smoke``: the 15-cell lattice against the
explicit-model oracle.  The seed is printed in the summary line, and a
failure's artifacts replay standalone via ``check --replay FILE``."""

import pytest

GUARDS = ("src/*", "scripts/dump_answers.py")


@pytest.mark.guards(*GUARDS, budget=2400)
def test_full_lattice_sweep(run, artifacts):
    """``scripts/dump_answers.py`` is ``contract-broker check`` (same
    runner, same lattice) that also writes what every cell answered on
    every case: no PR may change an answer, so the next PR diffs its own
    dump against ``conformance-answers.jsonl`` instead of re-running its
    parent commit."""
    out = run("scripts/dump_answers.py", "--seed", "7", "--cases", "200",
              "--artifacts", artifacts / "conformance-artifacts",
              "--out", artifacts / "conformance-answers.jsonl").stdout
    assert "x 15 configuration(s) = 3000 differential run(s)" in out


@pytest.mark.guards(*GUARDS, budget=120)
def test_monitor_cells_at_the_wide_profile(run, artifacts):
    """Stream ≡ batch (invariant 13) at ``wide``: 4-event vocabularies,
    3-5 contracts and depth-4 formulas, which the ``small`` sweep never
    reaches; ``ndfs`` rides along because the decider and the watch
    masks expand one compatibility product."""
    run("-m", "repro.cli", "check", "--seed", "7", "--cases", "200",
        "--profile", "wide", "--configs", "ndfs,monitor-stream,monitor-unknown",
        "--artifacts", artifacts / "conformance-artifacts")
