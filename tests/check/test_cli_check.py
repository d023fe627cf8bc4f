"""The ``check`` CLI subcommand: exit codes, seed line, JSON, replay."""

import json

from repro.check import generate_case, write_artifact
from repro.check.runner import Disagreement
from repro.cli import main
from repro.core.permission import permits_encoded as real_permits


def test_clean_run_exits_zero(tmp_path, capsys):
    code = main(
        ["check", "--seed", "7", "--cases", "5",
         "--artifacts", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    # the seed line is the reproduction handle CI logs rely on
    assert "seed=7" in out
    assert "-> OK" in out
    assert list(tmp_path.iterdir()) == []


def test_json_output_includes_metrics(tmp_path, capsys):
    # two cells: the JSON shape does not depend on the lattice, and the
    # full lattice goes through the CLI in test_clean_run_exits_zero
    code = main(
        ["check", "--seed", "3", "--cases", "3", "--json",
         "--configs", "ndfs,ndfs-planner", "--artifacts", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out[out.index("{"):])
    assert doc["ok"] is True
    assert doc["metrics"]["counters"]["check.configs_run"] > 0


def test_config_subset_and_profile(tmp_path, capsys):
    code = main(
        ["check", "--seed", "1", "--cases", "4", "--profile", "tiny",
         "--configs", "ndfs,ndfs+pf+proj", "--artifacts", str(tmp_path)]
    )
    assert code == 0
    assert "configs=2" in capsys.readouterr().out


def test_unknown_config_is_a_cli_error(tmp_path, capsys):
    # a name that never existed, and the cells 4.0 removed
    for name in ("bogus", "scc", "scc+pf+proj", "scc-planner",
                 "parallel-x2"):
        code = main(["check", "--configs", name,
                     "--artifacts", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown configuration" in err and name in err


def test_replaying_an_artifact_of_a_removed_cell_fails_cleanly(
    tmp_path, capsys
):
    """A 3.x artifact naming an ``scc*`` cell cannot be replayed: the
    cell's decider is gone, and the replay says so instead of silently
    running another configuration."""
    failure = Disagreement(
        case=generate_case(seed=7, case_index=0),
        config_name="scc",
        label="direct",
        kind="exact-mismatch",
        expected=("c0",),
        got=(),
    )
    path = write_artifact(tmp_path, failure, seed=7)
    code = main(["check", "--replay", str(path)])
    assert code == 1
    assert "unknown configuration" in capsys.readouterr().err


def test_injected_bug_exits_nonzero_and_writes_artifact(
    tmp_path, capsys, monkeypatch
):
    def inverted(contract, query, binding=None, **kwargs):
        return not real_permits(contract, query, binding, **kwargs)

    monkeypatch.setattr("repro.broker.database.permits_encoded", inverted)
    code = main(
        ["check", "--seed", "7", "--cases", "3", "--configs", "ndfs",
         "--artifacts", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "DISAGREEMENT" in out
    artifacts = list(tmp_path.glob("repro-*.json"))
    assert artifacts

    # replay through the CLI while the bug is installed -> exit 1
    code = main(["check", "--replay", str(artifacts[0])])
    assert code == 1
    assert "FAILURE REPRODUCED" in capsys.readouterr().out

    # and after the fix -> exit 0
    monkeypatch.undo()
    code = main(["check", "--replay", str(artifacts[0])])
    assert code == 0
    assert "passes" in capsys.readouterr().out


def test_replay_handcrafted_artifact(tmp_path, capsys):
    """An artifact written directly (not via a run) replays too."""
    case = generate_case(seed=7, case_index=0)
    failure = Disagreement(
        case=case,
        config_name="ndfs+pf",
        label="direct",
        kind="exact-mismatch",
        expected=("c0",),
        got=(),
    )
    path = write_artifact(tmp_path, failure, seed=7)
    code = main(["check", "--replay", str(path)])
    assert code == 0  # the current stack is correct, so it passes
    assert "passes" in capsys.readouterr().out
