"""CI job ``monitor_smoke``: the streaming monitor across the process
boundary — a log on stdin, the exit status, stderr.  The in-process
replays (text alerts, JSON alerts from a file, every line distinct) are
tier-1's ``tests/integration/test_cli.py::TestMonitor``."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
STREAMS = "examples/streams"
SPECS = f"{STREAMS}/airfare_specs.json"
TRACE = f"{STREAMS}/airfare_trace.jsonl"
GUARDS = ("examples/streams/*",)
LAYERS = ("cli", "stream")


def alerts(out: str) -> str:
    return "".join(line for line in out.splitlines(keepends=True)
                   if line.startswith("{"))


@pytest.mark.guards(*GUARDS, layers=LAYERS, budget=60)
def test_json_alert_stream_equals_the_checked_in_one(run, artifacts):
    """The whole alert stream in order, byte for byte, for both watch
    spellings, from a file and from stdin; rewrite the checked-in files
    only in a change meant to alter alerts."""
    cases = {
        "refundable": (["--events", TRACE, "--watch", "refundable=F refund"],
                       None),
        "f_refund": (["--watch", "F refund"], (ROOT / TRACE).read_bytes()),
    }
    for name, (argv, stdin) in cases.items():
        out = run("-m", "repro.cli", "monitor", SPECS, *argv, "--json",
                  stdin=stdin).stdout
        (artifacts / f"alerts-{name}.jsonl").write_text(alerts(out))
        golden = ROOT / STREAMS / f"airfare_alerts_{name}.jsonl"
        assert alerts(out) == golden.read_text(), name


@pytest.mark.guards(*GUARDS, layers=LAYERS, budget=60)
def test_hostile_logs_and_spec_files_are_errors_never_tracebacks(
    run, artifacts
):
    """A hostile line (nesting past the stack, a byte that is not UTF-8)
    after a valid record, a missing event log and a missing spec file
    are each a clean error with exit status 1, never a traceback."""
    head = b"".join((ROOT / TRACE).read_bytes()
                    .splitlines(keepends=True)[:3])
    (artifacts / "hostile.jsonl").write_bytes(
        head + b"[" * 100_000 + b"]" * 100_000 + b"\n")
    (artifacts / "latin1.jsonl").write_bytes(head + b'{"events": ["\xff"]}\n')
    cases = [
        ([SPECS, "--events", artifacts / "hostile.jsonl"],
         "error: event log line 4 is not valid JSON: "),
        ([SPECS, "--events", artifacts / "latin1.jsonl"],
         "error: event log line 4 is not valid UTF-8: "),
        ([SPECS, "--events", "missing.jsonl"],
         "error: cannot read event log missing.jsonl"),
        (["missing-specs.json", "--events", TRACE],
         "error: cannot read spec file missing-specs.json"),
    ]
    for argv, message in cases:
        err = run("-m", "repro.cli", "monitor", *argv, status=1).stderr
        assert "Traceback" not in err, err
        assert any(line.startswith(message) for line in err.splitlines()), err
