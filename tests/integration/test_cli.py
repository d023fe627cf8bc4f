"""Tests for the command-line interface."""

import io
import json
import os
import queue
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main

STREAMS = Path(__file__).parents[2] / "examples" / "streams"


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "specs.json"
    docs = [
        {"name": "refund-friendly", "clauses": ["F refund"],
         "attributes": {"price": 100}},
        {"name": "no-refunds", "clauses": ["G !refund"],
         "attributes": {"price": 50}},
    ]
    path.write_text(json.dumps(docs))
    return path


class TestGenerate:
    def test_writes_spec_file(self, tmp_path, capsys):
        out = tmp_path / "generated.json"
        code = main([
            "generate", "--count", "4", "--patterns", "2",
            "--vocabulary", "6", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        docs = json.loads(out.read_text())
        assert len(docs) == 4
        assert all(len(d["clauses"]) == 2 for d in docs)

    def test_generated_specs_parse_back(self, tmp_path):
        from repro.ltl.parser import parse

        out = tmp_path / "generated.json"
        main(["generate", "--count", "2", "--out", str(out)])
        for doc in json.loads(out.read_text()):
            for clause in doc["clauses"]:
                parse(clause)

    def test_pathological_profile(self, tmp_path):
        from repro.ltl.parser import parse

        out = tmp_path / "pathological.json"
        code = main([
            "generate", "--profile", "pathological",
            "--count", "6", "--out", str(out),
        ])
        assert code == 0
        docs = json.loads(out.read_text())
        assert len(docs) == 6
        for doc in docs:
            for clause in doc["clauses"]:
                parse(clause)
        # the monster contracts lead with a wide eventuality conjunction
        assert docs[0]["clauses"][0].count("F") >= 6


class TestQuery:
    def test_query_reports_matches(self, spec_file, capsys):
        code = main(["query", str(spec_file), "--query", "F refund"])
        assert code == 0
        out = capsys.readouterr().out
        assert "refund-friendly" in out
        assert "no-refunds" not in out.split("matched")[1].splitlines()[0]

    def test_multiple_queries(self, spec_file, capsys):
        code = main([
            "query", str(spec_file),
            "--query", "F refund", "--query", "G !refund",
        ])
        assert code == 0
        assert capsys.readouterr().out.count("query:") == 2

    def test_optimizations_can_be_disabled(self, spec_file, capsys):
        code = main([
            "query", str(spec_file), "--query", "F refund", "--scan",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "prefilter off" in out
        assert "QueryPlan(no-prefilter, no-projections: pinned)" in out

    def test_generous_deadline_not_degraded(self, spec_file, capsys):
        code = main([
            "query", str(spec_file), "--query", "F refund",
            "--deadline-ms", "60000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "refund-friendly" in out
        assert "DEGRADED" not in out

    def test_tight_budget_prints_degraded_line(self, tmp_path, capsys):
        specs = tmp_path / "pathological.json"
        main([
            "generate", "--profile", "pathological",
            "--count", "8", "--out", str(specs),
        ])
        capsys.readouterr()
        code = main([
            "query", str(specs), "--scan",
            "--query", " && ".join(f"F ev{i}" for i in range(7)),
            "--step-budget", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "timed out" in out
        assert "maybe" in out

    def test_malformed_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a list"}))
        code = main(["query", str(bad), "--query", "F a"])
        assert code == 1

    def test_spec_entry_without_clauses(self, tmp_path, capsys):
        """A KeyError traceback from all four verbs before 6.0."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"name": "a"}]))
        for argv in (
            ["query", str(bad), "--query", "F a"],
            ["build", str(bad), "--out", str(tmp_path / "built")],
            ["stats", str(bad)],
            ["serve", "--shards", "1", "--specs", str(bad),
             "--duration", "0"],
        ):
            assert main(argv) == 1
            assert "error: contract 'a'" in capsys.readouterr().err

    def test_unreadable_spec_files(self, tmp_path, capsys):
        """Tracebacks from all four verbs before 11.4."""
        files = {
            "missing.json": (None, "cannot read spec file"),
            "latin1.json": (b'[{"name": "caf\xe9"}]', "is not UTF-8"),
            "truncated.json": (b'[{"name": "a", "clau', "is not valid JSON"),
            "deep.json": (b"[" * 100_000 + b"]" * 100_000,
                          "is not valid JSON"),
        }
        for name, (content, message) in files.items():
            path = tmp_path / name
            if content is not None:
                path.write_bytes(content)
            for argv in (
                ["query", str(path), "--query", "F a"],
                ["build", str(path), "--out", str(tmp_path / "built")],
                ["stats", str(path)],
                ["serve", "--shards", "1", "--specs", str(path),
                 "--duration", "0"],
            ):
                assert main(argv) == 1, (name, argv[0])
                err = capsys.readouterr().err
                assert err.startswith("error: ") and message in err, err


class TestBuildAndLoad:
    def test_build_then_query_directory(self, spec_file, tmp_path, capsys):
        db_dir = tmp_path / "built"
        assert main(["build", str(spec_file), "--out", str(db_dir)]) == 0
        assert (db_dir / "contracts.json").exists()
        capsys.readouterr()
        assert main(["query", str(db_dir), "--query", "F refund"]) == 0
        out = capsys.readouterr().out
        assert "loaded 2 contracts" in out
        assert "refund-friendly" in out


class TestTranslate:
    def test_pretty(self, capsys):
        assert main(["translate", "F p"]) == 0
        assert "BuchiAutomaton" in capsys.readouterr().out

    def test_json(self, capsys):
        assert main(["translate", "F p", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"states", "initial", "final", "transitions"} <= set(doc)


class TestStats:
    def test_stats_table(self, spec_file, capsys):
        assert main(["stats", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "states_avg" in out


class TestMetrics:
    def test_metrics_renders_cache_and_histograms(self, spec_file, capsys):
        code = main([
            "metrics", str(spec_file),
            "--query", "F refund", "--query", "G !refund",
            "--repeat", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 10 queries" in out
        # aggregate cache hit rate: 2 misses, 8 hits
        assert "8 hits / 2 misses (80% hit rate)" in out
        assert "query.cache.hits" in out
        assert "query.total_seconds" in out
        assert "histograms" in out

    def test_metrics_parallel_workers(self, spec_file, capsys):
        """4.0: checks run serially; ``--workers`` is gone."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "metrics", str(spec_file), "--query", "F refund",
                "--repeat", "3", "--workers", "2",
            ])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main([
            "metrics", str(spec_file), "--query", "F refund",
            "--repeat", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "served 3 queries (1 distinct x 3 rounds) in" in out

    def test_metrics_json_snapshot(self, spec_file, capsys):
        code = main([
            "metrics", str(spec_file), "--query", "F refund", "--json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["cache"]["misses"] == 1
        assert payload["counters"]["query.count"] == 1

    def test_metrics_counts_degraded_outcomes(self, tmp_path, capsys):
        specs = tmp_path / "pathological.json"
        main([
            "generate", "--profile", "pathological",
            "--count", "8", "--out", str(specs),
        ])
        capsys.readouterr()
        code = main([
            "metrics", str(specs), "--scan",
            "--query", " && ".join(f"F ev{i}" for i in range(7)),
            "--step-budget", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 degraded" in out
        assert "query.degraded" in out

    def test_metrics_cache_can_be_disabled(self, spec_file, capsys):
        code = main([
            "metrics", str(spec_file), "--query", "F refund",
            "--repeat", "3", "--cache-capacity", "0",
        ])
        assert code == 0
        assert "0 hits / 3 misses" in capsys.readouterr().out


class TestCompare:
    def test_compare_reports_difference(self, spec_file, capsys):
        code = main([
            "compare", str(spec_file), "refund-friendly", "no-refunds",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "refund-friendly vs no-refunds" in out
        assert "allows" in out

    def test_unknown_contract_name(self, spec_file, capsys):
        code = main(["compare", str(spec_file), "nope", "no-refunds"])
        assert code == 1
        assert "unknown contract" in capsys.readouterr().err


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Ticket A" in out and "Ticket C" in out


class TestMonitor:
    SPECS = str(STREAMS / "airfare_specs.json")
    TRACE = STREAMS / "airfare_trace.jsonl"

    @staticmethod
    def alerts(out):
        return [line for line in out.splitlines() if line.startswith("{")]

    def test_json_replay_equals_the_checked_in_alerts(self, capsys):
        golden = (STREAMS / "airfare_alerts_refundable.jsonl").read_text()
        assert main(["monitor", self.SPECS, "--events", str(self.TRACE),
                     "--watch", "refundable=F refund", "--json"]) == 0
        assert self.alerts(capsys.readouterr().out) == golden.splitlines()

    def test_stdin_replay_equals_the_checked_in_alerts(
        self, capsys, monkeypatch
    ):
        golden = (STREAMS / "airfare_alerts_f_refund.jsonl").read_text()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(self.TRACE.read_bytes())))
        assert main(["monitor", self.SPECS, "--watch", "F refund",
                     "--json"]) == 0
        alerts = self.alerts(capsys.readouterr().out)
        assert alerts == golden.splitlines()
        docs = [json.loads(line) for line in alerts]
        summary = docs[-1]["summary"]
        assert summary["violated"] == 3, summary
        assert summary["unknown_events"] == 3, summary
        kinds = [doc["kind"] for doc in docs if "kind" in doc]
        assert kinds.count("violated") == 3, kinds
        assert kinds.count("watch-unsatisfiable") == 3, kinds

    def test_alerts_reach_a_live_pipe_before_stdin_closes(self):
        """Each record is delivered as it is read and each alert is
        flushed: Ticket B's violation reaches stdout while stdin is
        still open, with stdout a block-buffered pipe."""
        trace = self.TRACE.read_text().splitlines(keepends=True)
        upto = next(i for i, line in enumerate(trace)
                    if '"Ticket B"' in line) + 1
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "monitor", self.SPECS],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stdout],
            daemon=True,
        )
        reader.start()
        try:
            proc.stdin.write("".join(trace[:upto]))
            proc.stdin.flush()
            while True:
                line = lines.get(timeout=60)  # Empty: the alert waited
                if line.startswith("ALERT violated contract='Ticket B' "
                                   "event=1"):
                    break
            assert proc.poll() is None  # still reading the open pipe
        finally:
            proc.stdin.close()
            status = proc.wait(timeout=60)
            reader.join(timeout=60)
            proc.stdout.close()
        assert status == 0

    def test_a_saved_directory_replays_the_checked_in_alerts(
        self, tmp_path, capsys
    ):
        golden = (STREAMS / "airfare_alerts_refundable.jsonl").read_text()
        saved = tmp_path / "airfare"
        assert main(["save", self.SPECS, "--out", str(saved)]) == 0
        capsys.readouterr()
        assert main(["monitor", str(saved), "--events", str(self.TRACE),
                     "--watch", "refundable=F refund", "--json"]) == 0
        out = capsys.readouterr().out
        assert "".join(f"{line}\n" for line in self.alerts(out)) == golden

    def test_missing_event_log(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        assert main(["monitor", self.SPECS, "--events", str(missing)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read event log {missing}")

    def test_a_line_that_is_not_utf8_is_named(self, tmp_path, capsys):
        """Alerts printed before the bad line stay printed."""
        log = tmp_path / "bad.jsonl"
        lines = self.TRACE.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines[:4]) + b'{"events": ["\xff"]}\n'
                        + b"".join(lines[4:]))
        assert main(["monitor", self.SPECS, "--events", str(log)]) == 1
        captured = capsys.readouterr()
        assert "ALERT violated contract='Ticket B' event=1" in captured.out
        assert captured.err.startswith(
            "error: event log line 5 is not valid UTF-8: ")
