"""Tests for the command-line interface."""

import hashlib
import io
import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main

STREAMS = Path(__file__).parents[2] / "examples" / "streams"
SRC = str(Path(repro.__file__).parents[1])


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


class TestPersistenceDrill:
    """save → clean load → corrupt load → misshapen artifacts: a damaged
    snapshot warns and rebuilds, never fails."""

    @pytest.fixture
    def specs(self, tmp_path, capsys):
        path = tmp_path / "specs.json"
        assert main(["generate", "--count", "10", "--patterns", "2",
                     "--seed", "7", "--out", str(path)]) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def save(specs, capsys):
        snapshot = specs.parent / "snapshot"
        assert main(["save", str(specs), "--out", str(snapshot)]) == 0
        capsys.readouterr()
        return snapshot

    def test_save_writes_a_snapshot(self, specs, capsys):
        snapshot = self.save(specs, capsys)
        assert json.loads((snapshot / "contracts.json").read_text())

    def test_clean_load_restores_every_artifact(self, specs, capsys):
        snapshot = self.save(specs, capsys)
        assert main(["load", str(snapshot), "--stats"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"index +: restored", out), out
        assert "0 retranslated" in out

    def test_corrupt_load_falls_back_and_queries_still_work(
        self, specs, capsys
    ):
        automata = self.save(specs, capsys) / "automata.json"
        automata.write_text(
            automata.read_text().replace('"transitions"', '"transxxxxxx"'))
        assert main(["load", str(automata.parent)]) == 0
        assert "checksum verification failed" in capsys.readouterr().out
        assert main(["query", str(specs), "--query", "F ev0"]) == 0

    @pytest.mark.parametrize("artifact,damage", [
        ("projections.json", "shape"),
        ("index.json", "shape"),
        ("index.json", "values"),
    ])
    def test_misshapen_artifact_with_a_valid_checksum_falls_back(
        self, specs, capsys, artifact, damage
    ):
        """The rung past the checksum gate: valid JSON of the wrong shape
        (or, for index.json, a trie that is not downward closed), its
        SHA-256 re-stamped in the manifest, must warn and rebuild."""
        snapshot = self.save(specs, capsys)
        doc = json.loads((snapshot / artifact).read_text())
        if damage == "shape":
            # a null where a mapping belongs: an AttributeError before 8.0
            entries = ([doc] if artifact == "index.json"
                       else sum(doc.values(), []))
            for entry in entries:
                entry["stats"] = None
        else:
            # well-typed, but no trie to_dict() writes (8.2): a contract
            # taken out of a singleton node and left in a pair beneath it
            nodes = doc["trie"]["nodes"]
            pair = next(n for n in nodes if len(n["key"]) == 2)
            single = next(n for n in nodes if n["key"] == pair["key"][:1])
            single["contracts"].remove(pair["contracts"][0])
        (snapshot / artifact).write_text(json.dumps(doc))
        manifest = json.loads((snapshot / "contracts.json").read_text())
        manifest["artifacts"][artifact] = hashlib.sha256(
            (snapshot / artifact).read_bytes()).hexdigest()
        (snapshot / "contracts.json").write_text(json.dumps(manifest))
        assert main(["load", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert any(artifact in line for line in out.splitlines()
                   if "warning:" in line), out
        assert "checksum verification failed" not in out
        assert main(["query", str(snapshot), "--query", "F p1"]) == 0
        out = capsys.readouterr().out
        assert any("contract-0" in line for line in out.splitlines()
                   if "matched" in line), out


class TestDeadlineDrill:
    """A deadline degrades a pathological query promptly: the exact scan
    takes seconds on this database, the 100 ms budget must not."""

    QUERY = " && ".join(f"F ev{i}" for i in range(7))

    @pytest.fixture(scope="class")
    def pathological(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("deadline") / "pathological.json"
        assert main(["generate", "--profile", "pathological",
                     "--count", "60", "--seed", "0", "--out", str(path)]) == 0
        return path

    def test_generates_the_adversarial_workload(self, pathological):
        docs = json.loads(pathological.read_text())
        assert len(docs) == 60
        assert docs[0]["clauses"][0].count("F") >= 6

    def test_budgeted_scan_answers_promptly_and_degrades(
        self, pathological, capsys
    ):
        start = time.monotonic()
        assert main(["query", str(pathological), "--scan",
                     "--deadline-ms", "100", "--query", self.QUERY]) == 0
        assert time.monotonic() - start < 30
        out = capsys.readouterr().out
        assert "DEGRADED" in out and "timed out" in out

    def test_a_repeated_adversarial_query_degrades_on_every_ask(
        self, pathological, capsys
    ):
        """A warm pair keeps at most SUCCESSOR_TABLE_LIMIT successor
        lists: the second and third ask run into the deadline too."""
        start = time.monotonic()
        assert main(["metrics", str(pathological), "--scan",
                     "--deadline-ms", "100", "--repeat", "3",
                     "--query", self.QUERY]) == 0
        assert time.monotonic() - start < 60
        assert "3 degraded" in capsys.readouterr().out


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

    def test_text_replay_names_every_alert(self, capsys):
        """Watch flips and violations at the expected event indices."""
        assert main(["monitor", self.SPECS, "--events", str(self.TRACE),
                     "--watch", "refundable=F refund"]) == 0
        out = capsys.readouterr().out
        for line in (
            "ALERT violated contract='Ticket B' event=1",
            "ALERT watch-unsatisfiable contract='Ticket A' "
            "watch='refundable' event=2",
            "ALERT violated contract='No Refund' event=3",
            "3 violated",
            "3 unknown event(s)",
        ):
            assert line in out, line

    def test_distinct_lines_replay_the_checked_in_alerts(
        self, tmp_path, capsys
    ):
        """A unique "seq" key on every record: the reader's line memo
        never hits, and the alerts are still the checked-in ones."""
        golden = (STREAMS / "airfare_alerts_refundable.jsonl").read_text()
        distinct = tmp_path / "distinct.jsonl"
        distinct.write_text("".join(
            json.dumps({**json.loads(line), "seq": seq}) + "\n"
            if line.startswith("{") else line
            for seq, line in enumerate(
                self.TRACE.read_text().splitlines(keepends=True))))
        assert main(["monitor", self.SPECS, "--events", str(distinct),
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
        env = {**os.environ, "PYTHONPATH": SRC}
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


def test_cli_import_leaves_the_cluster_front_end_unloaded():
    """Every CLI start imports ``repro.cli``; ``monitor``, ``query`` and
    ``save`` never touch a cluster, so neither it nor asyncio loads: the
    ``LAZY`` and ``CONFINED`` rows of ``tests/layers.py``, seen at run
    time."""
    code = ("import sys, repro.cli; "
            "print(sorted({'repro.dist', 'asyncio'} & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": SRC},
    ).stdout
    assert out.strip() == "[]"
