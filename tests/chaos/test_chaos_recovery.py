"""The scripted chaos drills, their CLI entry point, and the recovery
metrics every healed failure must leave behind."""

import json

import pytest

from repro.broker.journal import JOURNAL_FILE, open_database
from repro.check.chaos import run_chaos_drills
from repro.cli import main


class TestDrills:
    def test_all_drills_pass(self):
        report = run_chaos_drills(mutations=6, stride=8)
        assert report.ok, report.summary()
        assert [r.name for r in report.results] == [
            "persist-crash", "journal-truncation",
            "replication-truncation", "quarantine",
            "dist-flap", "dist-partition", "dist-failover",
        ]
        for result in report.results:
            assert result.ok, result.describe()
            assert result.checks > 0
            assert "PASS" in result.describe()
        assert "7/7 drill(s) passed" in report.summary()

    def test_report_round_trips_as_json(self):
        report = run_chaos_drills(mutations=4, stride=32)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] is True
        assert len(doc["drills"]) == 7
        assert all(d["checks"] > 0 for d in doc["drills"])

    def test_drill_selection_runs_only_the_named_drills(self):
        report = run_chaos_drills(drills=["dist-flap", "quarantine"])
        assert [r.name for r in report.results] == [
            "dist-flap", "quarantine",
        ]
        assert report.ok, report.summary()

    def test_unknown_drill_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown drill"):
            run_chaos_drills(drills=["no-such-drill"])


class TestCLI:
    def test_chaos_command_smoke(self, capsys):
        assert main(["chaos", "--mutations", "5", "--stride", "16"]) == 0
        out = capsys.readouterr().out
        assert "persist-crash" in out
        assert "journal-truncation" in out
        assert "replication-truncation" in out
        assert "quarantine" in out
        assert "dist-flap" in out
        assert "dist-partition" in out
        assert "dist-failover" in out
        assert "FAIL" not in out

    def test_chaos_command_drill_selection(self, capsys):
        assert main(["chaos", "--drills", "dist-failover"]) == 0
        out = capsys.readouterr().out
        assert "dist-failover" in out
        assert "persist-crash" not in out
        assert "1/1 drill(s) passed" in out

    def test_chaos_command_rejects_unknown_drill(self, capsys):
        assert main(["chaos", "--drills", "nope"]) == 1
        assert "unknown drill" in capsys.readouterr().err

    def test_chaos_command_json(self, capsys):
        assert main(
            ["chaos", "--mutations", "4", "--stride", "32", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True


class TestRecoveryMetrics:
    """Every recovery path must be visible in the metrics report —
    silent healing hides operational problems."""

    def _torn_db(self, tmp_path):
        from repro.broker.contract import ContractSpec
        from repro.ltl.parser import parse

        home = tmp_path / "db"
        db = open_database(home)
        for i in range(3):
            db.register(ContractSpec(
                name=f"c{i}", clauses=(parse(f"F a{i}"),), attributes={},
            ))
        db.journal.close()
        path = home / JOURNAL_FILE
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])  # tear the last record
        return home

    def test_torn_tail_recovery_is_counted(self, tmp_path):
        recovered = open_database(self._torn_db(tmp_path))
        assert recovered.metrics.counter_value("journal.torn_records") == 1
        assert recovered.metrics.counter_value("journal.replayed") == 2
        report = recovered.metrics_report()
        assert "journal.torn_records" in report
        assert "journal.replayed" in report

    def test_quarantine_and_retry_are_counted(self):
        from repro.broker.contract import ContractSpec
        from repro.broker.database import BrokerConfig, ContractDatabase
        from repro.broker.parallel import register_many
        from repro.ltl.parser import parse

        db = ContractDatabase(BrokerConfig(state_budget=4))
        pill = ContractSpec(
            name="pill",
            clauses=tuple(parse(f"F e{i}") for i in range(6)),
            attributes={},
        )
        register_many(db, [pill])
        db.config = BrokerConfig(state_budget=512)
        db.quarantine.retry(db)
        report = db.metrics_report()
        assert "register.quarantined" in report
        assert "register.quarantine_recovered" in report
