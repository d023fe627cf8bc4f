"""Quarantined batch registration: poison pills, retries, fallbacks."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.broker.contract import ContractSpec
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.parallel import register_many
from repro.broker.registration import RegistrationReport
from repro.ltl.parser import parse


def _spec(name, text="F x"):
    return ContractSpec(name=name, clauses=(parse(text),), attributes={})


class TestReportShape:
    def test_sequence_compatibility(self):
        db = ContractDatabase()
        report = register_many(db, [_spec("a"), _spec("b")])
        assert isinstance(report, RegistrationReport)
        assert len(report) == 2
        assert report[0].name == "a"
        assert [c.name for c in report] == ["a", "b"]
        assert report[1] in report
        assert report.ok
        assert "registered 2" in report.summary()

    def test_quarantine_summary(self):
        db = ContractDatabase()
        report = register_many(db, [_spec("a"), {"name": "bad", "clauses": ["(("]}])
        assert not report.ok
        assert "quarantined 1" in report.summary()


class TestPoisonPills:
    def test_parse_failure_quarantined(self):
        db = ContractDatabase()
        report = register_many(db, [
            {"name": "bad", "clauses": ["G((("]},
            _spec("good"),
        ])
        assert report.registered == 1
        [bad] = report.quarantined
        assert bad.stage == "parse"
        assert bad.name == "bad"
        assert bad.spec is None
        assert "LTLSyntaxError" in bad.describe()
        assert len(db) == 1

    def test_document_without_name_quarantined(self):
        db = ContractDatabase()
        report = register_many(db, [{"clauses": ["F x"]}, _spec("good")])
        assert report.registered == 1
        assert report.quarantined[0].stage == "parse"
        assert report.quarantined[0].name == "<unnamed>"

    def test_budget_blowout_quarantined_serial(self):
        db = ContractDatabase(BrokerConfig(state_budget=4))
        pill = ContractSpec(
            name="pill",
            clauses=tuple(parse(f"F e{i}") for i in range(6)),
            attributes={},
        )
        report = register_many(db, [_spec("a"), pill, _spec("b", "G !y")])
        assert report.registered == 2
        [bad] = report.quarantined
        assert bad.stage == "translate"
        assert bad.spec is pill
        assert len(db) == 2

    def test_budget_blowout_quarantined_parallel(self):
        db = ContractDatabase(BrokerConfig(state_budget=4))
        pill = ContractSpec(
            name="pill",
            clauses=tuple(parse(f"F e{i}") for i in range(6)),
            attributes={},
        )
        try:
            report = register_many(
                db, [_spec("a"), pill, _spec("b", "G !y")], workers=2
            )
        except Exception as exc:  # pragma: no cover - restricted sandboxes
            pytest.skip(f"no process pool available: {exc}")
        assert report.registered == 2
        assert report.quarantined[0].stage == "translate"
        # the healthy survivors answer through a consistent index
        assert set(db.query("F x").contract_names) == {"a"}

    def test_quarantine_metrics_and_db_attachment(self):
        db = ContractDatabase()
        register_many(db, [{"name": "bad", "clauses": ["(("]}])
        assert db.metrics.counter_value("register.quarantined") == 1
        assert len(db.quarantine) == 1
        assert db.quarantine.entries[0].name == "bad"


class TestQuarantineRetry:
    def test_retry_after_fixing_the_cause(self):
        db = ContractDatabase(BrokerConfig(state_budget=4))
        pill = ContractSpec(
            name="pill",
            clauses=tuple(parse(f"F e{i}") for i in range(6)),
            attributes={},
        )
        register_many(db, [pill])
        assert len(db.quarantine) == 1
        assert db.quarantine.entries[0].attempts == 1

        db.config = BrokerConfig(state_budget=512)
        report = db.quarantine.retry(db)
        assert report.registered == 1
        assert len(db.quarantine) == 0
        assert db.metrics.counter_value("register.quarantine_recovered") == 1
        assert "pill" in [c.name for c in db.contracts()]

    def test_retry_without_fix_keeps_entry_and_bumps_attempts(self):
        db = ContractDatabase(BrokerConfig(state_budget=4))
        pill = ContractSpec(
            name="pill",
            clauses=tuple(parse(f"F e{i}") for i in range(6)),
            attributes={},
        )
        register_many(db, [pill])
        report = db.quarantine.retry(db)
        assert report.registered == 0
        assert len(db.quarantine) == 1
        assert db.quarantine.entries[0].attempts == 2

    def test_parse_stage_entries_are_not_retriable(self):
        db = ContractDatabase()
        register_many(db, [{"name": "bad", "clauses": ["(("]}])
        report = db.quarantine.retry(db)
        assert report.registered == 0
        assert len(db.quarantine) == 1  # still parked; the raw doc must be fixed

    def test_clear(self):
        db = ContractDatabase()
        register_many(db, [{"name": "bad", "clauses": ["(("]}])
        db.quarantine.clear()
        assert len(db.quarantine) == 0


class _ScriptedPool:
    """A fake process pool: runs submissions inline, but fails the
    scripted (attempt, name) pairs with BrokenProcessPool.  Counts
    translations per payload to prove nothing runs twice."""

    attempt = 0
    translation_counts: dict = {}
    fail_plan: set = set()

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        type(self).attempt += 1
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, payload):
        future = Future()
        name = payload[0]["clauses"][0]  # first clause text identifies the spec
        if (type(self).attempt, name) in type(self).fail_plan:
            future.set_exception(BrokenProcessPool("worker died"))
            return future
        counts = type(self).translation_counts
        counts[name] = counts.get(name, 0) + 1
        future.set_result(fn(payload))
        return future


class TestTransientPoolFailures:
    def _scripted(self, monkeypatch, fail_plan):
        import repro.broker.parallel as parallel_module

        class Pool(_ScriptedPool):
            pass

        Pool.attempt = 0
        Pool.translation_counts = {}
        Pool.fail_plan = fail_plan
        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", Pool)
        return Pool

    def test_retry_resubmits_only_pending_specs(self, monkeypatch):
        # attempt 1: spec "F b" fails transiently; attempt 2: all good
        pool = self._scripted(monkeypatch, {(1, "F b")})
        db = ContractDatabase()
        sleeps = []
        report = register_many(
            db,
            [_spec("a", "F a"), _spec("b", "F b"), _spec("c", "F c")],
            workers=2,
            _sleep=sleeps.append,
        )
        assert report.registered == 3
        assert report.pool_retries == 1
        assert not report.pool_fallback
        assert sleeps == [0.05]
        # a and c translated exactly once — never re-submitted
        assert pool.translation_counts == {"F a": 1, "F b": 1, "F c": 1}
        assert db.metrics.counter_value("register.pool_retries") == 1

    def test_backoff_doubles_and_caps(self, monkeypatch):
        self._scripted(
            monkeypatch, {(n, "F a") for n in range(1, 10)}
        )
        db = ContractDatabase()
        sleeps = []
        report = register_many(
            db, [_spec("a", "F a"), _spec("b", "F b")], workers=2,
            max_retries=3, backoff_seconds=0.4, _sleep=sleeps.append,
        )
        assert report.registered == 2  # serial fallback translated "a"
        assert report.pool_fallback
        assert sleeps == [0.4, 0.8, 1.0]  # doubled, capped at 1 s
        assert db.metrics.counter_value("register.pool_fallback") == 1

    def test_fallback_registers_ids_in_input_order(self, monkeypatch):
        self._scripted(monkeypatch, {(n, "F b") for n in range(1, 10)})
        db = ContractDatabase()
        report = register_many(
            db,
            [_spec("a", "F a"), _spec("b", "F b"), _spec("c", "F c")],
            workers=2,
            backoff_seconds=0.0,
        )
        assert report.pool_fallback
        assert [c.name for c in report] == ["a", "b", "c"]
        assert [c.contract_id for c in report] == [0, 1, 2]

    def test_injected_pool_fault_via_seam(self):
        from repro.core import faults

        db = ContractDatabase()
        faults.fail_at(
            "register.pool", exc=BrokenProcessPool("injected"), times=1
        )
        report = register_many(
            db, [_spec("a"), _spec("b", "F y")], workers=2,
            _sleep=lambda s: None,
        )
        assert report.registered == 2
        assert report.pool_retries == 1
