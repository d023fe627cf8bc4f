"""The planner's database statistics: incremental maintenance under
churn, selectivity estimates, and rebuilding them on load."""

import pytest

from repro.broker.database import ContractDatabase
from repro.broker.persist import load_database, save_database
from repro.broker.relational import (
    AttributeFilter,
    contains,
    eq,
    ge,
    is_in,
    le,
    ne,
)
from repro.broker.stats import (
    DEFAULT_SELECTIVITY,
    AttributeStatistics,
)


def _populated() -> AttributeStatistics:
    stats = AttributeStatistics()
    for price, route in [
        (100, "A"), (200, "A"), (300, "B"), (400, "B"), (500, "C"),
    ]:
        stats.add({"price": price, "route": route})
    return stats


class TestSelectivityEstimates:
    def test_empty_database_estimates_one(self):
        assert AttributeStatistics().estimate_condition(
            eq("price", 100)
        ) == 1.0

    def test_equality_is_exact(self):
        stats = _populated()
        assert stats.estimate_condition(eq("route", "A")) == 2 / 5
        assert stats.estimate_condition(ne("route", "A")) == 3 / 5

    def test_range_sums_histogram(self):
        stats = _populated()
        assert stats.estimate_condition(le("price", 300)) == 3 / 5
        assert stats.estimate_condition(ge("price", 500)) == 1 / 5

    def test_membership_sums_equalities(self):
        stats = _populated()
        assert stats.estimate_condition(
            is_in("route", ["A", "C"])
        ) == 3 / 5

    def test_unseen_value_gets_pseudocount(self):
        stats = _populated()
        estimate = stats.estimate_condition(eq("route", "Z"))
        assert 0.0 < estimate < 1 / 5

    def test_unseen_attribute_gets_pseudocount(self):
        stats = _populated()
        estimate = stats.estimate_condition(eq("cabin", "economy"))
        assert 0.0 < estimate < 1 / 5

    def test_contains_falls_back(self):
        stats = _populated()
        assert stats.estimate_condition(
            contains("route", "A")
        ) == DEFAULT_SELECTIVITY

    def test_filter_estimate_multiplies(self):
        stats = _populated()
        f = AttributeFilter.where(le("price", 300), eq("route", "A"))
        assert stats.estimate_filter(f) == pytest.approx(
            (3 / 5) * (2 / 5)
        )
        assert stats.estimate_filter(AttributeFilter()) == 1.0

    def test_estimates_stay_in_unit_interval(self):
        stats = _populated()
        for condition in [
            eq("price", 100), ne("price", 100), le("price", 10_000),
            ge("price", -5), is_in("route", ["A", "B", "C", "Z"]),
        ]:
            assert 0.0 <= stats.estimate_condition(condition) <= 1.0


class TestChurn:
    def test_add_remove_returns_to_baseline(self):
        stats = _populated()
        baseline = stats.to_dict()
        extra = {"price": 999, "route": "Z", "cabin": "first"}
        for _ in range(3):
            stats.add(extra)
        for _ in range(3):
            stats.remove(extra)
        assert stats.to_dict() == baseline

    def test_unhashable_values_land_in_other_bucket(self):
        stats = AttributeStatistics()
        stats.add({"stops": ["DEN", "ORD"]})
        assert stats.presence("stops") == 1
        assert stats.distinct("stops") == 0
        doc = stats.to_dict()
        assert doc["attributes"]["stops"]["other"] == 1
        stats.remove({"stops": ["DEN", "ORD"]})
        assert stats.presence("stops") == 0

    def test_database_maintains_stats_under_churn(self):
        db = ContractDatabase()
        a = db.register("A", ["G(a -> F b)"], attributes={"price": 100})
        baseline = db.statistics.to_dict()
        version = db.statistics.version
        b = db.register("B", ["F c"], attributes={"price": 200})
        assert db.statistics.version > version
        assert db.statistics.contracts == 2
        db.deregister(b.contract_id)
        assert db.statistics.to_dict() == baseline
        assert db.statistics.contracts == 1
        assert db.statistics.avg_states > 0
        assert a.contract_id in db

    def test_version_bumps_invalidate_plan_cache_keys(self):
        db = ContractDatabase()
        db.register("A", ["F a"], attributes={"price": 100})
        v1 = db.statistics.version
        db.register("B", ["F b"], attributes={"price": 200})
        assert db.statistics.version != v1


class TestSnapshotRoundTrip:
    def test_save_load_verifies_stats(self, tmp_path):
        """Nothing stores the statistics: loading re-registers every
        contract, which rebuilds them exactly."""
        db = ContractDatabase()
        db.register("A", ["G(a -> F b)"],
                    attributes={"price": 100, "route": "X"})
        db.register("B", ["F c"], attributes={"price": 200})
        save_database(db, tmp_path)
        assert not (tmp_path / "stats.json").exists()
        loaded = load_database(tmp_path)
        assert loaded.statistics.to_dict() == db.statistics.to_dict()

    def test_corrupt_stats_artifact_falls_back_to_rebuilt(self, tmp_path):
        """A ``stats.json`` an older save left behind is never read, so
        its bytes cannot matter: the rebuilt statistics are the ones a
        load ends with, and nothing warns."""
        db = ContractDatabase()
        db.register("A", ["F a"], attributes={"price": 100})
        save_database(db, tmp_path)
        (tmp_path / "stats.json").write_text("not json", encoding="utf-8")
        loaded = load_database(tmp_path)
        assert loaded.load_report.warnings == []
        assert loaded.statistics.to_dict() == db.statistics.to_dict()
