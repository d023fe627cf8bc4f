"""Tests for the broker's statistics plumbing and prebuilt registration."""

import pytest

from repro.automata.ltl2ba import translate
from repro.broker.contract import ContractSpec
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import PrebuiltArtifacts, QueryOptions
from repro.broker.planner import QueryPlan
from repro.ltl.parser import parse


class TestPrebuiltRegistration:
    def test_prebuilt_ba_used_verbatim(self):
        db = ContractDatabase()
        spec = ContractSpec("t", (parse("F a"),))
        ba = translate(spec.formula)
        contract = db.register(spec, prebuilt=PrebuiltArtifacts(ba=ba))
        assert contract.ba is ba

    def test_prebuilt_skips_translation_cost(self):
        spec = ContractSpec("t", (parse("G(a -> F b) && G(c -> !a)"),))
        fresh = ContractDatabase()
        fresh.register(spec)
        cost = fresh.registration_stats.translation_seconds

        ba = translate(spec.formula)
        reused = ContractDatabase()
        reused.register(spec, prebuilt=PrebuiltArtifacts(ba=ba))
        assert reused.registration_stats.translation_seconds < max(
            cost, 0.001
        )


class TestQueryStatsPlumbing:
    def test_phase_times_sum_to_total(self, airfare_db):
        result = airfare_db.query("F(missedFlight && F refund)")
        s = result.stats
        parts = (
            s.translation_seconds
            + s.prefilter_seconds
            + s.selection_seconds
            + s.permission_seconds
        )
        assert parts <= s.total_seconds + 1e-6

    def test_selection_time_negligible_without_projections(self, airfare_db):
        result = airfare_db.query(
            "F refund", QueryOptions(plan=QueryPlan(True, False))
        )
        # only the branch dispatch is timed; no store is consulted
        assert result.stats.selection_seconds < 0.01

    def test_prefilter_time_zero_when_disabled(self, airfare_db):
        result = airfare_db.query(
            "F refund", QueryOptions(plan=QueryPlan(False, True))
        )
        assert result.stats.prefilter_seconds == 0.0
        assert result.stats.pruning_condition == ""

    def test_registration_totals(self):
        db = ContractDatabase(BrokerConfig(use_projections=True))
        db.register("a", "G(a -> F b)")
        db.register("b", "F c")
        stats = db.registration_stats
        assert stats.contracts == 2
        assert stats.projection_seconds > 0
        assert stats.total_seconds >= (
            stats.translation_seconds + stats.projection_seconds
        )


class TestDatabaseStatsAggregates:
    def test_index_metrics_present(self, airfare_db):
        stats = airfare_db.database_stats()
        assert stats["index_nodes"] >= 1
        assert stats["index_size"] >= stats["index_nodes"] - 1
