"""Tests for the query compilation cache and its database integration."""

import pytest

from repro.broker.cache import (
    QueryCompilationCache,
    normalized_query_key,
)
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN, QueryPlan
from repro.ltl.parser import parse
from repro.workload.airfare import all_ticket_specs


def _db(**config_kwargs) -> ContractDatabase:
    db = ContractDatabase(BrokerConfig(**config_kwargs))
    for spec in all_ticket_specs():
        db.register(spec)
    return db


class TestCacheUnit:
    def test_miss_then_hit(self):
        cache = QueryCompilationCache(capacity=4)
        first, hit1 = cache.compile(parse("F a"))
        second, hit2 = cache.compile(parse("F a"))
        assert (hit1, hit2) == (False, True)
        assert second is first
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_normalization_equivalent_queries_share_an_entry(self):
        # F a rewrites to true U a; the two texts must share one entry
        assert normalized_query_key(parse("F a")) == normalized_query_key(
            parse("true U a")
        )
        cache = QueryCompilationCache(capacity=4)
        entry, _ = cache.compile(parse("F a"))
        other, hit = cache.compile(parse("true U a"))
        assert hit
        assert other is entry
        assert len(cache) == 1

    def test_eviction_at_capacity(self):
        cache = QueryCompilationCache(capacity=2)
        cache.compile(parse("F a"))
        cache.compile(parse("F b"))
        cache.compile(parse("F c"))  # evicts the LRU entry (F a)
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2
        assert parse("F a") not in cache
        assert parse("F b") in cache and parse("F c") in cache

    def test_lru_order_refreshed_by_hits(self):
        cache = QueryCompilationCache(capacity=2)
        cache.compile(parse("F a"))
        cache.compile(parse("F b"))
        cache.compile(parse("F a"))  # refresh: F b becomes the LRU entry
        cache.compile(parse("F c"))
        assert parse("F a") in cache
        assert parse("F b") not in cache

    def test_zero_capacity_disables_storage(self):
        cache = QueryCompilationCache(capacity=0)
        cache.compile(parse("F a"))
        _, hit = cache.compile(parse("F a"))
        assert not hit
        assert len(cache) == 0
        assert cache.stats().misses == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryCompilationCache(capacity=-1)

    def test_condition_is_lazy_and_memoized(self):
        cache = QueryCompilationCache()
        entry, _ = cache.compile(parse("F a"))
        assert not entry.has_condition
        condition = entry.condition
        assert entry.has_condition
        assert entry.condition is condition

    def test_clear_keeps_lifetime_counters(self):
        cache = QueryCompilationCache()
        cache.compile(parse("F a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1


class TestDatabaseIntegration:
    def test_repeated_query_hits_cache(self):
        db = _db()
        q = "F(missedFlight && F refund)"
        cold = db.query(q)
        assert not cold.stats.cache_hit
        for _ in range(3):
            assert db.query(q).stats.cache_hit
        stats = db.cache_stats()
        assert stats.misses == 1 and stats.hits == 3

    def test_warm_workload_compilation_collapses(self):
        """Acceptance: a warm repeated workload pays translation and
        pruning-condition extraction only on the first call."""
        db = _db()
        q = ("F(missedFlight && F(refund || dateChange)) && "
             "G(dateChange -> F confirmation)")
        cold = db.query(q)
        warm = [db.query(q) for _ in range(20)]
        assert db.cache_stats().hits == 20
        assert all(r.stats.cache_hit for r in warm)
        # identical answers, and the warm calls' compile-side cost
        # (cache lookup + index evaluation) stays below the cold compile
        assert all(r.contract_ids == cold.contract_ids for r in warm)
        cold_compile = (cold.stats.translation_seconds
                        + cold.stats.prefilter_seconds)
        warm_compile = sorted(
            r.stats.translation_seconds + r.stats.prefilter_seconds
            for r in warm
        )[len(warm) // 2]
        assert warm_compile < cold_compile

    def test_cache_shared_across_query_entry_points(self):
        db = _db()
        db.query("F refund")
        db.query("F refund", QueryOptions(contract_ids=(1,)))
        db.query("F refund", QueryOptions(plan=SCAN_PLAN))
        db.query_many(["F refund"], QueryOptions(explain=True))
        stats = db.cache_stats()
        assert stats.misses == 1
        assert stats.hits == 3

    def test_precompute_for_workload_warms_the_cache(self):
        db = _db()
        db.precompute_for_workload(["F refund"])
        result = db.query("F refund")
        assert result.stats.cache_hit

    def test_capacity_configured_on_broker_config(self):
        db = _db(query_cache_capacity=1)
        db.query("F refund")
        db.query("F dateChange")  # evicts F refund
        assert db.cache_stats().evictions == 1
        repeat = db.query("F refund")
        assert not repeat.stats.cache_hit

    def test_disabled_cache_still_answers_correctly(self):
        db = _db(query_cache_capacity=0)
        first = db.query("F refund")
        second = db.query("F refund")
        assert first.contract_ids == second.contract_ids
        assert not second.stats.cache_hit

    def test_cached_results_identical_across_modes(self):
        db = _db()
        q = "F(missedFlight && F(refund || dateChange))"
        baseline = db.query(q, QueryOptions(plan=SCAN_PLAN)).contract_ids
        for pf in (False, True):
            for pj in (False, True):
                assert db.query(
                    q, QueryOptions(plan=QueryPlan(pf, pj))
                ).contract_ids == baseline

    def test_metrics_track_cache_counters(self):
        db = _db()
        db.query("F refund")
        db.query("F refund")
        assert db.metrics.counter_value("query.cache.misses") == 1
        assert db.metrics.counter_value("query.cache.hits") == 1
        snapshot = db.metrics_snapshot()
        assert snapshot["cache"]["hit_rate"] == pytest.approx(0.5)
        report = db.metrics_report()
        assert "hit rate" in report
        assert "query.total_seconds" in report


class TestTupleFastPathRemoved:
    def test_query_rejects_formula_ba_tuples(self):
        """The undocumented ``(formula, query_ba)`` tuple fast-path is
        gone: ``query`` accepts exactly what its annotation says."""
        from repro.automata.ltl2ba import translate

        db = _db()
        formula = parse("F refund")
        with pytest.raises(TypeError):
            db.query((formula, translate(formula)))

    def test_query_planned_reuses_compilation(self):
        db = _db()
        result = db.query("F refund")
        assert "Ticket B" in result.contract_names
        assert db.cache_stats().misses == 1
        again = db.query("F refund")
        assert again.stats.cache_hit
        assert again.contract_ids == result.contract_ids


class TestCacheUnderDistinctOptions:
    """One compiled entry serves every QueryOptions combination.

    The cache key is the normalized formula alone — the attribute
    filter, budgets, degradation policy, and index toggles are all
    applied *after* compilation, so a warm entry must never leak one
    call's options into the next call's answer.
    """

    QUERY = "F(missedFlight && F(refund || dateChange))"

    def test_hit_across_distinct_filters_stays_filter_correct(self):
        from repro.broker.options import QueryOptions
        from repro.broker.relational import AttributeFilter, eq

        db = _db()
        reference = _db(query_cache_capacity=0)  # never caches
        filters = [
            AttributeFilter.where(eq("airline", "United")),
            AttributeFilter.where(eq("cabin", "economy")),
            AttributeFilter.where(eq("price", 980)),
        ]
        db.query(self.QUERY)  # warm the entry
        for attribute_filter in filters:
            options = QueryOptions(attribute_filter=attribute_filter)
            warm = db.query(self.QUERY, options)
            assert warm.stats.cache_hit
            assert warm.contract_names == reference.query(
                self.QUERY, options
            ).contract_names

    def test_hit_across_budget_and_degradation_policies(self):
        from repro.broker.options import Degradation, QueryOptions

        db = _db()
        exact = db.query(self.QUERY)
        exact_names = set(exact.contract_names)

        degraded = db.query(
            self.QUERY,
            QueryOptions(step_budget=1, degradation=Degradation.MAYBE),
        )
        assert degraded.stats.cache_hit
        got = set(degraded.contract_names)
        maybe = set(degraded.maybe_names)
        assert got <= exact_names <= got | maybe

        dropped = db.query(
            self.QUERY,
            QueryOptions(step_budget=1, degradation=Degradation.DROP),
        )
        assert dropped.stats.cache_hit
        assert set(dropped.contract_names) <= exact_names

    def test_degraded_call_does_not_poison_exact_answers(self):
        from repro.broker.options import Degradation, QueryOptions

        db = _db()
        reference = _db(query_cache_capacity=0)
        # the *cold* call is the degraded one: whatever it caches must
        # still serve exact queries exactly
        db.query(
            self.QUERY,
            QueryOptions(step_budget=1, degradation=Degradation.MAYBE),
        )
        warm_exact = db.query(self.QUERY)
        assert warm_exact.stats.cache_hit
        assert not warm_exact.maybe_names
        assert warm_exact.contract_names == reference.query(
            self.QUERY
        ).contract_names

    def test_hit_across_index_toggle_overrides(self):
        from repro.broker.options import QueryOptions

        db = _db()
        baseline = db.query(self.QUERY, QueryOptions(plan=SCAN_PLAN))
        for use_prefilter in (False, True):
            for use_projections in (False, True):
                outcome = db.query(
                    self.QUERY,
                    QueryOptions(
                        plan=QueryPlan(use_prefilter, use_projections)
                    ),
                )
                assert outcome.contract_ids == baseline.contract_ids
        # 4 toggle combinations after the cold compile = 4 hits
        assert db.cache_stats().misses == 1
        assert db.cache_stats().hits == 4
