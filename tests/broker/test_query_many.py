"""Tests for batched (and parallel) query evaluation."""

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.parallel import query_many
from repro.broker.planner import QueryPlan
from repro.broker.relational import AttributeFilter, le
from repro.ltl.ast import conj
from repro.workload.airfare import QUERIES, all_ticket_specs
from repro.workload.generator import WorkloadGenerator


def _airfare_db(**config_kwargs) -> ContractDatabase:
    db = ContractDatabase(BrokerConfig(**config_kwargs))
    for spec in all_ticket_specs():
        db.register(spec)
    return db


def _generated_workload(count=6, patterns=1, seed=81):
    generator = WorkloadGenerator(vocabulary_size=6, seed=seed)
    return [conj(spec.clauses)
            for spec in generator.generate_specs(count, patterns)]


def _generated_db(count=10, seed=80) -> ContractDatabase:
    db = ContractDatabase()
    generator = WorkloadGenerator(vocabulary_size=6, seed=seed)
    for i, spec in enumerate(generator.generate_specs(count, 2)):
        db.register(f"c{i}", list(spec.clauses))
    return db


class TestSerialBatch:
    def test_results_in_input_order(self):
        db = _airfare_db()
        queries = [info["ltl"] for info in QUERIES.values()]
        results = db.query_many(queries)
        assert len(results) == len(queries)
        for text, result, info in zip(queries, results, QUERIES.values()):
            assert set(result.contract_names) == info["expected"], text

    def test_empty_workload(self):
        assert _airfare_db().query_many([]) == []

    def test_repeats_hit_the_cache(self):
        db = _airfare_db()
        queries = ["F refund"] * 5
        results = db.query_many(queries)
        assert [r.stats.cache_hit for r in results] == [False] + [True] * 4

    def test_attribute_filter_applies_to_every_query(self):
        db = _airfare_db()
        results = db.query_many(
            ["F(missedFlight && F(refund || dateChange))"] * 2,
            QueryOptions(
                attribute_filter=AttributeFilter.where(le("price", 700)),
            ),
        )
        for result in results:
            assert set(result.contract_names) == {"Ticket B"}


class TestParallelParity:
    @pytest.mark.parametrize("optimized", [True, False])
    def test_parallel_identical_to_serial(self, optimized):
        queries = _generated_workload(count=8)
        serial_db = _generated_db()
        parallel_db = _generated_db()
        overrides = dict(plan=QueryPlan(optimized, optimized))
        serial = [
            serial_db.query(q, QueryOptions(**overrides)) for q in queries
        ]
        parallel = parallel_db.query_many(
            queries, QueryOptions(workers=4, **overrides)
        )
        assert [r.contract_ids for r in parallel] == [
            r.contract_ids for r in serial
        ]
        assert [r.stats.permitted for r in parallel] == [
            r.stats.permitted for r in serial
        ]
        assert [r.stats.candidates for r in parallel] == [
            r.stats.candidates for r in serial
        ]
        assert [r.stats.checked for r in parallel] == [
            r.stats.checked for r in serial
        ]

    def test_parallel_airfare_outcomes(self):
        db = _airfare_db()
        queries = list(QUERIES)
        results = db.query_many(
            [QUERIES[name]["ltl"] for name in queries],
            QueryOptions(workers=3),
        )
        for name, result in zip(queries, results):
            assert set(result.contract_names) == QUERIES[name]["expected"]

    def test_parallel_explain_carries_witnesses(self):
        db = _airfare_db()
        results = db.query_many(
            ["F refund"], QueryOptions(workers=2, explain=True)
        )
        (result,) = results
        for contract_id in result.contract_ids:
            witness = result.witness_for(contract_id)
            run = witness.to_run()
            assert db.get(contract_id).ba.accepts(run)

    def test_module_level_function_matches_method(self):
        db = _airfare_db()
        queries = ["F refund", "F dateChange"]
        via_method = db.query_many(queries, QueryOptions(workers=2))
        via_function = query_many(db, queries, QueryOptions(workers=2))
        assert [r.contract_ids for r in via_method] == [
            r.contract_ids for r in via_function
        ]

    def test_metrics_fed_once_per_query(self):
        db = _airfare_db()
        db.query_many(["F refund"] * 4, QueryOptions(workers=2))
        assert db.metrics.counter_value("query.count") == 4


class TestPoolFallbackResume:
    def test_mid_workload_pool_death_resumes_without_recounting(self):
        """A pool dying on query k must not re-evaluate (or re-count)
        queries 0..k-1; the serial fallback resumes from k."""
        from repro.broker.options import QueryOptions
        from repro.core import faults

        db = _airfare_db()
        queries = ["F refund", "F dateChange", "F refund", "F missedFlight"]
        expected = [q.contract_ids for q in db.query_many(list(queries))]
        baseline = db.metrics.counter_value("query.count")

        faults.fail_at("query.pool", nth=3, exc=RuntimeError("pool died"))
        outcomes = db.query_many(queries, QueryOptions(workers=2))

        assert [o.contract_ids for o in outcomes] == expected
        # each query counted exactly once despite the fallback
        assert (
            db.metrics.counter_value("query.count") - baseline
            == len(queries)
        )
        assert db.metrics.counter_value("query.pool_fallback") == 1

    def test_pool_creation_failure_falls_back_entirely(self, monkeypatch):
        import repro.broker.parallel as parallel_module

        class NoPool:
            def __init__(self, max_workers=None):
                raise RuntimeError("thread limit reached")

        monkeypatch.setattr(parallel_module, "ThreadPoolExecutor", NoPool)
        db = _airfare_db()
        outcomes = db.query_many(["F refund"] * 2, QueryOptions(workers=2))
        assert len(outcomes) == 2
        assert db.metrics.counter_value("query.pool_fallback") == 1
        assert db.metrics.counter_value("query.count") == 2
