"""Tests for batched query evaluation."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import QueryPlan
from repro.broker.relational import AttributeFilter, le
from repro.broker.spec import QuerySpec
from repro.ltl.ast import conj
from repro.ltl.parser import parse
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


class TestBatchArgument:
    """``query_many`` takes a sequence of queries; a single query —
    which would otherwise be iterated character by character or die
    deep in the translator — is a ``TypeError`` naming ``query()``."""

    def test_bare_string_rejected(self):
        db = _airfare_db()
        for single in ("a", "F a"):
            with pytest.raises(TypeError, match=r"query\(\)"):
                db.query_many(single)
        assert db.metrics.counter_value("query.count") == 0

    def test_bare_formula_rejected(self):
        with pytest.raises(TypeError, match=r"query\(\)"):
            _airfare_db().query_many(parse("F refund"))

    def test_query_spec_rejected_as_batch_and_as_element(self):
        db = _airfare_db()
        spec = QuerySpec(query="F refund")
        with pytest.raises(TypeError, match=r"query\(\)"):
            db.query_many(spec)
        with pytest.raises(TypeError, match=r"query\(\)"):
            db.query_many(["F dateChange", spec])
        # rejected before anything ran
        assert db.metrics.counter_value("query.count") == 0

    def test_generator_of_queries_is_a_batch(self):
        db = _airfare_db()
        outcomes = db.query_many(q for q in ["F refund", "F dateChange"])
        assert len(outcomes) == 2


def _from_threads(db, queries, options=None, callers=4):
    """The same batch from ``callers`` threads at once.  4.0 removed the
    per-query thread pool, but a database is still shared by concurrent
    callers (every shard-server connection has its own thread): they
    race on the compile/plan caches and on the lazily materialized
    projection quotients, and must all get the serial answer."""
    with ThreadPoolExecutor(max_workers=callers) as pool:
        futures = [
            pool.submit(db.query_many, queries, options)
            for _ in range(callers)
        ]
        return [future.result(timeout=120) for future in futures]


class TestParallelParity:
    @pytest.mark.parametrize("optimized", [True, False])
    def test_parallel_identical_to_serial(self, optimized):
        queries = _generated_workload(count=8)
        options = QueryOptions(plan=QueryPlan(optimized, optimized))
        serial_db = _generated_db()
        serial = [serial_db.query(q, options) for q in queries]
        for parallel in _from_threads(_generated_db(), queries, options):
            for field in ("permitted", "candidates", "checked"):
                assert [getattr(r.stats, field) for r in parallel] == [
                    getattr(r.stats, field) for r in serial
                ]
            assert [r.contract_ids for r in parallel] == [
                r.contract_ids for r in serial
            ]

    def test_parallel_airfare_outcomes(self):
        names = list(QUERIES)
        for results in _from_threads(
            _airfare_db(), [QUERIES[name]["ltl"] for name in names]
        ):
            for name, result in zip(names, results):
                assert set(result.contract_names) == QUERIES[name]["expected"]

    def test_parallel_explain_carries_witnesses(self):
        db = _airfare_db()
        for (result,) in _from_threads(
            db, ["F refund"], QueryOptions(explain=True)
        ):
            assert result.contract_ids
            for contract_id in result.contract_ids:
                run = result.witness_for(contract_id).to_run()
                assert db.get(contract_id).ba.accepts(run)

    def test_metrics_fed_once_per_query(self):
        db = _airfare_db()
        _from_threads(db, ["F refund"] * 4, callers=3)
        assert db.metrics.counter_value("query.count") == 12
