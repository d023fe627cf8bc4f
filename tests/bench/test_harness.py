"""Tests for the benchmark harness itself (small scales)."""

import pytest

from repro.bench.harness import (
    IndexBuildReport,
    SweepPoint,
    build_database,
    evaluate_query,
    extend_database,
    index_build_report,
    run_figure5,
    run_figure6,
    run_queries,
    specs_to_formulas,
)
from repro.broker.database import BrokerConfig
from repro.workload.datasets import DatasetConfig
from repro.workload.generator import WorkloadGenerator

CONTRACTS = DatasetConfig("tiny contracts", 8, 2, 6, 11)
QUERIES = DatasetConfig("tiny queries", 3, 1, 6, 12)


@pytest.fixture(scope="module")
def tiny_db():
    return build_database(CONTRACTS.generate(), BrokerConfig())


class TestBuilders:
    def test_build_database(self, tiny_db):
        assert len(tiny_db) == 8

    def test_extend_database(self):
        db = build_database(CONTRACTS.generate(4), BrokerConfig())
        extend_database(db, WorkloadGenerator(6, seed=99).generate_specs(2, 2))
        assert len(db) == 6

    def test_a_generated_spec_is_translated_once(self, monkeypatch):
        """The generator's probe automaton is the one registered."""
        import repro.broker.database as database

        specs = CONTRACTS.generate(4)
        monkeypatch.setattr(
            database, "translate",
            lambda *a, **k: pytest.fail("translated a second time"),
        )
        db = build_database(specs, BrokerConfig())
        extend_database(db, specs[:1], name_prefix="again")
        assert [c.ba for c in db.contracts()] == [
            s.ba for s in specs + specs[:1]
        ]
        assert all(
            c.ba is s.ba for c, s in zip(db.contracts(), specs)
        )

    def test_a_larger_generator_budget_is_not_smuggled_in(self):
        """A prebuilt automaton bypasses ``BrokerConfig.state_budget``:
        one translated under a larger budget is translated again."""
        specs = CONTRACTS.generate(3)
        assert all(s.state_budget > 500 for s in specs)
        db = build_database(specs, BrokerConfig(state_budget=500))
        for contract, spec in zip(db.contracts(), specs):
            assert contract.ba is not spec.ba
            assert contract.ba == spec.ba

    def test_specs_to_formulas(self):
        formulas = specs_to_formulas(QUERIES.generate())
        assert len(formulas) == 3


class TestQueryEvaluation:
    def test_evaluate_query_both_modes(self, tiny_db):
        query = specs_to_formulas(QUERIES.generate())[0]
        scan = evaluate_query(tiny_db, query, optimized=False)
        fast = evaluate_query(tiny_db, query, optimized=True)
        assert scan.permitted == fast.permitted
        assert scan.checked == len(tiny_db)
        assert fast.checked <= scan.checked

    def test_run_queries_agreement_check(self, tiny_db):
        queries = specs_to_formulas(QUERIES.generate())
        scan, optimized = run_queries(tiny_db, queries)
        assert len(scan) == len(optimized) == len(queries)
        for s, o in zip(scan, optimized):
            assert s.permitted == o.permitted


class TestExperiments:
    def test_run_figure5_points(self):
        points = run_figure5(
            contract_config=CONTRACTS,
            query_configs=[QUERIES],
            database_sizes=[4, 8],
            broker_config=BrokerConfig(),
        )
        assert [p.database_size for p in points] == [4, 8]
        for point in points:
            assert point.scan_avg_seconds > 0
            assert point.optimized_avg_seconds > 0
            assert point.speedup_min <= point.speedup_avg <= point.speedup_max
            assert len(point.row()) == 8

    def test_sweep_point_aggregate(self):
        point = SweepPoint(10, 0.2, 0.1, 2.0, 0.0, 2.0, 2.0)
        assert point.aggregate_speedup == pytest.approx(2.0)

    def test_run_figure6_grid(self):
        cells = run_figure6(
            contract_configs=[CONTRACTS],
            query_configs=[QUERIES],
            database_size=4,
            broker_config=BrokerConfig(),
        )
        assert len(cells) == 1
        assert cells[0].contract_dataset == "tiny contracts"
        assert len(cells[0].row()) == 6

    def test_index_build_report(self, tiny_db):
        report = index_build_report(tiny_db)
        assert isinstance(report, IndexBuildReport)
        assert report.contracts == 8
        assert report.prefilter_nodes > 0
        assert 0.0 <= report.projection_distinct_ratio <= 1.0
        assert len(report.rows()) == 10
