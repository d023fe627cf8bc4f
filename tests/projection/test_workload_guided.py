"""Tests for workload-guided projection precomputation (§5.2)."""

from hypothesis import given, settings

from repro.automata.ltl2ba import translate
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import QueryPlan
from repro.core.permission import permits
from repro.ltl.parser import parse
from repro.projection.project import (
    required_literals,
    workload_projection_subsets,
)
from repro.projection.store import ProjectionStore

from tests.strategies import formulas


class TestWorkloadSubsets:
    def test_one_subset_per_query(self):
        contract = translate(parse("G(a -> !b) && G(c -> !d)"))
        queries = [translate(parse("F b")), translate(parse("F(b && F d)"))]
        subsets = workload_projection_subsets(
            contract.literals(), [q.literals() for q in queries]
        )
        assert subsets == {
            required_literals(q.literals(), contract.literals())
            for q in queries
        }


class TestPrecompute:
    def test_precompute_adds_requested_subsets(self):
        contract = translate(parse("G(a -> !b) && G(c -> !d) && G(e -> !f)"))
        store = ProjectionStore(contract, max_subset_size=0)
        query = translate(parse("F(b && F(d && F f))"))
        needed = required_literals(query.literals(), store.literals)
        assert len(needed) > 0
        assert not store.has_subset(needed)
        added = store.precompute([needed])
        assert added == 1
        assert store.has_subset(needed)

    def test_precompute_is_idempotent(self):
        contract = translate(parse("G(a -> !b)"))
        store = ProjectionStore(contract, max_subset_size=1)
        query = translate(parse("F b"))
        needed = required_literals(query.literals(), store.literals)
        store.precompute([needed])
        assert store.precompute([needed]) == 0

    def test_precomputed_projection_serves_query(self):
        """After precompute, select() no longer falls back to the full BA
        for a query beyond the lattice cap."""
        contract = translate(parse("G(a -> !b) && G(c -> !d) && F e"))
        store_capped = ProjectionStore(contract, max_subset_size=0)
        query = translate(parse("F(b && F d)"))
        fallback = store_capped.select(query.literals())
        assert fallback is contract

        needed = required_literals(query.literals(), store_capped.literals)
        store_capped.precompute([needed])
        selected = store_capped.select(query.literals())
        assert selected.num_states <= contract.num_states

    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=50, deadline=None)
    def test_precomputed_projections_preserve_permission(
        self, contract_formula, query_formula
    ):
        contract = translate(contract_formula)
        vocabulary = contract_formula.variables()
        store = ProjectionStore(contract, max_subset_size=0)
        query = translate(query_formula)
        store.precompute(
            workload_projection_subsets(store.literals, [query.literals()])
        )
        selected = store.select(query.literals())
        assert permits(selected, query, vocabulary) == permits(
            contract, query, vocabulary
        )


class TestBrokerIntegration:
    def test_precompute_for_workload(self):
        db = ContractDatabase(BrokerConfig(projection_subset_cap=0))
        db.register("a", ["G(a -> !b)", "G(c -> !d)"])
        db.register("b", ["G(!b)", "F(a && c)"])
        queries = ["F(b && F d)", "F b"]
        added = db.precompute_for_workload(queries)
        assert added > 0
        # results unchanged, of course
        for query in queries:
            with_projections = db.query(
                query, QueryOptions(plan=QueryPlan(True, True))
            )
            without = db.query(
                query, QueryOptions(plan=QueryPlan(True, False))
            )
            assert with_projections.contract_ids == without.contract_ids

    def test_precompute_noop_without_projections(self):
        db = ContractDatabase(BrokerConfig(use_projections=False))
        db.register("a", "G a")
        assert db.precompute_for_workload(["F a"]) == 0
