"""Randomized end-to-end soundness: on generated workloads, every
optimization combination must return exactly the same result sets.

This is the library's strongest integration guarantee — it exercises the
translator, the permission algorithm, the pruning conditions, the
set-trie, the projections and the broker glue in one go.
"""

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.bench.harness import build_database, specs_to_formulas
from repro.broker.options import QueryOptions
from repro.broker.planner import QueryPlan
from repro.workload.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def random_world():
    generator = WorkloadGenerator(vocabulary_size=6, seed=20260705)
    contracts = generator.generate_specs(20, 2)
    queries = specs_to_formulas(generator.generate_specs(8, 1))
    queries += specs_to_formulas(generator.generate_specs(4, 2))
    return contracts, queries


MODES = [
    ("none", False, False),
    ("prefilter", True, False),
    ("projections", False, True),
    ("both", True, True),
]


class TestModeAgreement:
    def test_all_modes_return_identical_sets(self, random_world):
        contracts, queries = random_world
        db = build_database(contracts, BrokerConfig())
        for i, query in enumerate(queries):
            results = {}
            for name, prefilter, projections in MODES:
                result = db.query(
                    query,
                    QueryOptions(plan=QueryPlan(prefilter, projections)),
                )
                results[name] = frozenset(result.contract_ids)
            assert len(set(results.values())) == 1, (i, str(query), results)

    def test_candidates_always_cover_answers(self, random_world):
        contracts, queries = random_world
        db = build_database(contracts, BrokerConfig())
        for query in queries:
            result = db.query(
                query, QueryOptions(plan=QueryPlan(True, True))
            )
            assert result.stats.candidates >= len(result.contract_ids)

    def test_ndfs_and_scc_brokers_agree(self, random_world):
        """The broker (NDFS on registration-time encodings, through
        prefilter and projections) returns exactly the contracts for
        which the SCC-based witness search finds a simultaneous lasso
        path on the full object automata."""
        from repro.automata.ltl2ba import translate
        from repro.core.permission import find_witness

        contracts, queries = random_world
        db = build_database(contracts, BrokerConfig())
        for query in queries:
            query_ba = translate(query)
            by_scc = tuple(
                c.contract_id for c in db.contracts()
                if find_witness(c.ba, query_ba, c.vocabulary) is not None
            )
            assert db.query(query).contract_ids == by_scc

    def test_index_depths_agree(self, random_world):
        contracts, queries = random_world
        shallow = build_database(
            contracts, BrokerConfig(prefilter_depth=1)
        )
        deep = build_database(
            contracts, BrokerConfig(prefilter_depth=3)
        )
        for query in queries:
            assert (
                shallow.query(query).contract_ids
                == deep.query(query).contract_ids
            )

    def test_projection_caps_agree(self, random_world):
        contracts, queries = random_world
        small = build_database(
            contracts, BrokerConfig(projection_subset_cap=1)
        )
        large = build_database(
            contracts, BrokerConfig(projection_subset_cap=3)
        )
        for query in queries:
            assert (
                small.query(query).contract_ids
                == large.query(query).contract_ids
            )
