"""Tests for the projection store, centered on the Theorem 9 property:
checking permission on the selected simplified automaton gives the same
verdict as on the full contract BA."""

import pytest
from hypothesis import given, settings

from repro.automata.ltl2ba import translate
from repro.core.permission import permits
from repro.core.seeds import compute_seeds_mask
from repro.errors import ProjectionError
from repro.projection.project import project
from repro.projection.store import ProjectionStore
from repro.ltl.parser import parse

from ..strategies import formulas


class TestBuild:
    def test_subset_count_with_cap(self):
        ba = translate(parse("G(a -> !b)"))
        store = ProjectionStore(ba, max_subset_size=1)
        literals = ba.literals()
        assert store.num_subsets == 1 + len(literals)

    def test_all_subsets_without_cap(self):
        ba = translate(parse("G a"))
        store = ProjectionStore(ba, max_subset_size=None)
        assert store.num_subsets == 2 ** len(ba.literals())

    def test_partitions_deduplicated(self):
        ba = translate(parse("G(a -> F b)"))
        store = ProjectionStore(ba, max_subset_size=2)
        assert store.num_distinct_partitions <= store.num_subsets

    def test_stats_populated(self):
        ba = translate(parse("G(a -> F b)"))
        store = ProjectionStore(ba, max_subset_size=2)
        assert store.stats.subsets_considered == store.num_subsets
        assert store.stats.partitions_computed == store.num_subsets
        assert store.stats.distinct_partitions == store.num_distinct_partitions
        assert store.stats.build_seconds >= 0.0

    def test_partition_for_known_subset(self):
        ba = translate(parse("G a"))
        store = ProjectionStore(ba, max_subset_size=None)
        blocks = store.partition_for(frozenset())
        assert sum(len(b) for b in blocks) == ba.num_states

    def test_partition_for_unknown_subset_raises(self):
        ba = translate(parse("G a"))
        store = ProjectionStore(ba, max_subset_size=0)
        from repro.automata.labels import pos

        with pytest.raises(ProjectionError):
            store.partition_for(frozenset([pos("zzz")]))

    def test_storage_estimate_positive(self):
        ba = translate(parse("G(a -> F b)"))
        store = ProjectionStore(ba, max_subset_size=2)
        assert store.storage_estimate() > 0


class TestSelect:
    def test_full_ba_when_requirements_exceed_cap(self):
        ba = translate(parse("G(a -> !b) && G(c -> !d)"))
        store = ProjectionStore(ba, max_subset_size=0)
        query = translate(parse("F(a && F(b && F(c && F d)))"))
        assert store.select(query.literals()) is ba

    def test_simplified_smaller_or_equal(self):
        ba = translate(parse("G(a -> !b) && F c"))
        store = ProjectionStore(ba, max_subset_size=2)
        query = translate(parse("F b"))
        selected = store.select(query.literals())
        assert selected.num_states <= ba.num_states

    def test_select_caches_materializations(self):
        ba = translate(parse("G(a -> !b) && F c"))
        store = ProjectionStore(ba, max_subset_size=2)
        query = translate(parse("F b"))
        first = store.select(query.literals())
        second = store.select(query.literals())
        assert first is second or first == second


class TestSelectArtifacts:
    """``select_artifacts`` hands the deciders an encoding whenever it
    selects a quotient — there is no un-encoded fallback."""

    def _selecting_store(self):
        ba = translate(parse("G(a -> F b) && G(c -> F d)"))
        store = ProjectionStore(ba, max_subset_size=2)
        literals = translate(parse("F b")).literals()
        assert store.select(literals) is not ba  # a real quotient
        return ba, store, literals

    def test_quotient_comes_encoded_without_a_vocabulary(self):
        ba, store, literals = self._selecting_store()
        assert store.vocabulary == ba.events()
        quotient, encoded, seeds_mask = store.select_artifacts(literals)
        assert quotient is store.select(literals)
        assert encoded.num_states == quotient.num_states
        assert encoded.events == tuple(sorted(ba.events()))
        assert seeds_mask == compute_seeds_mask(encoded)
        # cached: the second selection returns the same objects
        assert store.select_artifacts(literals)[1] is encoded

    def test_full_ba_selection_leaves_the_encoding_to_the_caller(self):
        ba = translate(parse("G(a -> !b) && G(c -> !d)"))
        store = ProjectionStore(ba, max_subset_size=0)
        literals = translate(parse("F(a && F(b && F(c && F d)))")).literals()
        assert store.select_artifacts(literals) == (ba, None, None)

    def test_set_vocabulary_re_encodes_cached_quotients(self):
        ba, store, literals = self._selecting_store()
        stale = store.select_artifacts(literals)[1]
        wider = ba.events() | {"refund"}
        store.set_vocabulary(wider)
        fresh = store.select_artifacts(literals)[1]
        assert fresh is not stale
        assert fresh.events == tuple(sorted(wider))
        store.set_vocabulary(wider)  # unchanged: the cache survives
        assert store.select_artifacts(literals)[1] is fresh


class TestTheorem9:
    """Permission on the selected projection == permission on the full BA."""

    def test_airfare_queries(self, airfare_contracts):
        queries = [
            "F(missedFlight && F refund)",
            "F(dateChange && X F dateChange)",
            "F refund",
            "G !dateChange",
        ]
        for contract in airfare_contracts.values():
            store = ProjectionStore(contract.ba, max_subset_size=2)
            for text in queries:
                q = translate(parse(text))
                selected = store.select(q.literals())
                assert permits(selected, q, contract.vocabulary) == permits(
                    contract.ba, q, contract.vocabulary
                ), (contract.name, text)

    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_random_contracts_and_queries(self, contract_formula, query_formula):
        ba = translate(contract_formula)
        vocabulary = contract_formula.variables()
        store = ProjectionStore(ba, max_subset_size=2)
        q = translate(query_formula)
        selected = store.select(q.literals())
        assert permits(selected, q, vocabulary) == permits(
            ba, q, vocabulary
        )

    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=40, deadline=None)
    def test_uncapped_store_agrees(self, contract_formula, query_formula):
        ba = translate(contract_formula)
        if len(ba.literals()) > 6:
            return  # keep the uncapped lattice small
        vocabulary = contract_formula.variables()
        store = ProjectionStore(ba, max_subset_size=None)
        q = translate(query_formula)
        selected = store.select(q.literals())
        assert permits(selected, q, vocabulary) == permits(
            ba, q, vocabulary
        )


class TestTheorem3Consistency:
    """Seeded lattice traversal must give the same partitions as direct
    computation for every subset."""

    def test_against_direct_bisimulation(self):
        from repro.automata.bisim import (
            bisimulation_partition,
            partition_signature,
        )

        ba = translate(parse("G(a -> F b) && G(c -> !a)"))
        store = ProjectionStore(ba, max_subset_size=2)
        from itertools import combinations

        for size in range(0, 3):
            for subset in combinations(sorted(ba.literals()), size):
                direct = bisimulation_partition(project(ba, subset))
                stored_blocks = store.partition_for(frozenset(subset))
                assert frozenset(stored_blocks) == partition_signature(direct)


class TestSerialization:
    def _store(self):
        ba = translate(parse("G(a -> F b) && G(c -> !a)")).canonical()
        return ba, ProjectionStore(ba, max_subset_size=2)

    def test_round_trip_preserves_partitions(self):
        import json

        ba, store = self._store()
        doc = json.loads(json.dumps(store.to_dict()))
        restored = ProjectionStore.from_dict(ba, doc)
        assert restored.num_subsets == store.num_subsets
        assert restored.num_distinct_partitions == (
            store.num_distinct_partitions
        )
        from itertools import combinations

        for size in range(0, 3):
            for subset in combinations(sorted(ba.literals()), size):
                assert restored.partition_for(
                    frozenset(subset)
                ) == store.partition_for(frozenset(subset))

    def test_round_trip_select_agrees(self):
        ba, store = self._store()
        restored = ProjectionStore.from_dict(ba, store.to_dict())
        q = translate(parse("F b"))
        assert restored.select(q.literals()).num_states == (
            store.select(q.literals()).num_states
        )

    def test_from_dict_rejects_foreign_states(self):
        ba, store = self._store()
        doc = store.to_dict()
        doc["partitions"][0] = [[999, 0]]
        with pytest.raises(ProjectionError):
            ProjectionStore.from_dict(ba, doc)

    def test_from_dict_rejects_unknown_subset_literals(self):
        ba, store = self._store()
        doc = store.to_dict()
        doc["subsets"].append({"literals": ["zzz"], "partition": 0})
        with pytest.raises(ProjectionError):
            ProjectionStore.from_dict(ba, doc)
