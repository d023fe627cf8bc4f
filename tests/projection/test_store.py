"""Tests for the projection store, centered on the Theorem 9 property:
checking permission on the selected simplified automaton gives the same
verdict as on the full contract BA."""

import pytest
from hypothesis import given, settings

from repro.automata.encode import encode_automaton
from repro.automata.ltl2ba import translate
from repro.broker.database import ContractDatabase
from repro.core.permission import permits
from repro.core.seeds import compute_seeds, compute_seeds_mask
from repro.errors import ProjectionError
from repro.projection.project import project
from repro.projection.store import ProjectionStore
from repro.ltl.parser import parse

from tests.strategies import formulas


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
    """``select_artifacts`` hands the deciders an encoding and seed mask
    on both branches: the selected quotient's, or the contract-level
    one when the full automaton is selected."""

    def _selecting_store(self):
        ba = translate(parse("G(a -> F b) && G(c -> F d)"))
        store = ProjectionStore(ba, max_subset_size=2)
        literals = translate(parse("F b")).literals()
        assert store.select(literals) is not ba  # a real quotient
        return ba, store, literals

    def test_quotient_comes_encoded_without_a_vocabulary(self):
        ba, store, literals = self._selecting_store()
        assert store.vocabulary == ba.events()
        encoded, seeds_mask = store.select_artifacts(literals)
        quotient = store.select(literals)
        assert encoded.num_states == quotient.num_states
        assert encoded.num_states < ba.num_states
        assert encoded.events == tuple(sorted(ba.events()))
        assert seeds_mask == compute_seeds_mask(encoded)
        # cached: the second selection returns the same objects
        again = store.select_artifacts(literals)
        assert again[0] is encoded and again[1] == seeds_mask

    def test_full_ba_selection_is_the_contract_encoding(self):
        ba = translate(parse("G(a -> !b) && G(c -> !d)"))
        store = ProjectionStore(ba, max_subset_size=0)
        literals = translate(parse("F(a && F(b && F(c && F d)))")).literals()
        assert store.select(literals) is ba
        encoded, seeds_mask = store.select_artifacts(literals)
        reference = encode_automaton(ba)
        assert (encoded.states, encoded.offsets, encoded.trans_labels,
                encoded.trans_dsts, encoded.label_pos, encoded.label_neg) == (
            reference.states, reference.offsets, reference.trans_labels,
            reference.trans_dsts, reference.label_pos, reference.label_neg)
        assert seeds_mask == reference.state_mask(compute_seeds(ba))
        assert store.select_artifacts(literals)[0] is encoded  # once

    def test_database_store_hands_back_the_contract_encoding(self):
        db = ContractDatabase()
        contract = db.register("X", ["G(a -> !b)", "G(c -> !d)"])
        literals = translate(parse("F(a && F(b && F(c && F d)))")).literals()
        assert contract.projections.select(literals) is contract.ba
        assert contract.projections.select_artifacts(literals) == (
            contract.encoded, contract.encoded_seeds_mask)
        assert contract.projections.select_artifacts(literals)[0] is (
            contract.encoded)

    def test_set_vocabulary_re_encodes_cached_quotients(self):
        ba, store, literals = self._selecting_store()
        stale = store.select_artifacts(literals)[0]
        wider = ba.events() | {"refund"}
        store.set_vocabulary(wider)
        fresh = store.select_artifacts(literals)[0]
        assert fresh is not stale
        assert fresh.events == tuple(sorted(wider))
        store.set_vocabulary(wider)  # unchanged: the cache survives
        assert store.select_artifacts(literals)[0] is fresh


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

    #: contracts of 3, 19 and 13 states — past ten, the ``_state_key``
    #: (text) order of int states is no longer their numeric order
    FORMULAS = (
        "G(a -> F b) && G(c -> !a)",
        "G(a -> F b) && (F c -> !c U (d || G !c)) && G(b -> F d)",
        "G(a && !b -> !b W (c && !b)) && G(d -> F a) && (F b -> c U b)",
    )

    @pytest.mark.parametrize("text", FORMULAS)
    def test_block_ids_equal_unseeded_direct_computation(self, text):
        """Not only the same classes: the same state -> block id map as
        the unseeded adapter on the projected automaton.  Blocks are
        numbered first-seen in state order, so the ids are a function of
        the partition alone and a seed cannot show in them."""
        from itertools import combinations

        from repro.automata.bisim import bisimulation_partition

        ba = translate(parse(text))
        store = ProjectionStore(ba, max_subset_size=2)
        for size in range(0, 3):
            for subset in combinations(sorted(ba.literals()), size):
                assert stored_partition(store, subset) == (
                    bisimulation_partition(project(ba, subset))
                ), subset


def stored_partition(store, subset) -> dict:
    """The state -> block id map the store holds for ``subset``."""
    return {
        state: block_id
        for block_id, block in enumerate(store.partition_for(frozenset(subset)))
        for state in block
    }


def stored_subsets(store, ba):
    """Every literal subset ``store`` holds a partition for."""
    from itertools import combinations

    literals = sorted(ba.literals())
    return [
        frozenset(subset)
        for size in range(len(literals) + 1)
        for subset in combinations(literals, size)
        if store.has_subset(frozenset(subset))
    ]


def naive_bisimilarity_classes(ba) -> int:
    """Definition 9 read literally: the greatest relation whose pairs
    agree on finality and match each other's edges label for label into
    related states, by deleting violating pairs until none is left; the
    number of its equivalence classes."""
    related = {
        (a, b) for a in ba.states for b in ba.states
        if (a in ba.final) == (b in ba.final)
    }

    def simulated(a, b):
        return all(
            any(
                label == other and (dst, other_dst) in related
                for other, other_dst in ba.successors(b)
            )
            for label, dst in ba.successors(a)
        )

    while True:
        violating = {
            (a, b) for a, b in related
            if not (simulated(a, b) and simulated(b, a))
        }
        if not violating:
            break
        related -= violating
    return len({
        frozenset(b for b in ba.states if (a, b) in related)
        for a in ba.states
    })


class TestPartitionsAreBisimulations:
    """The stored partitions are right, not merely unchanged."""

    @given(formulas(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_stable_and_coarsest(self, formula):
        ba = translate(formula)
        cap = None if len(ba.literals()) <= 4 else 2
        store = ProjectionStore(ba, max_subset_size=cap)
        for subset in stored_subsets(store, ba):
            projected = project(ba, subset)
            block_of = stored_partition(store, subset)
            assert set(block_of) == set(ba.states)
            for block in store.partition_for(subset):
                # (i) Definition 9: final-pure, and within a block every
                # state offers the same (label, successor block) moves
                assert block <= ba.final or not block & ba.final
                assert len({
                    frozenset(
                        (label, block_of[dst])
                        for label, dst in projected.successors(state)
                    )
                    for state in block
                }) == 1
            # (ii) and no coarser partition would do
            if ba.num_states <= 8:
                assert len(store.partition_for(subset)) == (
                    naive_bisimilarity_classes(projected)
                )


class TestBuildInputs:
    def test_a_narrow_vocabulary_does_not_reach_the_partitions(self):
        """``vocabulary`` is what quotients are *encoded* over.  The
        partitions are refined over the BA's own events: encoded over a
        narrower vocabulary, the labels would lose the dropped events'
        literals and states those literals tell apart would merge."""
        ba = translate(parse("G(a -> F b) && G(c -> !a)"))
        assert ba.events() == {"a", "b", "c"}
        default = ProjectionStore(ba, max_subset_size=2)
        narrow = ProjectionStore(
            ba, max_subset_size=2, vocabulary=frozenset({"a"})
        )
        assert without_clock(narrow.to_dict()) == without_clock(
            default.to_dict()
        )
        assert default.num_distinct_partitions > 1

    def test_precompute_on_a_restored_store(self):
        """A store read back by ``from_dict`` keeps no build-time state,
        and ``precompute`` needs none: it agrees, ids included, with a
        store that was built with the same subsets as extras."""
        ba = translate(parse(TestTheorem3Consistency.FORMULAS[1])).canonical()
        literals = sorted(ba.literals())
        extras = [frozenset(literals[:3]), frozenset(literals[1:5])]
        built = ProjectionStore(ba, max_subset_size=1, extra_subsets=extras)
        restored = ProjectionStore.from_dict(
            ba, ProjectionStore(ba, max_subset_size=1).to_dict()
        )
        assert restored.precompute(extras) == 2
        assert restored.precompute(extras) == 0
        assert without_clock(restored.to_dict()) == without_clock(
            built.to_dict()
        )
        assert restored.stats.stored_blocks == built.stats.stored_blocks
        assert restored.min_block_count == built.min_block_count


def without_clock(doc: dict) -> dict:
    """A ``to_dict`` document minus its one wall-clock field."""
    stats = {k: v for k, v in doc["stats"].items() if k != "build_seconds"}
    return {**doc, "stats": stats}


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
