"""The flat quotient is the object quotient.

A projection store builds a selected quotient's encoding straight from
the contract's encoding and the stored partition
(:func:`repro.automata.bisim.quotient_encoded`).  The object path it
replaced — ``quotient(project(ba, subset), partition)`` then
``encode_automaton`` and ``compute_seeds`` — stays as the reference:
for every stored subset the two must agree field for field, so the
deciders' visit order and step counts are the object path's.  The
result is a function of the partition, the subset and the transition
set, so a database restored from a snapshot builds the same bytes.
"""

import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.bisim import quotient, quotient_encoded
from repro.automata.encode import EventTable, encode_automaton
from repro.automata.labels import Literal
from repro.automata.ltl2ba import translate
from repro.broker.database import ContractDatabase
from repro.broker.persist import load_database, save_database
from repro.core.seeds import compute_seeds, compute_seeds_mask
from repro.ltl.parser import parse
from repro.projection.project import project
from repro.projection.store import ProjectionStore

from tests.strategies import buchi_automata, formulas

SHAPES = Path(__file__).parents[2] / "benchmarks" / "e2e" / "shapes.json"

FIELDS = (
    "events", "vocab_mask", "unknown_bit", "num_states", "states",
    "initial", "final_mask", "offsets", "trans_labels", "trans_dsts",
    "label_pos", "label_neg",
)

EVENTS = ("a", "b", "c", "d")
VOCABULARY = frozenset(EVENTS) | {"zz"}
LITERALS = sorted(Literal(e, p) for e in EVENTS for p in (True, False))


def _fields(encoded) -> dict:
    return {name: getattr(encoded, name) for name in FIELDS}


def assert_flat_equals_object(store: ProjectionStore) -> int:
    """Every stored subset's record against the object path, over the
    store's vocabulary and table; returns how many were compared."""
    for subset, partition_id in store._subset_to_partition.items():
        reference_ba = quotient(
            project(store.ba, subset), store._partitions[partition_id]
        )
        reference = encode_automaton(
            reference_ba, store.vocabulary, store.table
        )
        encoded, seeds_mask = store._materialize((partition_id, subset))
        assert _fields(encoded) == _fields(reference), sorted(map(str, subset))
        if store.table is not None:  # a standalone store's is its own
            assert encoded.table is store.table
        assert seeds_mask == reference.state_mask(compute_seeds(reference_ba))
        assert seeds_mask == compute_seeds_mask(encoded)
    return len(store._subset_to_partition)


def _shuffled_encoding(ba):
    """``ba`` encoded as a database encodes a contract: over a vocabulary
    wider than its events, in a table whose bit order is not sorted."""
    return encode_automaton(
        ba, VOCABULARY, EventTable(["zz", "d", "b", "c", "a"])
    )


def _store_in_a_shuffled_table(ba, cap) -> ProjectionStore:
    """A store handed its contract's encoding as a database hands it."""
    contract = _shuffled_encoding(ba)
    store = ProjectionStore(ba, max_subset_size=cap)
    store.use_encoding(contract, compute_seeds_mask(contract))
    return store


class TestFlatQuotientIsTheObjectQuotient:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_partition_and_subset(self, data):
        """The builder itself, on partitions no store would keep: blocks
        mixing final and non-final states, sparse ids past ten."""
        ba = data.draw(buchi_automata(EVENTS, max_states=14,
                                      max_transitions=40))
        states = sorted(ba.states)
        partition = dict(zip(states, data.draw(st.lists(
            st.integers(0, 15), min_size=len(states), max_size=len(states)
        ))))
        keep = data.draw(st.frozensets(st.sampled_from(LITERALS)))
        contract = _shuffled_encoding(ba)
        reference = encode_automaton(
            quotient(project(ba, keep), partition), VOCABULARY, contract.table
        )
        flat = quotient_encoded(contract, partition, keep)
        assert _fields(flat) == _fields(reference)

    @settings(max_examples=60, deadline=None)
    @given(buchi_automata(EVENTS, max_states=14, max_transitions=40),
           st.sampled_from([1, 2, None]))
    def test_arbitrary_graphs(self, ba, cap):
        """Unreachable states, dead ends, parallel edges and partitions
        of more than ten blocks (whose ``_state_key`` order is not the
        numeric one)."""
        assert_flat_equals_object(_store_in_a_shuffled_table(ba, cap))

    @settings(max_examples=60, deadline=None)
    @given(formulas(EVENTS, max_depth=4))
    def test_translated_contracts(self, formula):
        assert_flat_equals_object(_store_in_a_shuffled_table(
            translate(formula), 2))

    def test_standalone_store_over_its_own_events(self):
        store = ProjectionStore(
            translate(parse("G(a -> F b) && G(c -> F d)")), max_subset_size=2
        )
        assert assert_flat_equals_object(store) > 0

    def test_yardstick_contracts(self):
        db = _register(_shape_clauses(10))
        compared = sum(
            assert_flat_equals_object(c.projections) for c in db.contracts()
        )
        assert compared > 0
        # the string block order (0, 1, 10, 2, ...) is exercised
        assert any(
            count > 10 for c in db.contracts()
            for count in c.projections._block_counts
        )


class TestRestoredDatabase:
    def test_restored_quotients_are_byte_equal(self, tmp_path):
        fresh = _register(_shape_clauses(10))
        save_database(fresh, tmp_path / "db")
        restored = load_database(tmp_path / "db")
        assert restored.load_report.projections_restored == len(fresh)
        pairs = list(zip(fresh.contracts(), restored.contracts()))
        assert [a.name for a, _ in pairs] == [b.name for _, b in pairs]
        for before, after in pairs:
            stored = before.projections._subset_to_partition
            assert stored == after.projections._subset_to_partition
            for subset, partition_id in stored.items():
                key = (partition_id, subset)
                old, old_seeds = before.projections._materialize(key)
                new, new_seeds = after.projections._materialize(key)
                assert json.dumps(new.to_dict()) == json.dumps(old.to_dict())
                assert new_seeds == old_seeds
                assert new.table is restored.event_table


def _shape_clauses(count: int) -> list[list[str]]:
    return json.loads(SHAPES.read_text())["contracts"][:count]


def _register(contracts) -> ContractDatabase:
    db = ContractDatabase()
    for i, clauses in enumerate(contracts):
        db.register(f"c{i}", clauses)
    return db

