"""Tests for the flat int/bitset encoding (:mod:`repro.automata.encode`).

Structural properties of :func:`encode_automaton`, the
``to_dict``/``from_dict`` persistence round trip (including the
validation failures that drive the snapshot fallback ladder), and the
Definition-7 bit tables :func:`bind_query` precomputes.
"""

import pytest
from hypothesis import given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.encode import (
    EncodedAutomaton,
    EventTable,
    bind_query,
    encode_automaton,
)
from repro.automata.labels import TRUE_LABEL, Label
from repro.automata.ltl2ba import translate
from repro.core.seeds import compute_seeds, compute_seeds_mask
from repro.errors import AutomatonError
from repro.ltl.parser import parse

from tests.strategies import buchi_automata, formulas


def ba_of(text: str) -> BuchiAutomaton:
    return translate(parse(text))


class TestEncoding:
    def test_structure_mirrors_automaton(self):
        ba = ba_of("G(a -> F b)")
        enc = encode_automaton(ba)
        assert enc.num_states == len(ba.states)
        assert enc.num_transitions == ba.num_transitions
        assert enc.states[enc.initial] == ba.initial
        assert {enc.states[i] for i in range(enc.num_states)
                if enc.is_final(i)} == ba.final
        assert enc.events == tuple(sorted(ba.events()))

    def test_csr_preserves_successor_order(self):
        """The hot-loop parity argument rests on this: the CSR rows list
        each state's transitions in ``BuchiAutomaton.successors`` order."""
        ba = ba_of("(a U b) && G(c -> F a)")
        enc = encode_automaton(ba)
        for sid in range(enc.num_states):
            object_dsts = [
                enc.state_index[dst]
                for _, dst in ba.successors(enc.states[sid])
            ]
            assert list(enc.successor_ids(sid)) == object_dsts

    def test_label_classes_deduplicated(self):
        ba = ba_of("G a")
        enc = encode_automaton(ba)
        distinct = {
            label for state in ba.states for label, _ in ba.successors(state)
        }
        assert enc.num_label_classes == len(distinct)

    def test_vocabulary_can_widen_events(self):
        ba = ba_of("F a")
        enc = encode_automaton(ba, frozenset({"a", "zz"}))
        assert enc.events == ("a", "zz")
        assert enc.table["zz"] == 1

    def test_out_of_vocabulary_literals_dropped(self):
        """Contract literals on events outside the vocabulary vanish
        from the masks (sound: admissible queries can't cite them)."""
        ba = ba_of("G(a && !b)")
        enc = encode_automaton(ba, frozenset({"a"}))
        bit = 1 << enc.table["a"]
        assert all(m & ~bit == 0 for m in enc.label_pos)
        assert all(m == 0 for m in enc.label_neg)

    def test_state_mask_matches_seed_mask(self):
        ba = ba_of("G(a -> F b)")
        enc = encode_automaton(ba)
        assert enc.state_mask(compute_seeds(ba)) == compute_seeds_mask(enc)

    @settings(max_examples=30, deadline=None)
    @given(ba=buchi_automata())
    def test_random_automata_encode_consistently(self, ba):
        enc = encode_automaton(ba)
        assert enc.num_transitions == ba.num_transitions
        for sid in range(enc.num_states):
            assert list(enc.successor_ids(sid)) == [
                enc.state_index[dst]
                for _, dst in ba.successors(enc.states[sid])
            ]


class TestSerialization:
    def test_round_trip(self):
        ba = ba_of("G(a -> F(b || c))")
        enc = encode_automaton(ba)
        restored = EncodedAutomaton.from_dict(ba, enc.to_dict())
        assert restored.events == enc.events
        assert restored.states == enc.states
        assert restored.final_mask == enc.final_mask
        assert list(restored.offsets) == list(enc.offsets)
        assert list(restored.trans_labels) == list(enc.trans_labels)
        assert list(restored.trans_dsts) == list(enc.trans_dsts)
        assert restored.label_pos == enc.label_pos
        assert restored.label_neg == enc.label_neg

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("offsets"),
            lambda d: d.update(states=d["states"][:-1]),
            lambda d: d.update(initial=len(d["states"])),
            lambda d: d.update(final=[len(d["states"])]),
            lambda d: d.update(offsets=[1] + d["offsets"][1:]),
            lambda d: d.update(trans_dsts=d["trans_dsts"][:-1]),
            lambda d: d.update(
                trans_labels=[len(d["label_pos"])] + d["trans_labels"][1:]
            ),
            lambda d: d.update(label_neg=d["label_neg"] + [0]),
            lambda d: d.update(events=list(reversed(d["events"]))),
            lambda d: d["label_pos"].__setitem__(0, 1 << len(d["events"])),
            lambda d: d["label_neg"].__setitem__(0, d["label_pos"][0] or 1)
            or d["label_pos"].__setitem__(0, d["label_neg"][0]),
        ],
        ids=[
            "missing-key", "dropped-state", "bad-initial", "bad-final",
            "bad-offset-origin", "short-dsts", "unknown-label-class",
            "ragged-label-table", "unsorted-events", "label-bit-past-events",
            "label-in-both-polarities",
        ],
    )
    def test_from_dict_rejects_corruption(self, mutate):
        """Every structural mismatch must raise ``AutomatonError`` so the
        snapshot loader falls back to re-encoding."""
        ba = ba_of("G(a -> F b)")
        doc = encode_automaton(ba).to_dict()
        mutate(doc)
        with pytest.raises(AutomatonError):
            EncodedAutomaton.from_dict(ba, doc)


class TestBindQuery:
    def test_admissible_query(self):
        contract = encode_automaton(ba_of("G(a -> F b)"))
        query = encode_automaton(ba_of("F b"))
        binding = bind_query(contract, query)
        assert all(binding.admissible)

    def test_out_of_vocabulary_query_label_inadmissible(self):
        contract = encode_automaton(ba_of("F a"))
        query = encode_automaton(ba_of("F(a && F c)"))
        binding = bind_query(contract, query)
        c_bit = query.table["c"]
        for lid in range(query.num_label_classes):
            cites_c = bool(
                ((query.label_pos[lid] | query.label_neg[lid]) >> c_bit) & 1
            )
            assert binding.admissible[lid] == (not cites_c)
            if cites_c:
                assert binding.compat[lid] == 0

    def test_compat_bits_match_definition_7(self):
        """Row bit ``c`` is set iff contract class ``c`` and the query
        class share no complementary literal pair."""
        contract = encode_automaton(ba_of("G(a && !b) || G b"))
        query = encode_automaton(ba_of("F(b && a)"))
        binding = bind_query(contract, query)
        for qid in range(query.num_label_classes):
            if not binding.admissible[qid]:
                continue
            q_pos = _remap(query, contract, query.label_pos[qid])
            q_neg = _remap(query, contract, query.label_neg[qid])
            for cid in range(contract.num_label_classes):
                expected = not (
                    (contract.label_pos[cid] & q_neg)
                    | (contract.label_neg[cid] & q_pos)
                )
                assert bool((binding.compat[qid] >> cid) & 1) == expected

    def test_true_label_compatible_with_everything(self):
        contract = encode_automaton(ba_of("G(a -> F b)"))
        query = encode_automaton(
            BuchiAutomaton.make(0, [(0, TRUE_LABEL, 0)], [0])
        )
        binding = bind_query(contract, query)
        true_id = query.trans_labels[0]
        assert binding.admissible[true_id]
        full = (1 << contract.num_label_classes) - 1
        assert binding.compat[true_id] == full


class TestEventTable:
    def test_positions_are_first_sight_and_never_move(self):
        table = EventTable(["b", "a"])
        assert table.events == ["b", "a"] and table == {"b": 0, "a": 1}
        assert table.intern(["c", "a"]) == 0b110
        assert table.events == ["b", "a", "c"]
        assert table.mask(["a", "zz"]) == 0b010
        assert "zz" not in table  # a lookup never grows the table

    def test_concurrent_interning_hands_out_each_position_once(self):
        """Registrations encode outside the database lock, so threads
        intern overlapping vocabularies at once: every event must end up
        with one position, dense, and listed at that position."""
        import random
        import sys
        import threading

        table = EventTable()
        events = [f"e{i}" for i in range(2000)]
        orders = [random.Random(t).sample(events, len(events))
                  for t in range(12)]
        start = threading.Barrier(len(orders))
        masks = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def work(t):
                start.wait(timeout=30)
                masks[t] = 0
                for event in orders[t]:
                    masks[t] |= table.intern((event,))

            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(len(orders))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert len(table.events) == len(table) == len(events)
        assert sorted(table.values()) == list(range(len(events)))
        assert all(table.events[table[e]] == e for e in table)
        assert set(masks.values()) == {(1 << len(events)) - 1}

    def test_fresh_table_is_the_sorted_vocabulary(self):
        """Without a table an encoding numbers its sorted vocabulary —
        the layout ``encoded.json`` has always held."""
        ba = ba_of("G(b -> F a) && G !c")
        enc = encode_automaton(ba, frozenset({"c", "b", "a", "z"}))
        assert enc.table.events == ["a", "b", "c", "z"]
        assert enc.vocab_mask == 0b1111 and enc.unknown_bit == 0

    def test_shared_table_masks_are_a_renaming_of_the_fresh_ones(self):
        """Encoding into a table that already holds other events moves
        bits, never label classes or transitions."""
        ba = ba_of("G(b -> F a) && G !c")
        fresh = encode_automaton(ba, frozenset({"a", "b", "c"}))
        table = EventTable(["x", "c", "y", "a"])
        shared = encode_automaton(ba, frozenset({"a", "b", "c"}), table)
        assert table.events == ["x", "c", "y", "a", "b"]
        assert shared.vocab_mask == 0b11010
        assert list(shared.trans_labels) == list(fresh.trans_labels)
        assert [_remap(fresh, shared, m) for m in fresh.label_pos] == list(
            shared.label_pos
        )
        assert shared.to_dict() == fresh.to_dict()
        restored = EncodedAutomaton.from_dict(ba, fresh.to_dict())
        rebased = restored.rebased(table, join=True)
        assert (rebased.label_pos, rebased.label_neg) == (
            shared.label_pos, shared.label_neg
        )

    def test_query_never_grows_the_table(self):
        table = EventTable()
        contract = encode_automaton(ba_of("G(a -> F b)"), frozenset("ab"), table)
        assert contract.unknown_bit == 0
        query = encode_automaton(ba_of("F(a && F c)"), table=table)
        assert table.events == ["a", "b"]
        assert query.unknown_bit == 1 << 2
        binding = bind_query(contract, query)
        for lid in range(query.num_label_classes):
            cites_c = (query.label_pos[lid] | query.label_neg[lid]) >> 2
            assert binding.admissible[lid] == (not cites_c)

    def test_stale_query_encoding_is_refused(self):
        """A query encoded before its event joined the table must be
        re-encoded before it meets a contract that brought the event."""
        table = EventTable()
        encode_automaton(ba_of("F a"), frozenset({"a"}), table)
        stale = encode_automaton(ba_of("F c"), table=table)
        earlier = encode_automaton(ba_of("G !a"), frozenset({"a"}), table)
        later = encode_automaton(ba_of("F(b && F c)"), frozenset("bc"), table)
        assert stale.binds_to(earlier) and not stale.binds_to(later)
        bind_query(earlier, stale)
        with pytest.raises(AutomatonError):
            bind_query(later, stale)
        again = encode_automaton(ba_of("F c"), table=table)
        assert again.binds_to(later) and all(bind_query(later, again).admissible)


def _remap(query, contract, mask):
    out = 0
    for name in query.events:
        if (mask >> query.table[name]) & 1:
            out |= 1 << contract.table[name]
    return out
