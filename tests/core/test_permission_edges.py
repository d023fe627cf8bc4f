"""Edge-case tests for the permission decider on hand-built automata."""

from repro.automata.buchi import BuchiAutomaton
from repro.automata.reduce import empty_automaton
from repro.core.permission import find_witness, permits


def both(contract, query, vocabulary):
    """The decider's verdict, cross-checked against the SCC-based
    witness search: a witness exists iff the pair is permitted."""
    verdict = permits(contract, query, frozenset(vocabulary))
    witness = find_witness(contract, query, frozenset(vocabulary))
    assert verdict == (witness is not None)
    return verdict


class TestDegenerateAutomata:
    def test_empty_contract(self):
        query = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        assert not both(empty_automaton(), query, {"a"})

    def test_empty_query(self):
        contract = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        assert not both(contract, empty_automaton(), {"a"})

    def test_both_trivial_accepting(self):
        contract = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        query = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        assert both(contract, query, set())

    def test_initial_state_is_knot(self):
        contract = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        query = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        assert both(contract, query, {"a"})

    def test_contract_final_off_query_cycle(self):
        # contract accepts only through state 1; query knots at its own
        # initial — the simultaneous cycle must include a contract-final
        # pair, which requires pairing with contract state 1.
        contract = BuchiAutomaton.make(
            0, [(0, "a", 1), (1, "b", 0)], final=[1]
        )
        query = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        assert both(contract, query, {"a", "b"})

    def test_query_requires_impossible_alternation(self):
        contract = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        query = BuchiAutomaton.make(
            0, [(0, "a", 1), (1, "!a", 0)], final=[0]
        )
        assert not both(contract, query, {"a"})


class TestVocabularyEdges:
    def test_true_query_label_on_foreign_contract(self):
        """A query whose labels are all 'true' is permitted by any
        non-empty contract regardless of vocabularies."""
        contract = BuchiAutomaton.make(
            0, [(0, "weirdEvent", 0)], final=[0]
        )
        query = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        assert both(contract, query, {"weirdEvent"})

    def test_empty_vocabulary_blocks_constrained_queries(self):
        contract = BuchiAutomaton.make(0, [(0, "true", 0)], final=[0])
        query = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        assert not both(contract, query, set())

    def test_vocabulary_superset_of_labels(self):
        """The vocabulary may cite events no contract label constrains;
        queries over those events pair with any label."""
        contract = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        query = BuchiAutomaton.make(0, [(0, "b", 0)], final=[0])
        assert not both(contract, query, {"a"})
        assert both(contract, query, {"a", "b"})

    def test_conflicting_but_out_of_vocabulary(self):
        contract = BuchiAutomaton.make(0, [(0, "!b", 0)], final=[0])
        query = BuchiAutomaton.make(0, [(0, "b", 0)], final=[0])
        # b is in the vocabulary, but every contract label conflicts
        assert not both(contract, query, {"b"})


class TestSeedEdgeCases:
    def test_seeds_with_unreachable_final(self):
        contract = BuchiAutomaton.make(
            0, [(0, "a", 0), (1, "b", 1)], final=[0, 1]
        )
        query = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        assert permits(contract, query, frozenset({"a", "b"}),
                       use_seeds=True)
        assert permits(contract, query, frozenset({"a", "b"}),
                       use_seeds=False)

    def test_explicit_empty_seeds_mean_no_knots(self):
        contract = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        query = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        # an (incorrectly) empty seed set suppresses every knot — this
        # documents that callers must pass seeds for the *same* automaton
        assert not permits(
            contract, query, frozenset({"a"}), seeds=frozenset(),
            use_seeds=True,
        )
