"""The explicit-model oracle versus the symbolic decider.

This is the conformance harness checking itself: the oracle shares no
code with Algorithm 2 or with the SCC-based witness search of
``find_witness``, so three-way agreement over random formula pairs (and
random non-LTL-shaped automata) is the strongest evidence any of the
three is right.
"""

import pytest
from hypothesis import given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.ltl2ba import translate
from repro.check.oracle import OracleLimitError, oracle_permits
from repro.check.strategies import buchi_automata, formulas
from repro.core.permission import find_witness, permits
from repro.ltl.ast import And, Finally, Prop
from repro.ltl.equivalence import is_satisfiable
from repro.ltl.parser import parse


class TestAgainstSymbolicDeciders:
    @given(formulas(max_depth=3), formulas(("a", "b", "c", "x"), max_depth=3))
    @settings(max_examples=120, deadline=None)
    def test_three_way_agreement_on_formulas(self, contract_f, query_f):
        contract = translate(contract_f)
        query = translate(query_f)
        vocabulary = contract_f.variables()
        expected = oracle_permits(contract, query, vocabulary)
        assert permits(contract, query, vocabulary) == expected
        witness = find_witness(contract, query, vocabulary)
        assert (witness is not None) == expected

    @given(buchi_automata(max_states=4), buchi_automata(max_states=4))
    @settings(max_examples=100, deadline=None)
    def test_three_way_agreement_on_arbitrary_automata(self, contract, query):
        """Arbitrary graph shapes (unreachable states, dead ends) the
        translator never produces."""
        vocabulary = contract.events()
        expected = oracle_permits(contract, query, vocabulary)
        assert permits(contract, query, vocabulary) == expected
        witness = find_witness(contract, query, vocabulary)
        assert (witness is not None) == expected


class TestSemanticLaws:
    def test_worked_instance(self):
        contract = parse("G(a -> F b)")
        query = parse("F(a && F b)")
        assert oracle_permits(
            translate(contract), translate(query), frozenset({"a", "b"})
        )

    def test_alien_required_event_never_permitted(self):
        contract = parse("G(a -> F b)")
        query = parse("F alienEvent")
        assert not oracle_permits(
            translate(contract), translate(query), frozenset({"a", "b"})
        )

    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_contained_vocabulary_collapse(self, contract_f, query_f):
        """When the query only cites contract events, permission is
        plain joint satisfiability (Definition 6) — a fourth,
        formula-level pipeline agreeing with the oracle."""
        vocabulary = contract_f.variables()
        if not query_f.variables() <= vocabulary:
            return
        assert oracle_permits(
            translate(contract_f), translate(query_f), vocabulary
        ) == is_satisfiable(And(contract_f, query_f))

    def test_unsatisfiable_contract_permits_nothing(self):
        contract = translate(parse("a && !a && X a"))
        query = translate(Finally(Prop("a")))
        assert not oracle_permits(contract, query, frozenset({"a"}))


class TestLimits:
    def test_too_many_events_raises(self):
        ba = BuchiAutomaton.make(
            0, [(0, " & ".join(f"e{i}" for i in range(6)), 0)], [0]
        )
        with pytest.raises(OracleLimitError):
            oracle_permits(ba, ba, ba.events(), max_events=4)

    def test_vocabulary_defaults_to_label_events(self):
        contract = translate(parse("G a"))
        query = translate(parse("G a"))
        assert oracle_permits(contract, query)
