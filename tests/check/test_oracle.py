"""The explicit-model oracle versus the symbolic decider.

This is the conformance harness checking itself: the oracle shares no
code with Algorithm 2 or with the SCC-based witness search of
``find_witness`` (those two expand one compatibility product), so
three-way agreement over random formula pairs (and random
non-LTL-shaped automata) is the strongest evidence any of the three is
right (``tests/layers.py`` keeps its imports to the translator and
the LTL layer).  The monitor oracle built on it is anchored the same
way: against hand-derived verdicts and against the formula evaluator
of :mod:`repro.ltl.semantics` on concrete runs.
"""

import pytest
from hypothesis import assume, given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.equivalence import is_satisfiable
from repro.automata.ltl2ba import translate
from repro.check.oracle import (
    MonitorVerdicts,
    OracleLimitError,
    history_formula,
    oracle_monitor,
    oracle_permits,
)
from repro.core.permission import find_witness, permits
from repro.ltl.ast import And, Finally, Prop
from repro.ltl.parser import parse
from repro.ltl.semantics import evaluate_positions, satisfies

from tests import layers
from tests.strategies import buchi_automata, formulas, runs


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


class TestMonitorOracle:
    def test_history_formula_pins_every_vocabulary_event(self):
        chi = history_formula(
            [{"a", "stray"}, set(), {"b"}], frozenset({"a", "b"})
        )
        assert chi == parse(
            "(a && !b) && (X(!a && !b) && X X(!a && b))"
        )
        assert history_formula([], frozenset({"a"})) == parse("true")

    def test_safety_violation_is_indexed_and_absorbing(self):
        verdicts = oracle_monitor(
            parse("G !a"), frozenset({"a", "b"}),
            [{"b", "x"}, {"a", "y", "z"}, {"b", "w"}], parse("F b"),
        )
        # the third snapshot is never consumed: its stray is not counted
        assert verdicts == MonitorVerdicts(
            active=(True, True, False, False),
            can_still=(True, True, False, False),
            violation_index=1,
            unknown_events=3,
        )

    def test_unsatisfiable_contract_is_violated_before_any_event(self):
        verdicts = oracle_monitor(
            parse("false"), frozenset({"a"}), [{"a"}], parse("true")
        )
        assert verdicts == MonitorVerdicts((False, False), (False, False), -1, 0)

    def test_the_query_is_read_over_the_future(self):
        contract = parse("G(dateChange -> !F refund)")
        vocabulary = contract.variables()
        verdicts = oracle_monitor(
            contract, vocabulary, [{"refund"}, {"dateChange"}],
            parse("F refund"),
        )
        # the refund already in the history does not count
        assert verdicts.can_still == (True, True, False)
        assert verdicts.violation_index is None
        # Definition 1: an event the contract never cites is never possible
        alien = oracle_monitor(
            contract, vocabulary, [{"refund"}], parse("F classUpgrade")
        )
        assert alien.can_still == (False, False)

    @given(formulas(max_depth=3), formulas(max_depth=3), runs(max_prefix=3))
    @settings(max_examples=80, deadline=None)
    def test_an_allowed_run_keeps_every_prefix_active(
        self, contract_f, query_f, run
    ):
        """Ground truth from the formula evaluator, which shares nothing
        with the translator or the oracle: a run the contract allows is
        an allowed continuation of each of its own prefixes, so every
        prefix is active, and wherever the run's suffix satisfies a
        query over the contract's events that query is still possible."""
        assume(satisfies(run, contract_f))
        vocabulary = contract_f.variables()
        history = run.unroll(run.num_positions - 1)
        verdicts = oracle_monitor(contract_f, vocabulary, history, query_f)
        assert all(verdicts.active)
        assert verdicts.violation_index is None
        assert verdicts.unknown_events == sum(
            len(snapshot - vocabulary) for snapshot in history
        )
        if query_f.variables() <= vocabulary:
            for n, holds in enumerate(evaluate_positions(run, query_f)):
                assert verdicts.can_still[n] or not holds


def test_the_oracle_imports_nothing_it_is_a_reference_for():
    """The translator is the one thing both sides share, as it is for
    the batch oracle; the stream engine, the production decider, the
    flat encoding and the graph algorithms under them stay out (the
    ``ONLY`` row of ``tests/layers.py``, walked by its one reader)."""
    internal = {edge.target for edge in layers.imports()
                if edge.module == "repro.check.oracle"
                and layers.layer_of(edge.target)}
    assert "repro.automata.ltl2ba" in internal
    assert layers.ONLY["repro.check.oracle"] == (
        "repro.ltl", "repro.errors",
        "repro.automata.buchi", "repro.automata.ltl2ba")
    assert [v for v in layers.violations()
            if v.startswith("src/repro/check/oracle.py:")] == []
