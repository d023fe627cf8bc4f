"""Unit tests for structural BA reduction."""

from hypothesis import given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.ltl2ba import translate
from repro.automata.reduce import (
    empty_automaton,
    merge_duplicate_transitions,
    reduce_automaton,
    remove_dead,
    remove_unreachable,
)
from repro.ltl.runs import Run

from tests.strategies import formulas, runs


class TestRemoveUnreachable:
    def test_drops_disconnected_states(self):
        ba = BuchiAutomaton.make(
            0, [(0, "a", 0), (1, "b", 1)], final=[0, 1]
        )
        trimmed = remove_unreachable(ba)
        assert trimmed.states == {0}

    def test_identity_when_all_reachable(self):
        ba = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        assert remove_unreachable(ba) is ba


class TestRemoveDead:
    def test_drops_states_without_accepting_future(self):
        # 2 is a dead end: no accepting cycle reachable from it.
        ba = BuchiAutomaton.make(
            0, [(0, "a", 1), (1, "t", 1), (0, "b", 2)], final=[1]
        )
        trimmed = remove_dead(ba)
        assert trimmed.states == {0, 1}

    def test_empty_language_collapses(self):
        ba = BuchiAutomaton.make(0, [(0, "a", 1)], final=[1])
        trimmed = remove_dead(ba)
        assert trimmed.num_states == 1
        assert trimmed.is_empty()

    def test_identity_when_all_live(self):
        ba = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        assert remove_dead(ba) is ba


class TestMergeDuplicates:
    def test_merges(self):
        from repro.automata.buchi import Transition
        from repro.automata.labels import Label

        duplicate = Transition(0, Label.parse("a"), 0)
        ba = BuchiAutomaton([0], 0, [duplicate, duplicate], [0])
        assert ba.num_transitions == 2
        merged = merge_duplicate_transitions(ba)
        assert merged.num_transitions == 1


class TestEmptyAutomaton:
    def test_is_empty(self):
        assert empty_automaton().is_empty()

    def test_shape(self):
        ba = empty_automaton()
        assert ba.num_states == 1
        assert ba.num_transitions == 0
        assert not ba.final


class TestReducePipeline:
    def test_reduce_shrinks_translator_output(self):
        from repro.ltl.parser import parse

        raw = translate(parse("F(a && F b)"), reduce=False)
        reduced = reduce_automaton(raw)
        assert reduced.num_states <= raw.num_states

    @given(formulas(max_depth=3), runs())
    @settings(max_examples=150, deadline=None)
    def test_reduce_preserves_language(self, formula, run):
        raw = translate(formula, reduce=False)
        reduced = reduce_automaton(raw)
        assert raw.accepts(run) == reduced.accepts(run)
