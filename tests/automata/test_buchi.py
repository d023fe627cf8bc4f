"""Unit tests for the Büchi automaton data structure."""

import pytest
from hypothesis import given, settings

from repro.automata.buchi import (
    BuchiAutomaton,
    BuchiBuilder,
    Transition,
    _state_key,
)
from repro.automata.labels import Label, pos, neg
from repro.errors import AutomatonError
from repro.ltl.parser import parse
from repro.ltl.runs import Run

from tests.strategies import buchi_automata


def figure_1b() -> BuchiAutomaton:
    """The query BA of Figure 1b: a refund after a missed flight."""
    return BuchiAutomaton.make(
        initial="init",
        transitions=[
            ("init", "true", "init"),
            ("init", "missedFlight", "s1"),
            ("s1", "true", "s1"),
            ("s1", "refund", "s2"),
            ("s2", "true", "s2"),
        ],
        final=["s2"],
    )


class TestConstruction:
    def test_make_infers_states(self):
        ba = figure_1b()
        assert ba.states == {"init", "s1", "s2"}
        assert ba.num_states == 3
        assert ba.num_transitions == 5

    def test_unknown_transition_state_rejected(self):
        with pytest.raises(AutomatonError):
            BuchiAutomaton(
                [0], 0, [Transition(0, Label.parse("a"), 99)], []
            )

    def test_unknown_initial_rejected(self):
        with pytest.raises(AutomatonError):
            BuchiAutomaton([0], 1, [], [])

    def test_final_must_be_subset(self):
        with pytest.raises(AutomatonError):
            BuchiAutomaton([0], 0, [], [5])

    def test_builder(self):
        ba = (
            BuchiBuilder()
            .add_state(0, initial=True)
            .add_state(1, final=True)
            .add_transition(0, "a", 1)
            .add_transition(1, "true", 1)
            .build()
        )
        assert ba.initial == 0
        assert ba.final == frozenset({1})

    def test_builder_dedups_transitions(self):
        builder = BuchiBuilder().add_state(0, initial=True)
        builder.add_transition(0, "a", 0)
        builder.add_transition(0, "a", 0)
        assert builder.build().num_transitions == 1

    def test_builder_requires_initial(self):
        with pytest.raises(AutomatonError):
            BuchiBuilder().add_state(0).build()

    def test_builder_rejects_second_initial(self):
        builder = BuchiBuilder().add_state(0, initial=True)
        with pytest.raises(AutomatonError):
            builder.add_state(1, initial=True)


class TestQueries:
    def test_successors_sorted_deterministically(self):
        ba1 = figure_1b()
        ba2 = figure_1b()
        assert [
            (str(l), d) for l, d in ba1.successors("init")
        ] == [(str(l), d) for l, d in ba2.successors("init")]

    #: state values of every kind the system builds automata over:
    #: canonical ints, names, degeneralization pairs, the translator's
    #: (obligation set, level) pairs, and a mix of them
    STATE_KINDS = {
        "int": lambda i: i,
        "str": lambda i: f"s{i}",
        "tuple": lambda i: (i % 3, f"q{i}"),
        "formula-set": lambda i: (
            frozenset({parse(f"p{i} U q"), parse(f"G (a -> F p{i % 4})")}),
            i % 2,
        ),
        "mixed": lambda i: (i, f"s{i}", ("iota", i))[i % 3],
    }

    @pytest.mark.parametrize("kind", sorted(STATE_KINDS))
    @given(buchi_automata(max_states=12, max_transitions=30))
    @settings(max_examples=40, deadline=None)
    def test_successors_are_in_label_then_state_key_order(self, kind, ba):
        """The order every artifact downstream is a function of —
        encodings, canonical numbering, block ids: by label, then by the
        destination's ``_state_key`` (so int state 10 sorts before 2)."""
        rename = self.STATE_KINDS[kind]
        raw = [
            (rename(t.src), t.label, rename(t.dst)) for t in ba.transitions()
        ]
        renamed = BuchiAutomaton(
            [rename(s) for s in ba.states],
            rename(ba.initial),
            [Transition(*t) for t in raw],
            [rename(s) for s in ba.final],
        )
        for state in renamed.states:
            assert list(renamed.successors(state)) == sorted(
                [(label, dst) for src, label, dst in raw if src == state],
                key=lambda lt: (lt[0].sort_key(), _state_key(lt[1])),
            )

    def test_events_and_literals(self):
        ba = figure_1b()
        assert ba.events() == frozenset({"missedFlight", "refund"})
        assert pos("missedFlight") in ba.literals()

    def test_stats(self):
        stats = figure_1b().stats()
        assert stats["states"] == 3
        assert stats["transitions"] == 5
        assert stats["final"] == 1

    def test_str_contains_transitions(self):
        text = str(figure_1b())
        assert "missedFlight" in text


class TestAcceptance:
    """Example 6: Figure 1b accepts exactly the runs with a missed flight
    followed (strictly or loosely) by a refund."""

    def test_accepts_miss_then_refund(self):
        ba = figure_1b()
        run = Run.from_events([["missedFlight"], ["refund"]])
        assert ba.accepts(run)

    def test_accepts_with_gap(self):
        ba = figure_1b()
        run = Run.from_events(
            [["purchase"], ["missedFlight"], [], [], ["refund"]]
        )
        assert ba.accepts(run)

    def test_rejects_refund_before_miss(self):
        ba = figure_1b()
        run = Run.from_events([["refund"], ["missedFlight"]])
        assert not ba.accepts(run)

    def test_rejects_no_refund(self):
        ba = figure_1b()
        run = Run.from_events([["missedFlight"]])
        assert not ba.accepts(run)

    def test_rejects_empty_run(self):
        ba = figure_1b()
        assert not ba.accepts(Run.from_events([], [[]]))

    def test_acceptance_inside_loop(self):
        ba = figure_1b()
        run = Run.from_events([], [["missedFlight"], ["refund"]])
        assert ba.accepts(run)


class TestEmptiness:
    def test_nonempty(self):
        assert not figure_1b().is_empty()

    def test_empty_no_final(self):
        ba = BuchiAutomaton.make(0, [(0, "true", 0)], final=[])
        assert ba.is_empty()

    def test_empty_final_unreachable(self):
        ba = BuchiAutomaton.make(
            0, [(0, "true", 0), (1, "true", 1)], final=[1]
        )
        assert ba.is_empty()

    def test_empty_final_not_on_cycle(self):
        ba = BuchiAutomaton.make(0, [(0, "a", 1)], final=[1])
        assert ba.is_empty()


class TestWitnessRun:
    def test_find_accepted_run(self):
        ba = figure_1b()
        run = ba.find_accepted_run()
        assert run is not None
        assert ba.accepts(run)

    def test_none_for_empty_language(self):
        ba = BuchiAutomaton.make(0, [(0, "a", 1)], final=[1])
        assert ba.find_accepted_run() is None

    def test_self_loop_knot(self):
        ba = BuchiAutomaton.make(0, [(0, "a", 0)], final=[0])
        run = ba.find_accepted_run()
        assert run is not None and ba.accepts(run)


class TestTransforms:
    def test_map_states(self):
        ba = figure_1b().map_states(lambda s: f"x-{s}")
        assert ba.initial == "x-init"
        assert "x-s2" in ba.final

    def test_map_states_must_be_injective(self):
        with pytest.raises(AutomatonError):
            figure_1b().map_states(lambda s: "same")

    def test_rename_events(self):
        ba = figure_1b()
        renamed = ba.rename_events({"missedFlight": "m", "refund": "r"})
        assert renamed.states == ba.states
        assert renamed.events() == {"m", "r"}
        assert renamed.accepts(Run.from_events([["m"], ["r"]]))
        assert not renamed.accepts(Run.from_events([["r"], ["m"]]))
        # a swap re-sorts the transitions by their new labels
        swapped = ba.rename_events({"missedFlight": "refund",
                                    "refund": "missedFlight"})
        assert swapped.accepts(
            Run.from_events([["refund"], ["missedFlight"]]))

    def test_canonical_renumbers_from_initial(self):
        ba = figure_1b().canonical()
        assert ba.initial == 0
        assert ba.states == {0, 1, 2}

    def test_canonical_preserves_acceptance(self):
        ba = figure_1b()
        canonical = ba.canonical()
        run = Run.from_events([["missedFlight"], ["refund"]])
        assert canonical.accepts(run) == ba.accepts(run)

    def test_equality(self):
        assert figure_1b() == figure_1b()
        assert figure_1b().canonical() != figure_1b()
