"""Tests for the LTL-to-Büchi translation.

The decisive check is differential: on random formulas and random
ultimately-periodic runs, BA acceptance must coincide with the
ground-truth evaluator of :mod:`repro.ltl.semantics`.
"""

import pytest
from hypothesis import given, settings

from repro.automata.ltl2ba import translate
from repro.errors import TranslationError
from repro.ltl.parser import parse
from repro.ltl.runs import Run
from repro.ltl.semantics import satisfies

from tests.strategies import formulas, runs


class TestBasicShapes:
    def test_true_accepts_everything(self):
        ba = translate(parse("true"))
        assert ba.accepts(Run.from_events([], [[]]))
        assert ba.accepts(Run.from_events([["a"]], [["b"]]))

    def test_false_accepts_nothing(self):
        ba = translate(parse("false"))
        assert ba.is_empty()

    def test_contradiction_is_empty(self):
        assert translate(parse("G p && F !p")).is_empty()
        assert translate(parse("p && !p")).is_empty()

    def test_single_proposition(self):
        ba = translate(parse("p"))
        assert ba.accepts(Run.from_events([["p"]]))
        assert not ba.accepts(Run.from_events([[]], [["p"]]))

    def test_globally_single_state(self):
        ba = translate(parse("G p"))
        assert ba.num_states == 1
        assert ba.accepts(Run.from_events([], [["p"]]))
        assert not ba.accepts(Run.from_events([["p"], []], [["p"]]))

    def test_labels_restricted_to_formula_variables(self):
        ba = translate(parse("G(a -> F b)"))
        assert ba.events() <= {"a", "b"}

    def test_reduction_keeps_language(self):
        raw = translate(parse("F(a && F b)"), reduce=False)
        reduced = translate(parse("F(a && F b)"), reduce=True)
        assert reduced.num_states <= raw.num_states
        for run in (
            Run.from_events([["a"], ["b"]]),
            Run.from_events([["b"], ["a"]]),
            Run.from_events([], [["a"], ["b"]]),
        ):
            assert raw.accepts(run) == reduced.accepts(run)


class TestBudget:
    def test_budget_exceeded_raises(self):
        # A conjunction of many distinct untils needs many obligation sets.
        clause = " && ".join(f"(F p{i})" for i in range(8))
        with pytest.raises(TranslationError):
            translate(parse(clause), state_budget=3)

    def test_generous_budget_succeeds(self):
        clause = " && ".join(f"(F p{i})" for i in range(4))
        ba = translate(parse(clause), state_budget=10_000)
        assert not ba.is_empty()


class TestPaperAutomata:
    def test_figure_1b_equivalent(self):
        """Our BA for 'refund after missed flight' accepts the same runs
        Example 6 describes."""
        ba = translate(parse("F(missedFlight && F refund)"))
        assert ba.accepts(Run.from_events([["missedFlight"], ["refund"]]))
        assert ba.accepts(
            Run.from_events([[], ["missedFlight"], [], ["refund"], []])
        )
        assert not ba.accepts(Run.from_events([["refund"], ["missedFlight"]]))
        # the same instant counts for both only if both events hold there
        assert ba.accepts(
            Run.from_events([["missedFlight", "refund"], ["refund"]])
        )

    def test_ticket_a_clause(self):
        ba = translate(parse("G(dateChange -> !F refund)"))
        assert ba.accepts(Run.from_events([["dateChange"], ["use"]]))
        assert not ba.accepts(Run.from_events([["dateChange"], ["refund"]]))
        assert ba.accepts(Run.from_events([["refund"], ["dateChange"]]))

    def test_conjunction_of_clauses(self):
        spec = parse(
            "G(!refund) && G(dateChange -> X(!F dateChange)) "
            "&& G(missedFlight -> !F dateChange)"
        )
        ba = translate(spec)
        assert ba.accepts(Run.from_events([["dateChange"], ["use"]]))
        assert not ba.accepts(
            Run.from_events([["dateChange"], ["dateChange"]])
        )
        assert not ba.accepts(Run.from_events([["refund"]]))


class TestDifferential:
    @given(formulas(max_depth=4), runs())
    @settings(max_examples=400, deadline=None)
    def test_acceptance_matches_semantics(self, formula, run):
        ba = translate(formula)
        assert ba.accepts(run) == satisfies(run, formula)

    @given(formulas(max_depth=3))
    @settings(max_examples=150, deadline=None)
    def test_emptiness_matches_witness(self, formula):
        ba = translate(formula)
        witness = ba.find_accepted_run()
        if ba.is_empty():
            assert witness is None
        else:
            assert witness is not None
            assert satisfies(witness, formula)
