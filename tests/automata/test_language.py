"""Tests for bounded language enumeration."""

from hypothesis import given, settings

from repro.automata.language import enumerate_runs, example_behaviors
from repro.automata.ltl2ba import translate
from repro.ltl.parser import parse
from repro.ltl.semantics import satisfies

from tests.strategies import formulas


class TestEnumerateRuns:
    def test_all_enumerated_runs_accepted(self):
        ba = translate(parse("F(a && F b)"))
        runs = list(enumerate_runs(ba, limit=8))
        assert runs
        for run in runs:
            assert ba.accepts(run)

    def test_empty_language_yields_nothing(self):
        ba = translate(parse("false"))
        assert list(enumerate_runs(ba)) == []

    def test_limit_respected(self):
        ba = translate(parse("F a"))
        assert len(list(enumerate_runs(ba, limit=3))) <= 3

    def test_runs_are_distinct(self):
        ba = translate(parse("F a || F b"))
        runs = list(enumerate_runs(ba, limit=10))
        assert len(runs) == len(set(runs))

    def test_simplest_behavior_first(self):
        ba = translate(parse("G !a"))
        first = next(enumerate_runs(ba, limit=1))
        # the simplest allowed behavior of "never a" is doing nothing
        assert first.prefix == ()
        assert all("a" not in snap for snap in first.loop)

    def test_reschedule_behavior_enumerable(self):
        clauses = parse("F dateChange && G(dateChange -> !F refund)")
        ba = translate(clauses)
        runs = list(enumerate_runs(ba, limit=10))
        assert runs
        for run in runs:
            assert any(
                "dateChange" in snap for snap in run.prefix + run.loop
            )
            # the Ticket A policy: never a refund after the change
            assert ba.accepts(run)

    @given(formulas(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_enumerated_runs_satisfy_the_formula(self, formula):
        ba = translate(formula)
        for run in enumerate_runs(ba, limit=4):
            assert satisfies(run, formula)


class TestExampleBehaviors:
    def test_shape(self):
        ba = translate(parse("F a"))
        behaviors = example_behaviors(ba, limit=3, horizon=4)
        assert len(behaviors) <= 3
        assert all(len(b) == 4 for b in behaviors)
