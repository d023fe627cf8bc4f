"""Tests for BA intersection and union."""

from hypothesis import given, settings

from repro.automata.ltl2ba import translate
from repro.automata.product import intersection, union
from repro.ltl.parser import parse
from repro.ltl.runs import Run

from tests.strategies import formulas, runs


class TestIntersection:
    def test_conjunction_equivalent(self):
        a = translate(parse("F p"))
        b = translate(parse("G q"))
        both = intersection(a, b)
        good = Run.from_events([], [["p", "q"], ["q"]])
        only_a = Run.from_events([["p"]], [[]])
        only_b = Run.from_events([], [["q"]])
        assert both.accepts(good)
        assert not both.accepts(only_a)
        assert not both.accepts(only_b)

    def test_disjoint_languages_empty(self):
        a = translate(parse("G p"))
        b = translate(parse("G !p"))
        assert intersection(a, b).is_empty()

    def test_conflicting_labels_dropped(self):
        a = translate(parse("G p"))
        b = translate(parse("F !p && G q"))
        assert intersection(a, b).is_empty()

    @given(formulas(max_depth=3), formulas(max_depth=3), runs())
    @settings(max_examples=150, deadline=None)
    def test_acceptance_is_conjunction(self, fa, fb, run):
        a = translate(fa)
        b = translate(fb)
        both = intersection(a, b)
        assert both.accepts(run) == (a.accepts(run) and b.accepts(run))

    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=80, deadline=None)
    def test_emptiness_matches_conjunction_formula(self, fa, fb):
        product = intersection(translate(fa), translate(fb))
        conjunction = translate(parse(f"({fa}) && ({fb})"))
        assert product.is_empty() == conjunction.is_empty()


class TestUnion:
    def test_disjunction_equivalent(self):
        a = translate(parse("G p"))
        b = translate(parse("G q"))
        either = union(a, b)
        assert either.accepts(Run.from_events([], [["p"]]))
        assert either.accepts(Run.from_events([], [["q"]]))
        assert not either.accepts(Run.from_events([], [[]]))

    @given(formulas(max_depth=3), formulas(max_depth=3), runs())
    @settings(max_examples=150, deadline=None)
    def test_acceptance_is_disjunction(self, fa, fb, run):
        a = translate(fa)
        b = translate(fb)
        either = union(a, b)
        assert either.accepts(run) == (a.accepts(run) or b.accepts(run))


class TestPermissionLink:
    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_nonempty_intersection_necessary_for_permission(self, fc, fq):
        """Definition 6: permission requires the language intersection to
        be non-empty (the converse fails for underspecified contracts)."""
        from repro.core.permission import permits

        contract = translate(fc)
        query = translate(fq)
        if permits(contract, query, fc.variables()):
            assert not intersection(contract, query).is_empty()
