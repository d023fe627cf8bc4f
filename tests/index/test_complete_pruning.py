"""Tests for the complete (exact-lasso) pruning conditions."""

from hypothesis import given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.labels import Label
from repro.automata.ltl2ba import translate
from repro.core.permission import permits
from repro.index.complete_pruning import complete_pruning_condition
from repro.index.condition import CondFalse, CondTrue, to_dnf
from repro.index.prefilter import PrefilterIndex
from repro.index.pruning import pruning_condition
from repro.ltl.parser import parse

from tests.strategies import formulas


class TestExactEnumeration:
    def test_single_lasso(self):
        ba = BuchiAutomaton.make(
            "i", [("i", "a", "f"), ("f", "c", "f")], final=["f"]
        )
        dnf = to_dnf(complete_pruning_condition(ba))
        assert [
            {str(leaf.label) for leaf in term} for term in dnf
        ] == [{"a", "c"}]

    def test_two_prefixes(self):
        ba = BuchiAutomaton.make(
            "i",
            [("i", "a", "f"), ("i", "b", "f"), ("f", "c", "f")],
            final=["f"],
        )
        dnf = to_dnf(complete_pruning_condition(ba))
        terms = {frozenset(str(l.label) for l in term) for term in dnf}
        assert terms == {frozenset({"a", "c"}), frozenset({"b", "c"})}

    def test_multi_step_cycle_fully_required(self):
        """Unlike the approximation, the complete condition demands every
        label of the cycle, not just the knot's incoming one."""
        ba = BuchiAutomaton.make(
            "i",
            [("i", "a", "f"), ("f", "x", "m"), ("m", "y", "f")],
            final=["f"],
        )
        complete_terms = {
            frozenset(str(l.label) for l in term)
            for term in to_dnf(complete_pruning_condition(ba))
        }
        assert complete_terms == {frozenset({"a", "x", "y"})}
        approx_terms = {
            frozenset(str(l.label) for l in term)
            for term in to_dnf(pruning_condition(ba))
        }
        # the approximation only requires the incoming 'y'
        assert approx_terms == {frozenset({"a", "y"})}

    def test_no_cycle_is_false(self):
        ba = BuchiAutomaton.make("i", [("i", "a", "f")], final=["f"])
        assert isinstance(complete_pruning_condition(ba), CondFalse)

    def test_unconstrained_is_true(self):
        ba = BuchiAutomaton.make("i", [("i", "true", "i")], final=["i"])
        assert isinstance(complete_pruning_condition(ba), CondTrue)

    def test_budget_falls_back_to_true_prefix(self):
        # a dense automaton with many simple paths; budget 1 must give a
        # sound (weaker) condition rather than an exponential enumeration
        ba = BuchiAutomaton.make(
            "i",
            [("i", "a", "m1"), ("i", "b", "m2"), ("m1", "c", "f"),
             ("m2", "d", "f"), ("f", "e", "f")],
            final=["f"],
        )
        condition = complete_pruning_condition(ba, max_paths=1)
        # must still select at least everything the exact condition does
        sets = {
            Label.parse("a"): frozenset({1}),
            Label.parse("c"): frozenset({1}),
            Label.parse("e"): frozenset({1}),
        }
        assert 1 in condition.evaluate(
            lambda l: sets.get(l, frozenset()), frozenset({1, 2})
        )


class TestSoundnessAndPrecision:
    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_sound_and_no_looser_needed(self, contract_formula, query_formula):
        """Complete conditions are sound: they keep every permitting
        contract."""
        index = PrefilterIndex(depth=2)
        ba = translate(contract_formula)
        vocabulary = contract_formula.variables()
        index.add_contract(0, ba, vocabulary)
        query_ba = translate(query_formula)
        candidates = index.evaluate(complete_pruning_condition(query_ba))
        if permits(ba, query_ba, vocabulary):
            assert 0 in candidates

    @given(formulas(max_depth=3))
    @settings(max_examples=60, deadline=None)
    def test_at_most_as_many_candidates_as_approximation(self, query_formula):
        """On a fixed database, the complete condition never selects more
        candidates than the approximated one."""
        index = PrefilterIndex(depth=2)
        for cid, text in enumerate(
            ("G(a -> F b)", "F(b && F c)", "G !c", "a U (b U c)")
        ):
            formula = parse(text)
            index.add_contract(cid, translate(formula), formula.variables())
        query_ba = translate(query_formula)
        complete = index.evaluate(complete_pruning_condition(query_ba))
        approx = index.evaluate(pruning_condition(query_ba))
        assert complete <= approx
