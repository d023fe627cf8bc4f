"""Tests for the LTL decision procedures (satisfiability, implication,
equivalence, counterexamples)."""

from hypothesis import given, settings

from repro.automata.equivalence import (
    DEFAULT_STATE_BUDGET,
    counterexample,
    equivalent,
    implies,
    is_satisfiable,
    is_valid,
)
from repro.ltl.parser import parse
from repro.ltl.semantics import satisfies

from tests.strategies import formulas


class TestSatisfiability:
    def test_satisfiable(self):
        assert is_satisfiable(parse("F p"))
        assert is_satisfiable(parse("G !p"))

    def test_unsatisfiable(self):
        assert not is_satisfiable(parse("false"))
        assert not is_satisfiable(parse("G p && F !p"))
        assert not is_satisfiable(parse("p && !p"))

    def test_validity(self):
        assert is_valid(parse("true"))
        assert is_valid(parse("p || !p"))
        assert is_valid(parse("F p || G !p"))
        assert not is_valid(parse("F p"))

    def test_budget_constant_mirrors_translator(self):
        from repro.automata.ltl2ba import (
            DEFAULT_STATE_BUDGET as TRANSLATOR_BUDGET,
        )

        assert DEFAULT_STATE_BUDGET == TRANSLATOR_BUDGET


class TestOperatorIdentities:
    """The textbook identities §6.1 lists, checked end to end."""

    def test_weak_until(self):
        assert equivalent(parse("p W q"), parse("G p || (p U q)"))
        assert equivalent(parse("p W q"), parse("q R (q || p)"))

    def test_before(self):
        assert equivalent(parse("p B q"), parse("!(!p U q)"))

    def test_finally_globally(self):
        assert equivalent(parse("F p"), parse("true U p"))
        assert equivalent(parse("G p"), parse("!F !p"))

    def test_release_duality(self):
        assert equivalent(parse("p R q"), parse("!(!p U !q)"))

    def test_until_unrolling(self):
        assert equivalent(parse("p U q"), parse("q || (p && X(p U q))"))

    def test_distribution(self):
        assert equivalent(parse("X(p && q)"), parse("X p && X q"))
        assert equivalent(parse("G(p && q)"), parse("G p && G q"))
        assert equivalent(parse("F(p || q)"), parse("F p || F q"))

    def test_non_equivalences(self):
        assert not equivalent(parse("F(p && q)"), parse("F p && F q"))
        assert not equivalent(parse("p U q"), parse("p W q"))


class TestImplication:
    def test_strict_until_implies_weak(self):
        assert implies(parse("p U q"), parse("p W q"))
        assert not implies(parse("p W q"), parse("p U q"))

    def test_globally_implies_instance(self):
        assert implies(parse("G p"), parse("p"))
        assert implies(parse("G p"), parse("X X p"))

    def test_counterexample_is_real(self):
        run = counterexample(parse("p W q"), parse("p U q"))
        assert run is not None
        assert satisfies(run, parse("p W q"))
        assert not satisfies(run, parse("p U q"))

    def test_counterexample_none_when_valid(self):
        assert counterexample(parse("p U q"), parse("p W q")) is None


class TestProperties:
    @given(formulas(max_depth=3))
    @settings(max_examples=80, deadline=None)
    def test_formula_equivalent_to_itself_and_nnf(self, formula):
        from repro.ltl.rewrite import nnf

        assert equivalent(formula, formula)
        assert equivalent(formula, nnf(formula))

    @given(formulas(max_depth=3))
    @settings(max_examples=80, deadline=None)
    def test_satisfiable_or_negation_valid(self, formula):
        from repro.ltl.ast import Not

        assert is_satisfiable(formula) != is_valid(Not(formula))
