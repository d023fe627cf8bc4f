"""Semantic cross-validation of permission against Definition 5/6.

Two consequences of the formal semantics give independent oracles:

* when the query's variables are contained in the contract's vocabulary,
  every run in a projection class agrees on all variables either formula
  can see, so permission collapses to plain satisfiability of the
  conjunction (Definition 6's intersection is a union of whole
  projection classes);
* when the query *requires* an event the contract never cites (e.g. an
  un-negated ``F x``), no contract-vocabulary sequence can supply it, so
  permission must fail — the Example 4 principle, as a law.

These oracles exercise the permission implementation through a
completely different pipeline (formula conjunction + emptiness), making
them among the strongest correctness checks in the suite.
"""

from hypothesis import assume, given, settings

from repro.automata.equivalence import is_satisfiable
from repro.automata.ltl2ba import translate
from repro.core.permission import permits
from repro.ltl.ast import And, Finally, Prop

from tests.strategies import formulas


class TestContainedVocabularyCollapse:
    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=150, deadline=None)
    def test_permission_equals_joint_satisfiability(
        self, contract_formula, query_formula
    ):
        vocabulary = contract_formula.variables()
        assume(query_formula.variables() <= vocabulary)
        contract = translate(contract_formula)
        query = translate(query_formula)
        assert permits(contract, query, vocabulary) == is_satisfiable(
            And(contract_formula, query_formula)
        )

    def test_worked_instance(self):
        from repro.ltl.parser import parse

        contract_formula = parse("G(a -> F b)")
        query_formula = parse("F(a && F b)")
        contract = translate(contract_formula)
        query = translate(query_formula)
        assert permits(contract, query, frozenset({"a", "b"}))
        assert is_satisfiable(And(contract_formula, query_formula))


class TestUncitedRequiredEvent:
    @given(formulas(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_required_alien_event_never_permitted(self, contract_formula):
        """Example 4 as a law: a query demanding an event outside the
        contract vocabulary is never permitted."""
        contract = translate(contract_formula)
        vocabulary = contract_formula.variables()
        alien_query = translate(Finally(Prop("alienEvent")))
        assert not permits(contract, alien_query, vocabulary)

    @given(formulas(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_alien_event_conjunct_blocks_otherwise_good_query(
        self, contract_formula
    ):
        assume(contract_formula.variables())
        contract = translate(contract_formula)
        vocabulary = contract_formula.variables()
        some_event = sorted(vocabulary)[0]
        query = translate(
            And(Finally(Prop(some_event)), Finally(Prop("alienEvent")))
        )
        assert not permits(contract, query, vocabulary)
