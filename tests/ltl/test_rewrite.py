"""Unit and property tests for NNF rewriting and simplification.

The key property — *every rewrite preserves LTL equivalence* — is tested
against the ground-truth evaluator on random ultimately-periodic runs.
"""

import pytest
from hypothesis import given, settings

from repro.ltl import ast as A
from repro.ltl.parser import parse
from repro.ltl.rewrite import (
    event_shape,
    is_nnf_core,
    mk_and,
    mk_next,
    mk_or,
    mk_release,
    mk_until,
    negate_literal,
    nnf,
)
from repro.ltl.semantics import satisfies

from tests.strategies import formulas, runs


class TestNegateLiteral:
    def test_constants(self):
        assert negate_literal(A.TRUE) == A.FALSE
        assert negate_literal(A.FALSE) == A.TRUE

    def test_literals(self):
        p = A.Prop("p")
        assert negate_literal(p) == A.Not(p)
        assert negate_literal(A.Not(p)) == p

    def test_rejects_compounds(self):
        with pytest.raises(ValueError):
            negate_literal(A.And(A.Prop("p"), A.Prop("q")))


class TestSmartConstructors:
    def test_and_identity(self):
        p = A.Prop("p")
        assert mk_and(p, A.TRUE) == p
        assert mk_and(A.TRUE, p) == p

    def test_and_absorbing(self):
        assert mk_and(A.Prop("p"), A.FALSE) == A.FALSE

    def test_and_dedup(self):
        p = A.Prop("p")
        assert mk_and(p, p) == p

    def test_and_contradiction(self):
        p = A.Prop("p")
        assert mk_and(p, A.Not(p)) == A.FALSE

    def test_and_flattens_nested(self):
        p, q, r = A.Prop("p"), A.Prop("q"), A.Prop("r")
        assert mk_and(A.And(p, q), A.And(q, r)) == A.conj([p, q, r])

    def test_or_identity_and_absorbing(self):
        p = A.Prop("p")
        assert mk_or(p, A.FALSE) == p
        assert mk_or(p, A.TRUE) == A.TRUE

    def test_or_tautology(self):
        p = A.Prop("p")
        assert mk_or(p, A.Not(p)) == A.TRUE

    def test_next_constants(self):
        assert mk_next(A.TRUE) == A.TRUE
        assert mk_next(A.FALSE) == A.FALSE
        assert mk_next(A.Prop("p")) == A.Next(A.Prop("p"))

    def test_until_constants(self):
        p, q = A.Prop("p"), A.Prop("q")
        assert mk_until(p, A.TRUE) == A.TRUE
        assert mk_until(p, A.FALSE) == A.FALSE
        assert mk_until(A.FALSE, q) == q

    def test_until_idempotence(self):
        p, q = A.Prop("p"), A.Prop("q")
        assert mk_until(p, p) == p
        assert mk_until(p, A.Until(p, q)) == A.Until(p, q)

    def test_release_constants(self):
        p, q = A.Prop("p"), A.Prop("q")
        assert mk_release(p, A.TRUE) == A.TRUE
        assert mk_release(p, A.FALSE) == A.FALSE
        assert mk_release(A.TRUE, q) == q

    def test_release_idempotence(self):
        p, q = A.Prop("p"), A.Prop("q")
        assert mk_release(p, p) == p
        assert mk_release(p, A.Release(p, q)) == A.Release(p, q)


class TestNNFShapes:
    def test_literal_untouched(self):
        assert nnf(parse("p")) == A.Prop("p")
        assert nnf(parse("!p")) == A.Not(A.Prop("p"))

    def test_double_negation_cancels(self):
        assert nnf(parse("!!p")) == A.Prop("p")

    def test_de_morgan(self):
        assert nnf(parse("!(p && q)")) == parse("!p || !q")
        assert nnf(parse("!(p || q)")) == parse("!p && !q")

    def test_implies_eliminated(self):
        assert nnf(parse("p -> q")) == parse("!p || q")

    def test_negated_next(self):
        assert nnf(parse("!X p")) == A.Next(A.Not(A.Prop("p")))

    def test_negated_until_is_release(self):
        assert nnf(parse("!(p U q)")) == A.Release(
            A.Not(A.Prop("p")), A.Not(A.Prop("q"))
        )

    def test_negated_release_is_until(self):
        assert nnf(parse("!(p R q)")) == A.Until(
            A.Not(A.Prop("p")), A.Not(A.Prop("q"))
        )

    def test_finally_becomes_until(self):
        assert nnf(parse("F p")) == A.Until(A.TRUE, A.Prop("p"))

    def test_globally_becomes_release(self):
        assert nnf(parse("G p")) == A.Release(A.FALSE, A.Prop("p"))

    def test_result_is_core(self):
        for text in ("p W q", "p B q", "p <-> q", "!G(p -> F q)"):
            assert is_nnf_core(nnf(parse(text))), text

    def test_is_nnf_core_rejects_sugar(self):
        assert not is_nnf_core(parse("F p"))
        assert not is_nnf_core(parse("!(p U q)"))
        assert is_nnf_core(parse("p U q"))


class TestEventShape:
    def test_placeholders_follow_first_sight(self):
        shape, binding = event_shape(nnf(parse("G(b -> F a) && F b")))
        assert shape == nnf(parse("G(_0 -> F _1) && F _0"))
        assert binding == {"_0": "b", "_1": "a"}

    def test_alpha_variants_share_a_shape(self):
        one = event_shape(nnf(parse("a U (b R !a)")))
        other = event_shape(nnf(parse("q U (p R !q)")))
        assert one[0] == other[0]
        assert one[1] == {"_0": "a", "_1": "b"}
        assert other[1] == {"_0": "q", "_1": "p"}
        # the same events in another arrangement are another shape
        assert event_shape(nnf(parse("a U (b R !b)")))[0] != one[0]

    def test_constants_have_no_binding(self):
        assert event_shape(A.TRUE) == (A.TRUE, {})


class TestEquivalence:
    @given(formulas(), runs())
    @settings(max_examples=400, deadline=None)
    def test_nnf_preserves_satisfaction(self, formula, run):
        # satisfies() itself normalizes, so compare a *double* application
        # against a single one: nnf must be idempotent in effect.
        assert satisfies(run, formula) == satisfies(run, nnf(formula))

    @given(formulas())
    @settings(max_examples=200, deadline=None)
    def test_nnf_idempotent(self, formula):
        once = nnf(formula)
        assert nnf(once) == once
