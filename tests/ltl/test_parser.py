"""Unit tests for the LTL parser (and its round trip with the printer)."""

import pytest
from hypothesis import given, settings

from repro.errors import LTLSyntaxError
from repro.ltl import ast as A
from repro.ltl.parser import parse, tokenize
from repro.ltl.printer import format_formula

from tests.strategies import formulas


class TestAtoms:
    def test_proposition(self):
        assert parse("purchase") == A.Prop("purchase")

    def test_true_false(self):
        assert parse("true") == A.TRUE
        assert parse("false") == A.FALSE

    def test_parenthesized(self):
        assert parse("((p))") == A.Prop("p")


class TestOperators:
    def test_not(self):
        assert parse("!p") == A.Not(A.Prop("p"))
        assert parse("~p") == A.Not(A.Prop("p"))

    def test_double_negation_kept(self):
        assert parse("!!p") == A.Not(A.Not(A.Prop("p")))

    def test_and_both_spellings(self):
        expected = A.And(A.Prop("p"), A.Prop("q"))
        assert parse("p && q") == expected
        assert parse("p & q") == expected

    def test_or_both_spellings(self):
        expected = A.Or(A.Prop("p"), A.Prop("q"))
        assert parse("p || q") == expected
        assert parse("p | q") == expected

    def test_implies(self):
        assert parse("p -> q") == A.Implies(A.Prop("p"), A.Prop("q"))

    def test_iff(self):
        assert parse("p <-> q") == A.Iff(A.Prop("p"), A.Prop("q"))

    def test_unary_temporal(self):
        assert parse("X p") == A.Next(A.Prop("p"))
        assert parse("F p") == A.Finally(A.Prop("p"))
        assert parse("G p") == A.Globally(A.Prop("p"))

    def test_binary_temporal(self):
        assert parse("p U q") == A.Until(A.Prop("p"), A.Prop("q"))
        assert parse("p W q") == A.WeakUntil(A.Prop("p"), A.Prop("q"))
        assert parse("p B q") == A.Before(A.Prop("p"), A.Prop("q"))
        assert parse("p R q") == A.Release(A.Prop("p"), A.Prop("q"))


class TestPrecedence:
    def test_and_binds_tighter_than_or(self):
        assert parse("a || b && c") == A.Or(
            A.Prop("a"), A.And(A.Prop("b"), A.Prop("c"))
        )

    def test_temporal_binds_tighter_than_and(self):
        assert parse("a && b U c") == A.And(
            A.Prop("a"), A.Until(A.Prop("b"), A.Prop("c"))
        )

    def test_unary_binds_tighter_than_until(self):
        assert parse("!a U X b") == A.Until(
            A.Not(A.Prop("a")), A.Next(A.Prop("b"))
        )

    def test_implies_is_right_associative(self):
        assert parse("a -> b -> c") == A.Implies(
            A.Prop("a"), A.Implies(A.Prop("b"), A.Prop("c"))
        )

    def test_until_is_left_associative(self):
        assert parse("a U b U c") == A.Until(
            A.Until(A.Prop("a"), A.Prop("b")), A.Prop("c")
        )

    def test_implies_looser_than_or(self):
        assert parse("a || b -> c") == A.Implies(
            A.Or(A.Prop("a"), A.Prop("b")), A.Prop("c")
        )

    def test_paper_clause(self):
        # Ticket A's clause from §2.2.
        f = parse("G(dateChange -> !F refund)")
        assert f == A.Globally(
            A.Implies(
                A.Prop("dateChange"), A.Not(A.Finally(A.Prop("refund")))
            )
        )


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(LTLSyntaxError):
            parse("")

    def test_unexpected_character(self):
        with pytest.raises(LTLSyntaxError) as info:
            parse("p @ q")
        assert info.value.position == 2

    def test_unbalanced_paren(self):
        with pytest.raises(LTLSyntaxError):
            parse("(p && q")

    def test_trailing_garbage(self):
        with pytest.raises(LTLSyntaxError):
            parse("p q")

    def test_reserved_word_as_proposition(self):
        with pytest.raises(LTLSyntaxError):
            parse("X && p")

    def test_missing_operand(self):
        with pytest.raises(LTLSyntaxError):
            parse("p &&")

    def test_error_str_mentions_offset(self):
        with pytest.raises(LTLSyntaxError) as info:
            parse("p @")
        assert "offset" in str(info.value)


class TestTokenize:
    def test_skips_whitespace(self):
        kinds = [t.kind for t in tokenize("  p   &&\tq ")]
        assert kinds == ["ident", "and", "ident"]

    def test_positions(self):
        tokens = tokenize("p && q")
        assert [t.position for t in tokens] == [0, 2, 5]


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=300, deadline=None)
    def test_parse_of_print_is_identity(self, formula):
        assert parse(format_formula(formula)) == formula
