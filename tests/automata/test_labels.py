"""Unit tests for literals, labels, compatibility and expansion."""

import pytest

from repro.automata.labels import (
    TRUE_LABEL,
    Label,
    Literal,
    compatible,
    label_from_formula,
    neg,
    pos,
)
from repro.ltl.parser import parse


class TestLiteral:
    def test_negate(self):
        assert pos("a").negate() == neg("a")
        assert neg("a").negate() == pos("a")

    def test_holds_in(self):
        snap = frozenset({"a"})
        assert pos("a").holds_in(snap)
        assert not pos("b").holds_in(snap)
        assert neg("b").holds_in(snap)
        assert not neg("a").holds_in(snap)

    def test_ordering_deterministic(self):
        lits = [pos("b"), neg("a"), pos("a"), neg("b")]
        assert sorted(map(str, sorted(lits))) == sorted(
            ["!a", "a", "!b", "b"]
        )

    def test_str(self):
        assert str(pos("x")) == "x"
        assert str(neg("x")) == "!x"


class TestLabelConstruction:
    def test_of_valid(self):
        label = Label.of([pos("a"), neg("b")])
        assert label.events() == frozenset({"a", "b"})

    def test_of_contradiction_raises(self):
        with pytest.raises(ValueError):
            Label.of([pos("a"), neg("a")])

    def test_try_of_contradiction_is_none(self):
        assert Label.try_of([pos("a"), neg("a")]) is None

    def test_parse_variants(self):
        assert Label.parse("true") == TRUE_LABEL
        assert Label.parse("") == TRUE_LABEL
        assert Label.parse("a & !b") == Label.of([pos("a"), neg("b")])
        assert Label.parse("a && !b") == Label.of([pos("a"), neg("b")])
        assert Label.parse("~b") == Label.of([neg("b")])

    @pytest.mark.parametrize(
        "text", ["a &", "& a", "!", "~", "a & & b", "a && && b", "! & a"]
    )
    def test_parse_rejects_malformed(self, text):
        """Regression: dangling operators, empty conjuncts and bare
        negations must raise instead of silently building a literal
        with an empty event name (which no snapshot can ever satisfy)."""
        with pytest.raises(ValueError):
            Label.parse(text)

    def test_str_sorted(self):
        assert str(Label.of([neg("b"), pos("a")])) == "a & !b"
        assert str(TRUE_LABEL) == "true"

    def test_len_and_iter(self):
        label = Label.parse("a & !b")
        assert len(label) == 2
        # ordering is by (event, polarity): 'a' sorts before '!b'
        assert [str(l) for l in label] == ["a", "!b"]


class TestLabelQueries:
    def test_is_true(self):
        assert TRUE_LABEL.is_true
        assert not Label.parse("a").is_true

    def test_polarity(self):
        label = Label.parse("a & !b")
        assert label.polarity("a") is True
        assert label.polarity("b") is False
        assert label.polarity("c") is None

    def test_satisfied_by(self):
        label = Label.parse("a & !b")
        assert label.satisfied_by(frozenset({"a"}))
        assert label.satisfied_by(frozenset({"a", "c"}))
        assert not label.satisfied_by(frozenset({"a", "b"}))
        assert not label.satisfied_by(frozenset())

    def test_true_label_satisfied_by_everything(self):
        assert TRUE_LABEL.satisfied_by(frozenset())
        assert TRUE_LABEL.satisfied_by(frozenset({"x"}))


class TestLabelAlgebra:
    def test_conjoin(self):
        a = Label.parse("a")
        b = Label.parse("!b")
        assert a.conjoin(b) == Label.parse("a & !b")

    def test_conjoin_conflict_is_none(self):
        assert Label.parse("a").conjoin(Label.parse("!a")) is None

    def test_conflicts(self):
        assert Label.parse("a").conflicts(Label.parse("!a"))
        assert not Label.parse("a").conflicts(Label.parse("b"))

    def test_restrict(self):
        label = Label.parse("a & !b & c")
        assert label.restrict([pos("a"), neg("b")]) == Label.parse("a & !b")
        assert label.restrict([]) == TRUE_LABEL
        # restrict matches literals, not events: !b is kept only if the
        # *negative* literal is in the kept set.
        assert label.restrict([pos("b")]) == TRUE_LABEL

    def test_implies(self):
        strong = Label.parse("a & !b")
        weak = Label.parse("a")
        assert strong.implies(weak)
        assert not weak.implies(strong)
        assert strong.implies(TRUE_LABEL)

    def test_pick_snapshot(self):
        label = Label.parse("a & !b & c")
        assert label.pick_snapshot() == frozenset({"a", "c"})

    def test_pick_snapshot_takes_no_arguments(self):
        """Regression: the dead ``default_false`` parameter is gone —
        it was never read, so passing it silently did nothing."""
        with pytest.raises(TypeError):
            Label.parse("a").pick_snapshot(default_false=True)


class TestExpansion:
    def test_example_11(self):
        """E(p & c) over vocabulary {p, c, m} = {p, c, m, !m} (§4.2)."""
        expansion = Label.parse("p & c").expansion(["p", "c", "m"])
        assert expansion == frozenset([pos("p"), pos("c"), pos("m"), neg("m")])

    def test_example_11_containment_checks(self):
        expansion = Label.parse("p & c").expansion(["p", "c", "m"])
        assert {pos("p"), pos("m")} <= expansion            # q = p & m
        assert not {pos("p"), neg("c")} <= expansion        # q' = p & !c
        assert not {pos("c"), pos("r")} <= expansion        # q'' = c & r

    def test_true_label_expansion_is_all_literals(self):
        expansion = TRUE_LABEL.expansion(["a", "b"])
        assert expansion == frozenset(
            [pos("a"), neg("a"), pos("b"), neg("b")]
        )


class TestCompatibility:
    """Definition 7, condition 3."""

    VOCAB = frozenset({"p", "c", "m"})

    def test_non_conflicting_within_vocabulary(self):
        assert compatible(Label.parse("p & !c"), Label.parse("p"), self.VOCAB)

    def test_conflicting_labels(self):
        assert not compatible(
            Label.parse("p & !c"), Label.parse("c"), self.VOCAB
        )

    def test_query_event_outside_vocabulary(self):
        assert not compatible(
            Label.parse("p"), Label.parse("classUpgrade"), self.VOCAB
        )

    def test_true_query_label_always_compatible(self):
        assert compatible(Label.parse("p & !c & m"), TRUE_LABEL, self.VOCAB)

    def test_contract_label_may_exceed_query(self):
        assert compatible(Label.parse("p & !c"), Label.parse("!c"), self.VOCAB)


class TestFormulaConversion:
    def test_from_formula(self):
        assert label_from_formula(parse("a && !b")) == Label.parse("a & !b")

    def test_from_formula_true(self):
        assert label_from_formula(parse("true")) == TRUE_LABEL

    def test_from_formula_rejects_disjunction(self):
        with pytest.raises(ValueError):
            label_from_formula(parse("a || b"))

    def test_from_formula_rejects_contradiction(self):
        with pytest.raises(ValueError):
            label_from_formula(parse("a && !a"))
