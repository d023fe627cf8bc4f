"""White-box tests of the translator's cover machinery.

A cover is ``(label mask, obligation mask, fulfilled mask, obligation
set)``; the tests build them from label text and formulas through one
translator, so equal text means equal bits.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.labels import TRUE_LABEL, Label
from repro.automata.ltl2ba import (
    _Translator,
    _build_tgba,
    _configurations,
    _prune,
    _undominated,
    translate,
)
from repro.ltl import ast as A
from repro.ltl.ast import conj
from repro.ltl.parser import parse
from repro.ltl.rewrite import nnf

from tests.strategies import formulas

GOLDEN = Path(__file__).with_name("translate_golden.json")
SHAPES = Path(__file__).parents[2] / "benchmarks" / "e2e" / "shapes.json"


@pytest.fixture
def translator() -> _Translator:
    return _Translator()


def cover(translator: _Translator, label_text: str, obligations=(), fulfilled=()):
    label = 0
    for literal in Label.parse(label_text).literals:
        label |= translator.literal(literal.event, literal.positive)
    return (
        label,
        translator.obligations(obligations),
        translator.obligations(fulfilled),
        frozenset(obligations),
    )


class TestConfigurations:
    def test_atom_is_single_obligation(self):
        p = A.Prop("p")
        assert _configurations(p) == (frozenset({p}),)

    def test_true_is_empty_obligation(self):
        assert _configurations(A.TRUE) == (frozenset(),)

    def test_false_has_no_configuration(self):
        assert _configurations(A.FALSE) == ()

    def test_disjunction_offers_alternatives(self):
        f = parse("p || q")
        configs = _configurations(f)
        assert len(configs) == 2

    def test_conjunction_merges(self):
        f = parse("p && q")
        configs = _configurations(f)
        assert configs == (frozenset({A.Prop("p"), A.Prop("q")}),)

    def test_nested(self):
        f = parse("(p || q) && r")
        configs = set(_configurations(f))
        assert configs == {
            frozenset({A.Prop("p"), A.Prop("r")}),
            frozenset({A.Prop("q"), A.Prop("r")}),
        }


class TestBits:
    def test_literals_of_one_event_are_adjacent_bits(self, translator):
        a = translator.literal("a", True)
        assert translator.literal("a", False) == a << 1
        assert translator.literal("a", True) == a
        assert translator.even & a and not translator.even & a << 1

    def test_label_round_trips(self, translator):
        mask = cover(translator, "a & !b")[0]
        assert translator.label(mask) == Label.parse("a & !b")
        assert translator.label(mask) is translator.label(mask)
        assert translator.label(0) is TRUE_LABEL

    def test_obligation_bits_are_distinct_and_stable(self, translator):
        g, u = nnf(parse("G x")), nnf(parse("p U q"))
        assert translator.obligation(g) != translator.obligation(u)
        assert translator.obligation(g) == translator.obligation(nnf(parse("G x")))
        assert translator.obligations([g, u]) == (
            translator.obligation(g) | translator.obligation(u)
        )


class TestPrune:
    def test_exact_duplicates_merged(self, translator):
        covers = [cover(translator, "a"), cover(translator, "a")]
        assert len(_prune(covers)) == 1

    def test_equal_masks_keep_the_first_cover_only(self, translator):
        # Two covers equal on all three masks are one cover, whichever
        # set object each carries; the first seen is the one kept.
        g, h = nnf(parse("G x")), nnf(parse("G y"))
        first = cover(translator, "a", obligations=[g, h])
        second = first[:3] + (frozenset([h]) | frozenset([g]),)
        assert first[3] is not second[3]
        (kept,) = _prune([first, second])
        assert kept[3] is first[3]
        (kept,) = _prune([second, first])
        assert kept[3] is second[3]

    def test_weaker_label_dominates(self, translator):
        covers = [cover(translator, "a"), cover(translator, "a & b")]
        assert _prune(covers) == (cover(translator, "a"),)

    def test_fewer_obligations_dominate(self, translator):
        g = nnf(parse("G x"))
        covers = [cover(translator, "a", obligations=[g]), cover(translator, "a")]
        assert _prune(covers) == (cover(translator, "a"),)

    def test_more_fulfilled_dominates(self, translator):
        u = nnf(parse("p U q"))
        covers = [cover(translator, "a", fulfilled=[u]), cover(translator, "a")]
        assert _prune(covers) == (cover(translator, "a", fulfilled=[u]),)

    def test_incomparable_covers_kept(self, translator):
        covers = [cover(translator, "a"), cover(translator, "b")]
        assert set(_prune(covers)) == set(covers)

    def test_combine_conflict_is_none(self, translator):
        left, right = cover(translator, "a"), cover(translator, "!a")
        assert translator.product((left,), (right,)) == ()

    def test_combine_unions_everything(self, translator):
        u = nnf(parse("p U q"))
        g = nnf(parse("G x"))
        (combined,) = translator.product(
            (cover(translator, "a", obligations=[g]),),
            (cover(translator, "b", fulfilled=[u]),),
        )
        assert combined == cover(translator, "a & b", obligations=[g], fulfilled=[u])
        assert translator.label(combined[0]) == Label.parse("a & b")

    def test_survivors_keep_their_order_whatever_their_weight(self, translator):
        g = nnf(parse("G x"))
        heavy = cover(translator, "a & b", obligations=[g])
        light = cover(translator, "c")
        dominated = cover(translator, "a & b & c", obligations=[g])
        assert _prune([heavy, dominated, light]) == (heavy, light)
        assert _prune([dominated, light, heavy]) == (light, heavy)

    def test_a_dominated_dominator_still_removes(self, translator):
        # a dominates a & b dominates a & b & c: the middle one is gone
        # before the last is looked at, and the last must go all the same
        chain = [cover(translator, text) for text in ("a & b & c", "a & b", "a")]
        assert _prune(chain) == (cover(translator, "a"),)


_MASKS = st.integers(min_value=0, max_value=15)


@given(st.lists(st.tuples(_MASKS, _MASKS, _MASKS), unique=True, max_size=24))
def test_undominated_is_the_definition(triples):
    def dominates(c2, c1):
        return (
            c2 != c1
            and c2[0] & ~c1[0] == 0
            and c2[1] & ~c1[1] == 0
            and c1[2] & ~c2[2] == 0
        )

    assert _undominated(triples) == [
        c1 for c1 in triples if not any(dominates(c2, c1) for c2 in triples)
    ]


class TestProduct:
    def test_neighbouring_events_do_not_conflict(self, translator):
        # !a is the bit just below b: the conflict test must not pair them
        left, right = cover(translator, "!a"), cover(translator, "b")
        assert translator.product((left,), (right,)) == (
            cover(translator, "!a & b"),
        )

    def test_product_prunes(self, translator):
        g = nnf(parse("G x"))
        left = (cover(translator, "a"), cover(translator, "a", obligations=[g]))
        assert translator.product(left, (cover(translator, "b"),)) == (
            cover(translator, "a & b"),
        )


class TestTranslatorMemo:
    def test_covers_memoized(self, translator):
        f = nnf(parse("G(a -> F b)"))
        first = translator.covers(f)
        second = translator.covers(f)
        assert first is second

    def test_empty_state_is_true_selfloop(self, translator):
        covers = translator.state_covers(frozenset())
        assert covers == ((0, 0, 0, frozenset()),)
        assert translator.label(covers[0][0]) is TRUE_LABEL

    def test_contradictory_state_has_no_covers(self, translator):
        state = frozenset({nnf(parse("a")), nnf(parse("!a"))})
        assert translator.state_covers(state) == ()


@settings(max_examples=150, deadline=None)
@given(formulas(max_depth=4))
def test_cover_masks_agree_with_their_sets(formula):
    _, translator = _build_tgba(nnf(formula), 2_000)
    untils = translator.obligations(
        f for f in translator._obligation_bits if isinstance(f, A.Until)
    )
    for covers in translator._covers_memo.values():
        for label, obligations, fulfilled, pending in covers:
            assert obligations == translator.obligations(pending)
            assert not label & (label >> 1) & translator.even
            assert Label.try_of(translator.label(label).literals) is not None
            assert fulfilled & ~untils == 0


def test_translation_sizes_match_the_recorded_ones():
    """``(states, transitions, final)`` of the benchmark dataset's 100
    contract conjunctions and 120 queries, recorded at 8.0.0: whatever
    the hash salt, the reduced automata keep these sizes."""
    golden = json.loads(GOLDEN.read_text())
    shapes = json.loads(SHAPES.read_text())

    def sizes(formula):
        ba = translate(formula)
        return [ba.num_states, ba.num_transitions, len(ba.final)]

    assert [
        sizes(conj(parse(clause) for clause in clauses))
        for clauses in shapes["contracts"]
    ] == golden["contracts"]
    assert [sizes(parse(text)) for text in shapes["queries"]] == golden["queries"]
