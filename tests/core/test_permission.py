"""Tests for the permission decider (Algorithm 2).

The airfare fixtures assert the paper's Example 2/4/5 outcomes verbatim;
property tests check the decider and the SCC-based witness search
against the explicit-model oracle, and that permission reduces to
satisfiability on the trivial query (the Theorem 6 reduction).
"""

import pytest
from hypothesis import given, settings

from repro.automata.buchi import BuchiAutomaton
from repro.automata.ltl2ba import translate
from repro.check.oracle import oracle_permits
from repro.core.permission import (
    PermissionStats,
    find_witness,
    permits,
)
from repro.ltl.parser import parse

from tests.strategies import formulas


def query(text: str) -> BuchiAutomaton:
    return translate(parse(text))


class TestPaperOutcomes:
    """Example 2: which tickets permit which queries."""

    QUERY = "F(missedFlight && F(refund || dateChange))"

    def test_ticket_a_permits(self, airfare_contracts):
        c = airfare_contracts["Ticket A"]
        assert permits(c.ba, query(self.QUERY), c.vocabulary)

    def test_ticket_b_permits(self, airfare_contracts):
        c = airfare_contracts["Ticket B"]
        assert permits(c.ba, query(self.QUERY), c.vocabulary)

    def test_ticket_c_does_not_permit(self, airfare_contracts):
        c = airfare_contracts["Ticket C"]
        assert not permits(c.ba, query(self.QUERY), c.vocabulary)

    def test_underspecified_contract_not_returned(self, airfare_contracts):
        """Example 4 (Q2): Ticket A never cites class upgrades, so a query
        about them must not be permitted — the crux of Definition 1."""
        c = airfare_contracts["Ticket A"]
        q2 = query("F(dateChange && F classUpgrade)")
        assert not permits(c.ba, q2, c.vocabulary)

    def test_partially_specified_disjunction_returned(self, airfare_contracts):
        """§2.1 (Q3): Ticket B permits 'class upgrade OR refund after a
        date change' through its refund branch."""
        c = airfare_contracts["Ticket B"]
        q3 = query("F(dateChange && F(classUpgrade || refund))")
        assert permits(c.ba, q3, c.vocabulary)

    def test_ticket_a_rejects_q3(self, airfare_contracts):
        c = airfare_contracts["Ticket A"]
        q3 = query("F(dateChange && F(classUpgrade || refund))")
        assert not permits(c.ba, q3, c.vocabulary)


class TestVocabularySemantics:
    def test_vocabulary_defaults_to_ba_events(self):
        contract = translate(parse("G(a -> F b)"))
        q = query("F b")
        assert permits(contract, q) == permits(
            contract, q, frozenset({"a", "b"})
        )

    def test_explicit_vocabulary_can_widen(self):
        """A contract whose formula cites an event its reduced BA no
        longer mentions still permits queries about that event."""
        # G(c || true) reduces away c, but the *specification* cites it.
        contract = translate(parse("F a"))
        q = query("F(a && F c)")
        assert not permits(contract, q, frozenset({"a"}))
        assert permits(contract, q, frozenset({"a", "c"}))


class TestTrivialQueries:
    @given(formulas(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_true_query_iff_satisfiable(self, formula):
        """Theorem 6's reduction: C(phi) permits 'true' iff phi is
        satisfiable."""
        contract = translate(formula)
        q = query("true")
        assert permits(contract, q, formula.variables()) == (
            not contract.is_empty()
        )

    def test_false_query_never_permitted(self):
        contract = translate(parse("G a"))
        assert not permits(contract, query("false"), frozenset({"a"}))

    def test_empty_contract_permits_nothing(self):
        contract = translate(parse("false"))
        assert not permits(contract, query("true"), frozenset())


class TestAlgorithmsAgree:
    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=150, deadline=None)
    def test_ndfs_equals_scc(self, contract_formula, query_formula):
        """Witness iff permitted: the NDFS decider says yes exactly
        when the explicit-model oracle does and the SCC search of
        :func:`find_witness` finds a simultaneous lasso path, and that
        path is a run both automata accept.  The decider and the SCC
        search expand one compatibility product; the oracle and
        ``accepts`` are the sides that share no code with it."""
        contract = translate(contract_formula)
        q = translate(query_formula)
        vocabulary = contract_formula.variables()
        expected = oracle_permits(contract, q, vocabulary)
        witness = find_witness(contract, q, vocabulary)
        assert permits(contract, q, vocabulary) == expected
        assert (witness is not None) == expected
        if witness is not None:
            run = witness.to_run()
            assert contract.accepts(run) and q.accepts(run)

    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=150, deadline=None)
    def test_seeds_do_not_change_result(self, contract_formula, query_formula):
        contract = translate(contract_formula)
        q = translate(query_formula)
        vocabulary = contract_formula.variables()
        assert permits(
            contract, q, vocabulary, use_seeds=True
        ) == permits(contract, q, vocabulary, use_seeds=False)


class TestStats:
    def test_counters_filled(self, airfare_contracts):
        c = airfare_contracts["Ticket A"]
        stats = PermissionStats()
        outcome = permits(
            c.ba, query("F(missedFlight && F refund)"), c.vocabulary,
            stats=stats,
        )
        assert stats.result == outcome
        assert stats.pairs_visited > 0
        assert stats.cycle_searches >= 1

    def test_seed_skips_counted(self):
        # contract: 'a' then deadlock on final — final not on a cycle in
        # the live part... use a contract where some query-final pair has
        # a non-seed contract state.
        contract = BuchiAutomaton.make(
            0, [(0, "a", 1), (1, "true", 1), (0, "b", 2), (2, "c", 1)],
            final=[1],
        )
        q = BuchiAutomaton.make(
            0, [(0, "true", 0)], final=[0]
        )
        stats = PermissionStats()
        permits(contract, q, frozenset({"a", "b", "c"}), stats=stats)
        assert stats.pairs_visited >= 1


class TestDispatch:
    """4.0: one decider, no dispatch — ``algorithm=`` is not an
    argument of ``permits`` any more, whatever it names."""

    def test_unknown_algorithm_rejected(self):
        contract = translate(parse("G a"))
        with pytest.raises(TypeError):
            permits(contract, query("true"), frozenset({"a"}),
                    algorithm="magic")

    def test_scc_dispatch(self):
        contract = translate(parse("G a"))
        for name in ("scc", "ndfs"):
            with pytest.raises(TypeError):
                permits(contract, query("G a"), frozenset({"a"}),
                        algorithm=name)
        assert permits(contract, query("G a"), frozenset({"a"}))
