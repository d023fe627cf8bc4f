"""Property tests of the automaton-generic algorithms on random,
non-LTL-shaped Büchi automata (arbitrary graphs, unreachable states,
dead ends, parallel edges)."""

import pytest
from hypothesis import given, settings

from repro.automata.bisim import quotient_by_bisimulation
from repro.automata.product import intersection, union
from repro.automata.reduce import reduce_automaton
from repro.automata.serialize import dumps, loads
from repro.check.oracle import oracle_permits
from repro.core.permission import find_witness, permits
from repro.core.seeds import compute_seeds

from tests.strategies import buchi_automata, runs

# The whole module is high-example-count hypothesis differentials —
# the slowest tier-1 files by far.  CI runs them via --runslow.
pytestmark = pytest.mark.slow


class TestStructuralAlgorithms:
    @given(buchi_automata(), runs())
    @settings(max_examples=200, deadline=None)
    def test_reduce_preserves_language(self, ba, run):
        assert reduce_automaton(ba).accepts(run) == ba.accepts(run)

    @given(buchi_automata(), runs())
    @settings(max_examples=200, deadline=None)
    def test_quotient_preserves_language(self, ba, run):
        assert quotient_by_bisimulation(ba).accepts(run) == ba.accepts(run)

    @given(buchi_automata(), runs())
    @settings(max_examples=150, deadline=None)
    def test_canonical_preserves_language(self, ba, run):
        assert ba.canonical().accepts(run) == ba.accepts(run)

    @given(buchi_automata())
    @settings(max_examples=150, deadline=None)
    def test_emptiness_consistent_with_witness(self, ba):
        witness = ba.find_accepted_run()
        assert (witness is None) == ba.is_empty()
        if witness is not None:
            assert ba.accepts(witness)

    @given(buchi_automata())
    @settings(max_examples=150, deadline=None)
    def test_seeds_subset_of_states(self, ba):
        seeds = compute_seeds(ba)
        assert seeds <= ba.states
        # seeds are exactly the states that can knot an accepting lasso,
        # so an empty language means no seeds at all
        if seeds:
            assert not ba.is_empty()


class TestProductsOnRandomAutomata:
    @given(buchi_automata(), buchi_automata(), runs())
    @settings(max_examples=150, deadline=None)
    def test_intersection(self, a, b, run):
        assert intersection(a, b).accepts(run) == (
            a.accepts(run) and b.accepts(run)
        )

    @given(buchi_automata(), buchi_automata(), runs())
    @settings(max_examples=150, deadline=None)
    def test_union(self, a, b, run):
        assert union(a, b).accepts(run) == (
            a.accepts(run) or b.accepts(run)
        )


class TestPermissionOnRandomAutomata:
    @given(buchi_automata(), buchi_automata())
    @settings(max_examples=150, deadline=None)
    def test_deciders_agree(self, contract, query):
        """Witness iff permitted: the NDFS decider and the SCC search
        of ``find_witness`` agree with the explicit-model oracle on
        graph shapes the translator never produces, and the witness is
        a run both automata accept.  The decider and ``find_witness``
        expand the same compatibility product; the oracle and
        ``accepts`` share no code with it."""
        vocabulary = contract.events() | frozenset({"a"})
        expected = oracle_permits(contract, query, vocabulary)
        witness = find_witness(contract, query, vocabulary)
        assert permits(contract, query, vocabulary) == expected
        assert (witness is not None) == expected
        if witness is not None:
            run = witness.to_run()
            assert contract.accepts(run) and query.accepts(run)

    @given(buchi_automata(), buchi_automata())
    @settings(max_examples=100, deadline=None)
    def test_seeds_never_change_verdict(self, contract, query):
        vocabulary = contract.events()
        assert permits(
            contract, query, vocabulary, use_seeds=True
        ) == permits(contract, query, vocabulary, use_seeds=False)


class TestSerializationOnRandomAutomata:
    @given(buchi_automata(), runs())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, ba, run):
        rebuilt = loads(dumps(ba))
        assert rebuilt.accepts(run) == ba.accepts(run)
