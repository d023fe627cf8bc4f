"""Tests for the prefilter index, including the §4 soundness property:
the candidate set always contains every permitting contract."""

import pytest
from hypothesis import given, settings

from repro.automata.labels import Label
from repro.automata.ltl2ba import translate
from repro.core.permission import permits
from repro.errors import IndexError_
from repro.index.prefilter import PrefilterIndex
from repro.ltl.parser import parse

from tests.strategies import formulas


class TestExample10:
    """Example 10: indexing Tickets A and C, querying Figure 1b."""

    @pytest.fixture
    def index(self, airfare_contracts):
        index = PrefilterIndex(depth=2)
        for name in ("Ticket A", "Ticket C"):
            c = airfare_contracts[name]
            index.add_contract(c.contract_id, c.ba, c.vocabulary)
        return index

    def test_single_literal_lookups(self, index, airfare_contracts):
        a = airfare_contracts["Ticket A"].contract_id
        c = airfare_contracts["Ticket C"].contract_id
        # S(m): both tickets have missedFlight transitions
        assert index.lookup(Label.parse("missedFlight")) == {a, c}
        # S(r): only Ticket A can ever refund
        assert index.lookup(Label.parse("refund")) == {a}

    def test_prefiltering_avoids_ticket_c(self, index, airfare_contracts):
        a = airfare_contracts["Ticket A"].contract_id
        q = translate(parse("F(missedFlight && F refund)"))
        assert index.candidates(q) == {a}


class TestLookupSemantics:
    def test_true_label_selects_universe(self, airfare_contracts):
        index = PrefilterIndex(depth=2)
        for c in airfare_contracts.values():
            index.add_contract(c.contract_id, c.ba, c.vocabulary)
        assert index.lookup(Label.parse("true")) == index.universe

    def test_long_label_returns_superset(self, airfare_contracts):
        index = PrefilterIndex(depth=1)
        for c in airfare_contracts.values():
            index.add_contract(c.contract_id, c.ba, c.vocabulary)
        long_label = Label.parse("!refund & !use & !dateChange")
        exact_like = Label.parse("!refund")
        assert index.lookup(long_label) <= index.lookup(exact_like)

    def test_unknown_event_excluded(self, airfare_contracts):
        index = PrefilterIndex(depth=2)
        c = airfare_contracts["Ticket A"]
        index.add_contract(c.contract_id, c.ba, c.vocabulary)
        assert index.lookup(Label.parse("classUpgrade")) == frozenset()


class TestRegistration:
    def test_duplicate_rejected(self, airfare_contracts):
        index = PrefilterIndex()
        c = airfare_contracts["Ticket A"]
        index.add_contract(c.contract_id, c.ba, c.vocabulary)
        with pytest.raises(IndexError_):
            index.add_contract(c.contract_id, c.ba, c.vocabulary)

    def test_remove(self, airfare_contracts):
        index = PrefilterIndex()
        c = airfare_contracts["Ticket A"]
        index.add_contract(c.contract_id, c.ba, c.vocabulary)
        index.remove_contract(c.contract_id)
        assert index.universe == frozenset()
        assert index.lookup(Label.parse("refund")) == frozenset()

    def test_remove_unknown_rejected(self):
        index = PrefilterIndex()
        with pytest.raises(IndexError_):
            index.remove_contract(42)

    def test_stats_populated(self, airfare_contracts):
        index = PrefilterIndex()
        c = airfare_contracts["Ticket A"]
        index.add_contract(c.contract_id, c.ba, c.vocabulary)
        assert index.stats.contracts == 1
        assert index.stats.labels_indexed > 0
        assert index.stats.node_insertions > 0


class TestSoundness:
    """§4.2: pruning must never lose a permitting contract, for any index
    depth, including labels longer than the cap."""

    @given(formulas(max_depth=3), formulas(max_depth=3),
           formulas(max_depth=3))
    @settings(max_examples=80, deadline=None)
    def test_candidates_superset_of_permitted(
        self, contract1, contract2, query_formula
    ):
        index = PrefilterIndex(depth=2)
        contracts = {}
        for cid, formula in enumerate((contract1, contract2)):
            ba = translate(formula)
            contracts[cid] = (ba, formula.variables())
            index.add_contract(cid, ba, formula.variables())
        query_ba = translate(query_formula)
        candidates = index.candidates(query_ba)
        permitted = {
            cid
            for cid, (ba, vocab) in contracts.items()
            if permits(ba, query_ba, vocab)
        }
        assert permitted <= candidates

    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=50, deadline=None)
    def test_depth_one_still_sound(self, contract_formula, query_formula):
        index = PrefilterIndex(depth=1)
        ba = translate(contract_formula)
        vocab = contract_formula.variables()
        index.add_contract(0, ba, vocab)
        query_ba = translate(query_formula)
        if permits(ba, query_ba, vocab):
            assert 0 in index.candidates(query_ba)


class TestProbeCostEstimate:
    """The structural probe-cost estimate the cost-based planner prices
    index evaluation with."""

    def test_short_label_costs_one_walk(self):
        from repro.index.condition import CondLabel

        index = PrefilterIndex(depth=2)
        assert index.estimate_probe_cost(
            CondLabel(Label.parse("refund"))
        ) == 2  # one trie walk + the leaf itself

    def test_long_label_fans_out_into_subset_probes(self):
        from math import comb

        from repro.index.condition import CondLabel

        index = PrefilterIndex(depth=2)
        label = Label.parse("!a & !b & !c & !d & !e")
        cost = index.estimate_probe_cost(CondLabel(label))
        assert cost == comb(5, 2) + 1

    def test_shared_subtrees_count_per_occurrence(self):
        from repro.index.condition import CondLabel, CondOr, make_and

        index = PrefilterIndex(depth=2)
        leaf = CondLabel(Label.parse("refund"))
        shared = CondOr((leaf, CondLabel(Label.parse("use"))))
        # evaluation revisits ``shared`` once per occurrence (only label
        # lookups are memoized), so doubling the occurrences must raise
        # the estimate even though no new distinct node appears
        once = index.estimate_probe_cost(make_and([shared, leaf]))
        twice = index.estimate_probe_cost(
            make_and([shared, CondOr((shared, leaf))])
        )
        assert twice > once

    def test_planner_prices_wide_conditions_off(self, airfare_contracts):
        # end to end: the wider a condition, the costlier the estimate
        index = PrefilterIndex(depth=2)
        for c in airfare_contracts.values():
            index.add_contract(c.contract_id, c.ba, c.vocabulary)
        from repro.index.pruning import pruning_condition

        narrow = pruning_condition(translate(parse("F refund")))
        wide = pruning_condition(translate(parse(
            "F(missedFlight && F(refund || dateChange)) && "
            "G(use -> !F refund) && F(dateChange && F use)"
        )))
        assert index.estimate_probe_cost(wide) > index.estimate_probe_cost(
            narrow
        )


class TestSerialization:
    def test_round_trip_preserves_candidates(self, airfare_contracts):
        import json

        index = PrefilterIndex(depth=2)
        for c in airfare_contracts.values():
            index.add_contract(c.contract_id, c.ba, c.vocabulary)
        doc = json.loads(json.dumps(index.to_dict()))
        restored = PrefilterIndex.from_dict(doc)
        assert restored.depth == index.depth
        assert restored.num_nodes == index.num_nodes
        assert restored.universe == index.universe
        query = translate(parse("F(missedFlight && F refund)"))
        assert restored.candidates(query) == index.candidates(query)

    def test_round_trip_with_id_remap(self, airfare_contracts):
        index = PrefilterIndex(depth=2)
        for c in airfare_contracts.values():
            index.add_contract(c.contract_id, c.ba, c.vocabulary)
        id_map = {
            cid: slot for slot, cid in enumerate(sorted(index.universe))
        }
        restored = PrefilterIndex.from_dict(index.to_dict(id_map))
        assert restored.universe == set(id_map.values())

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(IndexError_):
            PrefilterIndex.from_dict({"depth": 2})
        with pytest.raises(IndexError_):
            PrefilterIndex.from_dict(
                {"depth": 2, "contracts": [], "stats": {},
                 "trie": {"depth": 3, "nodes": []}}
            )
