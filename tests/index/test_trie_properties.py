"""Property tests of the set-trie against a brute-force reference.

The trie's contract: for any label ``λ`` with ``|λ| <= depth``,
``lookup(λ)`` returns exactly the contracts owning a label whose
expansion contains ``λ``; for longer labels the result is a superset of
that exact set.  We check both against a naive scan over all stored
expansions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.labels import Label
from repro.index.prefilter import PrefilterIndex
from repro.automata.ltl2ba import translate

from tests.strategies import EVENTS, formulas, labels


def brute_force_s(contracts: dict, label: Label) -> frozenset:
    """The exact S(λ): contracts with a label compatible with λ."""
    out = set()
    for contract_id, (ba, vocabulary) in contracts.items():
        for gamma in ba.labels():
            if label.literals <= gamma.expansion(vocabulary):
                out.add(contract_id)
                break
    return frozenset(out)


@st.composite
def contract_sets(draw):
    count = draw(st.integers(min_value=1, max_value=4))
    contracts = {}
    for contract_id in range(count):
        formula = draw(formulas(max_depth=3))
        contracts[contract_id] = (translate(formula), formula.variables())
    return contracts


@pytest.mark.slow
class TestLookupAgainstBruteForce:
    @given(contract_sets(), labels())
    @settings(max_examples=100, deadline=None)
    def test_exact_for_short_labels(self, contracts, label):
        index = PrefilterIndex(depth=3)
        for contract_id, (ba, vocabulary) in contracts.items():
            index.add_contract(contract_id, ba, vocabulary)
        if len(label.literals) <= 3:
            assert index.lookup(label) == brute_force_s(contracts, label)

    @given(contract_sets(), labels())
    @settings(max_examples=100, deadline=None)
    def test_superset_for_long_labels(self, contracts, label):
        index = PrefilterIndex(depth=1)
        for contract_id, (ba, vocabulary) in contracts.items():
            index.add_contract(contract_id, ba, vocabulary)
        assert brute_force_s(contracts, label) <= index.lookup(label)

    @given(contract_sets())
    @settings(max_examples=60, deadline=None)
    def test_true_label_is_contracts_with_some_label(self, contracts):
        index = PrefilterIndex(depth=2)
        for contract_id, (ba, vocabulary) in contracts.items():
            index.add_contract(contract_id, ba, vocabulary)
        expected = frozenset(
            cid for cid, (ba, _) in contracts.items()
            if ba.num_transitions > 0
        )
        assert index.lookup(Label.parse("true")) == expected
