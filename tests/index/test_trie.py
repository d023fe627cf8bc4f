"""Unit and property tests for the set-trie DAG."""

import json
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.buchi import BuchiAutomaton
from repro.automata.labels import Label, neg, pos
from repro.errors import IndexError_
from repro.index.prefilter import PrefilterIndex
from repro.index.trie import SetTrie

from tests.strategies import labels

ROOT = Path(__file__).resolve().parents[2]


class TestInsertion:
    def test_insert_indexes_all_consistent_subsets(self):
        trie = SetTrie(depth=2)
        expansion = frozenset([pos("a"), pos("b"), neg("c")])
        trie.insert_expansion(expansion, 7)
        assert trie.get([pos("a")]) == {7}
        assert trie.get([pos("a"), neg("c")]) == {7}
        assert trie.get([]) == {7}

    def test_contradictory_subsets_skipped(self):
        trie = SetTrie(depth=2)
        # expansions of unconstrained events contain both polarities
        expansion = frozenset([pos("a"), pos("m"), neg("m")])
        trie.insert_expansion(expansion, 1)
        assert trie.get([pos("m")]) == {1}
        assert trie.get([neg("m")]) == {1}
        assert trie.get([pos("m"), neg("m")]) == set()

    def test_depth_cap_respected(self):
        trie = SetTrie(depth=1)
        trie.insert_expansion(frozenset([pos("a"), pos("b")]), 1)
        assert trie.get([pos("a")]) == {1}
        with pytest.raises(IndexError_):
            trie.get([pos("a"), pos("b")])

    def test_multiple_contracts_share_nodes(self):
        trie = SetTrie(depth=1)
        trie.insert_expansion(frozenset([pos("a")]), 1)
        trie.insert_expansion(frozenset([pos("a")]), 2)
        assert trie.get([pos("a")]) == {1, 2}

    def test_insert_returns_touched_count(self):
        trie = SetTrie(depth=1)
        touched = trie.insert_expansion(frozenset([pos("a"), pos("b")]), 1)
        assert touched == 3  # root + {a} + {b}

    def test_reinsert_is_idempotent(self):
        trie = SetTrie(depth=1)
        expansion = frozenset([pos("a")])
        trie.insert_expansion(expansion, 1)
        assert trie.insert_expansion(expansion, 1) == 0


class TestLookup:
    def test_missing_node_is_empty(self):
        trie = SetTrie(depth=2)
        assert trie.get([pos("nope")]) == set()

    def test_root_lookup(self):
        trie = SetTrie(depth=2)
        assert trie.get([]) == set()
        trie.insert_expansion(frozenset([pos("a")]), 3)
        assert trie.get([]) == {3}

    def test_navigation_is_order_insensitive(self):
        trie = SetTrie(depth=2)
        trie.insert_expansion(frozenset([pos("a"), neg("b")]), 1)
        assert trie.get([neg("b"), pos("a")]) == {1}
        assert trie.get([pos("a"), neg("b")]) == {1}


class TestRemoval:
    def test_remove_contract(self):
        trie = SetTrie(depth=2)
        trie.insert_expansion(frozenset([pos("a"), pos("b")]), 1)
        trie.insert_expansion(frozenset([pos("a")]), 2)
        trie.remove_contract(1)
        assert trie.get([pos("a")]) == {2}
        assert trie.get([pos("b")]) == set()

    def test_remove_prunes_emptied_nodes(self):
        trie = SetTrie(depth=2)
        trie.insert_expansion(frozenset([pos("a"), pos("b")]), 1)
        assert trie.num_nodes == 4
        trie.remove_contract(1)
        # only the root remains; emptied subset nodes are detached
        assert trie.num_nodes == 1
        assert trie.size_estimate() == 0

    def test_remove_keeps_nodes_shared_with_other_contracts(self):
        trie = SetTrie(depth=2)
        trie.insert_expansion(frozenset([pos("a"), pos("b")]), 1)
        trie.insert_expansion(frozenset([pos("a")]), 2)
        trie.remove_contract(1)
        # {a} survives for contract 2; {b} and {a,b} are pruned
        assert trie.num_nodes == 2
        assert trie.get([pos("a")]) == {2}

    def test_churn_does_not_grow_node_count(self):
        trie = SetTrie(depth=2)
        expansion = frozenset([pos("a"), pos("b"), neg("c")])
        trie.insert_expansion(expansion, 0)
        baseline = trie.num_nodes
        for cycle in range(1, 6):
            trie.remove_contract(cycle - 1)
            trie.insert_expansion(expansion, cycle)
            assert trie.num_nodes == baseline


class TestSerialization:
    def _sample(self):
        trie = SetTrie(depth=2)
        trie.insert_expansion(frozenset([pos("a"), neg("b")]), 1)
        trie.insert_expansion(frozenset([pos("a"), pos("c")]), 2)
        return trie

    def test_round_trip_preserves_lookups(self):
        import json

        trie = self._sample()
        doc = json.loads(json.dumps(trie.to_dict()))
        restored = SetTrie.from_dict(doc)
        assert restored.depth == trie.depth
        assert restored.num_nodes == trie.num_nodes
        assert restored.size_estimate() == trie.size_estimate()
        for query in ([], [pos("a")], [neg("b")], [pos("a"), pos("c")]):
            assert restored.get(query) == trie.get(query)

    def test_round_trip_with_id_remap(self):
        trie = self._sample()
        restored = SetTrie.from_dict(trie.to_dict(id_map={1: 0, 2: 1}))
        assert restored.get([pos("a")]) == {0, 1}
        assert restored.get([neg("b")]) == {0}

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(IndexError_):
            SetTrie.from_dict({"nodes": []})
        with pytest.raises(IndexError_):
            SetTrie.from_dict({"depth": 1, "nodes": "oops"})

    def test_from_dict_rejects_overdeep_key(self):
        doc = {
            "depth": 1,
            "nodes": [{"key": ["a", "b"], "contracts": [1]}],
        }
        with pytest.raises(IndexError_):
            SetTrie.from_dict(doc)

    @pytest.mark.parametrize("nodes, named", [
        # an orphan: {a, b} without its parent {b}
        ([([], [1]), (["a"], [1]), (["a", "b"], [1])], "['a', 'b']"),
        # a child holding a contract its parent lacks
        ([([], [1, 2]), (["a"], [1]), (["b"], [1, 2]),
          (["a", "b"], [1, 2])], "['a', 'b']"),
        # a non-root node nothing is stored under
        ([([], [1]), (["a"], [])], "['a']"),
        # a key no satisfiable label can look up
        ([([], [1]), (["!a"], [1]), (["a"], [1]),
          (["!a", "a"], [1])], "['!a', 'a']"),
    ])
    def test_from_dict_rejects_what_to_dict_cannot_write(self, nodes, named):
        """Removal prunes by 'the node's own set became empty', which is
        only right on a downward-closed trie — so a document that is not
        one must not load."""
        doc = {"depth": 2, "nodes": [
            {"key": key, "contracts": contracts} for key, contracts in nodes
        ]}
        with pytest.raises(IndexError_, match=re.escape(named)):
            SetTrie.from_dict(doc)


class TestShape:
    def test_invalid_depth(self):
        with pytest.raises(IndexError_):
            SetTrie(depth=0)

    def test_node_and_size_accounting(self):
        trie = SetTrie(depth=2)
        trie.insert_expansion(frozenset([pos("a"), pos("b")]), 1)
        # nodes: root, {a}, {b}, {a,b}
        assert trie.num_nodes == 4
        assert trie.size_estimate() > 0

    def test_dag_sharing(self):
        """{a,b} is reachable through both {a} and {b} conceptually; the
        node exists once."""
        trie = SetTrie(depth=2)
        trie.insert_expansion(frozenset([pos("a"), pos("b"), pos("c")]), 1)
        keys = [tuple(node["key"]) for node in trie.to_dict()["nodes"]]
        assert ("a", "b") in keys
        assert len(keys) == len(set(keys)) == trie.num_nodes == 7


WIDE_EVENTS = ("a", "b", "c", "d")


def consistent_subsets(literals, depth):
    """Every satisfiable literal set of size ≤ depth inside ``literals``."""
    return {
        frozenset(subset)
        for size in range(depth + 1)
        for subset in combinations(sorted(literals), size)
        if Label.try_of(subset) is not None
    }


@st.composite
def contracts(draw):
    """A contract as the index sees it: transition labels (any event of
    ``EVENTS``, inside the vocabulary or not) and a vocabulary."""
    gammas = draw(st.lists(labels(), max_size=5))
    vocabulary = draw(st.sets(st.sampled_from(WIDE_EVENTS)))
    ba = BuchiAutomaton.make(0, [(0, gamma, 0) for gamma in gammas], [0])
    return ba, frozenset(vocabulary)


def node_sets(index):
    return {
        frozenset(node["key"]): set(node["contracts"])
        for node in index.to_dict()["trie"]["nodes"]
    }


class TestPerContractInsert:
    @given(st.lists(contracts(), min_size=1, max_size=4),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_answers_and_counts_match_per_label_definition(self, db, depth):
        """One insert per contract — contained expansions dropped, shared
        nodes touched once — stores what inserting every ``E(γ)`` of
        every label on its own stores, and counts what that counts."""
        index = PrefilterIndex(depth=depth)
        stored = {}
        labels_indexed = 0
        for contract_id, (ba, vocabulary) in enumerate(db):
            index.add_contract(contract_id, ba, vocabulary)
            expansions = {gamma.expansion(vocabulary) for gamma in ba.labels()}
            labels_indexed += len(expansions)
            stored[contract_id] = set().union(*(
                consistent_subsets(expansion, depth)
                for expansion in expansions
            ))
        assert index.stats.labels_indexed == labels_indexed
        assert index.stats.node_insertions == sum(map(len, stored.values()))
        universe = [lit for e in WIDE_EVENTS for lit in (neg(e), pos(e))]
        for subset in consistent_subsets(universe, depth):
            assert index.lookup(Label(subset)) == {
                contract_id for contract_id, subsets in stored.items()
                if subset in subsets
            }

    @given(st.lists(st.tuples(st.integers(0, 5), contracts()), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_churn_keeps_the_trie_downward_closed(self, operations):
        """``(id, contract)`` registers the id if it is free and
        deregisters it otherwise.  Afterwards no non-root node is empty,
        every node's set is inside each parent's, and the trie is the one
        a fresh index of the survivors builds."""
        index = PrefilterIndex(depth=2)
        live = {}
        for contract_id, contract in operations:
            if contract_id in live:
                index.remove_contract(contract_id)
                del live[contract_id]
            else:
                index.add_contract(contract_id, *contract)
                live[contract_id] = contract
        nodes = node_sets(index)
        for key, members in nodes.items():
            assert members or not key
            for literal in key:
                assert members <= nodes[key - {literal}]
        fresh = PrefilterIndex(depth=2)
        for contract_id, contract in live.items():
            fresh.add_contract(contract_id, *contract)
        assert nodes == node_sets(fresh)
        assert index.num_nodes == fresh.num_nodes
        assert index.size_estimate() == fresh.size_estimate()


GOLDEN_PROGRAM = """
import hashlib, json
from repro.broker.database import ContractDatabase
shapes = json.load(open("benchmarks/e2e/shapes.json"))
db = ContractDatabase()
ids = [db.register(f"c{i}", clauses).contract_id
       for i, clauses in enumerate(shapes["contracts"])]
for contract_id in ids[::3]:
    db.deregister(contract_id)
index = db.index
doc = index.to_dict()
del doc["stats"]["build_seconds"]
text = json.dumps(doc, sort_keys=True)
print(json.dumps([index.num_nodes, index.size_estimate(),
                  index.stats.labels_indexed, index.stats.node_insertions,
                  hashlib.sha256(text.encode()).hexdigest()]))
"""


def test_yardstick_index_matches_golden():
    """``index_golden.json`` was written by the object trie of 8.1: the
    yardstick's 100 contracts registered in file order, every third
    deregistered.  The index — its bytes included — must not depend on
    the representation, nor on the hash salt."""
    golden_file = Path(__file__).with_name("index_golden.json")
    golden = json.loads(golden_file.read_text())
    for salt in ("0", "5", "11"):
        env = dict(os.environ, PYTHONHASHSEED=salt)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        result = subprocess.run(
            [sys.executable, "-c", GOLDEN_PROGRAM],
            capture_output=True, text=True, env=env, check=True, cwd=ROOT,
        )
        assert json.loads(result.stdout) == golden, f"PYTHONHASHSEED={salt}"
