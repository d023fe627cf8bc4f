"""The prefilter index (§4): registration-time structure + query-time use.

At registration the index computes, for every transition label ``γ`` of
the contract's BA, the expansion ``E(γ)`` with respect to the contract's
vocabulary — as a bitmask over the database's event table, see
:mod:`.trie` — and inserts the contract id, once, into every
depth-capped set-trie node whose literal set some expansion contains.
At query time the pruning condition extracted from
the query BA (Algorithm 1) is evaluated against
:meth:`PrefilterIndex.lookup`, yielding a candidate set that provably
contains every permitting contract — the expensive permission algorithm
then runs only on the candidates.

Lookups of labels longer than the depth cap return the *intersection* of
the sets of their depth-sized sub-labels; each of those is a superset of
the exact ``S(λ)``, so the intersection still is, and monotonicity of the
condition keeps the evaluation sound (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from ..automata.buchi import BuchiAutomaton
from ..automata.encode import EventTable, _iter_bits
from ..automata.labels import Label
from ..errors import IndexError_
from .condition import Condition
from .pruning import pruning_condition
from .trie import SetTrie

#: How many depth-sized sub-label combinations a long-label lookup will
#: intersect before stopping; each combination only tightens the result,
#: so truncation stays sound.
_MAX_SUBSET_PROBES = 256


@dataclass
class PrefilterStats:
    """Registration-side statistics (reported by the index benchmarks)."""

    contracts: int = 0
    labels_indexed: int = 0
    node_insertions: int = 0
    build_seconds: float = 0.0


class PrefilterIndex:
    """The §4 index over a database of contract BAs.

    Args:
        depth: set-trie depth cap ``k`` (§4.2); the structure grows with
            the number of consistent literal sets of size ≤ ``k`` over
            the vocabulary, so small values (2–3) are the practical
            choice.
        table: the event table literal bits come from (the database's);
            a fresh one when omitted.
    """

    def __init__(self, depth: int = 2, table: EventTable | None = None):
        self._trie = SetTrie(depth=depth, table=table)
        self._contracts: set[int] = set()
        self.stats = PrefilterStats()

    @property
    def depth(self) -> int:
        return self._trie.depth

    @property
    def universe(self) -> frozenset[int]:
        """All registered contract ids (selected by the TRUE condition)."""
        return frozenset(self._contracts)

    # -- registration -------------------------------------------------------------

    def add_contract(
        self,
        contract_id: int,
        ba: BuchiAutomaton,
        vocabulary: frozenset[str],
    ) -> None:
        """Index one contract BA under its vocabulary."""
        if contract_id in self._contracts:
            raise IndexError_(f"contract {contract_id} already indexed")
        self._contracts.add(contract_id)
        self.stats.contracts += 1
        trie = self._trie
        vocabulary_mask = trie.table.intern(vocabulary)  # once per contract
        full = sum(3 << 2 * i for i in _iter_bits(vocabulary_mask))
        masks = {
            trie.expansion_mask(label.literals, full)
            for label in set(ba.labels())
        }
        touched = self._trie.insert_masks(masks, contract_id)
        self.stats.labels_indexed += len(masks)
        self.stats.node_insertions += touched

    def remove_contract(self, contract_id: int) -> None:
        """Drop a contract from the index."""
        if contract_id not in self._contracts:
            raise IndexError_(f"contract {contract_id} is not indexed")
        self._contracts.discard(contract_id)
        self.stats.contracts -= 1
        self._trie.remove_contract(contract_id)

    # -- lookup ----------------------------------------------------------------------

    def lookup(self, label: Label) -> frozenset[int]:
        """``S(λ)`` for short labels, the sound superset ``S'(λ)`` for
        labels longer than the depth cap."""
        depth = self._trie.depth
        if len(label.literals) <= depth:
            return self._trie.get(label.literals)
        # probes go in sorted-literal order: which of them run under the
        # cap decides the (sound) superset a truncated lookup returns
        probes = islice(
            combinations(sorted(label.literals), depth), _MAX_SUBSET_PROBES
        )
        result = self._trie.get(next(probes))
        for subset in probes:
            if not result:
                break
            result &= self._trie.get(subset)
        return result

    def candidates(self, query: BuchiAutomaton) -> frozenset[int]:
        """The candidate contract set for a query BA: extract the pruning
        condition (Algorithm 1) and evaluate it against the index."""
        return self.evaluate(pruning_condition(query))

    def evaluate(self, condition: Condition) -> frozenset[int]:
        """Evaluate a prebuilt pruning condition against the index.

        ``S(λ)`` lookups are memoized for the duration of the evaluation:
        pruning conditions repeat the same labels across many disjuncts.
        """
        cache: dict[Label, frozenset[int]] = {}

        def cached_lookup(label: Label) -> frozenset[int]:
            result = cache.get(label)
            if result is None:
                result = self.lookup(label)
                cache[label] = result
            return result

        return condition.evaluate(cached_lookup, self.universe)

    def label_frequency(self, label: Label) -> float:
        """``|S(λ)| / N`` — the fraction of registered contracts the
        primitive lookup selects (1.0 on an empty index)."""
        if not self._contracts:
            return 1.0
        if len(label.literals) <= self._trie.depth:
            return self._trie.count(label.literals) / len(self._contracts)
        return len(self.lookup(label)) / len(self._contracts)

    def estimate_selectivity(self, condition: Condition) -> float:
        """Estimated fraction of the database ``condition`` selects.

        Purely structural: only per-label posting sizes are probed
        (memoized for the walk) and combined under an independence
        assumption — no candidate sets are intersected, so planning a
        query costs far less than evaluating its condition.  The
        cost-based planner uses this to decide whether evaluating the
        condition for real is worth it; estimates steer plans, never
        answers.
        """
        cache: dict[Label, float] = {}

        def cached_frequency(label: Label) -> float:
            result = cache.get(label)
            if result is None:
                result = self.label_frequency(label)
                cache[label] = result
            return result

        return condition.estimate(cached_frequency)

    def estimate_probe_cost(self, condition: Condition) -> int:
        """Number of primitive set operations evaluating ``condition``
        would perform: one trie walk per distinct short label, one
        posting-list intersection per subset probe for labels beyond the
        depth cap (the expensive case — a ``k``-combination sweep capped
        at ``_MAX_SUBSET_PROBES``), and one set-algebra step per node of
        the *expanded* condition tree — evaluation revisits shared
        subtrees on every occurrence (only label lookups are memoized),
        so the expanded size is the honest measure, computed in time
        linear in the number of distinct nodes via memoized subtree
        sizes.  Purely structural, like :meth:`estimate_selectivity`:
        nothing is looked up, so the cost-based planner can price a
        probe without paying for one.
        """
        depth = self._trie.depth
        ops = 0
        for label in condition.labels():
            literals = len(label.literals)
            if literals <= depth:
                ops += 1
            else:
                ops += min(comb(literals, depth), _MAX_SUBSET_PROBES)
        # expanded tree size, iteratively (Algorithm 1's trees get deep)
        sizes: dict[int, int] = {}
        stack: list[tuple[Condition, bool]] = [(condition, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in sizes and not expanded:
                continue
            children = getattr(node, "children", ())
            if expanded or not children:
                sizes[id(node)] = 1 + sum(
                    sizes[id(child)] for child in children
                )
            else:
                stack.append((node, True))
                stack.extend(
                    (child, False)
                    for child in children
                    if id(child) not in sizes
                )
        return ops + sizes[id(condition)]

    # -- serialization -----------------------------------------------------------------

    def to_dict(self, id_map: dict[int, int] | None = None) -> dict:
        """A JSON-ready snapshot of the whole index (trie + registered
        contract ids + build stats); ``id_map`` remaps contract ids like
        :meth:`SetTrie.to_dict`."""
        remap = (lambda i: i) if id_map is None else id_map.__getitem__
        return {
            "depth": self.depth,
            "contracts": sorted(remap(c) for c in self._contracts),
            "stats": {
                "contracts": self.stats.contracts,
                "labels_indexed": self.stats.labels_indexed,
                "node_insertions": self.stats.node_insertions,
                "build_seconds": self.stats.build_seconds,
            },
            "trie": self._trie.to_dict(id_map),
        }

    @classmethod
    def from_dict(cls, data: dict, table: EventTable | None = None
                  ) -> "PrefilterIndex":
        """Inverse of :meth:`to_dict`, over ``table`` (a fresh one when
        omitted); raises :class:`IndexError_` on a malformed document."""
        try:
            declared_depth = int(data["depth"])
            index = cls(depth=declared_depth)
            index._trie = SetTrie.from_dict(data["trie"], table)
            index._contracts = {int(c) for c in data["contracts"]}
            stats = dict(data.get("stats", {}))
            index.stats = PrefilterStats(
                contracts=int(stats.get("contracts", len(index._contracts))),
                labels_indexed=int(stats.get("labels_indexed", 0)),
                node_insertions=int(stats.get("node_insertions", 0)),
                build_seconds=float(stats.get("build_seconds", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(f"malformed index document: {exc}") from exc
        if index._trie.depth != declared_depth:
            raise IndexError_(
                f"trie depth {index._trie.depth} does not match index "
                f"depth {declared_depth}"
            )
        return index

    # -- introspection ---------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._trie.num_nodes

    def size_estimate(self) -> int:
        """Rough entry-count footprint (paper's 'index size' metric)."""
        return self._trie.size_estimate()
