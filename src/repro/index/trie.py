"""The set-trie backing the prefilter index (§4.2).

The paper adapts a TRIE [11] into a directed acyclic graph whose nodes
are *sets of literals*: the root is the empty set, level one holds
singletons, level two holds pairs, and so on up to a configurable depth
``k`` (the depth cap is what keeps the structure from growing
exponentially in the vocabulary).  A node labeled ``l`` is associated
with the set of contracts owning a transition label ``γ`` whose
expansion ``E(γ)`` contains ``l``.

A literal set is an integer over the database's
:class:`~repro.automata.encode.EventTable`: the event at position ``i``
has its negative literal on bit ``2i`` and its positive one on bit
``2i + 1``, so a set holds a complementary pair iff ``m & (m >> 1)`` has
an even bit.  A node's key determines it uniquely, so the DAG is one
dictionary from mask to contract set and its edges are arithmetic: a
node's parents are its mask with one bit cleared.  Contradictory nodes
are never created: no satisfiable query label can ever look them up.
``Literal`` objects and literal texts appear only at the boundary
(``get``, ``insert_expansion``, the JSON document).

Node sets are downward closed — a contract stored under ``S`` is stored
under every subset of ``S`` — because an insert stores under every
consistent subset and a removal empties every node of the contract.  A
node whose own set is empty therefore has nothing beneath it.
"""

from __future__ import annotations

from itertools import combinations
from typing import AbstractSet, Iterable

from ..errors import IndexError_
from ..automata.encode import EventTable, _iter_bits
from ..automata.labels import Label, Literal, parse_literal


class SetTrie:
    """Depth-capped set-trie over literal sets.

    Args:
        depth: maximum node label size ``k`` (≥ 1).
        table: the event table literal bits come from; a fresh one when
            omitted.
    """

    def __init__(self, depth: int = 2, table: EventTable | None = None):
        if depth < 1:
            raise IndexError_(f"trie depth must be >= 1, got {depth}")
        self.depth = depth
        self.table = EventTable() if table is None else table
        self._nodes: dict[int, set[int]] = {0: set()}

    # -- the bit vocabulary --------------------------------------------------

    def expansion_mask(self, literals: Iterable[Literal], full: int = 0) -> int:
        """``E(γ)`` as a mask (§4.2): the literals of ``full`` (a
        vocabulary's, both polarities) but those on the label's own
        events, plus the label's literals.  Adds events the table lacks."""
        own = cited = 0
        table = self.table
        for literal in literals:
            if literal.event not in table:
                table.intern((literal.event,))
            low = 2 * table[literal.event]
            own |= 1 << low + literal.positive
            cited |= 3 << low
        return full & ~cited | own

    def _key(self, mask: int) -> tuple[Literal, ...]:
        events = self.table.events
        return tuple(sorted(
            Literal(events[i >> 1], bool(i & 1)) for i in _iter_bits(mask)
        ))

    # -- construction ---------------------------------------------------------

    def insert_masks(self, masks: Iterable[int], contract_id: int) -> int:
        """Associate ``contract_id`` with every consistent subset of size
        ≤ depth of every expansion mask; returns how many nodes gained
        the contract.  A mask contained in another is skipped (its
        subsets are the other's) and a shared subset is touched once."""
        masks = set(masks)
        subsets = {0} if masks else set()
        even = ((1 << 2 * len(self.table)) - 1) // 3  # negative literals
        for mask in masks:
            if any(mask != other and mask & other == mask for other in masks):
                continue
            bits = [1 << i for i in _iter_bits(mask)]
            subsets.update(bits)
            for size in range(2, self.depth + 1):
                subsets.update(
                    subset for subset in map(sum, combinations(bits, size))
                    if not subset & (subset >> 1) & even
                )
        touched = 0
        for subset in subsets:
            contracts = self._nodes.setdefault(subset, set())
            touched += contract_id not in contracts
            contracts.add(contract_id)
        return touched

    def insert_expansion(self, expansion: frozenset[Literal],
                         contract_id: int) -> int:
        """:meth:`insert_masks` for one expansion given as literals."""
        return self.insert_masks([self.expansion_mask(expansion)], contract_id)

    def remove_contract(self, contract_id: int) -> None:
        """Remove a contract from every node (used on deregistration)
        and drop the nodes that leaves empty — without that,
        register/deregister churn would grow ``num_nodes`` and
        ``size_estimate`` without bound."""
        for contracts in self._nodes.values():
            contracts.discard(contract_id)
        self._nodes = {m: c for m, c in self._nodes.items() if c or not m}

    # -- lookup ----------------------------------------------------------------

    def _find(self, literals: Iterable[Literal]) -> AbstractSet[int]:
        literals = tuple(literals)
        if len(literals) > self.depth:
            raise IndexError_(
                f"exact lookup of {len(literals)} literals exceeds depth "
                f"{self.depth}"
            )
        # a lookup never grows the table: an unknown event's bits are in no node
        table, unknown = self.table, len(self.table)
        mask = 0
        for lit in literals:
            mask |= 1 << 2 * table.get(lit.event, unknown) + lit.positive
        return self._nodes.get(mask, frozenset())

    def get(self, literals: Iterable[Literal]) -> frozenset[int]:
        """The contract set of the node labeled exactly by ``literals``
        (empty if no such node); requires ``len(literals) <= depth``."""
        return frozenset(self._find(literals))

    def count(self, literals: Iterable[Literal]) -> int:
        """``len(self.get(literals))`` without the copy."""
        return len(self._find(literals))

    # -- serialization -----------------------------------------------------------

    def to_dict(self, id_map: dict[int, int] | None = None) -> dict:
        """A JSON-ready snapshot of the trie (structure + contract sets).
        ``id_map``, when given, remaps contract ids on the way out — the
        persistence layer renumbers them to dense save-order positions."""
        remap = (lambda i: i) if id_map is None else id_map.__getitem__
        nodes = [
            {
                "key": [str(lit) for lit in key],
                "contracts": sorted(remap(c) for c in self._nodes[mask]),
            }
            for key, mask in sorted((self._key(m), m) for m in self._nodes)
        ]
        return {"depth": self.depth, "nodes": nodes}

    @classmethod
    def from_dict(cls, data: dict, table: EventTable | None = None) -> "SetTrie":
        """Inverse of :meth:`to_dict`, over ``table`` (a fresh one when
        omitted); raises :class:`IndexError_` on a document it cannot
        have written — malformed, a key over-deep or contradictory, a
        node set not inside each parent's (removal relies on that).  The
        persistence layer then rebuilds."""
        try:
            trie = cls(depth=int(data["depth"]), table=table)
            for doc in data["nodes"]:
                key = [parse_literal(s) for s in doc["key"]]
                mask = trie.expansion_mask(key)
                if len(key) > trie.depth or Label.try_of(key) is None:
                    raise IndexError_(
                        f"trie node {doc['key']} exceeds depth {trie.depth} "
                        f"or holds a complementary pair"
                    )
                trie._nodes.setdefault(mask, set()).update(
                    int(c) for c in doc["contracts"]
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexError_(f"malformed trie document: {exc}") from exc
        nodes = trie._nodes
        for mask, contracts in nodes.items():
            if mask and not (contracts and all(
                contracts <= nodes.get(mask ^ (1 << i), set())
                for i in _iter_bits(mask)
            )):
                raise IndexError_(
                    f"trie node {[str(lit) for lit in trie._key(mask)]} is "
                    f"empty or holds a contract one of its parents lacks"
                )
        return trie

    # -- introspection ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    def size_estimate(self) -> int:
        """Rough memory footprint: total contract-id entries plus node
        keys (a stand-in for the paper's on-disk index size metric)."""
        return sum(len(c) + m.bit_count() for m, c in self._nodes.items())
