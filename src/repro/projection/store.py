"""The per-contract projection store (§5.2–§5.3).

At registration time the store computes, for every subset ``L`` of the
contract's cited literals up to a configurable size cap, the coarsest
bisimulation *partition* of the projected automaton ``π_L(A)``.  As the
paper notes, storing the partition (a list of bisimilar-state classes)
is enough — a quotient's encoding is built on first use from the
contract's encoding, so storage stays a small fraction of the database.

Two ingredients keep the all-subsets computation tractable (§5.3):

* **refinement reuse** (Theorem 3): for ``L' ⊇ L`` the partition for
  ``L'`` refines the one for ``L``, so the subset lattice is traversed
  small-to-large and each refinement is *seeded* with a parent's
  partition instead of restarting from the {final, non-final} split;
* **deduplication**: most subsets induce the *same* partition (the
  paper observed ~5% distinct); partitions are stored once, keyed by a
  canonical signature, and subsets map to signature ids.

At query time :meth:`ProjectionStore.select` returns the smallest stored
automaton equivalent to the contract for the given query literals —
falling back to the full automaton when the required literal set exceeds
every stored subset (the case the complementary prefilter optimization
handles best, §5.2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from ..automata.bisim import (
    Partition,
    blocks_of,
    partition_signature,
    quotient,
    quotient_encoded,
    refine_partition,
)
from ..automata.buchi import BuchiAutomaton
from ..automata.encode import EncodedAutomaton, EventTable, encode_automaton
from ..automata.labels import Literal, parse_literal
from ..core.seeds import compute_seeds_mask
from ..errors import ProjectionError
from .project import project, required_literals


@dataclass
class ProjectionStats:
    """Precomputation statistics (reported by the index benchmarks)."""

    subsets_considered: int = 0
    partitions_computed: int = 0
    distinct_partitions: int = 0
    build_seconds: float = 0.0
    stored_blocks: int = 0


class _FlatAutomaton:
    """The contract BA as :func:`refine_partition` reads it, for the
    length of one :meth:`ProjectionStore._build` / ``precompute`` call.

    Encoded over the BA's *own* events — never the store's
    ``vocabulary``, which may be narrower: a literal dropped from the
    label masks is a literal no subset could keep apart.  Nothing here
    outlives the call (a kept row table costs a MiB per hundred
    contracts).
    """

    def __init__(self, ba: BuchiAutomaton):
        encoded = encode_automaton(ba)
        self.states = encoded.states
        self.table = encoded.table
        self.label_masks = tuple(zip(encoded.label_pos, encoded.label_neg))
        self.final = [
            encoded.is_final(i) for i in range(encoded.num_states)
        ]
        offsets = encoded.offsets
        labels = encoded.trans_labels
        dsts = encoded.trans_dsts
        self.rows = [
            tuple(zip(labels[lo:hi], dsts[lo:hi]))
            for lo, hi in zip(offsets, offsets[1:])
        ]

    def projected_rows(self, subset: frozenset[Literal]) -> list[set]:
        """The rows of ``π_subset``: every label class masked down to the
        subset's literals (Definition 8), equal restrictions sharing one
        id, transitions the restriction made equal merged."""
        keep_pos = self.table.mask([l.event for l in subset if l.positive])
        keep_neg = self.table.mask([l.event for l in subset if not l.positive])
        restricted: dict[tuple[int, int], int] = {}
        class_of = [
            restricted.setdefault(
                (pos & keep_pos, neg & keep_neg), len(restricted)
            )
            for pos, neg in self.label_masks
        ]
        return [
            {(class_of[label], dst) for label, dst in row}
            for row in self.rows
        ]


class ProjectionStore:
    """Precomputed simplified projections of one contract BA.

    Args:
        ba: the (already reduced) contract BA.
        max_subset_size: cap on the size of projected literal subsets;
            ``None`` precomputes every subset (exponential in the cited
            literals — only sensible for small contracts).  Queries whose
            required literal set is larger than the cap simply fall back
            to the full automaton (§5.2).
        vocabulary: the contract's full event vocabulary, over which
            quotients are encoded for the deciders
            (:meth:`select_artifacts`).  Defaults to the events the BA's
            labels mention.  A standalone store encodes its BA over it
            on first use; the broker hands every store the contract's
            encoding and seed mask instead (:meth:`use_encoding`).
    """

    def __init__(
        self,
        ba: BuchiAutomaton,
        max_subset_size: int | None = 2,
        extra_subsets: Iterable[frozenset] = (),
        vocabulary: frozenset | None = None,
    ):
        self._empty(ba, max_subset_size, vocabulary)
        self._extra_subsets = [
            frozenset(s) & self.literals for s in extra_subsets
        ]
        self._build()

    def _empty(self, ba: BuchiAutomaton, max_subset_size: int | None,
               vocabulary: frozenset | None = None) -> None:
        """Every attribute, nothing stored yet."""
        self.ba = ba
        self.literals = ba.literals()
        self.max_subset_size = max_subset_size
        self.vocabulary = vocabulary if vocabulary is not None else ba.events()
        self.table: EventTable | None = None  # None: a fresh one
        #: the contract's (encoding, seed mask) quotients are built from
        self._contract: tuple[EncodedAutomaton, int] | None = None
        self.stats = ProjectionStats()
        #: subset -> id of its partition in _partitions
        self._subset_to_partition: dict[frozenset[Literal], int] = {}
        #: deduplicated partitions, as state->block mappings, and the
        #: number of blocks of each
        self._partitions: list[Partition] = []
        self._block_counts: list[int] = []
        self._signature_to_id: dict[frozenset, int] = {}
        #: lazily materialized quotients, keyed by (partition id, subset)
        #: — the labels depend on the subset, the shape on the partition.
        #: One record per quotient: its flat int encoding over
        #: ``vocabulary`` and its §6.2.4 seed mask.  Queries materialize
        #: concurrently under the database's *read* lock, so a record is
        #: built locally and published whole (see :meth:`_materialize`).
        self._quotients: dict[
            tuple[int, frozenset[Literal]], tuple[EncodedAutomaton, int]
        ] = {}
        #: bumped whenever a selection made earlier may no longer be the
        #: one :meth:`select_artifacts` would make now (:meth:`precompute`
        #: stored a new subset, :meth:`use_encoding` dropped the
        #: encodings); callers that memoize a selection compare it.
        self.generation = 0

    # -- registration-time computation -----------------------------------------

    def _build(self) -> None:
        start = time.perf_counter()
        flat = _FlatAutomaton(self.ba)
        cap = self.max_subset_size
        sizes: Iterable[int]
        if cap is None:
            sizes = range(0, len(self.literals) + 1)
        else:
            sizes = range(0, min(cap, len(self.literals)) + 1)
        ordered = sorted(self.literals)
        for size in sizes:
            for subset_tuple in combinations(ordered, size):
                self._compute_subset(frozenset(subset_tuple), flat)
        # Workload-guided extras (§5.2): projections for the literal sets
        # an expected query workload will actually request, regardless of
        # their size.  Sorted smallest-first so larger extras can seed
        # from smaller ones.
        for subset in sorted(set(self._extra_subsets), key=len):
            if subset not in self._subset_to_partition:
                self._compute_subset(subset, flat)
        self.stats.build_seconds = time.perf_counter() - start

    def _compute_subset(
        self, subset: frozenset[Literal], flat: _FlatAutomaton
    ) -> None:
        self.stats.subsets_considered += 1
        # Theorem 3: any stored subset of this one yields a valid
        # coarsening to seed from; prefer the finest minus-one parent,
        # falling back to a scan (needed for workload-guided extras
        # whose immediate parents were never computed).
        stored = self._subset_to_partition
        parents = [
            stored[parent] for literal in subset
            if (parent := subset - {literal}) in stored
        ] or [
            parent_id for parent, parent_id in stored.items()
            if parent < subset
        ]
        initial: Iterable = flat.final
        if parents:
            seed = self._partitions[
                max(parents, key=self._block_counts.__getitem__)
            ]
            initial = zip(map(seed.__getitem__, flat.states), flat.final)
        blocks = refine_partition(flat.projected_rows(subset), initial)
        self.stats.partitions_computed += 1
        partition = dict(zip(flat.states, blocks))
        partition_id = self._signature_to_id.get(
            signature := partition_signature(partition)
        )
        if partition_id is None:
            partition_id = self._add_partition(partition, signature)
        self._subset_to_partition[subset] = partition_id

    def _add_partition(self, partition: Partition, signature: frozenset) -> int:
        """Store one more distinct partition — the one place a block
        count is taken."""
        partition_id = len(self._partitions)
        self._partitions.append(partition)
        self._signature_to_id[signature] = partition_id
        blocks = len(set(partition.values()))
        self._block_counts.append(blocks)
        self.stats.distinct_partitions = len(self._partitions)
        self.stats.stored_blocks += blocks
        return partition_id

    def precompute(self, subsets: Iterable[frozenset]) -> int:
        """Add projections for explicit literal subsets after the fact.

        This is the §5.2 workload-guided route: given the literal sets an
        expected query workload requests (see
        :func:`workload_projection_subsets`), precompute exactly those in
        addition to the capped lattice.  Returns how many new subsets
        were computed.
        """
        start = time.perf_counter()
        wanted = sorted(
            {frozenset(s) & self.literals for s in subsets}
            - self._subset_to_partition.keys(),
            key=len,
        )
        if wanted:
            flat = _FlatAutomaton(self.ba)
            for subset in wanted:
                self._compute_subset(subset, flat)
            self.generation += 1
        self.stats.build_seconds += time.perf_counter() - start
        return len(wanted)

    # -- serialization -------------------------------------------------------------

    def to_dict(self, state_numbering: dict | None = None) -> dict:
        """A JSON-ready snapshot of the precomputed artifacts: the
        deduplicated partitions and the subset -> partition map (§5.2's
        'list of bisimilar states' is exactly this data).

        ``state_numbering`` maps the BA's states to the dense integers of
        its serialized form (:meth:`BuchiAutomaton.canonical_numbering`),
        so a snapshot restored against the reloaded automaton lines up.
        Lazily materialized quotients are *not* persisted — they are
        query-time caches, rebuilt on demand.
        """
        remap = (
            (lambda s: s) if state_numbering is None
            else state_numbering.__getitem__
        )
        partitions = [
            sorted([remap(state), block] for state, block in p.items())
            for p in self._partitions
        ]
        subsets = [
            {
                "literals": [str(lit) for lit in sorted(subset)],
                "partition": partition_id,
            }
            for subset, partition_id in sorted(
                self._subset_to_partition.items(),
                key=lambda item: (len(item[0]), sorted(map(str, item[0]))),
            )
        ]
        return {
            "max_subset_size": self.max_subset_size,
            "partitions": partitions,
            "subsets": subsets,
            "stats": {
                "subsets_considered": self.stats.subsets_considered,
                "partitions_computed": self.stats.partitions_computed,
                "build_seconds": self.stats.build_seconds,
            },
        }

    @classmethod
    def from_dict(cls, ba: BuchiAutomaton, data: dict) -> "ProjectionStore":
        """Rebuild a store from :meth:`to_dict` output against ``ba`` (the
        reloaded automaton, whose states must match the numbering the
        snapshot was written with).  Raises :class:`ProjectionError` on
        any structural mismatch — the persistence layer then falls back
        to recomputing the store from scratch.
        """
        store = cls.__new__(cls)
        try:
            cap = data["max_subset_size"]
            store._empty(ba, None if cap is None else int(cap))
            partitions = [
                {int(state): int(block) for state, block in pairs}
                for pairs in data["partitions"]
            ]
            subset_docs = [
                (
                    frozenset(parse_literal(s) for s in doc["literals"]),
                    int(doc["partition"]),
                )
                for doc in data["subsets"]
            ]
            stats = dict(data.get("stats", {}))
            store.stats = ProjectionStats(
                subsets_considered=int(stats.get("subsets_considered", 0)),
                partitions_computed=int(stats.get("partitions_computed", 0)),
                build_seconds=float(stats.get("build_seconds", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProjectionError(
                f"malformed projection document: {exc}"
            ) from exc
        for partition in partitions:
            if set(partition) != set(ba.states):
                raise ProjectionError(
                    "stored partition does not cover the automaton's states"
                )
            store._add_partition(partition, partition_signature(partition))
        for subset, partition_id in subset_docs:
            if not subset <= store.literals:
                raise ProjectionError(
                    f"stored subset {sorted(map(str, subset))} cites "
                    "literals the automaton does not"
                )
            if not 0 <= partition_id < len(store._partitions):
                raise ProjectionError(
                    f"partition id {partition_id} out of range"
                )
            store._subset_to_partition[subset] = partition_id
        return store

    def set_vocabulary(self, vocabulary: frozenset,
                       table: EventTable | None = None) -> None:
        """Encode over ``vocabulary`` (in ``table`` when given) from now
        on, dropping any quotient materialized otherwise."""
        table = self.table if table is None else table
        if vocabulary != self.vocabulary or table is not self.table:
            self.vocabulary, self.table = vocabulary, table
            self.use_encoding(None)

    def use_encoding(self, encoded: EncodedAutomaton | None,
                     seeds_mask: int = 0) -> None:
        """Build quotients from the contract's ``encoded`` BA and seed
        mask (over its vocabulary, in its table) from now on — without
        one, from the BA, encoded once on first use."""
        if encoded is not None:
            self.vocabulary, self.table = frozenset(encoded.events), encoded.table
        self._contract = None if encoded is None else (encoded, seeds_mask)
        self._quotients.clear()
        self.generation += 1

    # -- query-time use ------------------------------------------------------------

    def select(self, query_literals: Iterable[Literal]) -> BuchiAutomaton:
        """The smallest stored automaton equivalent to the contract for a
        query citing ``query_literals`` (Theorem 7 / Theorem 9); the full
        automaton if nothing smaller applies (the object reference)."""
        best = self._select_key(query_literals)
        return self.ba if best is None else quotient(
            project(self.ba, best[1]), self._partitions[best[0]])

    def select_artifacts(
        self, query_literals: Iterable[Literal]
    ) -> tuple[EncodedAutomaton, int]:
        """:meth:`select`'s automaton as the deciders take it: its
        encoding and §6.2.4 seed mask (the contract's own for the full
        BA); a quotient's are built once, on its first selection."""
        best = self._select_key(query_literals)
        return self._encoding() if best is None else self._materialize(best)

    def _encoding(self) -> tuple[EncodedAutomaton, int]:
        """The contract's (encoding, seed mask), built on first use."""
        if self._contract is None:
            encoded = encode_automaton(self.ba, self.vocabulary, self.table)
            self._contract = (encoded, compute_seeds_mask(encoded))
        return self._contract

    def _select_key(
        self, query_literals: Iterable[Literal]
    ) -> tuple[int, frozenset[Literal]] | None:
        """The ``(partition id, subset)`` of the smallest applicable
        stored projection, or ``None`` for the full-automaton fallback."""
        needed = required_literals(query_literals, self.literals)
        best: tuple[int, frozenset[Literal]] | None = None
        best_blocks = self.ba.num_states + 1
        for subset, partition_id in self._subset_to_partition.items():
            if not needed <= subset:
                continue
            blocks = self._block_counts[partition_id]
            if blocks < best_blocks:
                best_blocks = blocks
                best = (partition_id, subset)
        if best is None or best_blocks >= self.ba.num_states:
            return None
        return best

    def _materialize(
        self, key: tuple[int, frozenset[Literal]]
    ) -> tuple[EncodedAutomaton, int]:
        """The ``(encoding, seed mask)`` record of one stored projection,
        built on first use from the contract's (:func:`quotient_encoded`).

        Concurrent first uses may each build the record; it is published
        with one dict store *after* it is complete, so a reader sees all
        of it or none of it, and the duplicated work yields equal values.
        """
        record = self._quotients.get(key)
        if record is None:
            partition_id, subset = key
            encoded = quotient_encoded(
                self._encoding()[0], self._partitions[partition_id], subset)
            record = (encoded, compute_seeds_mask(encoded))
            self._quotients[key] = record
        return record

    # -- introspection ----------------------------------------------------------------

    @property
    def num_subsets(self) -> int:
        return len(self._subset_to_partition)

    @property
    def num_distinct_partitions(self) -> int:
        return len(self._partitions)

    @property
    def min_block_count(self) -> int:
        """The smallest stored quotient's block count — the best case a
        query can select here, the cheap cardinality stat the cost-based
        planner aggregates (the full automaton's size when nothing is
        stored)."""
        if not self._block_counts:
            return self.ba.num_states
        return min(self._block_counts)

    def partition_for(self, subset: frozenset[Literal]) -> list[frozenset]:
        """The stored bisimilar-state classes for one subset (for tests
        and introspection)."""
        partition_id = self._subset_to_partition.get(frozenset(subset))
        if partition_id is None:
            raise ProjectionError(f"no stored projection for {set(subset)}")
        return blocks_of(self._partitions[partition_id])

    def has_subset(self, subset: frozenset) -> bool:
        """True iff a projection for exactly this literal set is stored."""
        return frozenset(subset) in self._subset_to_partition

    def storage_estimate(self) -> int:
        """Entries needed to persist the store: per distinct partition its
        state->class list, plus the subset->partition map — the paper's
        'list of bisimilar states' footprint (§5.2)."""
        partition_entries = sum(len(p) for p in self._partitions)
        return partition_entries + len(self._subset_to_partition)
