"""Bisimulation partition refinement and quotient automata.

This is the engine behind the paper's §5 optimization: collapsing
bisimilar states of (projected) contract BAs yields smaller automata that
are *equivalent* for permission checking (Theorems 8 and 9).  It is also
reused as a generic state-reduction pass after LTL translation.

Definition 9 of the paper: states ``a ~ b`` iff

1. ``a`` is final iff ``b`` is final, and
2. for every edge ``a --λ--> a'`` there is ``b --λ--> b'`` with
   ``a' ~ b'``, and vice versa.

The coarsest such relation is computed by *signature refinement*: start
from the {final, non-final} partition (possibly pre-refined by a caller-
supplied partition — see :func:`bisimulation_partition`'s ``seed``) and
repeatedly split blocks by the set of ``(label, successor block)``
pairs until stable.  Seeding is what makes the all-subsets projection
computation of §5.3 cheap: by Theorem 3 the partition for a literal set
``L' ⊇ L`` refines the one for ``L``, so refinement can resume from the
parent's partition instead of restarting from scratch.

There is one refinement loop, :func:`refine_partition`, over dense ints.
:func:`bisimulation_partition` numbers an object automaton's states and
labels and calls it; the projection store calls it directly on the flat
encoding, once per literal subset, without building the projected
automaton.  Likewise :func:`quotient_encoded` is :func:`quotient` of a
projection built on the flat encoding, the store's first-use quotient.
"""

from __future__ import annotations

from array import array
from typing import Hashable, Iterable, Sequence

from .buchi import BuchiAutomaton, Transition, _state_key
from .encode import EncodedAutomaton, _iter_bits
from .labels import Label, Literal

State = Hashable

#: A partition is a mapping from state to block id.  Block ids are dense
#: integers; the ones this module computes are numbered first-seen in
#: ``_state_key`` order of the states, so equal partitions are equal
#: mappings.
Partition = dict


def initial_partition(ba: BuchiAutomaton) -> Partition:
    """The {final, non-final} split (point 1 of Definition 9)."""
    out: Partition = {}
    for state in ba.states:
        out[state] = 1 if state in ba.final else 0
    return out


def refine_partition(
    rows: Sequence[Iterable[tuple[int, int]]],
    blocks: Iterable[Hashable],
) -> list[int]:
    """The coarsest refinement of ``blocks`` stable under Definition 9's
    point 2, on dense ints — the one refinement loop of the system.

    ``rows[state]`` lists the state's transitions as ``(label id, dst)``
    pairs (states are ``0..n-1``, label ids any ints; repeats are
    harmless) and ``blocks[state]`` is any hashable naming the state's
    initial block.  Each round splits every block by the *set* of
    ``(label id, successor block)`` pairs of its states, until a round
    splits nothing.

    Blocks are numbered first-seen in state order, in every round and so
    in the result: the returned ids are a function of the partition
    alone, not of the initial block names or of the rounds it took.
    """
    renumber: dict = {}
    current = [renumber.setdefault(b, len(renumber)) for b in blocks]
    while len(renumber) < len(rows):
        count = len(renumber)
        renumber = {}
        current = [
            renumber.setdefault(
                (block, frozenset([(label, current[dst]) for label, dst in row])),
                len(renumber),
            )
            for block, row in zip(current, rows)
        ]
        if len(renumber) == count:
            break
    return current


def bisimulation_partition(
    ba: BuchiAutomaton,
    seed: Partition | None = None,
) -> Partition:
    """The coarsest bisimulation partition of ``ba`` (Definition 9): the
    object-automaton adapter over :func:`refine_partition`, with states
    taken in ``_state_key`` order (the order
    :func:`~repro.automata.encode.encode_automaton` numbers them in).

    Args:
        ba: the automaton.
        seed: an optional partition known to be *coarser* than (or equal
            to) the target — typically the partition of a smaller literal
            projection (Theorem 3).  Refinement resumes from it, saving
            the early rounds.  It is intersected with the final/non-final
            split, so a caller cannot accidentally violate point 1.
    """
    states = sorted(ba.states, key=_state_key)
    index = {state: i for i, state in enumerate(states)}
    label_ids: dict[Label, int] = {}
    rows = [
        [
            (label_ids.setdefault(label, len(label_ids)), index[dst])
            for label, dst in ba.successors(state)
        ]
        for state in states
    ]
    base = initial_partition(ba)
    blocks = (
        [base[state] for state in states]
        if seed is None
        else [(seed[state], base[state]) for state in states]
    )
    return dict(zip(states, refine_partition(rows, blocks)))


def blocks_of(partition: Partition) -> list[frozenset]:
    """The partition as a list of state blocks, ordered by block id."""
    by_id: dict[int, set] = {}
    for state, block in partition.items():
        by_id.setdefault(block, set()).add(state)
    return [frozenset(by_id[i]) for i in sorted(by_id)]


def quotient(ba: BuchiAutomaton, partition: Partition) -> BuchiAutomaton:
    """The quotient automaton of Definition 10.

    States are block ids; the initial state is the block of the original
    initial state; a block is final iff it contains only final states
    (blocks are final-pure because refinement starts from the
    final/non-final split); transitions are the images of the original
    ones, deduplicated.
    """
    block_ids = set(partition.values())
    transitions: set[tuple[int, Label, int]] = set()
    for t in ba.transitions():
        transitions.add((partition[t.src], t.label, partition[t.dst]))
    impure = {partition[s] for s in ba.states if s not in ba.final}
    final = block_ids - impure
    return BuchiAutomaton(
        block_ids,
        partition[ba.initial],
        [Transition(src, label, dst) for src, label, dst in transitions],
        final,
    )


def quotient_encoded(
    enc: EncodedAutomaton, partition: Partition, keep: Iterable[Literal]
) -> EncodedAutomaton:
    """``encode_automaton(quotient(project(ba, keep), partition),
    vocabulary, table)`` field for field, built on ``enc``: ``ba``'s
    encoding over ``vocabulary`` (which holds ``ba``'s events) in ``table``.

    Blocks are numbered in ``_state_key`` order; a block's transitions
    are the deduplicated images of its members', ordered as
    :class:`BuchiAutomaton` orders them (restricted label's ``sort_key``,
    then destination); label classes are numbered by first use.  So the
    result never depends on ``enc``'s state or label-class order.
    """
    blocks = sorted(set(partition.values()), key=_state_key)
    index = {block: i for i, block in enumerate(blocks)}
    target = [index[partition[state]] for state in enc.states]
    keep_pos = enc.table.mask([l.event for l in keep if l.positive])
    keep_neg = enc.table.mask([l.event for l in keep if not l.positive])
    restricted = [(pos & keep_pos, neg & keep_neg)
                  for pos, neg in zip(enc.label_pos, enc.label_neg)]
    rows: list[set] = [set() for _ in blocks]
    impure = 0
    offsets, labels, dsts = enc.offsets, enc.trans_labels, enc.trans_dsts
    for state, src in enumerate(target):
        lo, hi = offsets[state], offsets[state + 1]
        rows[src].update(zip(map(restricted.__getitem__, labels[lo:hi]),
                             map(target.__getitem__, dsts[lo:hi])))
        if not enc.is_final(state):
            impure |= 1 << src
    events = enc.table.events
    sort_keys = {
        masks: sorted([(events[b], True) for b in _iter_bits(masks[0])]
                      + [(events[b], False) for b in _iter_bits(masks[1])])
        for masks in set(restricted)
    }
    label_ids: dict[tuple[int, int], int] = {}
    out_offsets, out_labels, out_dsts = array("q", [0]), array("q"), array("q")
    for row in rows:
        for masks, dst in sorted(row, key=lambda t: (sort_keys[t[0]], t[1])):
            out_labels.append(label_ids.setdefault(masks, len(label_ids)))
            out_dsts.append(dst)
        out_offsets.append(len(out_dsts))
    return EncodedAutomaton(
        events=enc.events, table=enc.table, vocab_mask=enc.vocab_mask,
        unknown_bit=enc.unknown_bit, num_states=len(blocks),
        initial=target[enc.initial],
        final_mask=((1 << len(blocks)) - 1) & ~impure, offsets=out_offsets,
        trans_labels=out_labels, trans_dsts=out_dsts,
        label_pos=tuple(pos for pos, _ in label_ids),
        label_neg=tuple(neg for _, neg in label_ids), states=tuple(blocks),
    )


def quotient_by_bisimulation(ba: BuchiAutomaton) -> BuchiAutomaton:
    """Convenience: quotient by the coarsest bisimulation."""
    return quotient(ba, bisimulation_partition(ba))


def partition_signature(partition: Partition) -> frozenset:
    """A canonical, block-id-independent fingerprint of a partition: the
    frozenset of its blocks.  Two partitions with equal signatures induce
    identical quotients; the projection store uses this to deduplicate
    (the paper observed ~5% distinct partitions across subsets, §5.2)."""
    return frozenset(blocks_of(partition))
