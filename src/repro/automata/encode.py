"""Flat integer/bitset encoding of Büchi automata over one event table.

Walking a :class:`~repro.automata.buchi.BuchiAutomaton` graph hashes
:class:`~repro.automata.labels.Label` / ``frozenset`` objects on every
step.  This module re-encodes an automaton once — at registration time —
into a form the permission search can traverse with nothing but machine
integers:

* **events** become bit positions in an :class:`EventTable`, one per
  database, which its set-trie and stream monitors read too;
* a contract's **vocabulary** becomes one mask, ``vocab_mask``;
* **labels** become ``(positive_mask, negative_mask)`` pairs of Python
  ints, deduplicated into a per-automaton label-class table;
* **states** become dense ints ``0..n-1``;
* **adjacency** becomes a CSR-style triple of ``array('q')`` rows
  (``offsets`` / ``trans_labels`` / ``trans_dsts``) preserving the exact
  per-state transition order of :meth:`BuchiAutomaton.successors`;
* **final states** become one bitset int.

Definition-7 compatibility then collapses to bitwise tests: a query
label is *admissible* iff ``(pos | neg) & ~contract.vocab_mask == 0``,
and two labels *conflict* iff ``(c.pos & t.neg) | (c.neg & t.pos)`` is
non-zero.  :func:`bind_query` precomputes both per label *class* (not
per transition), so the product search in
:func:`repro.core.permission.permits_encoded` only ever shifts ints.

A contract's vocabulary joins its table; a query never grows it: the
events it cites that the table lacks share the bit past the table
(``unknown_bit``; see :meth:`EncodedAutomaton.binds_to`).  Without a
table, :func:`encode_automaton` starts a fresh one over the sorted
vocabulary — the layout :meth:`EncodedAutomaton.to_dict` always writes.

Two invariants the rest of the system relies on:

* **order preservation** — the CSR rows list each state's transitions in
  the same order the object automaton yields them, and label classes are
  numbered in order of first use, so the deciders' visit order, their
  :class:`~repro.core.permission.PermissionStats` and the step at which
  a budget trips depend on the automaton alone, not on how, when or in
  which table it was encoded;
* **vocabulary soundness** — contract-label literals on events outside
  the supplied vocabulary are dropped from the masks.  This is exact,
  not an approximation: an admissible query label cannot cite such an
  event (condition (i) of Definition 7), so the dropped literals can
  never participate in a conflict with an admissible query label.
"""

from __future__ import annotations

import copy
import threading
from array import array
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

from ..errors import AutomatonError
from .buchi import BuchiAutomaton, State, _state_key


def _iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EventTable(dict):
    """An append-only map from event names to bit positions (``events``
    lists them by position): a database's encodings, set-trie and
    monitors all number events in one.  Only :meth:`intern` writes, under
    a small lock; reads take none.  Nothing persisted or sent over the
    wire names a position."""

    def __init__(self, events: Collection[str] = ()):
        super().__init__()
        self.events: list[str] = []
        self._lock = threading.Lock()
        self.intern(events)

    def intern(self, events: Collection[str]) -> int:
        """The mask of ``events``, appending those the table lacks."""
        with self._lock:
            for event in events:
                if event not in self:
                    self.events.append(event)
                    self[event] = len(self)
        return self.mask(events)

    def mask(self, events: Collection[str]) -> int:
        """The mask of those of the (distinct) ``events`` the table holds."""
        return sum(1 << self[event] for event in events if event in self)


class EncodedAutomaton:
    """A :class:`BuchiAutomaton` re-encoded into flat int/bitset form.

    Instances are immutable value objects built by
    :func:`encode_automaton` (or restored by :meth:`from_dict`).  The
    encoding is purely structural — it keeps a back-reference
    (``states``) from encoded ids to the original state values so
    results can be translated back when needed.  Its masks are over
    ``table``; ``events`` is the sorted vocabulary and ``unknown_bit``
    the bit of the events ``table`` lacked (only a query's is non-zero).
    """

    __slots__ = (
        "events", "table", "vocab_mask", "unknown_bit", "num_states",
        "initial", "final_mask", "offsets", "trans_labels", "trans_dsts",
        "label_pos", "label_neg", "states", "state_index",
    )

    def __init__(
        self,
        *,
        events: tuple[str, ...],
        table: EventTable,
        vocab_mask: int,
        unknown_bit: int = 0,
        num_states: int,
        initial: int,
        final_mask: int,
        offsets: array,
        trans_labels: array,
        trans_dsts: array,
        label_pos: tuple[int, ...],
        label_neg: tuple[int, ...],
        states: tuple[State, ...],
    ):
        self.events = events
        self.table = table
        self.vocab_mask = vocab_mask
        self.unknown_bit = unknown_bit
        self.num_states = num_states
        self.initial = initial
        self.final_mask = final_mask
        self.offsets = offsets
        self.trans_labels = trans_labels
        self.trans_dsts = trans_dsts
        self.label_pos = label_pos
        self.label_neg = label_neg
        self.states = states
        self.state_index: dict[State, int] = {s: i for i, s in enumerate(states)}

    # -- queries -----------------------------------------------------------------

    @property
    def num_transitions(self) -> int:
        return len(self.trans_dsts)

    @property
    def num_label_classes(self) -> int:
        return len(self.label_pos)

    def state_mask(self, states: Iterable[State]) -> int:
        """A bitset over encoded state ids for a set of *original* states
        (e.g. a precomputed seed set)."""
        mask = 0
        for state in states:
            mask |= 1 << self.state_index[state]
        return mask

    def is_final(self, state_id: int) -> bool:
        return bool((self.final_mask >> state_id) & 1)

    def successor_ids(self, state_id: int):
        """Destination ids of ``state_id``'s transitions (CSR slice)."""
        return self.trans_dsts[self.offsets[state_id]:self.offsets[state_id + 1]]

    def binds_to(self, contract: "EncodedAutomaton") -> bool:
        """Whether this query encoding may be bound to ``contract`` as is:
        one table, and no event the table lacked at encoding time has
        since become one of the contract's."""
        return self.table is contract.table and (
            not self.unknown_bit or contract.vocab_mask < self.unknown_bit
        )

    def rebased(self, table: EventTable, *, join: bool = False
                ) -> "EncodedAutomaton":
        """This encoding over ``table``, states and label classes as they
        are.  With ``join`` its events join the table (a contract's, e.g.
        a restored one entering its database's table); without, it is a
        query's, treated as :func:`encode_automaton` treats one."""
        if table is self.table:
            return self
        if self.unknown_bit:
            raise AutomatonError("re-encode a query over the new table")
        unknown = 0 if join else 1 << len(table)  # read before any lookup
        clone = copy.copy(self)
        clone.table = table
        clone.vocab_mask = (table.intern if join else table.mask)(self.events)
        if clone.vocab_mask.bit_count() < len(self.events):
            clone.unknown_bit = unknown
        source = self.table.events

        def move(mask: int) -> int:
            cited = [source[bit] for bit in _iter_bits(mask)]
            moved = table.mask(cited)
            return moved | unknown if moved.bit_count() < len(cited) else moved

        clone.label_pos = tuple(map(move, self.label_pos))
        clone.label_neg = tuple(map(move, self.label_neg))
        return clone

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (masks are arbitrary-precision ints, which JSON
        carries natively), label bit ``i`` being ``events[i]`` whatever
        the encoding's table: the bytes carry no table history."""
        own = self.rebased(EventTable(self.events))
        return {
            "events": list(self.events),
            "states": list(self.states),
            "initial": self.initial,
            "final": [i for i in range(self.num_states) if self.is_final(i)],
            "offsets": list(self.offsets),
            "trans_labels": list(self.trans_labels),
            "trans_dsts": list(self.trans_dsts),
            "label_pos": list(own.label_pos),
            "label_neg": list(own.label_neg),
        }

    @classmethod
    def from_dict(cls, ba: BuchiAutomaton, data: Mapping) -> "EncodedAutomaton":
        """Restore an encoding and structurally validate it against the
        automaton it claims to encode.

        The validation is cheap — state set, initial/final states,
        transition counts, id ranges, and label masks that cite only
        bits of ``events`` and no event in both polarities — and raises
        :class:`~repro.errors.AutomatonError` on any mismatch so the
        persistence layer's fallback ladder rebuilds the encoding from
        the automaton instead of trusting a stale artifact.  The result
        is over a fresh table of ``events``.
        """
        try:
            events = tuple(str(e) for e in data["events"])
            states = tuple(data["states"])
            state_set = set(states)  # an unhashable entry is malformed too
            initial = int(data["initial"])
            final_ids = [int(i) for i in data["final"]]
            offsets = array("q", data["offsets"])
            trans_labels = array("q", data["trans_labels"])
            trans_dsts = array("q", data["trans_dsts"])
            label_pos = tuple(int(m) for m in data["label_pos"])
            label_neg = tuple(int(m) for m in data["label_neg"])
        except (KeyError, TypeError, ValueError) as exc:
            raise AutomatonError(f"malformed encoded automaton: {exc}") from exc

        n = len(states)
        if list(events) != sorted(set(events)):
            raise AutomatonError("encoded events must be sorted and unique")
        if state_set != ba.states or len(states) != len(ba.states):
            raise AutomatonError("encoded state table does not match automaton")
        if not (0 <= initial < n) or states[initial] != ba.initial:
            raise AutomatonError("encoded initial state does not match automaton")
        if {states[i] for i in final_ids if 0 <= i < n} != ba.final or any(
            not (0 <= i < n) for i in final_ids
        ):
            raise AutomatonError("encoded final states do not match automaton")
        if len(offsets) != n + 1 or offsets[0] != 0 or offsets[-1] != len(trans_dsts):
            raise AutomatonError("encoded offsets are inconsistent")
        if any(offsets[i] > offsets[i + 1] for i in range(n)):
            raise AutomatonError("encoded offsets are not monotone")
        if len(trans_labels) != len(trans_dsts) or len(trans_dsts) != ba.num_transitions:
            raise AutomatonError("encoded transition count does not match automaton")
        if len(label_pos) != len(label_neg):
            raise AutomatonError("encoded label table is ragged")
        num_labels = len(label_pos)
        if any(not (0 <= l < num_labels) for l in trans_labels):
            raise AutomatonError("encoded transition cites unknown label class")
        if any(not (0 <= d < n) for d in trans_dsts):
            raise AutomatonError("encoded transition cites unknown state")
        vocab_mask = (1 << len(events)) - 1
        if any((p | q) & ~vocab_mask or p & q
               for p, q in zip(label_pos, label_neg)):
            raise AutomatonError("encoded label cites a bit past its "
                                 "events or an event in both polarities")

        final_mask = 0
        for i in final_ids:
            final_mask |= 1 << i
        return cls(
            events=events,
            table=EventTable(events),
            vocab_mask=vocab_mask,
            num_states=n,
            initial=initial,
            final_mask=final_mask,
            offsets=offsets,
            trans_labels=trans_labels,
            trans_dsts=trans_dsts,
            label_pos=label_pos,
            label_neg=label_neg,
            states=states,
        )

    def __repr__(self) -> str:
        return (
            f"EncodedAutomaton(states={self.num_states}, "
            f"transitions={self.num_transitions}, "
            f"label_classes={self.num_label_classes}, "
            f"events={len(self.events)})"
        )


def encode_automaton(
    ba: BuchiAutomaton,
    vocabulary: Iterable[str] | None = None,
    table: EventTable | None = None,
) -> EncodedAutomaton:
    """Encode ``ba`` over ``table`` (a fresh one of the sorted
    vocabulary when omitted).

    For a *contract* automaton pass the contract's full spec vocabulary:
    it joins the table as ``vocab_mask``, against which admissibility of
    query labels (Definition 7, condition (i)) is decided — a spec may
    cite events its reduced BA no longer mentions.  Without one the
    automaton is a *query* over its own label events, which never grow
    the table (see the module notes).
    """
    events = tuple(sorted(vocabulary if vocabulary is not None else ba.events()))
    if table is None:
        table = EventTable(events)
    if vocabulary is not None:
        unknown = 0  # literals outside the vocabulary are dropped
        keep = vocab_mask = table.intern(events)
    else:
        unknown = 1 << len(table)  # read before any lookup
        vocab_mask = table.mask(events)
        keep = -1
    position = table.get

    states = tuple(sorted(ba.states, key=_state_key))
    state_index = {s: i for i, s in enumerate(states)}

    label_ids: dict[tuple[int, int], int] = {}
    label_pos: list[int] = []
    label_neg: list[int] = []
    offsets = array("q", [0])
    trans_labels = array("q")
    trans_dsts = array("q")
    for state in states:
        for label, dst in ba.successors(state):
            pos_mask = neg_mask = 0
            for lit in label.literals:
                bit = position(lit.event)
                bit = unknown if bit is None else 1 << bit
                if lit.positive:
                    pos_mask |= bit
                else:
                    neg_mask |= bit
            masks = (pos_mask & keep, neg_mask & keep)
            label_id = label_ids.get(masks)
            if label_id is None:
                label_id = len(label_pos)
                label_ids[masks] = label_id
                label_pos.append(masks[0])
                label_neg.append(masks[1])
            trans_labels.append(label_id)
            trans_dsts.append(state_index[dst])
        offsets.append(len(trans_dsts))

    final_mask = 0
    for state in ba.final:
        final_mask |= 1 << state_index[state]

    return EncodedAutomaton(
        events=events,
        table=table,
        vocab_mask=vocab_mask,
        unknown_bit=unknown if vocab_mask.bit_count() < len(events) else 0,
        num_states=len(states),
        initial=state_index[ba.initial],
        final_mask=final_mask,
        offsets=offsets,
        trans_labels=trans_labels,
        trans_dsts=trans_dsts,
        label_pos=tuple(label_pos),
        label_neg=tuple(label_neg),
        states=states,
    )


#: How many successor lists a :class:`QueryBinding` may still hold when
#: a check ends; a check that leaves more clears the table.  Read off the
#: ``benchmarks/e2e`` database: its 11 285 warm bindings hold median 3,
#: p95 12, p99 28 and at most 83 lists, the ``pathological`` profile's
#: adversarial pair thousands.
SUCCESSOR_TABLE_LIMIT = 256


@dataclass(frozen=True)
class QueryBinding:
    """A query encoding's Definition-7 table against one contract.

    ``compat[q]`` is a bitset over the *contract's* label classes: bit
    ``c`` is set iff query label class ``q`` is admissible and does not
    conflict with contract label class ``c`` — i.e. the full Definition-7
    label test, precomputed once per (contract, query) pair.
    ``admissible[q]`` is kept separately for introspection; an
    inadmissible class always has an all-zero compat row.

    ``successors`` is the adjacency of the pair's compatibility product
    as far as a search has needed it: packed pair → packed successor
    pairs, a pure function of the two encodings and ``compat``.
    :func:`repro.core.permission.permits_encoded` fills it on a miss and
    bounds it by :data:`SUCCESSOR_TABLE_LIMIT`; it holds graph edges only
    — no verdict, no visited set, no counter — and lives exactly as long
    as whoever holds the binding.
    """

    admissible: tuple[bool, ...]
    compat: tuple[int, ...]
    successors: dict[int, tuple[int, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )


def bind_query(
    contract: EncodedAutomaton, query: EncodedAutomaton
) -> QueryBinding:
    """Precompute the per-label-class compatibility table between an
    encoded contract and an encoded query (rebased onto the contract's
    table first if it has another; refused if it does not bind to the
    contract as is — re-encode it then)."""
    if query.table is not contract.table:
        query = query.rebased(contract.table)
    elif not query.binds_to(contract):
        raise AutomatonError("the query encoding predates the contract")
    outside = ~contract.vocab_mask
    c_pos = contract.label_pos
    c_neg = contract.label_neg

    admissible: list[bool] = []
    compat: list[int] = []
    for q_pos, q_neg in zip(query.label_pos, query.label_neg):
        ok = not (q_pos | q_neg) & outside
        admissible.append(ok)
        row = 0
        if ok:
            for c in range(len(c_pos)):
                if not ((c_pos[c] & q_neg) | (c_neg[c] & q_pos)):
                    row |= 1 << c
        compat.append(row)
    return QueryBinding(admissible=tuple(admissible), compat=tuple(compat))
