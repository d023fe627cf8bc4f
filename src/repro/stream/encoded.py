"""The encoded-frontier monitor core.

One :class:`EncodedMonitor` tracks one contract.  All per-event work
happens on machine integers:

* the **frontier** (the set of automaton states consistent with the
  observed history, live states only) is one packed int;
* a snapshot is read once into a mask over the event table cut to the
  contract's ``vocab_mask``, the mask into the bitset of *satisfied
  label classes*, and that bitset into a per-state table of combined
  successor masks and a step memo (frontier → successor frontier) —
  memo layers, so a repeated snapshot from a frontier seen before
  advances with two dict hits and no bit walk;
* live-state pruning (states that can still contribute to an accepting
  run) is baked into the successor masks at compile time, so the
  frontier empties on the very event no allowed sequence survives.

Watch queries reduce to one precomputed int as well: see
:func:`winning_mask`, which reads it off the decider's own compatibility
product (:func:`repro.core.permission.lasso_components`) — there is one
product in the code base, and the stream's reference is the batch oracle
(:func:`repro.check.oracle.oracle_monitor`), not a second expansion.
"""

from __future__ import annotations

from typing import Iterable

from ..automata import graph
from ..automata.encode import (
    EncodedAutomaton,
    EventTable,
    QueryBinding,
    _iter_bits,
    bind_query,
    encode_automaton,
)
from ..core.permission import lasso_components
from ..errors import MonitorError
from .options import MonitorOptions, MonitorStatus

#: Memo-size cap: a streaming workload normally sees a small set of
#: distinct snapshots, but an adversarial stream must not grow the
#: tables without bound.  On overflow the memo is simply dropped and
#: rebuilt — correctness never depends on it.
_MEMO_CAP = 4096

#: read through the enum class, a member costs several global reads
_ACTIVE, _VIOLATED = MonitorStatus.ACTIVE, MonitorStatus.VIOLATED


def live_state_mask(enc: EncodedAutomaton) -> int:
    """Bitset of *live* state ids: reachable from the initial state and
    able to reach a cycle through a final state.  Only these states can
    contribute to an accepting run, so the frontier is restricted to
    them: emptiness — i.e. violation — is then detected on the first
    prefix ``h`` that no allowed sequence extends (``χ_h ∧ φ``
    unsatisfiable)."""
    reachable = graph.reachable_from(enc.initial, enc.successor_ids)
    cores = graph.states_on_accepting_cycles(
        reachable, enc.successor_ids, enc.is_final
    )
    live = graph.backward_reachable(cores, reachable, enc.successor_ids)
    mask = 0
    for state in live:
        mask |= 1 << state
    return mask


def compile_step_rows(
    enc: EncodedAutomaton, live_mask: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per-state transition rows ``((label_class, dst_mask), ...)`` with
    destinations restricted to ``live_mask`` and merged per label class.
    This is the compile-time half of the advance: at stream time a row
    entry participates iff its label class is satisfied by the
    snapshot."""
    rows = []
    for state in range(enc.num_states):
        by_class: dict[int, int] = {}
        for ti in range(enc.offsets[state], enc.offsets[state + 1]):
            dst = enc.trans_dsts[ti]
            if not (live_mask >> dst) & 1:
                continue
            label_class = enc.trans_labels[ti]
            by_class[label_class] = by_class.get(label_class, 0) | (1 << dst)
        rows.append(tuple(sorted(by_class.items())))
    return tuple(rows)


def _as_snapshot(snapshot: Iterable[str]) -> frozenset:
    """A snapshot as a frozenset of event names.  A bare string is
    refused, not read as a set of one-character events."""
    if isinstance(snapshot, frozenset):
        return snapshot
    if isinstance(snapshot, str):
        raise MonitorError(
            f"a snapshot must be a collection of event names, "
            f"not a string: {snapshot!r}"
        )
    return frozenset(snapshot)


def _as_query(query, table: EventTable | None = None):
    """An LTL string / formula / BA as a query automaton — encoded over
    ``table`` when one is given; a prebuilt encoding as it is."""
    from ..automata.ltl2ba import translate
    from ..ltl.ast import Formula
    from ..ltl.parser import parse

    if isinstance(query, str):
        query = parse(query)
    if isinstance(query, Formula):
        query = translate(query)
    if table is None or isinstance(query, EncodedAutomaton):
        return query
    return encode_automaton(query, table=table)


def winning_mask(
    contract: EncodedAutomaton,
    query: EncodedAutomaton,
    binding: QueryBinding | None = None,
    *,
    live_mask: int | None = None,
) -> int:
    """Bitset of contract states from which ``query`` is still
    permitted: state ``s`` is set iff the compatibility product holds a
    simultaneous lasso starting at ``(s, query.initial)``.

    This is the whole trick behind O(1) watch queries.  After a history
    ``h`` of length ``n`` the question is whether ``χ_h ∧ φ`` permits
    ``X^n query``: a simultaneous lasso whose first ``n`` steps replay
    ``h`` (leading the contract automaton into its frontier while the
    query waits) and whose rest is a lasso of the product entered at
    ``(s, query.initial)`` for some frontier state ``s`` — i.e.
    ``frontier & winning_mask != 0``, no product search per call.
    (Restricting to live contract states loses nothing: every contract
    state on a witness lasso can itself reach an accepting cycle.)

    The mask is computed once per (contract, query) pair on the
    decider's own product: :func:`repro.core.permission.lasso_components`
    walks it from every live ``(s, query.initial)`` and names its
    accepting components, and the winners are the pairs that reach one.
    """
    if live_mask is None:
        live_mask = live_state_mask(contract)
    if binding is None:
        binding = bind_query(contract, query)
    nq = query.num_states
    starts = [s * nq + query.initial for s in _iter_bits(live_mask)]
    adjacency, components = lasso_components(contract, query, binding, starts)
    winners = graph.backward_reachable(
        (p for component in components for p in component),
        adjacency,
        adjacency.__getitem__,
    )
    mask = 0
    for state, pair in zip(_iter_bits(live_mask), starts):
        if pair in winners:
            mask |= 1 << state
    return mask


class EncodedMonitor:
    """One contract's streaming monitor over the flat encoding.

    >>> monitor = EncodedMonitor(contract.encoded)
    >>> monitor.advance({"purchase"})
    >>> monitor.advance({"missedFlight"})
    >>> monitor.status
    <MonitorStatus.ACTIVE: 'active'>
    >>> monitor.can_still("F refund")
    True

    On every prefix ``h`` of the stream ``status``, ``can_still``,
    ``violation_index`` and ``unknown_events`` are what the batch
    decider answers on ``χ_h ∧ φ`` (invariant 13), at a per-event cost
    of a few dict hits.  Four memos, each cleared past ``_MEMO_CAP``
    entries and kept by :meth:`reset` (none holds history): snapshot →
    step table, satisfied classes → step table, (step table, frontier)
    → successor frontier (a single count over the per-table dicts),
    and query → winning mask.

    The encoding must cover the contract's full spec vocabulary
    (``encode_automaton(ba, spec.vocabulary)``), exactly as the broker
    builds it at registration time (``contract.encoded``).
    """

    __slots__ = (
        "encoded", "options", "live_mask", "rows",
        "_frontier", "_initial_frontier", "_events_seen",
        "_violation_index", "unknown_events",
        "_snap_memo", "_sat_tables", "_watch_memo", "_steps_n",
    )

    def __init__(
        self,
        encoded: EncodedAutomaton,
        options: MonitorOptions | None = None,
    ):
        self.encoded = encoded
        self.options = options or MonitorOptions()
        self.live_mask = live_state_mask(encoded)
        self.rows = compile_step_rows(encoded, self.live_mask)
        initial_bit = 1 << encoded.initial
        self._initial_frontier = initial_bit & self.live_mask
        self._frontier = self._initial_frontier
        self._events_seen = 0
        #: index of the first violating snapshot; ``-1`` when the
        #: contract is unsatisfiable from the start; ``None`` while ACTIVE
        self._violation_index: int | None = (
            None if self._frontier else -1
        )
        self.unknown_events = 0
        # snapshot -> (per-state step table, its step memo, unknown-event
        # count)
        self._snap_memo: dict[frozenset, tuple[tuple, dict, int]] = {}
        # satisfied-label-class bitset -> (per-state step table, step
        # memo frontier -> successor frontier), shared across snapshots
        # that satisfy the same classes
        self._sat_tables: dict[int, tuple[tuple, dict[int, int]]] = {}
        # entries stored in the step memos since they were last cleared
        self._steps_n = 0
        # query string -> winning mask
        self._watch_memo: dict[str, int] = {}

    # -- observation ------------------------------------------------------------

    def advance(self, snapshot: Iterable[str]) -> MonitorStatus:
        """Consume one snapshot and return the updated status.

        Violation is absorbing: once the frontier is empty the call
        returns immediately — no table work, no history, no
        unknown-event accounting (a violated monitor on an unbounded
        stream must not grow).  Events outside the contract vocabulary
        are counted on :attr:`unknown_events` or, under
        ``MonitorOptions.strict_vocabulary``, rejected with
        :class:`~repro.errors.MonitorError` before any state changes."""
        if not self._frontier:
            return _VIOLATED
        snap = (
            snapshot if isinstance(snapshot, frozenset)
            else _as_snapshot(snapshot)
        )
        entry = self._snap_memo.get(snap)
        if entry is None:
            entry = self._compile_snapshot(snap)
        table, steps, unknown = entry
        self.unknown_events += unknown
        frontier = self._frontier
        new = steps.get(frontier)
        if new is None:
            new, rest = 0, frontier
            while rest:
                # highest state first: a shift, not a negation and an AND
                top = rest.bit_length() - 1
                new |= table[top]
                rest ^= 1 << top
            if self._steps_n >= _MEMO_CAP:
                # empty every step memo a snapshot can still reach
                for memo in (self._sat_tables, self._snap_memo):
                    for held in memo.values():
                        held[1].clear()
                self._steps_n = 0
            steps[frontier] = new
            self._steps_n += 1
        self._frontier = new
        self._events_seen += 1
        if not new:
            self._violation_index = self._events_seen - 1
            return _VIOLATED
        return _ACTIVE

    def _compile_snapshot(
        self, snap: frozenset
    ) -> tuple[tuple[int, ...], dict[int, int], int]:
        """The memo-miss path: read a snapshot into its step table."""
        encoded = self.encoded
        mask = encoded.table.mask(snap) & encoded.vocab_mask
        unknown = len(snap) - mask.bit_count()
        if unknown and self.options.strict_vocabulary:
            bad = sorted(snap.difference(encoded.events))
            raise MonitorError(
                f"snapshot cites events outside the contract "
                f"vocabulary: {bad}"
            )
        sat = 0
        for label_class, (pos, neg) in enumerate(
            zip(encoded.label_pos, encoded.label_neg)
        ):
            if (pos & mask) == pos and not (neg & mask):
                sat |= 1 << label_class
        held = self._sat_tables.get(sat)
        if held is None:
            held = (tuple(
                self._combined_mask(row, sat) for row in self.rows
            ), {})
            if len(self._sat_tables) >= _MEMO_CAP:
                self._sat_tables.clear()
            self._sat_tables[sat] = held
        if len(self._snap_memo) >= _MEMO_CAP:
            self._snap_memo.clear()
        entry = (*held, unknown)
        self._snap_memo[snap] = entry
        return entry

    @staticmethod
    def _combined_mask(row: tuple[tuple[int, int], ...], sat: int) -> int:
        combined = 0
        for label_class, dst_mask in row:
            if (sat >> label_class) & 1:
                combined |= dst_mask
        return combined

    def reset(self) -> None:
        """Return to the initial frontier, keeping the compiled tables
        and memos (they are history-independent)."""
        self._frontier = self._initial_frontier
        self._events_seen = 0
        self._violation_index = None if self._frontier else -1
        self.unknown_events = 0

    # -- verdicts ----------------------------------------------------------------

    @property
    def frontier(self) -> int:
        """The packed state bitset consistent with the history."""
        return self._frontier

    @property
    def possible_states(self) -> frozenset:
        """The frontier translated back to original state values."""
        return frozenset(
            self.encoded.states[i] for i in _iter_bits(self._frontier)
        )

    @property
    def status(self) -> MonitorStatus:
        if not self._frontier:
            return _VIOLATED
        return _ACTIVE

    @property
    def violated(self) -> bool:
        return not self._frontier

    @property
    def events_seen(self) -> int:
        """Snapshots consumed (post-violation snapshots are not)."""
        return self._events_seen

    @property
    def violation_index(self) -> int | None:
        """Index of the first violating snapshot, ``-1`` for a contract
        unsatisfiable before any event, ``None`` while ACTIVE."""
        return self._violation_index

    def watch_mask(self, query) -> int:
        """The :func:`winning_mask` of a query against this contract,
        memoized for string queries (the common registry case)."""
        if isinstance(query, str):
            cached = self._watch_memo.get(query)
            if cached is not None:
                return cached
        mask = winning_mask(
            self.encoded,
            _as_query(query, self.encoded.table),
            live_mask=self.live_mask,
        )
        if isinstance(query, str):
            if len(self._watch_memo) >= _MEMO_CAP:
                self._watch_memo.clear()
            self._watch_memo[query] = mask
        return mask

    def can_still(self, query) -> bool:
        """Can the history still extend to an allowed sequence whose
        future satisfies ``query`` (LTL text, formula, BA or encoding)?
        Permission semantics as in the broker — the future uses only
        contract-vocabulary events — evaluated as one bitwise AND."""
        return bool(self._frontier & self.watch_mask(query))
