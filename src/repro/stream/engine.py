"""The fleet engine: many contracts, one event stream, a watch-query
registry, and alert records.

Events arrive either addressed to one contract or broadcast to the
whole fleet (the common case for a shared event bus), all through one
entry point, :meth:`FleetMonitor.ingest`, whether a call carries one
record or a thousand.  Each delivery is one
:meth:`EncodedMonitor.advance` — a few dict hits and bitwise ORs — and
re-reads the contract's watch cells only if its frontier moved; an
:class:`Alert` fires when a verdict *flips*:

* a contract's frontier empties → ``"violated"`` (absorbing; the
  contract leaves the active set and costs nothing from then on);
* a registered watch query's winning mask no longer intersects the
  frontier → ``"watch-unsatisfiable"``.

All ``monitor.*`` metrics feed a
:class:`~repro.obs.metrics.MetricsRegistry`, so a fleet can be watched
exactly like the query path: ``monitor.events``, ``monitor.violations``,
``monitor.watch_flips``, ``monitor.alerts``, ``monitor.unknown_events``
and ``monitor.batches`` (``ingest`` calls that returned).
``monitor.events`` and ``monitor.unknown_events`` are added once per
``ingest`` call, not per delivery.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from ..automata.encode import EncodedAutomaton, encode_automaton
from ..errors import MonitorError
from ..obs.metrics import MetricsRegistry
from .encoded import _MEMO_CAP, EncodedMonitor, _as_query, _as_snapshot
from .options import MonitorOptions, MonitorStatus


@dataclass(frozen=True, init=False)
class Event:
    """One stream record: a snapshot addressed to one contract
    (``contract`` = its name) or broadcast to the fleet (``None``).
    ``__init__`` sets the slots directly: half the generated one's cost."""

    __slots__ = ("events", "contract")
    events: frozenset[str]
    contract: str | None

    def __init__(self, events: frozenset[str], contract: str | None = None):
        _set_events(self, events)
        _set_contract(self, contract)

    def __reduce__(self):  # the frozen __setattr__ refuses pickle's
        return Event, (self.events, self.contract)


_set_events, _set_contract = Event.events.__set__, Event.contract.__set__


@dataclass(frozen=True)
class Alert:
    """A verdict flip.

    ``event_index`` is the per-contract index of the triggering snapshot
    (``-1`` when the flip happened at registration time, before any
    event — e.g. a watch query that was never satisfiable)."""

    kind: str  #: ``"violated"`` or ``"watch-unsatisfiable"``
    contract: str
    contract_id: int | None
    watch: str | None
    event_index: int
    events: frozenset[str]

    def describe(self) -> str:
        suffix = f" watch={self.watch!r}" if self.watch else ""
        return (
            f"ALERT {self.kind} contract={self.contract!r}{suffix} "
            f"event={self.event_index} events={sorted(self.events)}"
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "contract": self.contract,
            "contract_id": self.contract_id,
            "watch": self.watch,
            "event_index": self.event_index,
            "events": sorted(self.events),
        }


@dataclass
class IngestReport:
    """The outcome of one :meth:`FleetMonitor.ingest` call."""

    #: stream records consumed
    events: int = 0
    #: contract-monitor advances performed (a broadcast fans out)
    deliveries: int = 0
    alerts: list[Alert] = field(default_factory=list)
    #: unknown-event observations across the call (counting mode)
    unknown_events: int = 0

    @property
    def violations(self) -> list[Alert]:
        return [a for a in self.alerts if a.kind == "violated"]


class _WatchState:
    """One (contract, watch) cell: the precomputed winning mask and the
    last satisfiability verdict (so alerts fire on *flips*, not on
    every event).

    Satisfiability is not monotone: the query restarts at its initial
    state on every prefix, so a frontier can move out of the winning
    region and later back into it.  The current verdict is therefore
    always ``frontier & mask``; ``satisfiable`` only remembers the one
    on the frontier the cells were last read on, for edge detection, and
    a watch that recovers re-arms (a later loss emits a fresh alert)."""

    __slots__ = ("name", "mask", "satisfiable")

    def __init__(self, name: str, mask: int, satisfiable: bool):
        self.name = name
        self.mask = mask
        self.satisfiable = satisfiable


class _WatchQuery:
    """A watch's automaton and its latest encoding, reused while it binds
    (a database fleet's monitors share one event table)."""

    __slots__ = ("query", "encoded")

    def __init__(self, query):
        self.query, self.encoded = query, None

    def over(self, contract: EncodedAutomaton) -> EncodedAutomaton:
        if isinstance(self.query, EncodedAutomaton):
            return self.query  # bind_query rebases it, or refuses
        if self.encoded is None or not self.encoded.binds_to(contract):
            self.encoded = encode_automaton(self.query, table=contract.table)
        return self.encoded


class FleetMonitor:
    """Streaming monitor over a fleet of encoded contracts.

    Contracts are added by name (usually via
    :meth:`repro.broker.database.ContractDatabase.monitor_fleet`); watch
    queries are registered per contract or fleet-wide.  Records are
    delivered by :meth:`ingest` alone; it and the registry calls are
    serialized by an internal lock, so one fleet can be fed from
    multiple threads.
    """

    def __init__(
        self,
        options: MonitorOptions | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.options = options or MonitorOptions()
        self.metrics = metrics or MetricsRegistry()
        self._monitors: dict[str, EncodedMonitor] = {}
        self._ids: dict[str, int | None] = {}
        self._active: dict[str, EncodedMonitor] = {}
        self._watches: dict[str, list[_WatchState]] = {}
        self._read_on: dict[str, int] = {}  # frontier the cells were read on
        #: fleet-wide watches, re-applied to contracts added later
        self._fleet_watches: list[tuple[str, _WatchQuery]] = []
        self._alerts: list[Alert] = []
        self._lock = threading.Lock()

    # -- registry ---------------------------------------------------------------

    def add_contract(
        self,
        name: str,
        encoded: EncodedAutomaton,
        *,
        contract_id: int | None = None,
    ) -> EncodedMonitor:
        """Start monitoring a contract from its registration-time
        encoding (which must cover the spec vocabulary)."""
        with self._lock:
            if name in self._monitors:
                raise MonitorError(f"contract {name!r} is already monitored")
            monitor = EncodedMonitor(encoded, self.options)
            self._monitors[name] = monitor
            self._ids[name] = contract_id
            self._watches[name] = []
            self._active[name] = monitor
            # a contract unsatisfiable from the start alerts now
            self._flips(name, monitor, frozenset(), None)
            for watch_name, query in self._fleet_watches:
                self._attach_watch(name, watch_name, query)
            return monitor

    def register_watch(
        self,
        name: str,
        query,
        contracts: Iterable[str] | None = None,
    ) -> None:
        """Register a watch query under ``name``: an LTL string /
        formula / BA / prebuilt encoding whose continued satisfiability
        is tracked per event.  ``contracts=None`` makes it fleet-wide
        (it also attaches to contracts added later)."""
        query = _WatchQuery(_as_query(query))
        with self._lock:
            if contracts is None:
                self._fleet_watches.append((name, query))
                targets = list(self._monitors)
            else:
                targets = list(contracts)
            for contract_name in targets:
                if contract_name not in self._monitors:
                    raise MonitorError(
                        f"cannot watch unknown contract {contract_name!r}"
                    )
                self._attach_watch(contract_name, name, query)

    def _attach_watch(
        self, contract_name: str, watch_name: str, query: _WatchQuery
    ) -> None:
        cells = self._watches[contract_name]
        if any(cell.name == watch_name for cell in cells):
            raise MonitorError(
                f"watch {watch_name!r} is already registered on "
                f"contract {contract_name!r}"
            )
        monitor = self._monitors[contract_name]
        mask = monitor.watch_mask(query.over(monitor.encoded))
        satisfiable = bool(monitor.frontier & mask)
        cells.append(_WatchState(watch_name, mask, satisfiable))
        self._read_on[contract_name] = -1  # stale after outside steps
        if not satisfiable:
            # never (or no longer) satisfiable at registration time
            self._emit(Alert(
                kind="watch-unsatisfiable", contract=contract_name,
                contract_id=self._ids[contract_name], watch=watch_name,
                event_index=monitor.events_seen - 1, events=frozenset(),
            ))

    # -- ingestion --------------------------------------------------------------

    def advance(self, contract: str, snapshot: Iterable[str]) -> list[Alert]:
        """Deliver one snapshot to one contract and return its alerts: a
        wrapper of :meth:`ingest`, kept for the end-to-end benchmark's
        ``trace_extras``, which times this entry point."""
        if contract is None:
            raise MonitorError("unknown contract None")
        return self.ingest((Event(_as_snapshot(snapshot), contract),)).alerts

    def ingest(self, events: Iterable) -> IngestReport:
        """Consume stream records — :class:`Event` instances,
        ``{"events": [...], "contract": ...}`` dicts (the JSONL record
        shape), or ``(contract_or_None, snapshot)`` pairs — and return
        an :class:`IngestReport`.  The only delivery path, for one record
        (the CLI's ``monitor``) or a thousand (the broker's
        :meth:`~repro.broker.database.ContractDatabase.ingest`).

        ``monitor.events`` / ``monitor.unknown_events`` are added once
        per call, in a ``finally``, so a call that raises partway still
        counts what it delivered; it does not count in
        ``monitor.batches``."""
        monitors, read_on = self._monitors, self._read_on
        alerts: list[Alert] = []
        consumed = deliveries = advanced = unknown = 0
        with self._lock:
            try:
                for record in events:
                    if type(record) is not Event:
                        record = _coerce_event(record)
                    consumed += 1
                    snap, name = record.events, record.contract
                    if name is None:
                        targets = list(self._active.items())
                    elif name in monitors:
                        targets = ((name, monitors[name]),)
                    else:
                        raise MonitorError(f"unknown contract {name!r}")
                    deliveries += len(targets)
                    for name, monitor in targets:
                        if not monitor._frontier:
                            continue  # violated: absorbing, nothing consumed
                        before = monitor.unknown_events
                        monitor.advance(snap)  # raises before any state change
                        unknown += monitor.unknown_events - before
                        advanced += 1
                        # moved since the cells were read, or emptied
                        frontier = monitor._frontier
                        if frontier != read_on[name] or not frontier:
                            self._flips(name, monitor, snap, alerts)
            finally:
                if advanced:
                    self.metrics.inc("monitor.events", advanced)
                if unknown:
                    self.metrics.inc("monitor.unknown_events", unknown)
        self.metrics.inc("monitor.batches")
        return IngestReport(consumed, deliveries, alerts, unknown)

    def _flips(
        self, name: str, monitor: EncodedMonitor, snap: frozenset, alerts
    ) -> None:
        """Read a contract's cells on its frontier, emit ``violated`` if it
        is empty, else ``watch-unsatisfiable`` per cell that flipped."""
        frontier = self._read_on[name] = monitor._frontier
        if not frontier:
            self._active.pop(name, None)
            self._emit(Alert(
                kind="violated", contract=name, contract_id=self._ids[name],
                watch=None, event_index=monitor.violation_index,
                events=snap,
            ), alerts)
        for cell in self._watches[name]:
            satisfiable = bool(frontier & cell.mask)
            if cell.satisfiable and not satisfiable and frontier:
                self._emit(Alert(
                    kind="watch-unsatisfiable", contract=name,
                    contract_id=self._ids[name], watch=cell.name,
                    event_index=monitor.events_seen - 1, events=snap,
                ), alerts)
            cell.satisfiable = satisfiable

    def _emit(self, alert: Alert, batch: list[Alert] | None = None) -> None:
        self._alerts.append(alert)
        if batch is not None:
            batch.append(alert)
        self.metrics.inc("monitor.alerts")
        if alert.kind == "violated":
            self.metrics.inc("monitor.violations")
        else:
            self.metrics.inc("monitor.watch_flips")

    # -- introspection ----------------------------------------------------------

    @property
    def contracts(self) -> tuple[str, ...]:
        return tuple(self._monitors)

    @property
    def active_contracts(self) -> tuple[str, ...]:
        return tuple(self._active)

    @property
    def alerts(self) -> tuple[Alert, ...]:
        return tuple(self._alerts)

    @property
    def unknown_event_count(self) -> int:
        return sum(m.unknown_events for m in self._monitors.values())

    def monitor(self, name: str) -> EncodedMonitor:
        try:
            return self._monitors[name]
        except KeyError:
            raise MonitorError(f"unknown contract {name!r}") from None

    def status(self, name: str) -> MonitorStatus:
        return self.monitor(name).status

    def watch_satisfiable(self, name: str, watch: str) -> bool:
        """The current verdict of a registered watch on one contract
        (recomputed from the live frontier — satisfiability can recover
        after a loss, see :class:`_WatchState`)."""
        monitor = self.monitor(name)
        for cell in self._watches.get(name, ()):
            if cell.name == watch:
                return bool(monitor.frontier & cell.mask)
        raise MonitorError(
            f"no watch {watch!r} registered on contract {name!r}"
        )

    def can_still(self, name: str, query) -> bool:
        """Ad-hoc satisfiability probe (no registration, no alerts)."""
        return self.monitor(name).can_still(query)

    def reset(self) -> None:
        """Rewind every monitor to its initial frontier and clear the
        accumulated alerts; registered watches stay registered (their
        verdicts are recomputed from the initial frontier)."""
        with self._lock:
            self._alerts.clear()
            self._active.clear()
            for name, monitor in self._monitors.items():
                monitor.reset()
                if not monitor.violated:
                    self._active[name] = monitor
                for cell in self._watches[name]:
                    cell.satisfiable = bool(monitor.frontier & cell.mask)
                self._read_on[name] = monitor.frontier


def _coerce_event(record) -> Event:
    if isinstance(record, Event):
        return record
    if isinstance(record, dict):
        return parse_event(record)
    if isinstance(record, tuple) and len(record) == 2:
        contract, snapshot = record
        return Event(_as_snapshot(snapshot), contract)
    raise MonitorError(
        f"cannot interpret stream record of type {type(record).__name__}"
    )


def parse_event(doc: dict) -> Event:
    """Parse one JSONL stream record: ``{"events": [...]}`` with an
    optional ``"contract"`` name (absent or ``null`` = broadcast)."""
    try:
        events = doc["events"]
    except (KeyError, TypeError):
        raise MonitorError(
            f"stream record must carry an 'events' list: {doc!r}"
        ) from None
    if type(events) is not list and not isinstance(  # a str is none of these
            events, (list, tuple, set, frozenset)):
        raise MonitorError(
            f"'events' must be a list of event names: {events!r}"
        )
    contract = doc.get("contract")
    if contract is not None and not isinstance(contract, str):
        raise MonitorError(f"'contract' must be a name or null: {contract!r}")
    return Event(frozenset(map(str, events)), contract)


#: the C scanner alone: a stripped line has no JSON whitespace to skip
_raw_decode = json.JSONDecoder().raw_decode


def read_event_log(lines: Iterable[str] | IO[str]) -> Iterator[Event]:
    """Iterate the events of a JSONL log (one record per line; blank
    lines and ``#`` comments are skipped).  A line already read in this
    call yields the same :class:`Event` again, without a decode."""
    seen: dict[str, Event] = {}  # line → its Event; only valid records
    recall = seen.get
    for lineno, line in enumerate(lines, start=1):
        event = recall(line)
        if event is not None:
            yield event
            continue
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            doc, end = _raw_decode(text)
        except (ValueError, RecursionError):
            end = -1
        if end != len(text):
            # json.loads words the error as it always has: "Extra data",
            # the BOM, nesting past the stack, the int-string limit
            try:
                doc = json.loads(text)
            except (ValueError, RecursionError) as exc:
                raise MonitorError(
                    f"event log line {lineno} is not valid JSON: {exc}"
                ) from None
        if type(doc) is not dict and not isinstance(doc, dict):
            raise MonitorError(
                f"event log line {lineno} must be a JSON object"
            )
        event = parse_event(doc)
        if len(seen) >= _MEMO_CAP:
            seen.clear()
        seen[line] = event
        yield event
