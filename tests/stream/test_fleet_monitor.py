"""Unit tests for the fleet engine: alerts, watch registry, batch
ingestion, JSONL parsing and metrics (:mod:`repro.stream.engine`)."""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.buchi import BuchiAutomaton, Transition
from repro.automata.encode import encode_automaton
from repro.automata.labels import Label, neg, pos
from repro.automata.ltl2ba import translate
from repro.check.strategies import EVENTS, contract_specs, formulas, snapshots
from repro.errors import MonitorError
from repro.ltl.parser import parse
from repro.stream import (
    Alert,
    EncodedMonitor,
    Event,
    FleetMonitor,
    IngestReport,
    MonitorOptions,
    MonitorStatus,
    parse_event,
    read_event_log,
)
from repro.stream.engine import _coerce_event


def encoded_for(text: str, vocabulary=None):
    formula = parse(text)
    vocab = vocabulary if vocabulary is not None else formula.variables()
    return encode_automaton(translate(formula), vocab)


def broadcast(fleet, snapshot):
    """One snapshot to every active contract, as a one-record
    ``ingest``; returns the alerts it triggered."""
    return fleet.ingest([Event(frozenset(snapshot))]).alerts


def flip_flop_encoded():
    """A hand-built contract whose frontier oscillates between a state
    where the watch query ``"a"`` is winnable (state 0) and one where it
    is not (state 1, all exits require ¬a): the non-monotone case."""
    ba = BuchiAutomaton(
        [0, 1],
        0,
        [
            Transition(0, Label.of([neg("a")]), 0),
            Transition(0, Label.of([pos("a")]), 1),
            Transition(1, Label.of([neg("a")]), 0),
        ],
        {0},
    )
    return encode_automaton(ba, frozenset({"a"}))


def ticking_encoded():
    """A hand-built contract whose frontier keeps moving after the watch
    ``"F b"`` is lost: ``a`` leads from state 0 (where ``b`` is still
    possible) into states 1 and 2, which alternate and forbid ``b``."""
    ba = BuchiAutomaton(
        [0, 1, 2],
        0,
        [
            Transition(0, Label.of([neg("a")]), 0),
            Transition(0, Label.of([pos("a"), neg("b")]), 1),
            Transition(1, Label.of([neg("b")]), 2),
            Transition(2, Label.of([neg("b")]), 1),
        ],
        {0, 1, 2},
    )
    return encode_automaton(ba, frozenset({"a", "b"}))


class TestRegistry:
    def test_duplicate_contract_rejected(self):
        fleet = FleetMonitor()
        fleet.add_contract("c", encoded_for("G a"))
        with pytest.raises(MonitorError):
            fleet.add_contract("c", encoded_for("G a"))

    def test_unknown_contract_rejected(self):
        fleet = FleetMonitor()
        with pytest.raises(MonitorError):
            fleet.advance("ghost", {"a"})
        with pytest.raises(MonitorError):
            fleet.status("ghost")

    def test_unsatisfiable_contract_alerts_at_registration(self):
        fleet = FleetMonitor()
        fleet.add_contract("doomed", encoded_for("false"))
        assert fleet.contracts == ("doomed",)
        assert fleet.active_contracts == ()
        (alert,) = fleet.alerts
        assert alert.kind == "violated"
        assert alert.contract == "doomed"
        assert alert.event_index == -1

    def test_contract_id_carried_into_alerts(self):
        fleet = FleetMonitor()
        fleet.add_contract("c", encoded_for("G !a"), contract_id=42)
        (alert,) = broadcast(fleet, {"a"})
        assert alert.contract_id == 42


class TestViolationAlerts:
    def test_violation_alert_fields(self):
        fleet = FleetMonitor()
        fleet.add_contract("no-refund", encoded_for("G !refund"))
        assert broadcast(fleet, {"purchase"}) == []
        (alert,) = broadcast(fleet, {"refund", "purchase"})
        assert alert.kind == "violated"
        assert alert.contract == "no-refund"
        assert alert.event_index == 1
        assert alert.events == frozenset({"refund", "purchase"})
        assert "ALERT violated contract='no-refund'" in alert.describe()
        assert alert.to_dict()["events"] == ["purchase", "refund"]

    def test_violated_contract_leaves_the_active_set(self):
        fleet = FleetMonitor()
        vocab = frozenset({"a", "b"})
        fleet.add_contract("no-a", encoded_for("G !a", vocab))
        fleet.add_contract("no-b", encoded_for("G !b", vocab))
        broadcast(fleet, {"a"})
        assert fleet.active_contracts == ("no-b",)
        assert fleet.status("no-a") is MonitorStatus.VIOLATED
        # further broadcasts no longer deliver to the violated contract
        broadcast(fleet, {"b"})
        assert fleet.active_contracts == ()
        assert len(fleet.alerts) == 2
        assert fleet.monitor("no-a").events_seen == 1


class TestWatchQueries:
    def test_fleet_wide_watch_attaches_to_later_contracts(self):
        fleet = FleetMonitor()
        fleet.register_watch("refundable", "F a")
        fleet.add_contract("never-a", encoded_for("G !a", frozenset({"a"})))
        # G !a can never serve F a: the watch flips at registration time
        (alert,) = fleet.alerts
        assert alert.kind == "watch-unsatisfiable"
        assert alert.watch == "refundable"
        assert alert.event_index == -1
        assert not fleet.watch_satisfiable("never-a", "refundable")

    def test_watch_on_unknown_contract_rejected(self):
        fleet = FleetMonitor()
        with pytest.raises(MonitorError):
            fleet.register_watch("w", "F a", contracts=["ghost"])

    def test_duplicate_watch_name_rejected(self):
        fleet = FleetMonitor()
        fleet.add_contract("c", encoded_for("G(a -> F b)"))
        fleet.register_watch("w", "F b", contracts=["c"])
        with pytest.raises(MonitorError):
            fleet.register_watch("w", "F a", contracts=["c"])

    def test_unregistered_watch_probe_rejected(self):
        fleet = FleetMonitor()
        fleet.add_contract("c", encoded_for("G a"))
        with pytest.raises(MonitorError):
            fleet.watch_satisfiable("c", "nope")

    def test_watch_flip_recovery_and_rearm(self):
        """Satisfiability is non-monotone: the verdict must track the
        live frontier, and a recovered watch must alert again on the
        next loss."""
        fleet = FleetMonitor()
        fleet.add_contract("flip", flip_flop_encoded())
        fleet.register_watch("next-a", "a", contracts=["flip"])
        assert fleet.watch_satisfiable("flip", "next-a")

        (alert,) = broadcast(fleet, {"a"})  # frontier -> state 1
        assert alert.kind == "watch-unsatisfiable"
        assert alert.event_index == 0
        assert not fleet.watch_satisfiable("flip", "next-a")

        assert broadcast(fleet, frozenset()) == []  # back to state 0
        assert fleet.watch_satisfiable("flip", "next-a")

        (alert,) = broadcast(fleet, {"a"})  # re-armed: flips again
        assert alert.kind == "watch-unsatisfiable"
        assert alert.event_index == 2

        (alert,) = broadcast(fleet, {"a"})  # state 1 has no a-exit
        assert alert.kind == "violated"
        assert not fleet.watch_satisfiable("flip", "next-a")
        assert fleet.can_still("flip", "a") is False

    def test_a_lost_watch_alerts_once_while_the_frontier_moves(self):
        fleet = FleetMonitor()
        fleet.add_contract("tick", ticking_encoded())
        fleet.register_watch("may-b", "F b")
        (alert,) = fleet.advance("tick", {"a"})
        assert (alert.watch, alert.event_index) == ("may-b", 0)
        frontiers = set()
        for _ in range(4):
            assert fleet.advance("tick", set()) == []
            frontiers.add(fleet.monitor("tick").frontier)
        assert len(frontiers) == 2  # it moved on every delivery
        assert not fleet.watch_satisfiable("tick", "may-b")
        assert len(fleet.alerts) == 1

    def test_reset_rewinds_monitors_watches_and_alerts(self):
        fleet = FleetMonitor()
        fleet.add_contract("flip", flip_flop_encoded())
        fleet.register_watch("next-a", "a")
        broadcast(fleet, {"a"})
        broadcast(fleet, {"a"})
        assert fleet.active_contracts == ()
        fleet.reset()
        assert fleet.alerts == ()
        assert fleet.active_contracts == ("flip",)
        assert fleet.watch_satisfiable("flip", "next-a")


class TestIngest:
    def test_mixed_record_shapes(self):
        fleet = FleetMonitor()
        vocab = frozenset({"a", "b"})
        fleet.add_contract("no-a", encoded_for("G !a", vocab))
        fleet.add_contract("no-b", encoded_for("G !b", vocab))
        report = fleet.ingest([
            Event(frozenset(), contract=None),
            {"events": ["b"], "contract": "no-a"},
            ("no-b", {"b"}),
        ])
        assert report.events == 3
        assert report.deliveries == 4  # the broadcast fans out to both
        assert [a.contract for a in report.violations] == ["no-b"]
        assert report.unknown_events == 0

    def test_unknown_events_accounted_per_batch(self):
        fleet = FleetMonitor()
        fleet.add_contract("c", encoded_for("G !a", frozenset({"a"})))
        first = fleet.ingest([{"events": ["zz-alien"]}])
        assert first.unknown_events == 1
        second = fleet.ingest([{"events": []}])
        assert second.unknown_events == 0
        assert fleet.unknown_event_count == 1

    def test_strict_fleet_raises_on_alien_events(self):
        fleet = FleetMonitor(MonitorOptions(strict_vocabulary=True))
        fleet.add_contract("c", encoded_for("G !a", frozenset({"a"})))
        with pytest.raises(MonitorError):
            fleet.ingest([{"events": ["zz-alien"]}])

    def test_unintelligible_record_rejected(self):
        fleet = FleetMonitor()
        with pytest.raises(MonitorError):
            fleet.ingest([object()])

    def test_metrics_counters(self):
        fleet = FleetMonitor()
        fleet.add_contract("flip", flip_flop_encoded())
        fleet.register_watch("next-a", "a")
        fleet.ingest([
            {"events": ["a"]},          # watch flip
            {"events": ["a", "zz"]},    # violation (+1 unknown event)
        ])
        metrics = fleet.metrics
        assert metrics.counter_value("monitor.events") == 2
        assert metrics.counter_value("monitor.alerts") == 2
        assert metrics.counter_value("monitor.violations") == 1
        assert metrics.counter_value("monitor.watch_flips") == 1
        assert metrics.counter_value("monitor.unknown_events") == 1
        assert metrics.counter_value("monitor.batches") == 1


class TestEventParsing:
    def test_parse_event_broadcast_and_addressed(self):
        assert parse_event({"events": ["a", "b"]}) == Event(
            frozenset({"a", "b"}), None
        )
        assert parse_event({"events": [], "contract": "c"}).contract == "c"
        assert parse_event({"events": [], "contract": None}).contract is None

    @pytest.mark.parametrize("doc", [
        {},                                  # no events
        {"events": "a"},                     # events is a string
        {"events": 3},                       # events not a list
        {"events": [], "contract": 7},       # contract not a name
    ])
    def test_parse_event_rejects_malformed(self, doc):
        with pytest.raises(MonitorError):
            parse_event(doc)

    def test_read_event_log_skips_blanks_and_comments(self):
        lines = [
            "# replay of 2026-08-07",
            "",
            '{"events": ["a"]}',
            "   ",
            '{"contract": "c", "events": []}',
        ]
        events = list(read_event_log(lines))
        assert events == [
            Event(frozenset({"a"}), None),
            Event(frozenset(), "c"),
        ]

    def test_read_event_log_reports_the_offending_line(self):
        with pytest.raises(MonitorError, match="line 2"):
            list(read_event_log(['{"events": []}', "not json"]))
        with pytest.raises(MonitorError, match="line 1"):
            list(read_event_log(["[1, 2]"]))


class TestPerCallAccounting:
    """``monitor.events`` / ``monitor.unknown_events`` are added once per
    call, and must still equal what the deliveries did one by one."""

    @staticmethod
    def fleet(options=None):
        fleet = FleetMonitor(options)
        vocab = frozenset({"a", "b"})
        fleet.add_contract("c1", encoded_for("G(a -> F b)", vocab))
        fleet.add_contract("c2", encoded_for("G !b", vocab))
        fleet.add_contract("c3", encoded_for("G(b -> X a)", frozenset({"a"})))
        return fleet

    @staticmethod
    def counters(fleet):
        return (fleet.metrics.counter_value("monitor.events"),
                fleet.metrics.counter_value("monitor.unknown_events"))

    @staticmethod
    def delivered(fleet):
        """Per-delivery truth: snapshots each monitor consumed and the
        unknown events it counted."""
        monitors = [fleet.monitor(name) for name in fleet.contracts]
        return (sum(m.events_seen for m in monitors),
                sum(m.unknown_events for m in monitors))

    def test_counters_equal_the_per_delivery_counts(self):
        fleet = self.fleet()
        report = fleet.ingest([
            {"events": ["a", "zz"]},
            {"events": ["b"], "contract": "c3"},
            ("c1", {"zz", "yy"}),
            {"events": ["b"]},                 # violates c2
            {"events": ["a"], "contract": "c2"},  # violated: not consumed
        ])
        assert report.deliveries == 9
        assert self.counters(fleet) == self.delivered(fleet)
        assert report.unknown_events == fleet.unknown_event_count
        before = fleet.unknown_event_count
        fleet.advance("c1", {"a", "zz"})
        fleet.advance("c2", {"a"})             # violated: not consumed
        broadcast(fleet, {"b", "zz"})
        assert self.counters(fleet) == self.delivered(fleet)
        assert fleet.unknown_event_count - before == 4
        report = fleet.ingest([{"events": ["zz"]}, {"events": []}])
        assert report.unknown_events == 2
        assert self.counters(fleet) == self.delivered(fleet)

    def test_a_batch_that_raises_counts_what_it_delivered(self):
        fleet = self.fleet()
        with pytest.raises(MonitorError, match="unknown contract 'ghost'"):
            fleet.ingest([
                {"events": ["zz"], "contract": "c1"},
                {"events": ["b", "yy"], "contract": "c3"},
                {"events": [], "contract": "ghost"},
                {"events": [], "contract": "c2"},
            ])
        assert self.counters(fleet) == self.delivered(fleet) == (2, 3)
        assert fleet.metrics.counter_value("monitor.batches") == 0

    def test_a_broadcast_that_raises_counts_what_it_delivered(self):
        fleet = self.fleet(MonitorOptions(strict_vocabulary=True))
        with pytest.raises(MonitorError):
            broadcast(fleet, {"b"})             # c3's vocabulary lacks b
        assert self.counters(fleet) == self.delivered(fleet) == (2, 0)


class TestEventContract:
    """``Event`` is a value: equal, hashable and immutable as the frozen
    dataclass it was, whatever its constructor costs."""

    def test_value_equality_and_hashing(self):
        event = Event(frozenset({"a", "b"}), "c")
        same = Event(events=frozenset({"b", "a"}), contract="c")
        assert event == same and hash(event) == hash(same)
        assert len({event, same, Event(frozenset({"a", "b"}))}) == 2
        assert event != Event(frozenset({"a"}), "c")
        assert event != (frozenset({"a", "b"}), "c")
        assert Event(frozenset()).contract is None
        assert repr(event) == (
            f"Event(events={frozenset({'a', 'b'})!r}, contract='c')"
        )

    def test_assignment_raises(self):
        event = Event(frozenset({"a"}), "c")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.events = frozenset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.contract = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            del event.contract
        with pytest.raises(AttributeError):
            event.other = 1
        assert event == Event(frozenset({"a"}), "c")

    def test_copies_and_parsed_records_are_equal(self):
        event = Event(frozenset({"a"}), "c")
        assert pickle.loads(pickle.dumps(event)) == event
        assert copy.deepcopy(event) == event
        assert dataclasses.replace(event, contract=None) == Event(
            frozenset({"a"})
        )
        assert parse_event({"events": ["a"], "contract": "c"}) == event
        assert parse_event({"events": ("a",)}) == Event(frozenset({"a"}))


class TestBareStringSnapshots:
    """A snapshot is a collection of event names: a bare string is an
    error at every entry point, not a set of its characters."""

    @staticmethod
    def fleet():
        fleet = FleetMonitor()
        fleet.add_contract("c", encoded_for("G !z", frozenset({"a", "z"})))
        return fleet

    @staticmethod
    def untouched(fleet):
        monitor = fleet.monitor("c")
        assert monitor.events_seen == 0 and fleet.alerts == ()
        assert fleet.metrics.counter_value("monitor.events") == 0

    def test_fleet_advance(self):
        fleet = self.fleet()
        with pytest.raises(MonitorError, match="not a string: 'zz'"):
            fleet.advance("c", "zz")
        self.untouched(fleet)

    def test_fleet_ingest_pair(self):
        fleet = self.fleet()
        with pytest.raises(MonitorError, match="not a string: 'zz'"):
            fleet.ingest([("c", "zz")])
        self.untouched(fleet)

    def test_fleet_broadcast(self):
        fleet = self.fleet()
        with pytest.raises(MonitorError, match="not a string: 'a'"):
            fleet.ingest([(None, "a")])
        self.untouched(fleet)

    def test_encoded_monitor_advance(self):
        monitor = EncodedMonitor(encoded_for("G !z", frozenset({"a", "z"})))
        with pytest.raises(MonitorError, match="not a string: 'za'"):
            monitor.advance("za")
        assert monitor.events_seen == 0 and monitor.unknown_events == 0
        # a collection of names is still read as one
        assert monitor.advance(["a"]) is MonitorStatus.ACTIVE
        assert monitor.advance(("z",)) is MonitorStatus.VIOLATED


class ReferenceFleet(FleetMonitor):
    """The fleet as it was before cells were re-read only on a moved
    frontier: every delivery re-reads every watch cell of its contract,
    and counters are added per delivery.  Registration, ``reset`` and
    ``advance`` are the engine's."""

    def ingest(self, events):
        consumed = deliveries = unknown = 0
        alerts = []
        for record in events:
            event = _coerce_event(record)
            consumed += 1
            targets = (list(self._active) if event.contract is None
                       else [event.contract])
            deliveries += len(targets)
            for name in targets:
                monitor = self._monitors.get(name)
                if monitor is None:
                    raise MonitorError(f"unknown contract {name!r}")
                if monitor.violated:
                    continue
                before = monitor.unknown_events
                status = monitor.advance(event.events)
                self.metrics.inc("monitor.events")
                if monitor.unknown_events > before:
                    self.metrics.inc("monitor.unknown_events",
                                     monitor.unknown_events - before)
                    unknown += monitor.unknown_events - before
                self._reread(name, monitor, status, event.events, alerts)
        self.metrics.inc("monitor.batches")
        return IngestReport(consumed, deliveries, alerts, unknown)

    def _reread(self, name, monitor, status, snap, alerts):
        if status is MonitorStatus.VIOLATED:
            self._active.pop(name, None)
            self._emit(Alert(
                "violated", name, self._ids[name], None,
                monitor.violation_index, snap,
            ), alerts)
            for cell in self._watches[name]:
                cell.satisfiable = False
            return
        for cell in self._watches[name]:
            satisfiable = bool(monitor.frontier & cell.mask)
            if cell.satisfiable and not satisfiable:
                self._emit(Alert(
                    "watch-unsatisfiable", name, self._ids[name], cell.name,
                    monitor.events_seen - 1, snap,
                ), alerts)
            cell.satisfiable = satisfiable


ALIEN = "zz-alien"
COUNTERS = ("monitor.events", "monitor.unknown_events", "monitor.alerts",
            "monitor.violations", "monitor.watch_flips", "monitor.batches")
#: contract slots; a slot past the fleet's contracts is the name "ghost"
TARGETS = st.integers(min_value=0, max_value=5)
SNAPSHOTS = snapshots(EVENTS + (ALIEN,))
RECORDS = st.tuples(
    st.sampled_from(["event", "dict", "pair"]),
    st.none() | TARGETS,
    SNAPSHOTS,
)
OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("ingest"), st.lists(RECORDS, max_size=6)),
    st.tuples(st.just("advance"), TARGETS, SNAPSHOTS),
    st.tuples(st.just("outside-advance"), TARGETS, SNAPSHOTS),
    st.tuples(st.just("outside-reset"), TARGETS),
    st.tuples(st.just("watch"), st.integers(0, 4), st.none() | TARGETS),
    st.tuples(st.just("reset")),
), max_size=12)


def as_record(kind, name, snap):
    if kind == "event":
        return Event(snap, name)
    if kind == "dict":
        return {"events": sorted(snap), "contract": name}
    return (name, set(snap))


class TestOneDeliveryLoop:
    """Differential: the fleet against :class:`ReferenceFleet` over
    random operation sequences — addressed, broadcast, dict and pair
    records; violations; watch loss, recovery and re-arm; unknown
    events; strict-vocabulary and unknown-contract errors mid-batch;
    steps and resets taken on a monitor outside its fleet; watches
    registered mid-stream."""

    @staticmethod
    def build(cls, strict, specs, watches):
        fleet = cls(MonitorOptions(strict_vocabulary=strict))
        for name, encoded in specs:
            fleet.add_contract(name, encoded, contract_id=len(name))
        fleet.register_watch("w", watches[0])
        fleet.register_watch("may-b", watches[1])
        return fleet

    @staticmethod
    def apply(fleet, op, names, watches, serial):
        """One operation; returns what it returned, or its error."""
        def name_of(slot):
            if slot is None:
                return None
            return names[slot] if slot < len(names) else "ghost"

        kind = op[0]
        try:
            if kind == "ingest":
                report = fleet.ingest([
                    as_record(record_kind, name_of(slot), snap)
                    for record_kind, slot, snap in op[1]
                ])
                return (report.events, report.deliveries, report.alerts,
                        report.unknown_events, report.violations)
            if kind == "advance":
                return fleet.advance(name_of(op[1]), op[2])
            if kind == "outside-advance":
                return fleet.monitor(name_of(op[1])).advance(op[2])
            if kind == "outside-reset":
                return fleet.monitor(name_of(op[1])).reset()
            if kind == "watch":
                target = name_of(op[2])
                return fleet.register_watch(
                    f"w{serial}", watches[op[1] % len(watches)],
                    None if target is None else [target],
                )
            return fleet.reset()
        except MonitorError as exc:
            return ("error", str(exc))

    @staticmethod
    def observe(fleet, names, watch_names):
        cells = {}
        for name in names:
            for watch in watch_names:
                try:
                    cells[name, watch] = fleet.watch_satisfiable(name, watch)
                except MonitorError:
                    pass
        monitors = [fleet.monitor(name) for name in names]
        return (
            fleet.alerts,
            fleet.active_contracts,
            tuple(fleet.metrics.counter_value(c) for c in COUNTERS),
            cells,
            [(m.frontier, m.events_seen, m.unknown_events,
              m.violation_index) for m in monitors],
        )

    @given(
        st.lists(contract_specs(), min_size=1, max_size=3),
        st.lists(formulas(max_depth=2), min_size=1, max_size=3),
        st.booleans(),
        OPERATIONS,
    )
    @settings(max_examples=300, deadline=None)
    def test_alerts_reports_counters_and_cells_match(
        self, specs, formulas_, strict, operations
    ):
        contracts = [("flip", flip_flop_encoded()),
                     ("tick", ticking_encoded())] + [
            (spec.name,
             encode_automaton(translate(spec.formula), spec.vocabulary))
            for spec in {spec.name: spec for spec in specs}.values()
        ]
        names = [name for name, _ in contracts]
        watches = [translate(parse("a")), translate(parse("F b"))] + [
            translate(f) for f in formulas_]
        fleet = self.build(FleetMonitor, strict, contracts, watches)
        reference = self.build(ReferenceFleet, strict, contracts, watches)
        watch_names = ["w", "may-b"]
        assert self.observe(fleet, names, watch_names) == self.observe(
            reference, names, watch_names)
        for serial, op in enumerate(operations):
            if op[0] == "watch":
                watch_names.append(f"w{serial}")
            got = self.apply(fleet, op, names, watches, serial)
            expected = self.apply(reference, op, names, watches, serial)
            assert got == expected, op
            assert self.observe(fleet, names, watch_names) == self.observe(
                reference, names, watch_names), op

    def test_a_step_taken_outside_the_fleet_flips_on_the_next_delivery(self):
        """The cells were read on the initial frontier; a monitor step
        made outside the fleet moves it out of the watch's winning
        region, and the next delivery — which leaves the frontier where
        that step put it — must still report the loss."""
        vocab = frozenset({"a", "b"})
        for cls in (FleetMonitor, ReferenceFleet):
            fleet = cls()
            fleet.add_contract("c", encoded_for("G(a -> X G !b)", vocab))
            fleet.register_watch("may-b", "F b")
            outside = fleet.monitor("c")
            outside.advance({"a"})
            moved = outside.frontier
            assert fleet.alerts == ()
            (alert,) = fleet.advance("c", set())
            assert fleet.monitor("c").frontier == moved
            assert (alert.kind, alert.watch, alert.event_index) == (
                "watch-unsatisfiable", "may-b", 1)

    def test_a_monitor_reset_outside_the_fleet_is_violated_again(self):
        """The cells were last read on an empty frontier; after a reset
        made outside the fleet, a delivery that empties the frontier
        again leaves it where they were read and must still alert."""
        for cls in (FleetMonitor, ReferenceFleet):
            fleet = cls()
            fleet.add_contract("c", encoded_for("G !a", frozenset({"a"})))
            fleet.advance("c", {"a"})
            fleet.monitor("c").reset()
            (alert,) = fleet.advance("c", {"a"})
            assert (alert.kind, alert.event_index) == ("violated", 0)
            assert len(fleet.alerts) == 2


class TestReaderMemo:
    """The reader's line memo is invisible to a fleet: a log that
    repeats its lines, the same log with a unique ``"seq"`` key on
    every line (all lines distinct, so the memo never hits) and its
    records handed to ``ingest`` as dicts (no reader) give equal
    reports, errors, alerts, frontiers and counters."""

    @staticmethod
    def replay(fleet, records, batch):
        reports = []
        for start in range(0, len(records), batch):
            try:
                report = fleet.ingest(records[start:start + batch])
            except MonitorError as exc:
                reports.append(("error", str(exc)))
            else:
                reports.append(dataclasses.astuple(report))
        return reports

    @given(
        st.lists(contract_specs(), min_size=1, max_size=3),
        st.lists(st.tuples(st.none() | TARGETS, SNAPSHOTS),
                 min_size=1, max_size=6),
        st.lists(st.integers(0, 5), max_size=60),
        st.integers(1, 25),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_repeating_log_equals_its_all_distinct_copy(
        self, specs, pool, picks, batch, strict
    ):
        contracts = [("flip", flip_flop_encoded()),
                     ("tick", ticking_encoded())] + [
            (spec.name,
             encode_automaton(translate(spec.formula), spec.vocabulary))
            for spec in {spec.name: spec for spec in specs}.values()
        ]
        names = [name for name, _ in contracts]
        docs = []
        for slot, snap in (pool[pick % len(pool)] for pick in picks):
            doc = {"events": sorted(snap)}
            if slot is not None:
                doc["contract"] = names[slot] if slot < len(names) else "ghost"
            docs.append(doc)
        watches = [translate(parse("a")), translate(parse("F b"))]
        sides = []
        repeating = [json.dumps(doc) for doc in docs]
        distinct = [json.dumps({**doc, "seq": i})
                    for i, doc in enumerate(docs)]
        for records in (
            list(read_event_log(repeating)),
            list(read_event_log(distinct)),
            docs,
        ):
            fleet = TestOneDeliveryLoop.build(
                FleetMonitor, strict, contracts, watches)
            sides.append((
                self.replay(fleet, records, batch),
                TestOneDeliveryLoop.observe(fleet, names, ["w", "may-b"]),
            ))
        assert sides[0] == sides[1] == sides[2]
