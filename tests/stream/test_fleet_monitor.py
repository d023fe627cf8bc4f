"""Unit tests for the fleet engine: alerts, watch registry, batch
ingestion, JSONL parsing and metrics (:mod:`repro.stream.engine`)."""

import pytest

from repro.automata.buchi import BuchiAutomaton, Transition
from repro.automata.encode import encode_automaton
from repro.automata.labels import Label, neg, pos
from repro.automata.ltl2ba import translate
from repro.errors import MonitorError
from repro.ltl.parser import parse
from repro.stream import (
    Alert,
    Event,
    FleetMonitor,
    MonitorOptions,
    MonitorStatus,
    parse_event,
    read_event_log,
)


def encoded_for(text: str, vocabulary=None):
    formula = parse(text)
    vocab = vocabulary if vocabulary is not None else formula.variables()
    return encode_automaton(translate(formula), vocab)


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
        (alert,) = fleet.broadcast({"a"})
        assert alert.contract_id == 42


class TestViolationAlerts:
    def test_violation_alert_fields(self):
        fleet = FleetMonitor()
        fleet.add_contract("no-refund", encoded_for("G !refund"))
        assert fleet.broadcast({"purchase"}) == []
        (alert,) = fleet.broadcast({"refund", "purchase"})
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
        fleet.broadcast({"a"})
        assert fleet.active_contracts == ("no-b",)
        assert fleet.status("no-a") is MonitorStatus.VIOLATED
        # further broadcasts no longer deliver to the violated contract
        fleet.broadcast({"b"})
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

        (alert,) = fleet.broadcast({"a"})  # frontier -> state 1
        assert alert.kind == "watch-unsatisfiable"
        assert alert.event_index == 0
        assert not fleet.watch_satisfiable("flip", "next-a")

        assert fleet.broadcast(frozenset()) == []  # back to state 0
        assert fleet.watch_satisfiable("flip", "next-a")

        (alert,) = fleet.broadcast({"a"})  # re-armed: flips again
        assert alert.kind == "watch-unsatisfiable"
        assert alert.event_index == 2

        (alert,) = fleet.broadcast({"a"})  # state 1 has no a-exit
        assert alert.kind == "violated"
        assert not fleet.watch_satisfiable("flip", "next-a")
        assert fleet.can_still("flip", "a") is False

    def test_reset_rewinds_monitors_watches_and_alerts(self):
        fleet = FleetMonitor()
        fleet.add_contract("flip", flip_flop_encoded())
        fleet.register_watch("next-a", "a")
        fleet.broadcast({"a"})
        fleet.broadcast({"a"})
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
        fleet.broadcast({"b", "zz"})
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
            fleet.broadcast({"b"})             # c3's vocabulary lacks b
        assert self.counters(fleet) == self.delivered(fleet) == (2, 0)
