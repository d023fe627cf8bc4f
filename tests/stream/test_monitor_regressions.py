"""Regression tests for two monitor bugs fixed alongside the streaming
engine (found on the object-graph monitor it has since replaced):

1. bookkeeping that kept growing after VIOLATED — a violated monitor on
   an unbounded stream must not leak, and the violation must stay
   indexed at the snapshot that caused it;
2. events outside the contract vocabulary silently ignored — now
   counted (default) or rejected (``MonitorOptions.strict_vocabulary``).
"""

import pytest

from repro.automata.encode import encode_automaton
from repro.automata.ltl2ba import translate
from repro.errors import MonitorError
from repro.ltl.parser import parse
from repro.stream import EncodedMonitor, MonitorOptions, MonitorStatus


def monitor_for(text: str, vocabulary=None, options=None) -> EncodedMonitor:
    formula = parse(text)
    vocab = vocabulary if vocabulary is not None else formula.variables()
    return EncodedMonitor(encode_automaton(translate(formula), vocab), options)


class TestHistoryBoundedAfterViolation:
    def test_history_stops_growing_once_violated(self):
        monitor = monitor_for("G !a")
        monitor.advance({"a"})
        assert monitor.status is MonitorStatus.VIOLATED
        tables = (len(monitor._snap_memo), len(monitor._sat_tables))
        for i in range(100):
            monitor.advance({"a", f"stray{i}"})
        assert monitor.events_seen == 1
        assert monitor.violation_index == 0
        # the snapshots were not even interned
        assert (len(monitor._snap_memo), len(monitor._sat_tables)) == tables

    def test_violation_index_reported(self):
        monitor = monitor_for("G !a", frozenset({"a", "b"}))
        monitor.advance({"b"})
        assert monitor.violation_index is None
        monitor.advance({"a"})
        assert monitor.violation_index == 1

    def test_unsatisfiable_contract_indexed_before_any_event(self):
        assert monitor_for("false").violation_index == -1


class TestUnknownVocabularyEvents:
    def test_counting_mode_counts_every_stray_event(self):
        monitor = monitor_for("G !refund", frozenset({"refund"}))
        monitor.advance({"purchase"})
        monitor.advance({"purchase", "upgrade"})
        assert monitor.unknown_events == 3
        assert monitor.status is MonitorStatus.ACTIVE

    def test_strays_not_counted_after_violation(self):
        monitor = monitor_for("G !refund", frozenset({"refund"}))
        monitor.advance({"refund"})
        monitor.advance({"purchase"})
        assert monitor.unknown_events == 0

    def test_strict_mode_raises_without_touching_state(self):
        monitor = monitor_for(
            "G !refund", frozenset({"refund"}),
            MonitorOptions(strict_vocabulary=True),
        )
        frontier = monitor.possible_states
        with pytest.raises(MonitorError):
            monitor.advance({"purchase"})
        assert monitor.events_seen == 0
        assert monitor.unknown_events == 0
        assert monitor.possible_states == frontier
        assert monitor.status is MonitorStatus.ACTIVE

    def test_strict_mode_passes_clean_snapshots(self):
        monitor = monitor_for(
            "G !refund", frozenset({"refund", "purchase"}),
            MonitorOptions(strict_vocabulary=True),
        )
        assert monitor.advance({"purchase"}) is MonitorStatus.ACTIVE
