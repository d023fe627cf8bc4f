"""Unit tests for the encoded-frontier monitor core
(:mod:`repro.stream.encoded`)."""

import pytest

from repro.automata.buchi import BuchiAutomaton, Transition
from repro.automata.encode import encode_automaton
from repro.automata.labels import Label, neg, pos
from repro.automata.ltl2ba import translate
from repro.errors import MonitorError
from repro.ltl.parser import parse
from repro.stream import (
    EncodedMonitor,
    MonitorOptions,
    MonitorStatus,
    compile_step_rows,
    live_state_mask,
    winning_mask,
)


def encoded_for(text: str, vocabulary=None):
    formula = parse(text)
    vocab = vocabulary if vocabulary is not None else formula.variables()
    return encode_automaton(translate(formula), vocab)


def monitor_for(text: str, vocabulary=None, options=None) -> EncodedMonitor:
    return EncodedMonitor(encoded_for(text, vocabulary), options)


class TestStatusTracking:
    def test_fresh_monitor_active(self):
        assert monitor_for("G(a -> F b)").status == MonitorStatus.ACTIVE

    def test_unsatisfiable_contract_immediately_violated(self):
        monitor = monitor_for("false")
        assert monitor.status == MonitorStatus.VIOLATED
        assert monitor.violated
        assert monitor.violation_index == -1
        assert monitor.frontier == 0

    def test_safety_violation_detected(self):
        monitor = monitor_for("G !refund", frozenset({"refund", "purchase"}))
        assert monitor.advance({"purchase"}) == MonitorStatus.ACTIVE
        assert monitor.advance({"refund"}) == MonitorStatus.VIOLATED
        assert monitor.violation_index == 1
        assert monitor.events_seen == 2

    def test_violated_is_absorbing_and_stops_bookkeeping(self):
        monitor = monitor_for("G !a")
        monitor.advance({"a"})
        for _ in range(5):
            assert monitor.advance({"stray"}) == MonitorStatus.VIOLATED
        # post-violation snapshots are neither counted nor inspected
        assert monitor.events_seen == 1
        assert monitor.unknown_events == 0
        assert monitor.violation_index == 0

    def test_liveness_never_violated_by_finite_prefix(self):
        monitor = monitor_for("F p")
        for _ in range(10):
            assert monitor.advance(frozenset()) == MonitorStatus.ACTIVE
        assert monitor.violation_index is None

    def test_next_obligation(self):
        monitor = monitor_for("a && X b")
        assert monitor.advance({"a"}) == MonitorStatus.ACTIVE
        assert monitor.advance(frozenset()) == MonitorStatus.VIOLATED


class TestVocabulary:
    def test_unknown_events_counted_while_active(self):
        monitor = monitor_for("G !refund", frozenset({"refund"}))
        assert monitor.advance({"purchase"}) == MonitorStatus.ACTIVE
        assert monitor.unknown_events == 1
        monitor.advance({"purchase", "upgrade"})
        assert monitor.unknown_events == 3

    def test_unknown_events_cannot_change_the_verdict(self):
        strict = monitor_for("G !refund", frozenset({"refund", "purchase"}))
        noisy = monitor_for("G !refund", frozenset({"refund", "purchase"}))
        assert strict.advance({"purchase"}) == noisy.advance(
            {"purchase", "zz-alien"}
        )
        assert strict.frontier == noisy.frontier

    def test_strict_mode_raises_before_any_state_change(self):
        monitor = monitor_for(
            "G !refund", frozenset({"refund"}),
            MonitorOptions(strict_vocabulary=True),
        )
        before = monitor.frontier
        with pytest.raises(MonitorError):
            monitor.advance({"purchase"})
        assert monitor.frontier == before
        assert monitor.events_seen == 0
        assert monitor.unknown_events == 0
        assert monitor.status == MonitorStatus.ACTIVE

    def test_strict_mode_accepts_vocabulary_events(self):
        monitor = monitor_for(
            "G !refund", frozenset({"refund", "purchase"}),
            MonitorOptions(strict_vocabulary=True),
        )
        assert monitor.advance({"purchase"}) == MonitorStatus.ACTIVE


class TestMemoization:
    def test_repeated_snapshot_hits_the_memo(self):
        monitor = monitor_for("G(a -> F b)")
        snap = frozenset({"a"})
        monitor.advance(snap)
        monitor.advance(snap)
        monitor.advance({"b"})
        assert len(monitor._snap_memo) == 2
        # {"a"} and {"b"} satisfy different label-class sets, but the
        # shared sat-table memo dedups across snapshots when they agree
        assert len(monitor._sat_tables) <= 2

    def test_reset_keeps_tables_and_rewinds_verdicts(self):
        monitor = monitor_for("G !a")
        monitor.advance({"zz"})
        monitor.advance({"a"})
        assert monitor.violated
        memo_size = len(monitor._snap_memo)
        monitor.reset()
        assert monitor.status == MonitorStatus.ACTIVE
        assert monitor.events_seen == 0
        assert monitor.violation_index is None
        assert monitor.unknown_events == 0
        assert len(monitor._snap_memo) == memo_size
        assert monitor.advance({"a"}) == MonitorStatus.VIOLATED


class TestWatchQueries:
    def test_can_still_reflects_permission(self):
        monitor = monitor_for("G !refund", frozenset({"refund", "purchase"}))
        assert monitor.can_still("F purchase")
        assert not monitor.can_still("F refund")
        monitor.advance({"purchase"})
        assert monitor.can_still("F purchase")
        assert not monitor.can_still("F refund")

    def test_can_still_false_after_violation(self):
        monitor = monitor_for("G !a", frozenset({"a", "b"}))
        monitor.advance({"a"})
        assert not monitor.can_still("F b")

    def test_string_watch_masks_are_memoized(self):
        monitor = monitor_for("G(a -> F b)")
        first = monitor.watch_mask("F b")
        assert monitor._watch_memo == {"F b": first}
        assert monitor.watch_mask("F b") == first

    def test_inadmissible_query_has_empty_winning_mask(self):
        contract = encoded_for("G !a", frozenset({"a"}))
        query = encoded_for("F x")
        assert winning_mask(contract, query) == 0

    def test_winning_mask_accepts_query_in_any_form(self):
        monitor = monitor_for("G !refund", frozenset({"refund", "purchase"}))
        formula = parse("F purchase")
        ba = translate(formula)
        for query in ("F purchase", formula, ba, encode_automaton(ba)):
            assert monitor.can_still(query)


class TestCompiledTables:
    def test_live_mask_empty_for_unsatisfiable_contract(self):
        assert live_state_mask(encoded_for("false")) == 0

    def test_live_mask_contains_initial_for_satisfiable_contract(self):
        enc = encoded_for("G a")
        assert (live_state_mask(enc) >> enc.initial) & 1

    def test_step_rows_prune_dead_destinations(self):
        # a ∨ X false: the successor reached on ¬a is a dead end and
        # must not survive in the compiled rows
        enc = encoded_for("a")
        live = live_state_mask(enc)
        rows = compile_step_rows(enc, live)
        for row in rows:
            for _label_class, dst_mask in row:
                assert dst_mask & ~live == 0

    def test_possible_states_translates_frontier(self):
        monitor = monitor_for("G(a -> F b)")
        states = monitor.possible_states
        assert states
        assert states <= frozenset(monitor.encoded.states)


class TestMemoBound:
    """Every memo is dropped and rebuilt past ``_MEMO_CAP`` entries, and
    that never changes a verdict: the monitor agrees on every event with
    one whose memos are cleared before each event."""

    CONTRACT = "G(a -> F b) && G(c -> X(!d U b))"
    VOCABULARY = ("a", "b", "c", "d")

    @staticmethod
    def memos(monitor):
        return (monitor._snap_memo, monitor._sat_tables,
                monitor._watch_memo)

    @staticmethod
    def observe(monitor):
        return (monitor.status, monitor.frontier, monitor.events_seen,
                monitor.violation_index, monitor.unknown_events)

    @pytest.mark.parametrize("small_cap", [True, False])
    def test_adversarial_stream_stays_bounded(self, monkeypatch, small_cap):
        import random

        from repro.stream import encoded as encoded_module

        cap = 3 if small_cap else encoded_module._MEMO_CAP
        monkeypatch.setattr(encoded_module, "_MEMO_CAP", cap)
        enc = encoded_for(self.CONTRACT, frozenset(self.VOCABULARY))
        monitor, fresh = EncodedMonitor(enc), EncodedMonitor(enc)
        rng = random.Random(cap)
        peaks = [0, 0, 0]
        for i in range(cap + 500):
            # a fresh unknown event makes every snapshot distinct
            snap = frozenset(
                [e for e in self.VOCABULARY if rng.random() < 0.3]
                + [f"zz{i}"]
            )
            for memo in self.memos(fresh):
                memo.clear()
            assert monitor.advance(snap) == fresh.advance(snap)
            assert self.observe(monitor) == self.observe(fresh)
            if small_cap:
                query = f"F {self.VOCABULARY[i % 4]} || X F b{i % 5}"
                assert monitor.can_still(query) == fresh.can_still(query)
            sizes = [len(memo) for memo in self.memos(monitor)]
            assert max(sizes) <= cap
            peaks = [max(p, n) for p, n in zip(peaks, sizes)]
            if monitor.violated:
                monitor.reset()
                fresh.reset()
        # the overflow rule really ran on every memo the stream can fill
        assert peaks == ([cap] * 3 if small_cap else [cap, *peaks[1:]])
