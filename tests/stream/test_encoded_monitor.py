"""Unit tests for the encoded-frontier monitor core
(:mod:`repro.stream.encoded`)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.stream import encoded as encoded_module

from tests.strategies import (
    EVENTS,
    buchi_automata,
    contract_specs,
    snapshots,
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


def step_memo_size(monitor) -> int:
    """Entries in every step memo a snapshot can still reach."""
    held = {
        id(entry[1]): entry[1]
        for memo in (monitor._snap_memo, monitor._sat_tables)
        for entry in memo.values()
    }
    return sum(len(steps) for steps in held.values())


class ReferenceMonitor:
    """The memo-free frontier walk: every transition out of every
    frontier state whose label the snapshot satisfies, cut to the live
    states, recomputed from the encoding on every event."""

    def __init__(self, enc):
        self.enc = enc
        self.live_mask = live_state_mask(enc)
        self.reset()

    def reset(self):
        self.frontier = (1 << self.enc.initial) & self.live_mask
        self.events_seen = 0
        self.violation_index = None if self.frontier else -1
        self.unknown_events = 0

    def advance(self, snap):
        if not self.frontier:
            return
        enc = self.enc
        known = [event for event in snap if event in enc.events]
        self.unknown_events += len(snap) - len(known)
        mask = sum(1 << enc.table[event] for event in known)
        new = 0
        for state in range(enc.num_states):
            if not (self.frontier >> state) & 1:
                continue
            for ti in range(enc.offsets[state], enc.offsets[state + 1]):
                label = enc.trans_labels[ti]
                pos_mask, neg_mask = enc.label_pos[label], enc.label_neg[label]
                if pos_mask & mask == pos_mask and not neg_mask & mask:
                    new |= 1 << enc.trans_dsts[ti]
        self.frontier = new & self.live_mask
        self.events_seen += 1
        if not self.frontier:
            self.violation_index = self.events_seen - 1

    def observe(self):
        status = (MonitorStatus.ACTIVE if self.frontier
                  else MonitorStatus.VIOLATED)
        return (status, self.frontier, self.events_seen,
                self.violation_index, self.unknown_events)


def observe(monitor):
    return (monitor.status, monitor.frontier, monitor.events_seen,
            monitor.violation_index, monitor.unknown_events)


#: events outside every drawn contract vocabulary
ALIEN_EVENTS = ("zz-alpha", "zz-beta")

ENCODED_CONTRACTS = st.one_of(
    contract_specs().map(
        lambda spec: encode_automaton(translate(spec.formula),
                                      spec.vocabulary)),
    buchi_automata(max_states=6, max_transitions=14).map(
        lambda ba: encode_automaton(ba, EVENTS)),
)


@st.composite
def repetitive_streams(draw):
    """Up to 60 snapshots drawn from a pool of at most five (unknown
    events included), and the index of a ``reset()``, if any."""
    pool = draw(st.lists(snapshots(EVENTS + ALIEN_EVENTS),
                         min_size=1, max_size=5))
    stream = draw(st.lists(st.sampled_from(pool), max_size=60))
    reset_at = draw(st.none() | st.integers(0, len(stream)))
    return stream, reset_at


class TestStepMemo:
    """The (step table, frontier) → successor memo never changes what
    the monitor says: at every step it agrees with the memo-free walk,
    at the real cap and at one so small the clear runs all the time."""

    @pytest.mark.parametrize("cap", [encoded_module._MEMO_CAP, 2])
    @given(ENCODED_CONTRACTS, repetitive_streams())
    @settings(max_examples=150, deadline=None)
    def test_every_step_matches_the_reference(self, cap, enc, drawn):
        stream, reset_at = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoded_module, "_MEMO_CAP", cap)
            monitor, reference = EncodedMonitor(enc), ReferenceMonitor(enc)
            assert observe(monitor) == reference.observe()
            for i, snap in enumerate(stream):
                if i == reset_at:
                    monitor.reset()
                    reference.reset()
                monitor.advance(snap)
                reference.advance(snap)
                assert observe(monitor) == reference.observe()
                assert step_memo_size(monitor) <= cap

    @pytest.mark.parametrize("cap", [encoded_module._MEMO_CAP, 2])
    @given(ENCODED_CONTRACTS, repetitive_streams())
    @settings(max_examples=60, deadline=None)
    def test_a_warm_reset_replays_like_a_fresh_monitor(self, cap, enc,
                                                       drawn):
        stream, _ = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoded_module, "_MEMO_CAP", cap)
            warm = EncodedMonitor(enc)
            for snap in stream:
                warm.advance(snap)
            warm.reset()
            fresh = EncodedMonitor(enc)
            assert observe(warm) == observe(fresh)
            for snap in stream:
                assert warm.advance(snap) is fresh.advance(snap)
                assert observe(warm) == observe(fresh)

    def test_a_repeated_step_is_answered_from_the_memo(self):
        monitor = monitor_for("G(a -> F b)")
        start = monitor.frontier
        monitor.advance({"a"})
        after = monitor.frontier
        _, steps, _ = monitor._snap_memo[frozenset({"a"})]
        assert steps == {start: after}
        monitor.reset()
        # a poisoned entry shows the lookup runs before the bit walk
        steps[start] = start | after
        monitor.advance({"a"})
        assert monitor.frontier == start | after
        assert monitor._steps_n == 1

    def test_snapshots_with_the_same_classes_share_one_step_memo(self):
        monitor = monitor_for("G(a -> F b)")
        monitor.advance({"a"})
        monitor.reset()
        monitor.advance({"a", "zz"})
        first = monitor._snap_memo[frozenset({"a"})]
        second = monitor._snap_memo[frozenset({"a", "zz"})]
        assert first[1] is second[1]
        assert monitor._steps_n == 1
        assert second[2] == 1


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
    one whose memos are cleared before each event.  Every snapshot of
    the stream is distinct, so is every (snapshot, frontier) pair: the
    step memos, counted together, stay within the cap as well."""

    CONTRACT = "G(a -> F b) && G(c -> X(!d U b))"
    VOCABULARY = ("a", "b", "c", "d")

    @staticmethod
    def memos(monitor):
        return (monitor._snap_memo, monitor._sat_tables,
                monitor._watch_memo)

    @pytest.mark.parametrize("small_cap", [True, False])
    def test_adversarial_stream_stays_bounded(self, monkeypatch, small_cap):
        import random

        cap = 3 if small_cap else encoded_module._MEMO_CAP
        monkeypatch.setattr(encoded_module, "_MEMO_CAP", cap)
        enc = encoded_for(self.CONTRACT, frozenset(self.VOCABULARY))
        monitor, fresh = EncodedMonitor(enc), EncodedMonitor(enc)
        rng = random.Random(cap)
        peaks = [0, 0, 0, 0]
        for i in range(cap + 500):
            # a fresh unknown event makes every snapshot distinct
            snap = frozenset(
                [e for e in self.VOCABULARY if rng.random() < 0.3]
                + [f"zz{i}"]
            )
            for memo in self.memos(fresh):
                memo.clear()
            assert monitor.advance(snap) == fresh.advance(snap)
            assert observe(monitor) == observe(fresh)
            if small_cap:
                query = f"F {self.VOCABULARY[i % 4]} || X F b{i % 5}"
                assert monitor.can_still(query) == fresh.can_still(query)
            sizes = [len(memo) for memo in self.memos(monitor)]
            sizes.append(step_memo_size(monitor))
            assert max(sizes) <= cap
            peaks = [max(p, n) for p, n in zip(peaks, sizes)]
            if monitor.violated:
                monitor.reset()
                fresh.reset()
        # the overflow rule really ran on every memo the stream can fill
        assert peaks == ([cap] * 4 if small_cap else [cap, *peaks[1:]])
