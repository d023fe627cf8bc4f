"""Differential tests: stream ≡ batch (DEVELOPMENT.md invariant 13).

On every prefix ``h`` of every trace the streaming engine's verdicts
must be the ones the batch decider gives on the contract ``χ_h ∧ φ`` —
:func:`repro.check.oracle.oracle_monitor`, which shares only the
translator with the engine.

The conformance lattice's ``monitor-stream`` / ``monitor-unknown``
cells replay this comparison inside the harness; these tests drive the
same property straight from hypothesis so failures shrink to minimal
formulas and traces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.encode import encode_automaton
from repro.automata.ltl2ba import translate
from repro.broker.contract import ContractSpec
from repro.check.oracle import MonitorVerdicts, oracle_monitor
from repro.check.strategies import EVENTS, contract_specs, formulas, snapshots
from repro.errors import MonitorError
from repro.ltl.parser import parse
from repro.stream import (
    EncodedMonitor,
    Event,
    FleetMonitor,
    MonitorOptions,
    MonitorStatus,
)

#: events guaranteed to be outside every generated contract vocabulary
ALIEN_EVENTS = ("zz-alpha", "zz-beta")


def traces(events=EVENTS, max_len=6, alien=False):
    pool = events + ALIEN_EVENTS if alien else events
    return st.lists(snapshots(pool), max_size=max_len)


def encoded_monitor(spec, options=None):
    return EncodedMonitor(
        encode_automaton(translate(spec.formula), spec.vocabulary), options
    )


def monitor_verdicts(spec, query, trace) -> MonitorVerdicts:
    """One :class:`EncodedMonitor`'s verdicts at the empty prefix and
    after every event, in the oracle's shape."""
    monitor = encoded_monitor(spec)
    query_enc = encode_automaton(translate(query))
    active = [monitor.status is MonitorStatus.ACTIVE]
    can_still = [monitor.can_still(query_enc)]
    for snap in trace:
        assert monitor.advance(snap) is monitor.status
        active.append(monitor.status is MonitorStatus.ACTIVE)
        can_still.append(monitor.can_still(query_enc))
    return MonitorVerdicts(
        tuple(active), tuple(can_still),
        monitor.violation_index, monitor.unknown_events,
    )


def assert_stream_equals_batch(spec, query, trace):
    assert monitor_verdicts(spec, query, trace) == oracle_monitor(
        spec.formula, spec.vocabulary, trace, query
    )


def fleet_verdicts(specs, query, trace):
    """The same through one-record ``FleetMonitor.ingest`` broadcasts
    with ``query`` as a fleet-wide watch; returns the fleet and the
    verdicts by name."""
    fleet = FleetMonitor()
    for spec in specs:
        fleet.add_contract(
            spec.name,
            encode_automaton(translate(spec.formula), spec.vocabulary),
        )
    fleet.register_watch("w", translate(query))
    active = {
        spec.name: [fleet.status(spec.name) is MonitorStatus.ACTIVE]
        for spec in specs
    }
    watch = {
        spec.name: [fleet.watch_satisfiable(spec.name, "w")]
        for spec in specs
    }
    for snap in trace:
        fleet.ingest([Event(snap)])
        for spec in specs:
            active[spec.name].append(
                fleet.status(spec.name) is MonitorStatus.ACTIVE
            )
            watch[spec.name].append(fleet.watch_satisfiable(spec.name, "w"))
    return fleet, {
        spec.name: MonitorVerdicts(
            tuple(active[spec.name]), tuple(watch[spec.name]),
            fleet.monitor(spec.name).violation_index,
            fleet.monitor(spec.name).unknown_events,
        )
        for spec in specs
    }


class TestEncodedMatchesOracle:
    @given(contract_specs(), formulas(max_depth=3), traces())
    @settings(max_examples=40, deadline=None)
    def test_verdict_parity_on_every_prefix(self, spec, query, trace):
        assert_stream_equals_batch(spec, query, trace)

    @given(contract_specs(), formulas(max_depth=3), traces(alien=True))
    @settings(max_examples=30, deadline=None)
    def test_unknown_event_parity(self, spec, query, trace):
        assert_stream_equals_batch(spec, query, trace)

    @pytest.mark.slow
    @given(contract_specs(max_clauses=3, max_depth=4),
           formulas(max_depth=4), traces(max_len=10, alien=True))
    @settings(max_examples=200, deadline=None)
    def test_verdict_parity_heavy(self, spec, query, trace):
        assert_stream_equals_batch(spec, query, trace)


class TestFleetMatchesOracle:
    @given(st.lists(contract_specs(), min_size=1, max_size=3),
           formulas(max_depth=3), traces(alien=True))
    @settings(max_examples=25, deadline=None)
    def test_broadcast_parity(self, specs, query, trace):
        specs = list({spec.name: spec for spec in specs}.values())
        fleet, verdicts = fleet_verdicts(specs, query, trace)
        expected = {
            spec.name: oracle_monitor(
                spec.formula, spec.vocabulary, trace, query
            )
            for spec in specs
        }
        assert verdicts == expected
        # exactly one violation alert per violated contract, pointing
        # at the snapshot the oracle names
        assert {
            alert.contract: alert.event_index
            for alert in fleet.alerts if alert.kind == "violated"
        } == {
            name: v.violation_index for name, v in expected.items()
            if v.violation_index is not None
        }


class TestStrictVocabulary:
    """The oracle has no strict mode (an alien event changes no
    verdict); the rejection is the engine's own contract."""

    @given(contract_specs(), traces(alien=True))
    @settings(max_examples=30, deadline=None)
    def test_raises_exactly_on_alien_events(self, spec, trace):
        monitor = encoded_monitor(
            spec, MonitorOptions(strict_vocabulary=True)
        )
        for snap in trace:
            before = (monitor.frontier, monitor.events_seen)
            if monitor.violated:
                # nothing is inspected after the violation
                assert monitor.advance(snap) is MonitorStatus.VIOLATED
                assert (monitor.frontier, monitor.events_seen) == before
            elif snap - spec.vocabulary:
                with pytest.raises(MonitorError):
                    monitor.advance(snap)
                # a strict rejection leaves the state untouched
                assert (monitor.frontier, monitor.events_seen) == before
            else:
                monitor.advance(snap)
                assert monitor.events_seen == before[1] + 1
        assert monitor.unknown_events == 0


class TestBugfixRegressionTraces:
    """Pinned traces distilled from conformance-sweep counterexamples."""

    def test_watch_satisfiability_is_not_latched(self):
        # found by the monitor-stream lattice cell: the fleet kept a
        # lost watch latched at False while the true verdict — the
        # query restarts at its initial state on every prefix —
        # recovered, until watch_satisfiable was made live
        formula = parse("c W (b -> x)")
        spec = ContractSpec(name="w", clauses=(formula,))
        assert spec.vocabulary == frozenset({"b", "c", "x"})
        trace = [frozenset({"b"}), frozenset({"b", "c", "x"}), frozenset()]
        expected = oracle_monitor(formula, spec.vocabulary, trace, formula)
        assert monitor_verdicts(spec, formula, trace) == expected
        assert fleet_verdicts([spec], formula, trace)[1] == {"w": expected}

    def test_empty_trace_parity(self):
        spec = ContractSpec(name="never", clauses=(parse("false"),))
        for vocabulary in (frozenset(), frozenset({"a"})):
            expected = oracle_monitor(spec.formula, vocabulary, [], parse("a"))
            assert expected == MonitorVerdicts((False,), (False,), -1, 0)
        monitor = EncodedMonitor(
            encode_automaton(translate(spec.formula), frozenset({"a"}))
        )
        assert monitor.status is MonitorStatus.VIOLATED
        assert monitor.violation_index == -1
        assert not monitor.can_still("a")
