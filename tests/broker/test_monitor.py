"""Runtime monitoring of *registered* contracts: the encoding the broker
builds at registration (``contract.encoded``, over the spec vocabulary)
is all a monitor needs — ``EncodedMonitor(contract.encoded)``, what
``examples/lifecycle_monitoring.py`` and the tutorial do.  The engine's
own unit tests are ``tests/stream/``."""

from repro.automata.ltl2ba import translate
from repro.broker import ContractDatabase
from repro.ltl.parser import parse
from repro.stream import EncodedMonitor, MonitorStatus


def monitor_for(text: str) -> EncodedMonitor:
    contract = ContractDatabase().register("contract", [text])
    return EncodedMonitor(contract.encoded)


class TestStatusTracking:
    def test_fresh_monitor_active(self):
        assert monitor_for("G(a -> F b)").status == MonitorStatus.ACTIVE

    def test_unsatisfiable_contract_immediately_violated(self):
        assert monitor_for("false").status == MonitorStatus.VIOLATED

    def test_safety_violation_detected(self):
        monitor = monitor_for("G !refund")
        assert monitor.advance({"purchase"}) == MonitorStatus.ACTIVE
        assert monitor.advance({"refund"}) == MonitorStatus.VIOLATED

    def test_violated_is_absorbing(self):
        monitor = monitor_for("G !a")
        monitor.advance({"a"})
        assert monitor.advance({}) == MonitorStatus.VIOLATED

    def test_liveness_never_violated_by_finite_prefix(self):
        monitor = monitor_for("F p")
        for _ in range(10):
            assert monitor.advance({}) == MonitorStatus.ACTIVE

    def test_next_obligation(self):
        monitor = monitor_for("a && X b")
        assert monitor.advance({"a"}) == MonitorStatus.ACTIVE
        assert monitor.advance({"c"}) == MonitorStatus.VIOLATED

    def test_single_change_contract(self):
        monitor = monitor_for("G(d -> X(!F d))")
        assert monitor.advance({"d"}) == MonitorStatus.ACTIVE
        assert monitor.advance({"d"}) == MonitorStatus.VIOLATED


class TestCanStill:
    def test_future_query_after_events(self):
        monitor = monitor_for("G(dateChange -> !F refund)")
        monitor.advance({"purchase"})
        assert monitor.can_still("F refund")
        monitor.advance({"dateChange"})
        assert not monitor.can_still("F refund")
        assert monitor.can_still("F dateChange")

    def test_can_still_false_after_violation(self):
        monitor = monitor_for("G !a")
        monitor.advance({"a"})
        assert not monitor.can_still("true")

    def test_can_still_respects_vocabulary(self):
        """Underspecification semantics carries over: a query about an
        event the contract never cites is never possible (Definition 1)."""
        monitor = monitor_for("G(a -> F b)")
        assert not monitor.can_still("F classUpgrade")

    def test_accepts_prebuilt_ba_and_formula(self):
        monitor = monitor_for("G(a -> F b)")
        assert monitor.can_still(parse("F b"))
        assert monitor.can_still(translate(parse("F b")))


class TestBrokerIntegration:
    def test_for_contract(self, airfare_contracts):
        ticket_c = airfare_contracts["Ticket C"]
        monitor = EncodedMonitor(ticket_c.encoded)
        assert monitor.advance({"purchase"}) == MonitorStatus.ACTIVE
        # Ticket C never allows a refund
        assert monitor.advance({"refund"}) == MonitorStatus.VIOLATED

    def test_ticket_a_lifecycle(self, airfare_contracts):
        ticket_a = airfare_contracts["Ticket A"]
        monitor = EncodedMonitor(ticket_a.encoded)
        monitor.advance({"purchase"})
        assert monitor.can_still("F refund")
        monitor.advance({"dateChange"})
        assert monitor.status == MonitorStatus.ACTIVE
        # the A policy: no refunds after a date change
        assert not monitor.can_still("F refund")
        assert monitor.can_still("F use")

    def test_possible_states_shrink_monotonically_informative(self,
                                                              airfare_contracts):
        ticket_b = airfare_contracts["Ticket B"]
        monitor = EncodedMonitor(ticket_b.encoded)
        assert monitor.possible_states
        monitor.advance({"purchase"})
        assert monitor.possible_states
