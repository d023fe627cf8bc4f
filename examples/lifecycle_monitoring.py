"""Live contract monitoring: following a ticket through its lifecycle.

Beyond search-time querying, the broker's automata make it trivial to
*monitor* a signed contract as real events unfold (the runtime-
monitoring use case of the paper's related work, §8): after each event
the customer-service system can ask "is the contract still being
honored?" and "which options remain open from here?".

Run with::

    python examples/lifecycle_monitoring.py
"""

from repro.automata.language import example_behaviors
from repro.broker import ContractDatabase
from repro.stream import EncodedMonitor, MonitorStatus
from repro.workload.airfare import all_ticket_specs

db = ContractDatabase()
for spec in all_ticket_specs():
    db.register(spec)

ticket_a = next(c for c in db.contracts() if c.name == "Ticket A")

print("=== some sequences Ticket A allows (enumerated from its BA) ===")
for behavior in example_behaviors(ticket_a.ba, limit=4, horizon=4):
    rendered = " -> ".join(
        "{" + ",".join(sorted(snap)) + "}" if snap else "{}"
        for snap in behavior
    )
    print(f"  {rendered} ...")

print("\n=== monitoring a customer's actual trip ===")
monitor = EncodedMonitor(ticket_a.encoded)

TIMELINE = [
    ({"purchase"}, "customer buys the ticket"),
    ({"missedFlight"}, "customer misses the flight"),
    ({"dateChange"}, "airline reschedules"),
]
for snapshot, description in TIMELINE:
    status = monitor.advance(snapshot)
    refundable = monitor.can_still("F refund")
    usable = monitor.can_still("F use")
    print(f"{description:35s} -> {status.value:8s} "
          f"refundable={refundable!s:5s} usable={usable!s:5s}")

# Ticket A forbids refunds after a date change: the monitor knows.
assert not monitor.can_still("F refund")

# Monitoring also surfaces specification subtleties.  Example 5's C3
# clause, G((missedFlight -> !F use) W dateChange), reads "a missed
# flight makes the ticket unusable unless rescheduled" — but as written,
# the !F use obligation taken at the miss instant scopes over the WHOLE
# future, so even a later reschedule cannot restore usability.  A
# contract author replaying scenarios against the monitor catches this
# before publishing:
assert not monitor.can_still("F use")
print("\nNote: after the missed flight, C3 as formalized in Example 5 "
      "rules out any future 'use' — even after the reschedule. The "
      "monitor makes such specification subtleties visible.")

print("\n=== a violating history is caught immediately ===")
ticket_c = next(c for c in db.contracts() if c.name == "Ticket C")
monitor_c = EncodedMonitor(ticket_c.encoded)
monitor_c.advance({"purchase"})
status = monitor_c.advance({"refund"})      # Ticket C never refunds
print(f"Ticket C after a refund event: {status.value}")
assert status == MonitorStatus.VIOLATED

print("\nThe same permission semantics as the broker applies to futures: "
      "asking Ticket A's monitor about class upgrades "
      f"-> {monitor.can_still('F classUpgrade')} (event not in the "
      "contract vocabulary).")

print("\n=== the whole fleet on one event bus ===")
# At fleet scale the broker streams events through the same encoded
# bitset frontiers: db.monitor_fleet() builds one monitor per
# registration-time encoding, watch queries compile to one precomputed
# mask each, and alerts fire exactly on verdict flips.
fleet = db.monitor_fleet(watches={"refundable": "F refund"})
report = fleet.ingest([
    {"events": ["purchase"]},                            # broadcast
    {"contract": "Ticket A", "events": ["dateChange"]},  # addressed
    {"events": ["refund"]},                              # broadcast
])
print(f"{report.events} events, {report.deliveries} deliveries, "
      f"{len(report.alerts)} alert(s):")
for alert in report.alerts:
    print(f"  {alert.describe()}")
print("still active:", ", ".join(fleet.active_contracts) or "(none)")
