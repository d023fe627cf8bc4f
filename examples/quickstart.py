"""Quickstart: the paper's running example in thirty lines of API.

Registers the three airfare contracts of Example 2 (Tickets A, B, C) and
asks the intro's question: *which fares allow a partial refund or a date
change after the first flight leg has been missed?*

Run with::

    python examples/quickstart.py
"""

from repro import ContractDatabase, QueryOptions

db = ContractDatabase()

# Common airfare axioms (Example 5, C0-C5): one event per instant, the
# ticket is purchased once and before anything else, a refund or use ends
# the contract, a missed flight blocks use until a reschedule.
COMMON = [
    "G(purchase -> !use && !missedFlight && !refund && !dateChange)",
    "G(use -> !purchase && !missedFlight && !refund && !dateChange)",
    "G(missedFlight -> !purchase && !use && !refund && !dateChange)",
    "G(refund -> !purchase && !use && !missedFlight && !dateChange)",
    "G(dateChange -> !purchase && !use && !missedFlight && !refund)",
    "G(purchase -> X(!F purchase))",
    "purchase B (use || missedFlight || refund || dateChange)",
    "G((missedFlight -> !F use) W dateChange)",
    "G(refund -> X G(!purchase && !use && !missedFlight && !refund && !dateChange))",
    "G(use -> X G(!purchase && !use && !missedFlight && !refund && !dateChange))",
]

db.register("Ticket A", COMMON + [
    "G(dateChange -> !F refund)",       # no refunds after a date change
], attributes={"price": 980})

db.register("Ticket B", COMMON + [
    "G(missedFlight -> !F dateChange)", # changes only before departure
], attributes={"price": 640})

db.register("Ticket C", COMMON + [
    "G(!refund)",                        # no refunds at all
    "G(dateChange -> X(!F dateChange))", # at most one date change
    "G(missedFlight -> !F dateChange)",  # changes only before departure
], attributes={"price": 310})

QUERY = "F(missedFlight && F(refund || dateChange))"

result = db.query(QUERY)
print(f"query: {QUERY}")
print(f"permitting fares: {list(result.contract_names)}")
print(f"(checked {result.stats.checked} of {result.stats.database_size} "
      f"contracts; {result.stats.plan_summary})")

# Why was Ticket A returned?  Ask for a witness: a concrete sequence of
# events the contract allows that satisfies the query.
witness = db.query(QUERY, QueryOptions(
    contract_ids=(0,), explain=True,
)).witnesses[0]
print("\nwitness sequence for Ticket A:")
for t, snapshot in enumerate(witness.to_run().unroll(6)):
    events = ", ".join(sorted(snapshot)) or "(nothing)"
    print(f"  t={t}: {events}")

assert list(result.contract_names) == ["Ticket A", "Ticket B"]
print("\nTicket C is correctly excluded: it allows neither refunds nor "
      "post-miss date changes.")
