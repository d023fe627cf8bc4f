"""A fuller airfare broker: relational pre-selection + temporal queries.

Models the complete workflow of the paper's introduction: a customer
searches 'San Diego → New York on 10/19/2010, under $800' (handled by
the relational substrate) *and* demands a temporal property of the fare
contract (handled by the permission machinery).  Also demonstrates
per-query optimization toggles and the reported statistics.

Run with::

    python examples/airfare_broker.py
"""

from repro.broker import (
    AttributeFilter, ContractDatabase, QueryOptions, QueryPlan, eq, le,
)
from repro.workload.airfare import QUERIES, all_ticket_specs

db = ContractDatabase()
for spec in all_ticket_specs():
    contract = db.register(spec)
    print(f"registered {contract} at ${contract.attributes['price']}")

# A fare on a different route: relationally filtered out regardless of
# its (very permissive) temporal behavior.
db.register(
    "Ticket D (LAX route)",
    ["G(missedFlight -> F dateChange)", "F refund"],
    attributes={
        "airline": "United", "cabin": "economy",
        "origin": "LAX", "destination": "JFK",
        "date": "2010-10-19", "price": 200,
    },
)

print("\n--- customer 1: flexible traveller, SAN -> JFK, under $800 ---")
search = AttributeFilter.where(
    eq("origin", "SAN"), eq("destination", "JFK"), le("price", 800)
)
temporal = QUERIES["refund_or_change_after_miss"]["ltl"]
result = db.query(temporal, QueryOptions(attribute_filter=search))
print(f"relational matches : {result.stats.relational_matches}")
print(f"temporal matches   : {list(result.contract_names)}")
cheapest = min(
    (db.get(cid) for cid in result.contract_ids),
    key=lambda c: c.attributes["price"],
)
print(f"recommendation     : {cheapest.name} "
      f"(${cheapest.attributes['price']})")

print("\n--- customer 2: wants unlimited rebooking, any price ---")
result = db.query(
    "F(dateChange && X F dateChange)",
    QueryOptions(attribute_filter=AttributeFilter.where(
        eq("origin", "SAN"), eq("destination", "JFK"))),
)
print(f"fares allowing two date changes: {list(result.contract_names)}")

print("\n--- the same query, pinned to the scan vs. both indexes ---")
for optimized in (False, True):
    result = db.query(temporal, QueryOptions(
        attribute_filter=search,
        plan=QueryPlan(use_prefilter=optimized, use_projections=optimized),
    ))
    mode = "indexed" if optimized else "scan   "
    s = result.stats
    print(f"{mode}: {s.total_seconds * 1000:6.1f} ms "
          f"(candidates={s.candidates}, checked={s.checked}, "
          f"pruned={s.pruning_ratio:.0%})")

print("\n--- why is Ticket B returned? ---")
ticket_b = next(c for c in db.contracts() if c.name == "Ticket B")
witness = db.query(temporal, QueryOptions(
    contract_ids=(ticket_b.contract_id,), explain=True,
)).witnesses[ticket_b.contract_id]
print("allowed sequence satisfying the query:")
for t, snapshot in enumerate(witness.to_run().unroll(5)):
    print(f"  t={t}: {', '.join(sorted(snapshot)) or '(nothing)'}")
