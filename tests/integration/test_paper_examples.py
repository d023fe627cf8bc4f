"""End-to-end reproduction of the paper's worked examples through the
full broker pipeline (registration → index → projections → query)."""

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN, QueryPlan
from repro.broker.relational import AttributeFilter, eq, le
from repro.workload.airfare import QUERIES, all_ticket_specs


class TestExample2EndToEnd:
    """'The cheapest fare from San Diego to New York that allows a
    partial refund or a date change after the first leg was missed.'"""

    def test_intro_scenario(self, airfare_db):
        result = airfare_db.query(
            QUERIES["refund_or_change_after_miss"]["ltl"],
            QueryOptions(
                attribute_filter=AttributeFilter.where(
                    eq("origin", "SAN"), eq("destination", "JFK")
                ),
            ),
        )
        assert set(result.contract_names) == {"Ticket A", "Ticket B"}
        # the cheapest qualifying fare is Ticket B
        cheapest = min(
            (airfare_db.get(cid) for cid in result.contract_ids),
            key=lambda c: c.attributes["price"],
        )
        assert cheapest.name == "Ticket B"

    def test_every_paper_query(self, airfare_db):
        for name, info in QUERIES.items():
            result = airfare_db.query(info["ltl"])
            assert set(result.contract_names) == info["expected"], name


class TestOptimizationEquivalence:
    """The four optimization combinations must return identical results
    on every paper query — the paper's soundness claims for §4 and §5."""

    def test_all_modes_agree(self):
        plans = {
            "none": SCAN_PLAN,
            "prefilter": QueryPlan(True, False),
            "projections": QueryPlan(False, True),
            "both": QueryPlan(True, True),
        }
        db = ContractDatabase(BrokerConfig())
        for spec in all_ticket_specs():
            db.register(spec)
        for name, info in QUERIES.items():
            results = {
                key: set(db.query(
                    info["ltl"], QueryOptions(plan=plan)
                ).contract_names)
                for key, plan in plans.items()
            }
            assert len(set(map(frozenset, results.values()))) == 1, (
                name, results
            )

    def test_prefilter_reduces_checks(self, airfare_db):
        unoptimized = airfare_db.query(
            "F classUpgrade",
            QueryOptions(plan=SCAN_PLAN),
        )
        optimized = airfare_db.query(
            "F classUpgrade",
            QueryOptions(plan=QueryPlan(True, False)),
        )
        assert optimized.stats.checked <= unoptimized.stats.checked
        assert optimized.stats.checked == 0  # nobody cites classUpgrade
