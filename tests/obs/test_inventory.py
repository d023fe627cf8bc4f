"""The metric-name inventory: one fixed workload over every owner of a
count, and the exact set of ``(kind, name)`` pairs each registry exports.

Names are an interface — the CLI's ``metrics`` / ``check --json`` /
``shard-status`` output and the end-to-end benchmark read them — so a
change to how a fact is counted must not add, drop or rename one.  The
lists below were captured before counters moved from the registry into
the objects that own them, and the refactor reproduces them exactly.
"""

from __future__ import annotations

import pytest

from repro.broker.journal import open_database
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN
from repro.check import ConformanceRunner
from repro.check.configs import configs_by_name
from repro.dist.cluster import LocalCluster
from repro.workload.airfare import all_ticket_specs

KINDS = (("counter", "counters"), ("gauge", "gauges"),
         ("histogram", "histograms"))


def inventory(snapshot: dict) -> list[tuple[str, str]]:
    return sorted(
        (kind, name)
        for kind, key in KINDS
        for name in snapshot.get(key, {})
    )


def counters(*names: str) -> list[tuple[str, str]]:
    return [("counter", name) for name in names]


def gauges(*names: str) -> list[tuple[str, str]]:
    return [("gauge", name) for name in names]


def histograms(*names: str) -> list[tuple[str, str]]:
    return [("histogram", name) for name in names]


QUERY_HISTOGRAMS = histograms(
    "planner.est_cost", "query.candidates", "query.permission_seconds",
    "query.prefilter_seconds", "query.pruning_ratio",
    "query.selection_seconds", "query.total_seconds",
    "query.translation_seconds",
)

EXPECTED = {
    "database": sorted(
        counters(
            "journal.replayed",
            "monitor.alerts", "monitor.batches", "monitor.events",
            "monitor.unknown_events", "monitor.violations",
            "planner.cache.hits", "planner.cache.misses",
            "planner.order.attr_first", "planner.prefilter_off",
            "planner.prefilter_on", "planner.projections_on",
            "query.cache.hits", "query.cache.misses",
            "query.contracts_skipped", "query.contracts_timed_out",
            "query.count", "query.degraded",
            "query.permission_checks", "query.permitted",
        ) + QUERY_HISTOGRAMS
    ),
    "reopened": counters("journal.replayed"),
    "front_end": sorted(
        counters(
            "dist.queries", "dist.registrations",
            "dist.shard.0.contracts", "dist.shard.0.requests",
            "dist.shard.1.contracts", "dist.shard.1.requests",
        )
        + gauges(
            "dist.shard.0.consecutive_failures", "dist.shard.0.healthy",
            "dist.shard.1.consecutive_failures", "dist.shard.1.healthy",
        )
        + histograms(
            "dist.fanout_queries", "dist.fanout_seconds",
            "dist.shard.0.rpc_seconds", "dist.shard.1.rpc_seconds",
        )
    ),
    "shard_status": counters(
        "dist.shard.ops.query_many", "dist.shard.ops.register",
        "journal.replayed", "planner.cache.misses",
        "planner.order.attr_first", "planner.prefilter_off",
        "planner.prefilter_on", "planner.projections_on",
        "query.cache.misses", "query.count", "query.permission_checks",
        "query.permitted",
    ),
    "shard": sorted(
        counters(
            "dist.shard.ops.query_many", "dist.shard.ops.register",
            "dist.shard.ops.status", "journal.replayed",
            "planner.cache.misses", "planner.order.attr_first",
            "planner.prefilter_off", "planner.prefilter_on",
            "planner.projections_on",
            "query.cache.misses", "query.count", "query.permission_checks",
            "query.permitted",
        ) + QUERY_HISTOGRAMS
    ),
    "replica": sorted(
        counters("dist.replica.applied", "dist.replica.polls",
                 "dist.replica.resyncs")
        + gauges("dist.replica.lag_bytes", "dist.replica.lag_records")
        + histograms("dist.replica.poll_seconds")
    ),
    "check": sorted(
        counters("check.cases", "check.configs_run")
        + histograms("check.case_seconds")
    ),
}


@pytest.fixture(scope="module")
def exported(tmp_path_factory) -> dict[str, list[tuple[str, str]]]:
    """Run the workload once; every registry's inventory by owner."""
    root = tmp_path_factory.mktemp("inventory")
    found = {}

    db = open_database(root / "db")
    contracts = [db.register(spec) for spec in all_ticket_specs()]
    db.query("F refund")                       # a compile miss
    db.query("F refund")                       # a compile hit
    db.plan_query("F(missedFlight && F refund)")
    degraded = db.query("F(missedFlight && F refund)",
                        QueryOptions(step_budget=1, plan=SCAN_PLAN))
    assert degraded.degraded
    fleet = db.monitor_fleet(watches={"no-refund": "G !refund"})
    fleet.ingest([{"events": ["refund", "zz"]}])
    db.deregister(contracts[0].contract_id)
    found["database"] = inventory(db.metrics.snapshot())
    db.journal.close()
    reopened = open_database(root / "db")
    assert reopened.journal_report.replayed
    found["reopened"] = inventory(reopened.metrics.snapshot())
    reopened.journal.close()

    with LocalCluster(2, directory=root / "cluster") as cluster, \
            cluster.database() as front:
        for spec in all_ticket_specs():
            front.register(spec)
        front.query("F refund")
        status = front.status()
        found["shard_status"] = sorted({
            ("counter", name)
            for shard in status["shards"] for name in shard["metrics"]
        })
        found["front_end"] = inventory(front.metrics.snapshot())
        found["shard"] = sorted({
            pair for server in cluster.servers
            for pair in inventory(server.db.metrics.snapshot())
        })
        replica = cluster.replica(0)
        replica.poll()
        found["replica"] = inventory(replica.metrics.snapshot())

    runner = ConformanceRunner(seed=0, cases=2,
                               configs=configs_by_name(["ndfs"]))
    runner.run()
    found["check"] = inventory(runner.metrics.snapshot())
    return found


@pytest.mark.parametrize("owner", sorted(EXPECTED))
def test_metric_names_are_unchanged(exported, owner):
    assert exported[owner] == EXPECTED[owner]
