"""Selectivity sweep: pruning power and speedup vs query specificity.

Supports the paper's claim that prefiltering "is extremely effective for
highly selective complex queries" (§1) with a controlled experiment:
queries are derived from stored contracts as eventuality chains of
growing depth (`repro.workload.selectivity`), so deeper chains are more
selective, and the candidate-set fraction plus the scan/optimized
speedup are charted against depth.
"""

import statistics

from repro.bench.harness import OPTIMIZED_PLAN, build_database
from repro.bench.reporting import format_table, write_report
from repro.broker.database import BrokerConfig
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN
from repro.workload.selectivity import derived_workload

DEPTHS = (1, 2, 3, 4)


def test_selectivity_sweep(benchmark, datasets, bench_sizes, results_dir):
    def experiment():
        contracts = datasets["simple_contracts"].generate(
            max(60, bench_sizes["figure6_db_size"])
        )
        db = build_database(contracts, BrokerConfig())
        contract_bas = [c.ba for c in db.contracts()]

        rows = []
        fractions = []
        for depth in DEPTHS:
            queries = derived_workload(
                contract_bas, depth,
                count=max(6, bench_sizes["queries_per_workload"]),
            )
            assert queries, f"no depth-{depth} queries derivable"
            for query in queries:  # warm projections
                db.query(query, QueryOptions(plan=OPTIMIZED_PLAN))
            candidate_fractions = []
            speedups = []
            matched = []
            for query in queries:
                scan = db.query(query, QueryOptions(plan=SCAN_PLAN))
                fast = db.query(query, QueryOptions(plan=OPTIMIZED_PLAN))
                assert scan.contract_ids == fast.contract_ids
                candidate_fractions.append(
                    fast.stats.candidates / len(db)
                )
                matched.append(len(fast.contract_ids))
                speedups.append(
                    max(scan.stats.total_seconds, 1e-9)
                    / max(fast.stats.total_seconds, 1e-9)
                )
            fraction = statistics.mean(candidate_fractions)
            fractions.append(fraction)
            rows.append((
                depth,
                len(queries),
                round(statistics.mean(matched), 1),
                f"{fraction:.0%}",
                round(statistics.mean(speedups), 1),
            ))
        return rows, fractions

    rows, fractions = benchmark.pedantic(experiment, rounds=1, iterations=1)

    write_report(
        results_dir / "selectivity.txt",
        format_table(
            ["chain depth", "queries", "avg matches", "avg candidates",
             "avg speedup"],
            rows,
            title="Selectivity sweep - pruning power vs query "
                  "specificity (derived eventuality-chain queries)",
        ),
    )

    # deeper chains are at least as selective on average (small slack for
    # the changing query mix)
    assert fractions[-1] <= fractions[0] + 0.05
    # and the index genuinely prunes on the deepest tier
    assert fractions[-1] < 0.9
