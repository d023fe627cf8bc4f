"""Figure 5: scaling with database size.

Regenerates the paper's first experiment batch (§7.3): databases of
simple contracts of growing size, all query complexities mixed, average
unoptimized ('scan') time, optimized time, and per-query speedup with
standard deviation.

Reproduced shape (paper, 100→3000 contracts): both curves grow roughly
linearly with database size; the optimized system is faster everywhere;
the average speedup *increases* with database size ("a common effect of
indexing schemes") and is rarely below a few x.

The full sweep runs as a single-round pytest-benchmark entry so that
``pytest benchmarks/ --benchmark-only`` both times it and writes
``results/figure5.txt``.
"""

from dataclasses import replace

from repro.bench.harness import run_figure5
from repro.bench.reporting import format_bar_chart, format_table, write_report
from repro.broker.database import BrokerConfig
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN


def _query_configs(datasets, bench_sizes):
    return [
        replace(datasets[key], size=bench_sizes["queries_per_workload"])
        for key in ("simple_queries", "medium_queries", "complex_queries")
    ]


def test_figure5(benchmark, datasets, bench_sizes, results_dir):
    def experiment():
        return run_figure5(
            contract_config=datasets["simple_contracts"],
            query_configs=_query_configs(datasets, bench_sizes),
            database_sizes=bench_sizes["figure5_db_sizes"],
            broker_config=BrokerConfig(),
        )

    points = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = format_table(
        ["db size", "scan avg (ms)", "optimized avg (ms)",
         "speedup avg", "speedup stdev", "speedup min", "speedup max",
         "aggregate speedup"],
        [p.row() for p in points],
        title="Figure 5 - speedup and running times vs database size "
              "(simple contracts, all query complexities)",
    )
    chart = format_bar_chart(
        [f"{p.database_size} contracts" for p in points],
        [p.speedup_avg for p in points],
        title="Figure 5 - average speedup",
    )
    write_report(results_dir / "figure5.txt", table + "\n\n" + chart)

    # -- the paper's qualitative claims ------------------------------------
    first, last = points[0], points[-1]
    # scan time grows with the database (near-linear growth)
    assert last.scan_avg_seconds > first.scan_avg_seconds
    # the optimized system wins on every database size
    for point in points:
        assert point.optimized_avg_seconds < point.scan_avg_seconds
    # the speedup does not erode as the database grows (the paper sees it
    # *increase*; a noise margin keeps the assertion robust on shared
    # machines — the reported table shows the actual trend)
    assert last.aggregate_speedup > 0.6 * first.aggregate_speedup
    assert last.aggregate_speedup > 1.2


def test_benchmark_optimized_query(benchmark, datasets, bench_sizes):
    """pytest-benchmark micro view: one optimized query on a mid-size DB."""
    from repro.bench.harness import (
        OPTIMIZED_PLAN,
        build_database,
        specs_to_formulas,
    )

    size = bench_sizes["figure5_db_sizes"][1]
    db = build_database(
        datasets["simple_contracts"].generate(size), BrokerConfig()
    )
    query = specs_to_formulas(datasets["simple_queries"].generate(1))[0]
    optimized = QueryOptions(plan=OPTIMIZED_PLAN)
    db.query(query, optimized)  # warm projections

    result = benchmark(lambda: db.query(query, optimized))
    assert result.stats.database_size == size


def test_benchmark_scan_query(benchmark, datasets, bench_sizes):
    """The unoptimized counterpart of the micro view above."""
    from repro.bench.harness import build_database, specs_to_formulas

    size = bench_sizes["figure5_db_sizes"][1]
    db = build_database(
        datasets["simple_contracts"].generate(size), BrokerConfig()
    )
    query = specs_to_formulas(datasets["simple_queries"].generate(1))[0]

    result = benchmark(
        lambda: db.query(query, QueryOptions(plan=SCAN_PLAN))
    )
    assert result.stats.candidates == size
