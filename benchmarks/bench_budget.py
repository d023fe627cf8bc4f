"""Bounded tail latency under execution budgets (the 1.3 QueryOptions API).

Not a paper figure — the degradation counterpart of §7.1's runtime
module.  Permission checking is PSPACE-complete in the formula sizes
(Theorem 6), so an adversarial database can make any latency target
unattainable for *exact* answers.  This benchmark builds exactly such a
database (wide eventuality conjunctions whose product searches are
exhaustive) and shows what a deadline buys: the exact scan's latency
grows with the database, while the budgeted scan returns a degraded
``QueryOutcome`` within a fixed wall-clock envelope, every time.

Shape assertions:

* the budgeted query's worst observed latency stays under the 1 s
  envelope (a 100 ms deadline plus scheduling slack), while the exact
  scan is far slower;
* every budgeted run is sound: its PERMITTED set is a subset of the
  exact answer, and the exact answer is covered by PERMITTED ∪ maybe;
* the ledger balances: candidates = checked + timed_out + skipped.
"""

import os
import time

from repro.bench.reporting import format_table, write_report
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN
from repro.ltl.printer import format_formula
from repro.workload.generator import pathological_query, pathological_specs

DEADLINE_SECONDS = 0.1
LATENCY_ENVELOPE_SECONDS = 1.0
ROUNDS = 10


def _contract_count() -> int:
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return max(10, int(round(60 * scale)))


def _build_db(count: int) -> ContractDatabase:
    # queried in scan mode (the prefilter would prune the adversarial
    # candidates outright, which is the *other* benchmark's story —
    # bench_figure5), so no projection stores are needed either
    db = ContractDatabase(BrokerConfig(use_projections=False))
    for i, spec in enumerate(pathological_specs(count, seed=7)):
        db.register(f"pathological-{i}", list(spec.clauses))
    return db


def test_budgeted_tail_latency(benchmark, results_dir):
    count = _contract_count()
    db = _build_db(count)
    query = format_formula(pathological_query())
    budgeted_options = QueryOptions(
        plan=SCAN_PLAN, deadline_seconds=DEADLINE_SECONDS
    )

    exact_start = time.perf_counter()
    exact = db.query(query, QueryOptions(plan=SCAN_PLAN))
    exact_seconds = time.perf_counter() - exact_start

    latencies = []
    outcomes = []
    for _ in range(ROUNDS):
        outcome = db.query(query, budgeted_options)
        latencies.append(outcome.stats.total_seconds)
        outcomes.append(outcome)

    # the timed entry is one budgeted degraded scan
    benchmark(lambda: db.query(query, budgeted_options))

    worst = max(latencies)
    assert worst < LATENCY_ENVELOPE_SECONDS
    assert not exact.degraded
    for outcome in outcomes:
        assert outcome.degraded
        s = outcome.stats
        assert s.candidates == s.checked + s.timed_out + s.skipped
        # degraded answers stay sound: no false positives, no silent
        # false negatives — everything unresolved is reported as maybe
        assert set(outcome.contract_ids) <= set(exact.contract_ids)
        assert set(exact.contract_ids) <= (
            set(outcome.contract_ids) | set(outcome.maybe_ids)
        )

    rows = [
        ("exact scan", f"{exact_seconds * 1000:.0f}", "-", "-", "-",
         "no"),
        ("budgeted scan (worst of %d)" % ROUNDS,
         f"{worst * 1000:.0f}",
         outcomes[-1].stats.checked,
         outcomes[-1].stats.timed_out,
         outcomes[-1].stats.skipped,
         "yes"),
    ]
    report = format_table(
        ["run", "latency (ms)", "checked", "timed out", "skipped",
         "degraded"],
        rows,
        title=f"Bounded tail latency - {count} adversarial contracts, "
              f"{DEADLINE_SECONDS * 1000:.0f}ms deadline",
    )
    write_report(results_dir / "budget_tail_latency.txt", report)

    assert worst < exact_seconds
