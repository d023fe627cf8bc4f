"""Realistic-corpus benchmark (not a paper figure).

Registers the curated multi-domain contract corpus and answers every
customer question, with and without the optimizations — a
regression-guard for end-to-end latency on hand-written (rather than
synthetic) contracts, and a check that the optimizations help on
realistic clause structure too.
"""

import statistics

from repro.bench.reporting import format_table, write_report
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN
from repro.workload.corpus import all_domains


def test_corpus_end_to_end(benchmark, results_dir):
    def experiment():
        rows = []
        for domain in all_domains():
            db = ContractDatabase(BrokerConfig(),
                                  vocabulary=domain.vocabulary)
            for spec in domain.contracts:
                db.register(spec)
            # warm projections
            for ltl, _ in domain.questions.values():
                db.query(ltl)
            scan_times, fast_times = [], []
            for question, (ltl, expected) in domain.questions.items():
                scan = db.query(ltl, QueryOptions(plan=SCAN_PLAN))
                fast = db.query(ltl)
                assert set(scan.contract_names) == set(expected), question
                assert set(fast.contract_names) == set(expected), question
                scan_times.append(scan.stats.total_seconds)
                fast_times.append(fast.stats.total_seconds)
            rows.append((
                domain.name,
                len(domain.contracts),
                len(domain.questions),
                round(statistics.mean(scan_times) * 1000, 2),
                round(statistics.mean(fast_times) * 1000, 2),
            ))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    write_report(
        results_dir / "corpus.txt",
        format_table(
            ["domain", "contracts", "questions", "scan avg (ms)",
             "optimized avg (ms)"],
            rows,
            title="Realistic corpus - end-to-end question answering",
        ),
    )
    assert len(rows) == 4
