"""Ablation: workload-guided projection precomputation (§5.2).

When contract complexity precludes precomputing all projections, the
paper suggests capping the subset size and, further, using "heuristics
based on historical data and/or expected workloads to determine which
simplification to precompute".  This ablation compares three
registration policies on a query workload that exceeds the lattice cap:

* ``cap-0``       — no lattice, no extras (always the full BA);
* ``cap-1``       — small lattice only;
* ``cap-1+workload`` — small lattice plus exactly the subsets a sample
  workload requests.
"""

import statistics
from dataclasses import replace

from repro.bench.harness import (
    OPTIMIZED_PLAN,
    build_database,
    specs_to_formulas,
)
from repro.bench.reporting import format_table, write_report
from repro.broker.database import BrokerConfig
from repro.broker.options import QueryOptions
from repro.automata.ltl2ba import translate


def test_ablation_workload_projections(benchmark, datasets, bench_sizes,
                                       results_dir):
    def experiment():
        contracts = datasets["medium_contracts"].generate(
            max(20, bench_sizes["figure6_db_size"] // 4)
        )
        query_config = replace(
            datasets["medium_queries"],
            size=max(6, bench_sizes["queries_per_workload"] // 2),
        )
        query_formulas = specs_to_formulas(query_config.generate())

        rows = []
        baselines = None
        for policy in ("cap-0", "cap-1", "cap-1+workload"):
            cap = 0 if policy == "cap-0" else 1
            db = build_database(contracts, BrokerConfig(
                projection_subset_cap=cap,
            ))
            if policy.endswith("workload"):
                db.precompute_for_workload(query_formulas)
            # warm materializations, then measure (projections pinned
            # on: the stores are what this ablation varies)
            for query in query_formulas:
                db.query(query, QueryOptions(plan=OPTIMIZED_PLAN))
            times = []
            selected_sizes = []
            answers = []
            for query in query_formulas:
                result = db.query(
                    query, QueryOptions(plan=OPTIMIZED_PLAN)
                )
                times.append(result.stats.total_seconds)
                answers.append(frozenset(result.contract_ids))
                query_ba = translate(query)
                for contract in db.contracts():
                    store = contract.projections
                    if store is not None:
                        selected_sizes.append(
                            store.select(query_ba.literals()).num_states
                        )
            if baselines is None:
                baselines = answers
            assert answers == baselines, f"{policy} changed answers"
            rows.append((
                policy,
                round(statistics.mean(times) * 1000, 2),
                round(statistics.mean(selected_sizes), 2),
            ))
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)

    write_report(
        results_dir / "ablation_workload_projections.txt",
        format_table(
            ["policy", "avg query (ms)", "avg checked-BA states"],
            rows,
            title="Ablation - workload-guided projection precomputation "
                  "(medium contracts, medium queries)",
        ),
    )

    # workload guidance can only shrink the automata actually checked
    sizes = {policy: states for policy, _, states in rows}
    assert sizes["cap-1+workload"] <= sizes["cap-1"] + 1e-9
    assert sizes["cap-1"] <= sizes["cap-0"] + 1e-9
