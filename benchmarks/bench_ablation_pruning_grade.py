"""Ablation: approximated vs complete pruning conditions (§4.1.1).

The paper implements an approximated lasso pruning condition and claims
it "has nearly the same number of false positives as the complete
pruning conditions" while being much faster to compute.  This ablation
measures both grades on the same database and query workload: extraction
time, candidate counts, and false positives against the exact permitted
sets.
"""

import statistics
import time
from dataclasses import replace

from repro.automata.encode import encode_automaton
from repro.automata.ltl2ba import translate
from repro.bench.harness import build_database, specs_to_formulas
from repro.bench.reporting import format_table, write_report
from repro.broker.database import BrokerConfig
from repro.core.permission import permits_encoded
from repro.index.complete_pruning import complete_pruning_condition
from repro.index.pruning import pruning_condition


def test_ablation_pruning_grade(benchmark, datasets, bench_sizes,
                                results_dir):
    def experiment():
        contracts = datasets["simple_contracts"].generate(
            max(40, bench_sizes["figure6_db_size"] // 2)
        )
        db = build_database(contracts, BrokerConfig(use_projections=False))
        query_config = replace(
            datasets["medium_queries"],
            size=max(6, bench_sizes["queries_per_workload"]),
        )
        queries = [
            translate(q) for q in specs_to_formulas(query_config.generate())
        ]

        grades = {"approximated": pruning_condition,
                  "complete": complete_pruning_condition}
        metrics = {}
        per_query_candidates = {}
        for grade, extractor in grades.items():
            extract_time = 0.0
            candidates = []
            false_positives = []
            for query in queries:
                start = time.perf_counter()
                condition = extractor(query)
                extract_time += time.perf_counter() - start
                selected = db.index.evaluate(condition)
                encoded_query = encode_automaton(query, table=db.event_table)
                exact = {
                    c.contract_id
                    for c in db.contracts()
                    if c.contract_id in selected
                    and permits_encoded(
                        c.encoded, encoded_query,
                        seeds_mask=c.encoded_seeds_mask,
                    )
                }
                # soundness re-check against the full database
                for contract in db.contracts():
                    if contract.contract_id in selected:
                        continue
                    assert not permits_encoded(
                        contract.encoded, encoded_query,
                        seeds_mask=contract.encoded_seeds_mask,
                    ), f"{grade} condition pruned a permitting contract"
                candidates.append(len(selected))
                false_positives.append(len(selected) - len(exact))
            metrics[grade] = (
                extract_time / len(queries),
                statistics.mean(candidates),
                statistics.mean(false_positives),
            )
            per_query_candidates[grade] = candidates
        return metrics, per_query_candidates, len(contracts)

    metrics, per_query, db_size = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )

    rows = [
        (grade,
         round(values[0] * 1000, 2),
         round(values[1], 1),
         round(values[2], 1))
        for grade, values in metrics.items()
    ]
    write_report(
        results_dir / "ablation_pruning_grade.txt",
        format_table(
            ["condition grade", "avg extraction (ms)", "avg candidates",
             "avg false positives"],
            rows,
            title=f"Ablation - approximated vs complete pruning conditions "
                  f"({db_size} simple contracts, medium queries)",
        ),
    )

    # the paper's claim: nearly the same false positives, cheaper to build
    approx_fp = metrics["approximated"][2]
    complete_fp = metrics["complete"][2]
    assert complete_fp <= approx_fp + 1e-9
    assert approx_fp <= complete_fp + max(3.0, 0.15 * db_size)
