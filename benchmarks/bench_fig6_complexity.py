"""Figure 6: scaling with contract and query complexity.

Regenerates the paper's second experiment batch (§7.3): the 3x3 grid of
contract complexity (simple/medium/complex databases of fixed size) x
query complexity (simple/medium/complex workloads), reporting the
average speedup of the optimized system per cell.

Reproduced shape (paper): speedup *decreases* with query complexity
(complex queries cite more variables and cannot use the most simplified
projections) and does not degrade — the paper sees it *increase* — with
contract complexity (more variables to project away, so the bisimulation
technique bites harder).
"""

import statistics
from dataclasses import replace

from repro.bench.harness import run_figure6
from repro.bench.reporting import format_table, write_report
from repro.broker.database import BrokerConfig


def test_figure6(benchmark, datasets, bench_sizes, results_dir):
    contract_configs = [
        datasets["simple_contracts"],
        datasets["medium_contracts"],
        datasets["complex_contracts"],
    ]
    query_configs = [
        replace(datasets[key], size=bench_sizes["queries_per_workload"])
        for key in ("simple_queries", "medium_queries", "complex_queries")
    ]

    def experiment():
        return run_figure6(
            contract_configs=contract_configs,
            query_configs=query_configs,
            database_size=bench_sizes["figure6_db_size"],
            broker_config=BrokerConfig(),
        )

    cells = benchmark.pedantic(experiment, rounds=1, iterations=1)

    table = format_table(
        ["contracts", "queries", "speedup avg", "speedup stdev",
         "scan avg (ms)", "optimized avg (ms)"],
        [c.row() for c in cells],
        title=f"Figure 6 - average speedup vs contract and query "
              f"complexity (database size = "
              f"{bench_sizes['figure6_db_size']})",
    )
    write_report(results_dir / "figure6.txt", table)

    # -- the paper's qualitative claims ------------------------------------
    # optimized wins in every cell
    for cell in cells:
        assert cell.optimized_avg_seconds < cell.scan_avg_seconds, (
            cell.contract_dataset, cell.query_dataset,
        )

    # speedup decreases with query complexity (averaged over contract
    # complexities, as in the paper's grouped bars)
    by_query: dict[str, list[float]] = {}
    for cell in cells:
        by_query.setdefault(cell.query_dataset, []).append(cell.speedup_avg)
    simple = statistics.mean(by_query["Simple queries"])
    complex_ = statistics.mean(by_query["Complex queries"])
    assert simple > complex_

    # speedup holds up as contracts get more complex
    by_contract: dict[str, list[float]] = {}
    for cell in cells:
        by_contract.setdefault(cell.contract_dataset, []).append(
            cell.speedup_avg
        )
    assert statistics.mean(by_contract["Complex contracts"]) > (
        statistics.mean(by_contract["Simple contracts"]) * 0.5
    )


def test_benchmark_complex_contract_check(benchmark, datasets):
    """Micro view: one permission check of a complex contract against a
    medium query (the grid's unit of work)."""
    from repro.automata.encode import bind_query, encode_automaton
    from repro.automata.ltl2ba import translate
    from repro.core.permission import permits_encoded
    from repro.core.seeds import compute_seeds
    from repro.ltl.ast import conj

    contract_spec = datasets["complex_contracts"].generate(1)[0]
    query_spec = datasets["medium_queries"].generate(1)[0]
    contract_formula = conj(contract_spec.clauses)
    contract = translate(contract_formula)
    query = translate(conj(query_spec.clauses))
    # encode once, outside the timed region: the number is the search
    encoded = encode_automaton(contract, contract_formula.variables())
    encoded_query = encode_automaton(query)
    binding = bind_query(encoded, encoded_query)
    seeds_mask = encoded.state_mask(compute_seeds(contract))

    benchmark(lambda: permits_encoded(
        encoded, encoded_query, binding, seeds_mask=seeds_mask
    ))
