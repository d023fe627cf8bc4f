"""Ablation: the seeds optimization of §6.2.4.

Algorithm 2 starts a nested cycle search at every product pair whose
query state is final; the seed precomputation skips pairs whose contract
state cannot lie on an accepting cycle.  This ablation measures the
nested-search work saved and the wall-clock effect on a batch of
permission checks.
"""

import statistics

from repro.automata.encode import encode_automaton
from repro.automata.ltl2ba import translate
from repro.bench.reporting import format_table, write_report
from repro.core.permission import PermissionStats, permits_encoded
from repro.core.seeds import compute_seeds
from repro.ltl.ast import conj


def _prepare(datasets, n_contracts: int = 20, n_queries: int = 6):
    contracts = []
    for spec in datasets["medium_contracts"].generate(n_contracts):
        formula = conj(spec.clauses)
        ba = translate(formula)
        encoded = encode_automaton(ba, formula.variables())
        contracts.append((encoded, encoded.state_mask(compute_seeds(ba))))
    queries = [
        encode_automaton(translate(conj(spec.clauses)))
        for spec in datasets["medium_queries"].generate(n_queries)
    ]
    return contracts, queries


def test_ablation_seeds(benchmark, datasets, results_dir):
    contracts, queries = _prepare(datasets)

    def run(use_seeds: bool):
        import time

        searches = 0
        skipped = 0
        start = time.perf_counter()
        for encoded, seeds_mask in contracts:
            for query in queries:
                stats = PermissionStats()
                permits_encoded(
                    encoded, query,
                    seeds_mask=seeds_mask if use_seeds else None,
                    use_seeds=use_seeds, stats=stats,
                )
                searches += stats.cycle_searches
                skipped += stats.seeds_skipped
        return time.perf_counter() - start, searches, skipped

    def experiment():
        return {"on": run(True), "off": run(False)}

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)
    (time_on, searches_on, skipped_on) = results["on"]
    (time_off, searches_off, _) = results["off"]

    write_report(
        results_dir / "ablation_seeds.txt",
        format_table(
            ["seeds", "total time (ms)", "cycle searches", "seeds skipped"],
            [
                ("on", round(time_on * 1000, 1), searches_on, skipped_on),
                ("off", round(time_off * 1000, 1), searches_off, 0),
            ],
            title="Ablation - the seeds optimization (§6.2.4)",
        ),
    )

    # seeds can only skip doomed searches, never add them
    assert searches_on <= searches_off

    # results agree either way (also covered by property tests)
    for encoded, seeds_mask in contracts[:5]:
        for query in queries[:3]:
            assert permits_encoded(
                encoded, query, seeds_mask=seeds_mask, use_seeds=True
            ) == permits_encoded(encoded, query, use_seeds=False)
