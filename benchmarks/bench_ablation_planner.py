"""Ablation: cost-based planning vs the four pinned pipelines.

§1 observes the two techniques serve different query profiles; the
cost-based :class:`repro.broker.planner.QueryPlanner` prices both per
query from the database statistics and engages each only where its
profile fits.  This ablation runs five *workload profiles* against the
four static pipelines — plain scan, prefilter-only, projections-only,
always-both, each a pinned :class:`~repro.broker.planner.QueryPlan` —
plus the planner (plain ``QueryOptions()``: the path every query takes),
on one shared database.  Answers must be identical under every policy
(invariant 14: plans change time, never answers); the timing claim is
that the planner tracks the best static pipeline on every profile while
no static pipeline does (each has a profile where it loses badly), and
that engaging both techniques never costs much over the better single
one (the paper's "distinct and complementary", §1).

The per-profile ratios go to ``results/ablation_planner.txt``; the
conservative floors below are asserted on every run (CI's bench-smoke
job included).
"""

import statistics
import time
from dataclasses import replace

from repro.bench.harness import specs_to_formulas
from repro.bench.reporting import format_table, write_report
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN, QueryPlan
from repro.broker.relational import MATCH_ALL, AttributeFilter, le
from repro.automata.ltl2ba import translate
from repro.index.pruning import pruning_condition
from repro.ltl.parser import parse

#: CI assertion floors — looser than what a quiet machine measures
#: (within 5% of best / ≥2x over worst) so shared-runner noise cannot
#: flake the build, but tight enough that a planner that stops tracking
#: the best static configuration, or loses its win over the worst one,
#: fails the job.
MAX_PLANNER_VS_BEST = 1.30
MIN_WORST_VS_PLANNER = 1.4
#: "both" may pay two machineries' overheads, but never much more than
#: the better single technique costs on the same profile.
MAX_BOTH_VS_BETTER_SINGLE = 1.5
ROUNDS = 7

#: The static pipelines the planner is arbitrating between, as pinned
#: plans.  The planner additionally chooses the stage order, which
#: these leave at the default (attribute filter first).
STATIC_POLICIES = {
    "scan": SCAN_PLAN,
    "prefilter-only": QueryPlan(use_prefilter=True, use_projections=False),
    "projections-only": QueryPlan(use_prefilter=False, use_projections=True),
    "both": QueryPlan(use_prefilter=True, use_projections=True),
}

#: Queries the §4 index cannot prune (tautologies: every behavior
#: satisfies them, so the pruning condition is TRUE and any probe is
#: pure overhead).  Over the scaled datasets' ``p*`` vocabulary.
UNPRUNABLE_QUERIES = (
    "true",
    "G(p1 -> p1)",
    "G(p2 -> p2)",
    "F p3 || !F p3",
    "G(p4 -> p4)",
    "F p5 || !F p5",
    "p6 || !p6",
    "G(p7 -> p7)",
)


def _build_database(datasets, size: int) -> ContractDatabase:
    """Simple contracts with synthetic relational attributes (price
    bands and cycling routes) so the filtered profile has a selective
    predicate to exercise.

    Contracts draw from the paper's 20-event vocabulary (Table 2) while
    the scaled query workloads keep their narrower one — so per-label
    posting lists are sparse and the §4 index has real pruning room, as
    in the paper's setup."""
    db = ContractDatabase(BrokerConfig())
    specs = replace(
        datasets["simple_contracts"], vocabulary_size=20
    ).generate(size)
    for i, spec in enumerate(specs):
        db.register(
            f"contract-{i}",
            list(spec.clauses),
            attributes={
                "price": 100 * (i % 20 + 1),
                "route": f"R{i % 16}",
            },
        )
    return db


def _wide_condition_queries(db, datasets, count: int):
    """Complex queries whose pruning conditions are the widest of a
    larger pool (big and/or trees, labels past the trie depth cap that
    fan out into subset probes) — the §4 index's hostile profile, where
    probing costs more than the checks it saves."""
    pool = specs_to_formulas(
        replace(datasets["complex_queries"], size=4 * count).generate()
    )
    scored = []
    for query in pool:
        condition = pruning_condition(translate(query))
        scored.append((db.index.estimate_probe_cost(condition), query))
    scored.sort(key=lambda pair: pair[0], reverse=True)
    return [query for _, query in scored[:count]]


def _profiles(db, datasets, queries_per_profile: int):
    """(name, queries, attribute_filter) per workload profile."""
    def formulas(key):
        config = replace(datasets[key], size=queries_per_profile)
        return specs_to_formulas(config.generate())

    filtered = AttributeFilter.where(le("price", 1000))
    return [
        ("simple-queries", formulas("simple_queries"), MATCH_ALL),
        ("complex-queries", formulas("complex_queries"), MATCH_ALL),
        ("wide-conditions",
         _wide_condition_queries(db, datasets, 4), MATCH_ALL),
        ("unprunable", [parse(q) for q in UNPRUNABLE_QUERIES], MATCH_ALL),
        ("filtered", formulas("simple_queries"), filtered),
    ]


def _sweep(db, queries, options) -> tuple[float, tuple]:
    """One timed pass over the profile's queries; returns (seconds,
    answer signature)."""
    answers = []
    start = time.perf_counter()
    for query in queries:
        result = db.query(query, options)
        answers.append(frozenset(result.contract_ids))
    return time.perf_counter() - start, tuple(answers)


def test_ablation_planner(benchmark, datasets, bench_sizes, results_dir):
    db = _build_database(
        datasets, max(160, 2 * bench_sizes["figure6_db_size"])
    )
    profiles = _profiles(
        db, datasets, max(6, bench_sizes["queries_per_workload"] // 2)
    )
    measured = {}
    for name, queries, attribute_filter in profiles:
        policies = {
            policy: QueryOptions(attribute_filter=attribute_filter, plan=plan)
            for policy, plan in STATIC_POLICIES.items()
        }
        policies["planner"] = QueryOptions(attribute_filter=attribute_filter)

        # one untimed pass per policy: compiles the queries, materializes
        # the lazy projection quotients, and fills the plan cache — the
        # steady-state regime every policy is then timed in
        signature = None
        for options in policies.values():
            _, answers = _sweep(db, queries, options)
            if signature is None:
                signature = answers
            assert answers == signature, f"{name}: answers diverged"

        # policies interleave round-robin so clock drift and transient
        # machine load hit every policy equally instead of biasing
        # whichever one happened to run during the slow stretch
        samples = {policy: [] for policy in policies}
        for _ in range(ROUNDS):
            for policy, options in policies.items():
                seconds, answers = _sweep(db, queries, options)
                assert answers == signature, (
                    f"{name}/{policy}: answers diverged"
                )
                samples[policy].append(seconds)
        timings = {
            policy: statistics.median(times)
            for policy, times in samples.items()
        }

        statics = {p: timings[p] for p in STATIC_POLICIES}
        best = min(statics, key=statics.get)
        worst = max(statics, key=statics.get)
        measured[name] = {
            "best_static": best,
            "worst_static": worst,
            "planner_vs_best": round(timings["planner"] / statics[best], 3),
            "worst_vs_planner": round(
                statics[worst] / timings["planner"], 2
            ),
            "both_vs_better_single": round(
                statics["both"] / min(
                    statics["prefilter-only"], statics["projections-only"]
                ), 3
            ),
        }

    write_report(
        results_dir / "ablation_planner.txt",
        format_table(
            ["profile", "best static", "worst static",
             "planner/best", "worst/planner"],
            [
                [name, row["best_static"], row["worst_static"],
                 row["planner_vs_best"], f"{row['worst_vs_planner']}x"]
                for name, row in measured.items()
            ],
            title="Ablation - cost-based planner vs static pipeline "
                  "configurations (simple contracts)",
        ),
    )

    for name, row in measured.items():
        assert row["planner_vs_best"] <= MAX_PLANNER_VS_BEST, (
            f"{name}: planner {row['planner_vs_best']}x the best static "
            f"configuration ({row['best_static']}; ceiling "
            f"{MAX_PLANNER_VS_BEST}x)"
        )
        assert row["both_vs_better_single"] <= MAX_BOTH_VS_BETTER_SINGLE, (
            f"{name}: both techniques together cost "
            f"{row['both_vs_better_single']}x the better single one "
            f"(ceiling {MAX_BOTH_VS_BETTER_SINGLE}x)"
        )
    assert any(
        row["worst_vs_planner"] >= MIN_WORST_VS_PLANNER
        for row in measured.values()
    ), (
        "no profile shows the planner beating the worst static "
        f"configuration by ≥{MIN_WORST_VS_PLANNER}x"
    )

    # the timed callable pytest-benchmark tracks: the planned policy over
    # every profile (what the broker serves)
    def planned_sweeps():
        for _, queries, attribute_filter in profiles:
            _sweep(db, queries, QueryOptions(
                attribute_filter=attribute_filter
            ))

    benchmark(planned_sweeps)
