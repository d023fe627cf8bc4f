"""Experiment runners regenerating the paper's evaluation (§7.3–§7.4).

Each function builds the synthetic databases/workloads of §7.2 and
measures optimized versus unoptimized query evaluation, producing the
data behind:

* **Figure 5** (:func:`run_figure5`) — average speedup and running times
  (scan vs. optimized) across database sizes, simple contracts, all
  query complexities mixed;
* **Figure 6** (:func:`run_figure6`) — average speedup per contract
  complexity × query complexity at a fixed database size;
* **index building** (:func:`index_build_report`) — prefilter build
  time/size and projection precomputation time/storage (§7.4).

The *scan* (unoptimized) evaluation is the architecture of §3: translate
the query and run the permission algorithm against every contract BA.
The *optimized* evaluation uses both §4 and §5.  Both include the query
LTL-to-BA conversion time, exactly as the paper's measurements do.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..broker.database import BrokerConfig, ContractDatabase
from ..broker.options import PrebuiltArtifacts, QueryOptions
from ..broker.planner import SCAN_PLAN, QueryPlan
from ..ltl.ast import Formula, conj
from ..workload.datasets import DatasetConfig
from ..workload.generator import GeneratedSpec


@dataclass
class QueryEvaluation:
    """One query evaluated in one mode."""

    seconds: float
    permitted: int
    candidates: int
    checked: int


@dataclass
class SweepPoint:
    """One Figure 5 data point (one database size)."""

    database_size: int
    scan_avg_seconds: float
    optimized_avg_seconds: float
    speedup_avg: float
    speedup_stddev: float
    speedup_min: float
    speedup_max: float

    @property
    def aggregate_speedup(self) -> float:
        """Ratio of total scan time to total optimized time — more robust
        to per-query timing noise than the mean of per-query ratios."""
        return self.scan_avg_seconds / max(self.optimized_avg_seconds, 1e-9)

    def row(self) -> tuple:
        return (
            self.database_size,
            round(self.scan_avg_seconds * 1000, 1),
            round(self.optimized_avg_seconds * 1000, 1),
            round(self.speedup_avg, 1),
            round(self.speedup_stddev, 1),
            round(self.speedup_min, 1),
            round(self.speedup_max, 1),
            round(self.aggregate_speedup, 1),
        )


@dataclass
class GridCell:
    """One Figure 6 cell (contract complexity × query complexity)."""

    contract_dataset: str
    query_dataset: str
    speedup_avg: float
    speedup_stddev: float
    scan_avg_seconds: float
    optimized_avg_seconds: float

    def row(self) -> tuple:
        return (
            self.contract_dataset,
            self.query_dataset,
            round(self.speedup_avg, 1),
            round(self.speedup_stddev, 1),
            round(self.scan_avg_seconds * 1000, 1),
            round(self.optimized_avg_seconds * 1000, 1),
        )


def specs_to_formulas(specs: Sequence[GeneratedSpec]) -> list[Formula]:
    """Each spec's clause conjunction (the query form)."""
    return [conj(spec.clauses) for spec in specs]


def build_database(
    specs: Sequence[GeneratedSpec],
    config: BrokerConfig | None = None,
    name_prefix: str = "contract",
) -> ContractDatabase:
    """Register every generated spec into a fresh database."""
    db = ContractDatabase(config or BrokerConfig())
    extend_database(db, specs, name_prefix)
    return db


def extend_database(
    db: ContractDatabase,
    specs: Sequence[GeneratedSpec],
    name_prefix: str = "contract",
) -> None:
    """Register additional specs (used by the incremental size sweep).

    A spec that carries the automaton its generator translated is
    registered with it instead of being translated again — unless the
    generator's state budget was larger than the database's, which a
    prebuilt automaton would bypass.
    """
    base = len(db)
    for i, spec in enumerate(specs):
        prebuilt = None
        if (
            spec.ba is not None
            and spec.state_budget <= db.config.state_budget
        ):
            prebuilt = PrebuiltArtifacts(ba=spec.ba)
        db.register(
            f"{name_prefix}-{base + i}", list(spec.clauses), prebuilt=prebuilt
        )


#: The paper's *optimized* evaluation as a pinned plan: §4 prefilter and
#: §5 projections both engaged (:data:`SCAN_PLAN` is its counterpart).
OPTIMIZED_PLAN = QueryPlan(use_prefilter=True, use_projections=True)


def evaluate_query(
    db: ContractDatabase, query: Formula, optimized: bool
) -> QueryEvaluation:
    """Time one query in one mode — the paper's two pipelines, pinned
    (timings come from the broker's own per-phase clock, which includes
    query translation)."""
    result = db.query(
        query, QueryOptions(plan=OPTIMIZED_PLAN if optimized else SCAN_PLAN)
    )
    return QueryEvaluation(
        seconds=result.stats.total_seconds,
        permitted=result.stats.permitted,
        candidates=result.stats.candidates,
        checked=result.stats.checked,
    )


def _speedups(
    scans: Sequence[QueryEvaluation], optimizeds: Sequence[QueryEvaluation]
) -> list[float]:
    """Per-query speedups, guarding against sub-clock-resolution times."""
    floor = 1e-6
    return [
        max(s.seconds, floor) / max(o.seconds, floor)
        for s, o in zip(scans, optimizeds)
    ]


def run_queries(
    db: ContractDatabase, queries: Sequence[Formula], warmup: bool = True
) -> tuple[list[QueryEvaluation], list[QueryEvaluation]]:
    """Every query in both modes; returns (scan, optimized) lists and
    asserts both modes agreed on every result set size.

    With ``warmup`` (the default) an untimed optimized pass runs first so
    the lazily materialized projection quotients are built before the
    clock starts — the paper precomputes its simplified BAs entirely at
    registration time, so steady-state is the comparable regime.
    """
    if warmup:
        for q in queries:
            evaluate_query(db, q, optimized=True)
    scan = [evaluate_query(db, q, optimized=False) for q in queries]
    optimized = [evaluate_query(db, q, optimized=True) for q in queries]
    for i, (s, o) in enumerate(zip(scan, optimized)):
        if s.permitted != o.permitted:
            raise AssertionError(
                f"optimization changed query {i} result: "
                f"scan={s.permitted} optimized={o.permitted}"
            )
    return scan, optimized


def run_figure5(
    contract_config: DatasetConfig,
    query_configs: Sequence[DatasetConfig],
    database_sizes: Sequence[int],
    broker_config: BrokerConfig | None = None,
) -> list[SweepPoint]:
    """The Figure 5 sweep: growing databases of simple contracts,
    queries of every complexity, scan vs. optimized.

    Contracts are registered incrementally, so a sweep over sizes
    ``[100, 500, 1000]`` translates each contract exactly once.
    """
    sizes = sorted(database_sizes)
    all_specs = contract_config.generate(sizes[-1])
    queries: list[Formula] = []
    for qc in query_configs:
        queries.extend(specs_to_formulas(qc.generate()))

    db = ContractDatabase(broker_config or BrokerConfig())
    points: list[SweepPoint] = []
    registered = 0
    for size in sizes:
        extend_database(db, all_specs[registered:size])
        registered = size
        scan, optimized = run_queries(db, queries)
        speedups = _speedups(scan, optimized)
        points.append(
            SweepPoint(
                database_size=size,
                scan_avg_seconds=statistics.mean(e.seconds for e in scan),
                optimized_avg_seconds=statistics.mean(
                    e.seconds for e in optimized
                ),
                speedup_avg=statistics.mean(speedups),
                speedup_stddev=statistics.pstdev(speedups),
                speedup_min=min(speedups),
                speedup_max=max(speedups),
            )
        )
    return points


def run_figure6(
    contract_configs: Sequence[DatasetConfig],
    query_configs: Sequence[DatasetConfig],
    database_size: int | None = None,
    broker_config: BrokerConfig | None = None,
) -> list[GridCell]:
    """The Figure 6 grid: speedup per contract complexity × query
    complexity at one database size."""
    cells: list[GridCell] = []
    for contract_config in contract_configs:
        specs = contract_config.generate(database_size)
        db = build_database(specs, broker_config)
        for query_config in query_configs:
            queries = specs_to_formulas(query_config.generate())
            scan, optimized = run_queries(db, queries)
            speedups = _speedups(scan, optimized)
            cells.append(
                GridCell(
                    contract_dataset=contract_config.name,
                    query_dataset=query_config.name,
                    speedup_avg=statistics.mean(speedups),
                    speedup_stddev=statistics.pstdev(speedups),
                    scan_avg_seconds=statistics.mean(e.seconds for e in scan),
                    optimized_avg_seconds=statistics.mean(
                        e.seconds for e in optimized
                    ),
                )
            )
    return cells


@dataclass
class IndexBuildReport:
    """The §7.4 'index building and size' numbers."""

    contracts: int
    prefilter_build_seconds: float
    prefilter_avg_insert_seconds: float
    prefilter_nodes: int
    prefilter_size_entries: int
    projection_build_seconds: float
    projection_avg_insert_seconds: float
    projection_storage_entries: int
    projection_distinct_ratio: float
    database_storage_entries: int

    def rows(self) -> list[tuple]:
        return [
            ("contracts", self.contracts),
            ("prefilter build (s)", round(self.prefilter_build_seconds, 3)),
            ("prefilter avg insert (ms)",
             round(self.prefilter_avg_insert_seconds * 1000, 2)),
            ("prefilter nodes", self.prefilter_nodes),
            ("prefilter size (entries)", self.prefilter_size_entries),
            ("projection build (s)", round(self.projection_build_seconds, 3)),
            ("projection avg insert (ms)",
             round(self.projection_avg_insert_seconds * 1000, 2)),
            ("projection storage (entries)", self.projection_storage_entries),
            ("projection distinct partitions (ratio)",
             round(self.projection_distinct_ratio, 3)),
            ("contract BA storage (entries)", self.database_storage_entries),
        ]


def index_build_report(db: ContractDatabase) -> IndexBuildReport:
    """Summarize a built database's registration-side costs and sizes."""
    stats = db.registration_stats
    contracts = max(stats.contracts, 1)
    projection_storage = 0
    subsets = 0
    distinct = 0
    for contract in db.contracts():
        if contract.projections is not None:
            projection_storage += contract.projections.storage_estimate()
            subsets += contract.projections.num_subsets
            distinct += contract.projections.num_distinct_partitions
    database_storage = sum(
        c.ba.num_states + 3 * c.ba.num_transitions for c in db.contracts()
    )
    return IndexBuildReport(
        contracts=stats.contracts,
        prefilter_build_seconds=stats.prefilter_seconds,
        prefilter_avg_insert_seconds=stats.prefilter_seconds / contracts,
        prefilter_nodes=db.index.num_nodes,
        prefilter_size_entries=db.index.size_estimate(),
        projection_build_seconds=stats.projection_seconds,
        projection_avg_insert_seconds=stats.projection_seconds / contracts,
        projection_storage_entries=projection_storage,
        projection_distinct_ratio=(distinct / subsets) if subsets else 0.0,
        database_storage_entries=database_storage,
    )
