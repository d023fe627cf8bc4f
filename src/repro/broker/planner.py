"""Cost-based per-query planning.

The paper observes that its two techniques serve different query
profiles: prefiltering "is extremely effective for highly selective
complex queries" (§1) while the bisimulation projections "provide the
best results for simple queries that mention few events" (§1, §5.2).
A production broker can exploit that by *choosing per query* instead of
always paying both machineries' overheads.

:class:`QueryPlanner` prices three pipeline shapes against a
:class:`CostModel` fed by the database's incrementally maintained
statistics (:mod:`repro.broker.stats`):

* **scan** — attribute filter only, every survivor straight to the
  decider (the §4 index cannot prune, or pruning costs more than it
  saves);
* **attr-first** — attribute filter, then the §4 set-trie prefilter on
  the survivors (the classic order: the relational stage is cheap per
  row and shrinks the id set the condition intersects);
* **prefilter-first** — evaluate the pruning condition against the
  whole index first, then run the attribute filter only on the pruned
  survivors (wins when the filter is a wide conjunction and the
  condition is very selective).

Projections are priced orthogonally: engaged when the estimated
quotient shrink beats the per-candidate selection overhead (and the
query cites at most ``projection_literal_budget`` literals).  The
result is an inspectable :class:`QueryPlan` carrying per-stage
cardinality and cost estimates (:meth:`QueryPlan.explain`).

Every query runs a :class:`QueryPlan`: the database's planner writes
one per query (through the plan cache) unless the caller pins its own
with ``QueryOptions(plan=...)`` — the ablation hook the paper-figure
benches and the static conformance cells use.  A plan toggles stages
and orders them but the stages themselves are sound, so **plans change
time, never answers** — a property the conformance lattice re-proves
against the oracle on every run, for the planner's plans and for every
pinned one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..automata.buchi import BuchiAutomaton
from ..index.condition import CondTrue
from ..index.pruning import pruning_condition
from .relational import MATCH_ALL, AttributeFilter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import ContractDatabase

#: Stage orders a plan can choose (``QueryPlan.order``).
ATTR_FIRST = "attr_first"
PREFILTER_FIRST = "prefilter_first"
STAGE_ORDERS = (ATTR_FIRST, PREFILTER_FIRST)


@dataclass(frozen=True)
class CostModel:
    """Abstract per-operation costs, in units of one attribute compare.

    The absolute scale is arbitrary — only the ratios steer plans.  The
    defaults were calibrated on the benchmark workloads
    (``benchmarks/bench_ablation_planner.py``); they only need to be
    right to within a factor of a few, because the pipelines they
    arbitrate differ by orders of magnitude on the profiles that matter.
    """

    #: evaluating one attribute condition against one contract
    attribute_compare: float = 1.0
    #: one primitive index operation (a set-trie walk, a subset-probe
    #: posting intersection, or one and/or node's set-algebra step) —
    #: multiplied by :meth:`PrefilterIndex.estimate_probe_cost`, which
    #: counts how many of these evaluating the pruning condition costs
    prefilter_probe: float = 6.0
    #: choosing the smallest applicable projection for one candidate
    selection: float = 2.0
    #: visiting one product-automaton state pair during the search
    state_pair: float = 2.0
    #: floor on the estimated automaton sizes (an empty estimate must
    #: still price a nonzero check)
    min_states: float = 2.0


@dataclass(frozen=True)
class PlannedStage:
    """One pipeline stage's cardinality and cost estimate."""

    name: str
    input_size: float
    output_size: float
    cost: float
    detail: str = ""

    def render(self) -> str:
        line = (
            f"{self.name:<18} in≈{self.input_size:8.1f}  "
            f"out≈{self.output_size:8.1f}  cost≈{self.cost:10.1f}"
        )
        if self.detail:
            line += f"  ({self.detail})"
        return line


@dataclass(frozen=True)
class QueryPlan:
    """The evaluation strategy one query runs: which stages, in which
    order.

    The planner's plans additionally carry its reasoning, the per-stage
    estimates and the total estimated cost; a plan built by hand
    (``QueryPlan(use_prefilter=False, use_projections=False)``) is
    *pinned* — handed to ``QueryOptions(plan=...)`` it is executed as
    is.  ``order`` only matters when the prefilter is on.
    """

    use_prefilter: bool
    use_projections: bool
    reason: str = "pinned"
    order: str = ATTR_FIRST
    stages: tuple[PlannedStage, ...] = ()
    cost: float = 0.0

    def __post_init__(self) -> None:
        if self.order not in STAGE_ORDERS:
            raise ValueError(
                f"order must be one of {STAGE_ORDERS}, got {self.order!r}"
            )

    def __str__(self) -> str:
        parts = []
        parts.append("prefilter" if self.use_prefilter else "no-prefilter")
        parts.append(
            "projections" if self.use_projections else "no-projections"
        )
        if self.use_prefilter and self.order != ATTR_FIRST:
            parts.append(self.order)
        return f"QueryPlan({', '.join(parts)}: {self.reason})"

    def explain(self) -> str:
        """A human-readable rendering: decisions, then the per-stage
        cardinality/cost table (the planner's plans only)."""
        lines = [
            f"plan: {'prefilter' if self.use_prefilter else 'no-prefilter'}"
            f", {'projections' if self.use_projections else 'no-projections'}"
            f", order={self.order}",
            f"reason: {self.reason}",
        ]
        if self.stages:
            lines.append(f"estimated cost: {self.cost:.1f} units")
            for stage in self.stages:
                lines.append("  " + stage.render())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The JSON-able form (``contract-broker explain --json``)."""
        return {
            "use_prefilter": self.use_prefilter,
            "use_projections": self.use_projections,
            "order": self.order,
            "reason": self.reason,
            "cost": self.cost,
            "stages": [
                {
                    "name": stage.name,
                    "input_size": stage.input_size,
                    "output_size": stage.output_size,
                    "cost": stage.cost,
                    "detail": stage.detail,
                }
                for stage in self.stages
            ],
        }


#: The paper's scan baseline (§3) as a pinned plan: attribute filter,
#: then the decider on every survivor's full automaton.
SCAN_PLAN = QueryPlan(use_prefilter=False, use_projections=False)


@dataclass(frozen=True)
class QueryPlanner:
    """Cost-based per-query optimizer.

    Attributes:
        projection_literal_budget: engage projections only for queries
            citing at most this many literals.  The default is
            deliberately permissive (selection is cheap and falls back
            to the full automaton); lower it only for databases whose
            projection stores are tiny relative to query width.
        cost_model: the abstract per-operation costs plans are priced
            with.
    """

    projection_literal_budget: int = 16
    cost_model: CostModel = CostModel()

    def plan(
        self,
        query_ba: BuchiAutomaton,
        condition=None,
        *,
        database: "ContractDatabase",
        attribute_filter: AttributeFilter = MATCH_ALL,
    ) -> QueryPlan:
        """Choose the cheapest pipeline for this query, priced on the
        database's statistics and index.

        ``condition`` lets callers that already hold the query's pruning
        condition (a :class:`~repro.broker.cache.CompiledQuery`) avoid
        recomputing it.  An empty database prices every pipeline at
        nothing but the index probe, so it plans a scan.
        """
        if condition is None:
            condition = pruning_condition(query_ba)
        m = self.cost_model
        stats = database.statistics
        total = float(stats.contracts)
        num_literals = len(query_ba.literals())
        query_states = max(float(query_ba.num_states), 1.0)

        n_conditions = len(attribute_filter.conditions)
        filter_selectivity = (
            stats.attributes.estimate_filter(attribute_filter)
            if n_conditions
            else 1.0
        )

        prunable = not isinstance(condition, CondTrue)
        if prunable:
            prefilter_selectivity = database.index.estimate_selectivity(
                condition
            )
            # priced per primitive operation: big pruning-condition trees
            # (and labels beyond the trie's depth cap, which fan out into
            # subset probes) make the index far more expensive than a
            # label count suggests
            prefilter_cost = (
                database.index.estimate_probe_cost(condition)
                * m.prefilter_probe
            )
        else:
            prefilter_selectivity = 1.0
            prefilter_cost = 0.0

        # per-candidate decider cost, with and without projections
        avg_states = max(stats.avg_states, m.min_states)
        check_full = avg_states * query_states * m.state_pair
        project = (
            num_literals <= self.projection_literal_budget
            and stats.projection_stores > 0
        )
        if project:
            # the best stored quotient is optimistic (selection depends
            # on the query's literals), so blend it with the full size
            proj_states = max(
                (stats.avg_min_blocks + avg_states) / 2.0, m.min_states
            )
            check_proj = (
                m.selection + proj_states * query_states * m.state_pair
            )
            project = check_proj < check_full
        check_cost = check_proj if project else check_full
        check_label = "projected" if project else "full automaton"

        filter_cost_per_row = n_conditions * m.attribute_compare
        after_filter = total * filter_selectivity
        after_both = total * filter_selectivity * prefilter_selectivity

        # the three pipeline shapes
        scan_cost = total * filter_cost_per_row + after_filter * check_cost
        attr_first_cost = (
            total * filter_cost_per_row
            + prefilter_cost
            + after_both * check_cost
        )
        prefilter_first_cost = (
            prefilter_cost
            + total * prefilter_selectivity * filter_cost_per_row
            + after_both * check_cost
        )

        choices = [
            ("scan", scan_cost),
            (ATTR_FIRST, attr_first_cost),
            (PREFILTER_FIRST, prefilter_first_cost),
        ]
        if not prunable:
            choices = choices[:1]
        elif not n_conditions:
            # with no attribute conditions the two orders coincide;
            # keep the canonical one
            choices = choices[:2]
        best, best_cost = min(choices, key=lambda pair: pair[1])

        use_prefilter = best != "scan"
        order = PREFILTER_FIRST if best == PREFILTER_FIRST else ATTR_FIRST
        stages = self._stages(
            best,
            total=total,
            filter_selectivity=filter_selectivity,
            filter_cost_per_row=filter_cost_per_row,
            prefilter_selectivity=prefilter_selectivity,
            prefilter_cost=prefilter_cost,
            check_cost=check_cost,
            check_label=check_label,
            n_conditions=n_conditions,
        )
        reason = self._reason(
            best, project, num_literals, filter_selectivity,
            prefilter_selectivity, prunable,
        )
        return QueryPlan(
            use_prefilter=use_prefilter,
            use_projections=project,
            reason=reason,
            order=order,
            stages=stages,
            cost=best_cost,
        )

    @staticmethod
    def _stages(
        best: str,
        *,
        total: float,
        filter_selectivity: float,
        filter_cost_per_row: float,
        prefilter_selectivity: float,
        prefilter_cost: float,
        check_cost: float,
        check_label: str,
        n_conditions: int,
    ) -> tuple[PlannedStage, ...]:
        stages: list[PlannedStage] = []
        rows = total

        def attr_stage(rows_in: float) -> PlannedStage:
            return PlannedStage(
                name="attribute-filter",
                input_size=rows_in,
                output_size=rows_in * filter_selectivity,
                cost=rows_in * filter_cost_per_row,
                detail=(
                    f"{n_conditions} condition(s), "
                    f"selectivity≈{filter_selectivity:.3f}"
                ),
            )

        def prefilter_stage(rows_in: float) -> PlannedStage:
            return PlannedStage(
                name="prefilter",
                input_size=rows_in,
                output_size=rows_in * prefilter_selectivity,
                cost=prefilter_cost,
                detail=f"selectivity≈{prefilter_selectivity:.3f}",
            )

        pipeline = {
            "scan": (attr_stage,),
            ATTR_FIRST: (attr_stage, prefilter_stage),
            PREFILTER_FIRST: (prefilter_stage, attr_stage),
        }[best]
        for make_stage in pipeline:
            stages.append(make_stage(rows))
            rows = stages[-1].output_size
        stages.append(
            PlannedStage(
                name="permission-checks",
                input_size=rows,
                output_size=rows,
                cost=rows * check_cost,
                detail=f"{check_label}, ≈{check_cost:.1f}/candidate",
            )
        )
        return tuple(stages)

    @staticmethod
    def _reason(
        best: str,
        project: bool,
        num_literals: int,
        filter_selectivity: float,
        prefilter_selectivity: float,
        prunable: bool,
    ) -> str:
        if best == "scan":
            if not prunable:
                shape = "condition cannot prune; plain scan"
            else:
                shape = (
                    "index evaluation costs more than it saves "
                    f"(prefilter selectivity≈{prefilter_selectivity:.2f})"
                )
        elif best == PREFILTER_FIRST:
            shape = (
                "prune first "
                f"(prefilter selectivity≈{prefilter_selectivity:.2f}), "
                "then the attribute filter on the survivors"
            )
        else:
            shape = (
                f"attribute filter (selectivity≈{filter_selectivity:.2f}) "
                "then prefilter "
                f"(selectivity≈{prefilter_selectivity:.2f})"
            )
        proj = (
            f"projections on ({num_literals} literals)"
            if project
            else "projections off"
        )
        return f"{shape}; {proj}"
