"""Query-side objects: the result of a broker query and its statistics.

The paper's runtime module "takes as input a query workload text file and
outputs statistics regarding their evaluation" (§7.1); the per-phase
timings recorded here are exactly the quantities its Figures 5 and 6
aggregate (query LTL-to-BA conversion + candidate selection + permission
checks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping

from ..ltl.ast import Formula
from .options import Degradation


class Verdict(enum.Enum):
    """The per-contract outcome of a budgeted permission check."""

    #: the check completed: the contract permits the query
    PERMITTED = "permitted"
    #: the check completed: the contract does not permit the query
    NOT_PERMITTED = "not_permitted"
    #: the check started but its execution budget ran out mid-search
    TIMED_OUT = "timed_out"
    #: the query budget was already gone before the check started
    #: (cancellation of queued candidates)
    SKIPPED = "skipped"

    @property
    def conclusive(self) -> bool:
        """Whether the permission algorithm actually decided this one."""
        return self in (Verdict.PERMITTED, Verdict.NOT_PERMITTED)


def _across_shards(default, combine):
    """A :class:`QueryStats` field that means something cluster-wide:
    ``combine`` reads it off the per-shard values of one fanned-out
    query (:meth:`QueryStats.combined`)."""
    return field(default=default, metadata={"combine": combine})


def _distinct(values) -> str:
    """Shards plan for themselves: report each distinct choice."""
    return " | ".join(sorted(set(values) - {""}))


@dataclass
class QueryStats:
    """Per-query timing and work counters.

    All durations are seconds.  ``scan_time`` in the paper's terminology
    is the total of an unoptimized evaluation; here ``total_time`` plays
    that role when both optimizations are disabled.

    Under an execution budget ``candidates`` always equals
    ``checked + timed_out + skipped``; without one, every candidate is
    checked and the two budget counters stay zero.

    ``stage_order`` records how the relational and prefilter stages were
    ordered.  With ``"prefilter_first"`` the attribute filter runs only
    on the index's survivors, so ``relational_matches`` counts attribute
    matches *among* them (and equals ``candidates``); the candidate set
    itself is the same intersection either way.  ``prefilter_input`` /
    ``prefilter_output`` count what the index stage itself was handed
    and kept (the attribute matches and the candidates under
    ``"attr_first"``, the whole database and the index's survivors
    under ``"prefilter_first"``; both zero when the prefilter is off).

    ``selection_seconds`` is the prepared-query lookup summed over the
    candidates (:meth:`repro.broker.cache.CompiledQuery.prepared`): a
    dict read on a warm (query, contract) pair; on a pair's first check
    it includes projection selection, first-use quotient
    materialization *and* the Definition-7 binding — so
    ``permission_seconds`` is the search alone and no longer hides a
    ``bind_query``.

    Each field also says how it reads across the shards of one
    fanned-out query: seconds take the slowest shard's (the shards ran
    concurrently, so the critical path, not the sum), counts add up,
    flags hold if they hold anywhere, and the two plan fields list
    every distinct shard choice.  A field declared without a rule is
    the asker's to fill in (the size of *its* catalog, *its* budgets)
    or a node-local fact with no cluster-wide reading (``cache_hit``,
    ``pruning_condition``) and keeps its default in a merged answer.
    """

    # cache-lookup time on a cache hit
    translation_seconds: float = _across_shards(0.0, max)
    prefilter_seconds: float = _across_shards(0.0, max)
    selection_seconds: float = _across_shards(0.0, max)
    permission_seconds: float = _across_shards(0.0, max)
    total_seconds: float = _across_shards(0.0, max)
    database_size: int = 0
    relational_matches: int = _across_shards(0, sum)
    candidates: int = _across_shards(0, sum)
    checked: int = _across_shards(0, sum)
    permitted: int = _across_shards(0, sum)
    timed_out: int = _across_shards(0, sum)
    skipped: int = _across_shards(0, sum)
    degraded: bool = _across_shards(False, any)
    deadline_seconds: float | None = None
    step_budget: int | None = None
    used_prefilter: bool = _across_shards(False, any)
    used_projections: bool = _across_shards(False, any)
    cache_hit: bool = False
    pruning_condition: str = ""
    stage_order: str = _across_shards("attr_first", _distinct)
    plan_summary: str = _across_shards("", _distinct)
    prefilter_input: int = _across_shards(0, sum)
    prefilter_output: int = _across_shards(0, sum)

    @classmethod
    def combined(cls, parts: Iterable["QueryStats"]) -> "QueryStats":
        """The stats of one query answered by several shards, each
        field read by its own rule; no shard answered → the defaults."""
        parts = list(parts)
        merged = cls()
        if parts:
            for name, combine, default in _ACROSS_SHARDS:
                value = combine([getattr(p, name) for p in parts])
                # no shard had anything to say: the default stands
                setattr(merged, name, value or default)
        return merged

    @property
    def pruning_ratio(self) -> float:
        """Share of the prefilter stage's input that the index removed
        (0.0 when the prefilter is off or had nothing to look at)."""
        if self.prefilter_input == 0:
            return 0.0
        return 1.0 - self.prefilter_output / self.prefilter_input


#: ``(name, combine, default)`` of every field that reads across shards
_ACROSS_SHARDS = tuple(
    (spec.name, spec.metadata["combine"], spec.default)
    for spec in fields(QueryStats) if "combine" in spec.metadata
)


@dataclass
class QueryOutcome:
    """The broker's answer to one temporal query.

    ``witnesses`` is populated only when the query ran with
    ``explain=True``: it maps each returned contract id to a
    simultaneous-lasso witness whose :meth:`to_run` produces a concrete
    allowed sequence satisfying the query — the evidence a customer
    would want to see.

    The budgeted-execution view:

    * ``verdicts`` maps **every candidate** contract id to its
      :class:`Verdict` — including the candidates that did not make it
      into ``contract_ids``;
    * ``maybe_ids`` / ``maybe_names`` are the budget-exhausted
      candidates under the ``MAYBE`` degradation policy: they survived
      the relational filter and the prefilter, so the exact answer is
      unknown but plausible;
    * ``degraded`` is True exactly when some candidate's check was cut
      short — a degraded answer satisfies
      ``exact_permitted ⊆ contract_ids ∪ maybe_ids`` and
      ``contract_ids ⊆ exact_permitted`` (checks that completed are
      exact).
    """

    formula: Formula
    contract_ids: tuple[int, ...]
    contract_names: tuple[str, ...]
    stats: QueryStats = field(default_factory=QueryStats)
    witnesses: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    maybe_ids: tuple[int, ...] = ()
    maybe_names: tuple[str, ...] = ()

    @property
    def degraded(self) -> bool:
        return self.stats.degraded

    def witness_for(self, contract_id: int):
        """The witness for one returned contract (KeyError if the query
        did not run with ``explain=True`` or the contract not returned)."""
        return self.witnesses[contract_id]

    def verdict_for(self, contract_id: int) -> Verdict:
        """The verdict of one candidate (KeyError for non-candidates)."""
        return self.verdicts[contract_id]

    def __len__(self) -> int:
        return len(self.contract_ids)

    def __contains__(self, contract_id: int) -> bool:
        return contract_id in self.contract_ids

    def __iter__(self):
        return iter(self.contract_ids)

    def __str__(self) -> str:
        names = ", ".join(self.contract_names) or "(none)"
        base = (
            f"QueryOutcome({len(self.contract_ids)} contracts: {names}; "
            f"{self.stats.checked} checked of {self.stats.candidates} "
            f"candidates in {self.stats.total_seconds * 1000:.1f} ms)"
        )
        if not self.degraded:
            return base
        return (
            base[:-1]
            + f"; DEGRADED: {self.stats.timed_out} timed out, "
            + f"{self.stats.skipped} skipped, "
            + f"{len(self.maybe_ids)} maybe)"
        )


def assemble_outcome(
    formula: Formula,
    verdicts: dict[int, Verdict],
    catalog: Mapping[int, Any],
    degradation: Degradation,
    stats: QueryStats,
) -> QueryOutcome:
    """The answer that follows from one query's verdicts.

    ``verdicts`` maps every candidate's contract id to its verdict, in
    answer (ascending id) order, and ``catalog`` maps an id to whatever
    carries its ``.name`` — a node's checks and its contracts, or a
    cluster front-end's routing catalog with each shard's verdicts
    looked up.  PERMITTED candidates are the answer; TIMED_OUT and
    SKIPPED ones are *maybe*, and reported only under
    ``Degradation.MAYBE`` (``DROP`` leaves them out, ``FAIL`` is the
    caller's to raise on ``stats.degraded``).  The candidate ledger of
    ``stats`` is filled in from the same pass, so ``candidates ==
    checked + timed_out + skipped`` by construction.
    """
    permitted: list[int] = []
    maybe: list[int] = []
    timed_out = 0
    for contract_id, verdict in verdicts.items():
        if verdict is Verdict.PERMITTED:
            permitted.append(contract_id)
        elif verdict is not Verdict.NOT_PERMITTED:  # inconclusive
            maybe.append(contract_id)
            if verdict is Verdict.TIMED_OUT:
                timed_out += 1
    stats.candidates = len(verdicts)
    stats.checked = len(verdicts) - len(maybe)
    stats.permitted = len(permitted)
    stats.timed_out = timed_out
    stats.skipped = len(maybe) - timed_out
    stats.degraded = bool(maybe)
    if degradation is not Degradation.MAYBE:
        maybe = []
    return QueryOutcome(
        formula=formula,
        contract_ids=tuple(permitted),
        contract_names=tuple(catalog[cid].name for cid in permitted),
        stats=stats,
        verdicts=verdicts,
        maybe_ids=tuple(maybe),
        maybe_names=tuple(catalog[cid].name for cid in maybe),
    )
