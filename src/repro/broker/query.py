"""Query-side objects: the result of a broker query and its statistics.

The paper's runtime module "takes as input a query workload text file and
outputs statistics regarding their evaluation" (§7.1); the per-phase
timings recorded here are exactly the quantities its Figures 5 and 6
aggregate (query LTL-to-BA conversion + candidate selection + permission
checks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..ltl.ast import Formula


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
    """

    translation_seconds: float = 0.0  # cache-lookup time on a cache hit
    prefilter_seconds: float = 0.0
    selection_seconds: float = 0.0
    permission_seconds: float = 0.0
    total_seconds: float = 0.0
    database_size: int = 0
    relational_matches: int = 0
    candidates: int = 0
    checked: int = 0
    permitted: int = 0
    timed_out: int = 0
    skipped: int = 0
    degraded: bool = False
    deadline_seconds: float | None = None
    step_budget: int | None = None
    used_prefilter: bool = False
    used_projections: bool = False
    cache_hit: bool = False
    pruning_condition: str = ""
    stage_order: str = "attr_first"
    plan_summary: str = ""
    prefilter_input: int = 0
    prefilter_output: int = 0

    @property
    def pruning_ratio(self) -> float:
        """Share of the prefilter stage's input that the index removed
        (0.0 when the prefilter is off or had nothing to look at)."""
        if self.prefilter_input == 0:
            return 0.0
        return 1.0 - self.prefilter_output / self.prefilter_input


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
