"""The contract database: the broker the paper builds (§3, §7.1).

Architecture (mirroring the prototype's four modules):

* **registration** (:meth:`ContractDatabase.register`) — a contract's
  LTL clauses are conjoined, translated to a Büchi automaton
  (:mod:`repro.automata.ltl2ba` standing in for LTL2BA [12]) and reduced;
  the prefilter index (§4) is updated and the projection store (§5) and
  seed set (§6.2.4) are precomputed;
* **query evaluation** (:meth:`ContractDatabase.query`) — the query is
  compiled (translated + pruning condition, served from the LRU
  compilation cache of :mod:`repro.broker.cache` on repeats), the
  relational attribute filter narrows the database, the pruning
  condition selects candidates from the index, and the permission
  algorithm (Algorithm 2) runs on each candidate using the smallest
  applicable precomputed projection.

Which of the two index stages a query engages, and in which order, is
its :class:`~repro.broker.planner.QueryPlan`: the database's cost-based
planner writes one per query, and ``QueryOptions(plan=...)`` pins one —
which is how the benchmark harness measures the paper's scan-versus-
optimized comparisons.

Serving-side aggregation: the database counts every query's
:class:`QueryStats` and observes its timings into its
:class:`~repro.obs.metrics.MetricsRegistry` (``db.metrics``).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, fields
from typing import AbstractSet, Any, Iterator, Mapping, Sequence

from ..automata.encode import EventTable, encode_automaton
from ..automata.ltl2ba import DEFAULT_STATE_BUDGET, translate
from ..core.budget import Deadline, ExecutionBudget, StepBudget
from ..core.rwlock import RWLock
from ..core.permission import find_witness, permits_encoded
from ..core.seeds import compute_seeds
from ..errors import BrokerError, BudgetExceededError, QueryBudgetError
from ..index.prefilter import PrefilterIndex
from ..ltl.ast import Formula
from ..obs.metrics import (
    COST_BUCKETS,
    COUNT_BUCKETS,
    RATIO_BUCKETS,
    MetricsRegistry,
)
from ..projection.store import ProjectionStore
from .cache import (
    DEFAULT_CACHE_CAPACITY,
    CacheStats,
    CompiledQuery,
    QueryCompilationCache,
    QueryPlanCache,
)
from .contract import Contract, ContractSpec
from .options import (
    Degradation,
    PrebuiltArtifacts,
    QueryOptions,
    coerce_query_options,
)
from .planner import ATTR_FIRST, PREFILTER_FIRST, QueryPlan, QueryPlanner
from .query import QueryOutcome, QueryStats, Verdict, assemble_outcome
from .registration import Quarantine
from .spec import QuerySpec
from .stats import DatabaseStatistics


@dataclass(frozen=True)
class BrokerConfig:
    """Tunable knobs of the broker.

    Attributes:
        use_projections: precompute the §5 simplified BAs at
            registration (whether a query *uses* them is its plan's
            call; without stores no plan can).
        prefilter_depth: set-trie depth cap ``k``.
        projection_subset_cap: max projected-literal-subset size
            (``None`` = all subsets).
        state_budget: translation state cap per formula.
        query_cache_capacity: distinct compiled queries kept in the LRU
            compilation cache (``0`` disables caching).
    """

    use_projections: bool = True
    prefilter_depth: int = 2
    projection_subset_cap: int | None = 2
    state_budget: int = DEFAULT_STATE_BUDGET
    query_cache_capacity: int = DEFAULT_CACHE_CAPACITY

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "BrokerConfig":
        """The configuration a snapshot manifest or journal ``config``
        record carries (``dataclasses.asdict`` wrote it).  Keys this
        version does not have — knobs removed since, like 2.0's
        ``use_encoded``, 3.0's ``use_prefilter`` and 4.0's
        ``permission_algorithm`` — are ignored; a known key holding
        anything but its field's type (a ``bool``; a non-negative
        ``int``, which a ``bool`` is not; or ``None`` where the field
        allows it) is a :class:`BrokerError` naming the key."""
        if not isinstance(doc, Mapping):
            raise BrokerError(f"broker config must be a mapping, got {doc!r}")
        known = {}
        for f in fields(cls):
            if f.name not in doc:
                continue
            value = known[f.name] = doc[f.name]
            if f.type == "bool":
                expected, valid = "a bool", isinstance(value, bool)
            else:  # "int" or "int | None"
                expected = f"a non-negative {f.type}"
                valid = (type(value) is int and value >= 0) or (
                    value is None and f.type == "int | None")
            if not valid:
                raise BrokerError(
                    f"broker config {f.name!r} must be {expected}, got {value!r}"
                )
        return cls(**known)


@dataclass
class RegistrationStats:
    """Aggregate registration-side costs (§7.4 'index building')."""

    contracts: int = 0
    translation_seconds: float = 0.0
    prefilter_seconds: float = 0.0
    projection_seconds: float = 0.0
    seeds_seconds: float = 0.0
    encode_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return (
            self.translation_seconds
            + self.prefilter_seconds
            + self.projection_seconds
            + self.seeds_seconds
            + self.encode_seconds
        )


def _request(
    surface: str,
    query: str | Formula | QuerySpec,
    options: QueryOptions | None,
) -> tuple[str | Formula, QueryOptions]:
    """A query entry point's arguments as ``(query, options)``: a
    :class:`QuerySpec` carries both, anything else takes the options
    argument (``None`` = defaults)."""
    if isinstance(query, QuerySpec):
        if options is not None:
            raise TypeError(
                f"{surface}(spec) carries its own filter and options; "
                "pass nothing else"
            )
        return query.query, query.to_options()
    return query, coerce_query_options(surface, options)


class ContractDatabase:
    """A queryable repository of temporally-specified contracts.

    Args:
        config: broker tuning knobs.
        vocabulary: optional governed event catalog
            (:class:`repro.broker.vocabulary.EventVocabulary`); when set,
            registration rejects contracts citing unknown events — the
            paper's "compact and reasonably stable interface"
            (requirement ii) enforced at the publishing boundary.
    """

    def __init__(self, config: BrokerConfig | None = None,
                 vocabulary=None):
        self.config = config or BrokerConfig()
        self.vocabulary = vocabulary
        self._contracts: dict[int, Contract] = {}
        self._next_id = 0
        #: event -> bit for every encoding, trie node and monitor here
        self.event_table = EventTable()
        self._index = PrefilterIndex(self.config.prefilter_depth, self.event_table)
        self.registration_stats = RegistrationStats()
        self._query_cache = QueryCompilationCache(
            capacity=self.config.query_cache_capacity,
            state_budget=self.config.state_budget,
        )
        self._plan_cache = QueryPlanCache()
        #: the one planner every unpinned query's plan comes from
        self._planner = QueryPlanner()
        #: incrementally maintained planner statistics (attribute value
        #: histograms + automaton/projection aggregates); updated under
        #: the write lock on every register/deregister.
        self.statistics = DatabaseStatistics()
        # queries count concurrently under the read lock: one small lock
        # per query (and per plan the planner writes) guards the counts
        self._counts: Counter = Counter()
        self._counts_lock = threading.Lock()
        self.metrics = MetricsRegistry()
        self.metrics.register(self)
        #: set by the persistence layer after a snapshot load
        #: (:class:`repro.broker.persist.LoadReport`); ``None`` otherwise.
        self.load_report = None
        #: set by :func:`repro.broker.journal.open_database` after a
        #: journal replay (:class:`repro.broker.journal.JournalReplayReport`).
        self.journal_report = None
        #: specs that failed batch registration, held for retry
        #: (:class:`repro.broker.registration.Quarantine`).
        self.quarantine = Quarantine()
        # Thread-safety contract (docs/DEVELOPMENT.md invariant 11):
        # queries take the read side, mutations the write side, so a
        # query can never observe a half-inserted trie node or a
        # contract map missing its index entry.
        self._rwlock = RWLock()
        self._journal = None
        #: lazily created default fleet monitor (see :meth:`ingest`)
        self._fleet = None
        self._fleet_lock = threading.Lock()

    # -- registration ---------------------------------------------------------------

    def register(
        self,
        spec: ContractSpec | str,
        clauses: Sequence[str | Formula] | str | Formula | None = None,
        attributes: Mapping[str, Any] | None = None,
        *,
        prebuilt: PrebuiltArtifacts | None = None,
        update_index: bool = True,
    ) -> Contract:
        """Register a contract — the one registration entry point.

        Two calling forms:

        * ``register(name, clauses, attributes)`` — declarative clauses
          (single clause or sequence; strings are parsed with the LTL
          grammar of :mod:`repro.ltl.parser`);
        * ``register(spec)`` — a prebuilt :class:`ContractSpec`.

        ``prebuilt`` is an optional :class:`PrebuiltArtifacts` bundle
        (translated BA, seed set, projection store) that skips the
        corresponding precomputation — the persistence layer and the
        process-pool registration path use it; the caller vouches for
        the artifacts matching the spec.  ``update_index=False``
        additionally skips the prefilter insertion — only sensible when
        the caller restores or rebuilds the whole index afterwards (see
        :meth:`adopt_index`).
        """
        if isinstance(spec, ContractSpec):
            if clauses is not None or attributes is not None:
                raise TypeError(
                    "register(spec) does not take clauses/attributes — "
                    "they are part of the ContractSpec"
                )
        elif clauses is None:
            raise TypeError(
                "register(name, clauses) requires the contract's "
                "temporal clauses"
            )
        else:
            spec = ContractSpec.from_doc(
                {"name": spec, "clauses": clauses, "attributes": attributes}
            )
        prebuilt = prebuilt or PrebuiltArtifacts()

        if self.vocabulary is not None:
            self.vocabulary.validate_contract(spec.name, spec.clauses)

        # Expensive derivations are pure functions of the spec, so they
        # run *outside* the write lock — concurrent registrations
        # translate in parallel and only serialize on the insertion.
        start = time.perf_counter()
        if prebuilt.ba is None:
            ba = translate(spec.formula, state_budget=self.config.state_budget)
        else:
            ba = prebuilt.ba
        translation_seconds = time.perf_counter() - start

        start = time.perf_counter()
        seeds = prebuilt.seeds if prebuilt.seeds is not None else compute_seeds(ba)
        seeds_seconds = time.perf_counter() - start

        start = time.perf_counter()
        encoded = (
            prebuilt.encoded.rebased(self.event_table, join=True)
            if prebuilt.encoded is not None
            else encode_automaton(ba, spec.vocabulary, self.event_table)
        )
        encoded_seeds_mask = encoded.state_mask(seeds)
        encode_seconds = time.perf_counter() - start

        projections = None
        projection_seconds = 0.0
        if self.config.use_projections:
            if prebuilt.projections is not None:
                projections = prebuilt.projections
            else:
                start = time.perf_counter()
                projections = ProjectionStore(
                    ba, max_subset_size=self.config.projection_subset_cap
                )
                projection_seconds = time.perf_counter() - start
            # quotients are built from the contract's own encoding
            projections.use_encoding(encoded, encoded_seeds_mask)

        with self._rwlock.write():
            contract_id = self._next_id
            self._next_id += 1

            prefilter_seconds = 0.0
            if update_index:
                start = time.perf_counter()
                self._index.add_contract(contract_id, ba, spec.vocabulary)
                prefilter_seconds = time.perf_counter() - start

            contract = Contract(
                contract_id=contract_id,
                spec=spec,
                ba=ba,
                seeds=seeds,
                projections=projections,
                encoded=encoded,
                encoded_seeds_mask=encoded_seeds_mask,
            )
            self._contracts[contract_id] = contract
            self.statistics.add_contract(contract)
            stats = self.registration_stats
            stats.contracts += 1
            stats.translation_seconds += translation_seconds
            stats.seeds_seconds += seeds_seconds
            stats.encode_seconds += encode_seconds
            stats.projection_seconds += projection_seconds
            stats.prefilter_seconds += prefilter_seconds
            # The journal append is the acknowledgement point: it is
            # fsync'd before register() returns, inside the write lock
            # so journal order always matches application order.
            if self._journal is not None:
                self._journal.append("register", spec.to_doc())
        return contract

    def deregister(self, contract_id: int) -> None:
        """Remove a contract from the database and the index."""
        with self._rwlock.write():
            contract = self._contracts.get(contract_id)
            if contract is None:
                raise BrokerError(f"no contract with id {contract_id}")
            if self._journal is not None:
                # Journaled as the contract's rank in id order, not its
                # id: a snapshot load renumbers ids densely but keeps
                # their order, so the rank names the same contract in
                # this process, after a reopen, and on a replica.
                rank = sum(1 for cid in self._contracts if cid < contract_id)
            del self._contracts[contract_id]
            self.statistics.remove_contract(contract)
            self._index.remove_contract(contract_id)
            self._query_cache.forget_contract(contract_id)
            self.registration_stats.contracts -= 1
            if self._journal is not None:
                self._journal.append("deregister", {"rank": rank})

    # -- query compilation -------------------------------------------------------------

    @property
    def query_cache(self) -> QueryCompilationCache:
        return self._query_cache

    @property
    def plan_cache(self) -> QueryPlanCache:
        return self._plan_cache

    def cache_stats(self) -> CacheStats:
        """Counters of the query compilation cache."""
        return self._query_cache.stats()

    def _compile(
        self, query: str | Formula
    ) -> tuple[Formula, CompiledQuery, bool]:
        """Parse (if needed) and compile through the LRU cache; returns
        ``(formula, compiled, cache_hit)``.  A repeated query *text* is
        two dict hits: the cache's text memo, then its entry."""
        if isinstance(query, str):
            formula, normalized = self._query_cache.parsed(query)
        else:
            formula, normalized = query, None
        compiled, cache_hit = self._query_cache.compile(formula, normalized)
        return formula, compiled, cache_hit

    # -- query evaluation --------------------------------------------------------------

    def query(
        self,
        query: str | Formula | QuerySpec,
        options: QueryOptions | None = None,
    ) -> QueryOutcome:
        """All contracts that match the attribute filter and *permit* the
        temporal query (Definition 1).

        The first argument is the LTL query (text or parsed
        :class:`~repro.ltl.ast.Formula`), or a whole declarative
        :class:`~repro.broker.spec.QuerySpec` — a self-contained query
        document carrying its own filter and options
        (``db.query(QuerySpec.from_file("spec.json"))``).

        The second argument is a :class:`QueryOptions` carrying every
        evaluation knob — relational filter, a pinned plan, witness
        extraction, execution budgets, degradation policy.  With
        budgets configured the answer may be *degraded*: candidates whose
        check ran out of budget appear on ``outcome.maybe_ids`` instead
        of hanging the broker (Theorem 6 makes the check PSPACE-complete,
        so an adversarial query cannot be allowed to run unboundedly).
        """
        return self._run_query(*_request("query", query, options))

    def query_many(
        self,
        queries: Sequence[str | Formula],
        options: QueryOptions | None = None,
    ) -> list[QueryOutcome]:
        """Evaluate a query workload: one :meth:`query` per entry under
        the same ``options``, outcomes in input order.

        Queries compile through the LRU cache, so a workload with
        repeats pays each distinct translation once; budgets apply *per
        query* — each gets a fresh deadline, so one pathological query
        degrades without starving the rest of the batch.

        ``queries`` is a sequence of LTL queries; a single query (or a
        :class:`~repro.broker.spec.QuerySpec`, which carries its own
        options) belongs in :meth:`query`.
        """
        if isinstance(queries, (str, Formula, QuerySpec)):
            raise TypeError(
                "query_many() takes a sequence of queries, got one "
                f"{type(queries).__name__}; use query() for a single query"
            )
        options = coerce_query_options("query_many", options)
        queries = list(queries)
        if any(isinstance(query, QuerySpec) for query in queries):
            raise TypeError(
                "query_many() runs every query under one QueryOptions; "
                "a QuerySpec carries its own — pass it to query()"
            )
        return [self._run_query(query, options) for query in queries]

    def _run_query(
        self,
        query: str | Formula,
        options: QueryOptions,
    ) -> QueryOutcome:
        """Compile (through the cache), obtain the plan and execute it.
        Planning and evaluation share one read-lock acquisition, so the
        statistics a plan was priced from cannot be mutated between
        planning and execution."""
        start = time.perf_counter()
        formula, compiled, cache_hit = self._compile(query)
        translation_seconds = time.perf_counter() - start
        with self._rwlock.read():
            plan = options.plan
            if plan is None:
                plan = self._plan_locked(compiled, options)
            return self._query_compiled_locked(
                compiled,
                plan,
                options,
                formula=formula,
                translation_seconds=translation_seconds,
                cache_hit=cache_hit,
            )

    def _plan_locked(
        self, compiled: CompiledQuery, options: QueryOptions
    ) -> QueryPlan:
        """The planner's plan for this query, through the plan cache.
        Caller holds the read lock — the planner reads the live
        statistics and index."""
        cache_key = (
            compiled.key,
            options.attribute_filter.cache_key(),
            self.statistics.version,
        )
        plan = self._plan_cache.get(cache_key)
        if plan is not None:
            return plan
        plan = self._planner.plan(
            compiled.query_ba,
            condition=compiled.condition,
            database=self,
            attribute_filter=options.attribute_filter,
        )
        self._plan_cache.put(cache_key, plan)
        # the planner.* counts describe the plans the planner wrote; a
        # cached plan was counted when it was made
        with self._counts_lock:
            counts = self._counts
            counts["planner.prefilter_on" if plan.use_prefilter
                   else "planner.prefilter_off"] += 1
            counts["planner.projections_on" if plan.use_projections
                   else "planner.projections_off"] += 1
            counts[f"planner.order.{plan.order}"] += 1
        self.metrics.observe("planner.est_cost", plan.cost,
                             buckets=COST_BUCKETS)
        return plan

    def plan_query(
        self,
        query: str | Formula | QuerySpec,
        options: QueryOptions | None = None,
    ) -> QueryPlan:
        """The plan this query would run — no evaluation, just the
        inspectable :class:`QueryPlan` (the ``contract-broker explain``
        surface): the planner's choice, or the pinned ``options.plan``.
        Accepts a :class:`~repro.broker.spec.QuerySpec` like
        :meth:`query`."""
        query, options = _request("plan_query", query, options)
        if options.plan is not None:
            return options.plan
        _, compiled, _ = self._compile(query)
        with self._rwlock.read():
            return self._plan_locked(compiled, options)

    def _query_compiled_locked(
        self,
        compiled: CompiledQuery,
        plan: QueryPlan,
        options: QueryOptions,
        *,
        formula: Formula,
        translation_seconds: float,
        cache_hit: bool,
    ) -> QueryOutcome:
        """Execute ``plan`` for an already-compiled query (the internal
        entry every public query path funnels through): the relational
        and prefilter stages in the plan's order, then the permission
        check on every candidate in id order.  Under a deadline,
        candidates reached after the budget is gone are ``SKIPPED``
        without starting their search.

        The whole evaluation holds the database's read lock (taken by
        :meth:`_run_query`): any number of queries run concurrently, but
        none can interleave with a mutation (invariant 11).
        """
        prefilter_first = plan.use_prefilter and plan.order == PREFILTER_FIRST
        stats = QueryStats(
            database_size=len(self._contracts),
            used_prefilter=plan.use_prefilter,
            used_projections=plan.use_projections,
            cache_hit=cache_hit,
            deadline_seconds=options.deadline_seconds,
            step_budget=options.step_budget,
            stage_order=PREFILTER_FIRST if prefilter_first else ATTR_FIRST,
            plan_summary=str(plan),
        )
        stats.translation_seconds = translation_seconds
        overall_start = time.perf_counter()

        # The query's shared wall-clock budget starts here: it covers the
        # prefilter, selection, permission and witness phases (translation
        # is bounded separately by the translator's state budget).
        query_deadline = (
            Deadline.after(options.deadline_seconds)
            if options.deadline_seconds is not None
            else None
        )

        contracts = self._contracts
        attribute_filter = options.attribute_filter

        def prefilter_stage(ids: AbstractSet[int]) -> AbstractSet[int]:
            # the index answers for the whole database; the stage's
            # output is what it keeps of its input
            start = time.perf_counter()
            stats.pruning_condition = compiled.condition_text
            kept = self._index.evaluate(compiled.condition) & ids
            stats.prefilter_seconds = time.perf_counter() - start
            stats.prefilter_input = len(ids)
            stats.prefilter_output = len(kept)
            return kept

        # One sequence, the index stage before or after the attribute
        # filter: the candidate set is the same intersection either
        # way, pruning first is just cheaper for a selective condition
        # and a wide filter.
        candidate_ids: AbstractSet[int] = contracts.keys()
        if options.contract_ids is not None:
            candidate_ids = candidate_ids & frozenset(options.contract_ids)
        if prefilter_first:
            candidate_ids = prefilter_stage(candidate_ids)
        if attribute_filter.conditions:
            matches = attribute_filter.matches
            candidate_ids = {
                cid for cid in candidate_ids
                if matches(contracts[cid].attributes)
            }
        stats.relational_matches = len(candidate_ids)
        if plan.use_prefilter and not prefilter_first:
            candidate_ids = prefilter_stage(candidate_ids)
        candidates = [contracts[cid] for cid in sorted(candidate_ids)]

        # What the checks of one query share is decided once: whether
        # they are budgeted at all, and the (immutable) step cap.  The
        # charge bookkeeping is per check, so each gets its own budget.
        budgeted = options.budgeted
        steps = (
            StepBudget(options.step_budget)
            if options.step_budget is not None
            else None
        )
        use_projections = plan.use_projections
        verdicts: dict[int, Verdict] = {}
        selection_seconds = permission_seconds = 0.0
        for contract in candidates:
            verdict, selection, permission = self._check_candidate(
                contract, compiled, use_projections,
                ExecutionBudget(deadline=query_deadline, steps=steps)
                if budgeted else None,
            )
            selection_seconds += selection
            permission_seconds += permission
            verdicts[contract.contract_id] = verdict
        stats.selection_seconds = selection_seconds
        stats.permission_seconds = permission_seconds
        outcome = assemble_outcome(
            formula, verdicts, contracts, options.degradation, stats
        )

        if stats.degraded and options.degradation is Degradation.FAIL:
            stats.total_seconds = (
                translation_seconds + time.perf_counter() - overall_start
            )
            self._record_query(stats)
            raise QueryBudgetError(
                f"query budget exhausted: {stats.timed_out} check(s) timed "
                f"out and {stats.skipped} were skipped out of "
                f"{stats.candidates} candidates"
            )

        if options.explain:
            for contract_id in outcome.contract_ids:
                if query_deadline is not None and query_deadline.expired():
                    break
                contract = contracts[contract_id]
                witness = find_witness(
                    contract.ba, compiled.query_ba, contract.vocabulary
                )
                if witness is not None:
                    outcome.witnesses[contract_id] = witness

        stats.total_seconds = (
            translation_seconds + time.perf_counter() - overall_start
        )
        self._record_query(stats)
        return outcome

    def _check_candidate(
        self,
        contract: Contract,
        compiled: CompiledQuery,
        projections_on: bool,
        budget: ExecutionBudget | None = None,
    ) -> tuple[Verdict, float, float]:
        """One candidate's (selection, permission) check; returns the
        verdict plus the two phase durations.

        The search runs on the encoding of the smallest applicable
        projection quotient, or on the contract-level encoding when
        projections are off or nothing smaller is stored — which one,
        and the query's binding to it, is the prepared query's to know
        (:meth:`CompiledQuery.prepared`: one lookup on a warm pair;
        selection, first-use materialization and binding on a pair's
        first check).  Every check runs its search under its own budget:
        verdicts are never cached.

        With an exhausted budget the check is *cancelled* — it returns
        ``SKIPPED`` without selecting a projection or starting the
        search; a budget that trips mid-search yields ``TIMED_OUT``.
        """
        if budget is not None and budget.exhausted():
            return Verdict.SKIPPED, 0.0, 0.0

        start = time.perf_counter()
        encoded, seeds_mask, binding, query = compiled.prepared(
            contract, projections_on
        )
        selection_seconds = time.perf_counter() - start

        start = time.perf_counter()
        try:
            outcome = permits_encoded(
                encoded,
                query,
                binding,
                seeds_mask=seeds_mask,
                budget=budget,
            )
        except BudgetExceededError:
            permission_seconds = time.perf_counter() - start
            return Verdict.TIMED_OUT, selection_seconds, permission_seconds
        permission_seconds = time.perf_counter() - start
        verdict = Verdict.PERMITTED if outcome else Verdict.NOT_PERMITTED
        return verdict, selection_seconds, permission_seconds

    # -- streaming monitoring --------------------------------------------------------

    def monitor_fleet(self, options=None, watches=None):
        """A :class:`~repro.stream.engine.FleetMonitor` over the
        currently registered contracts, whose ``monitor.*`` counts this
        database's metrics registry reads for as long as the fleet lives.

        The fleet is a *snapshot* taken under the read lock: contracts
        registered afterwards are not monitored by it (build a new fleet
        to pick them up).  Contract names key the fleet; a duplicate
        name is disambiguated as ``name#<contract_id>``.

        Args:
            options: a :class:`~repro.stream.options.MonitorOptions`.
            watches: optional fleet-wide watch queries to register up
                front, as a ``{name: query}`` mapping.
        """
        from ..stream.engine import FleetMonitor

        fleet = FleetMonitor(options=options, metrics=self.metrics)
        with self._rwlock.read():
            contracts = sorted(self._contracts.items())
        taken = set()
        for contract_id, contract in contracts:
            name = contract.name
            if name in taken:
                name = f"{name}#{contract_id}"
            taken.add(name)
            fleet.add_contract(
                name, contract.encoded, contract_id=contract_id
            )
        if watches:
            for watch_name, query in dict(watches).items():
                fleet.register_watch(watch_name, query)
        return fleet

    def ingest(self, events, options=None):
        """Batch-feed stream records to the database's default fleet
        monitor (created lazily via :meth:`monitor_fleet` on first use,
        so monitor state survives across batches).  Returns the
        :class:`~repro.stream.engine.IngestReport`."""
        with self._fleet_lock:
            if self._fleet is None:
                self._fleet = self.monitor_fleet(options)
            fleet = self._fleet
        return fleet.ingest(events)

    def precompute_for_workload(
        self, queries: Sequence[str | Formula]
    ) -> int:
        """Workload-guided projection precomputation (§5.2).

        Given a sample of expected queries, compute for every contract
        exactly the projections those queries will request — even beyond
        the configured subset-size cap.  Returns the number of new
        projections computed across the database.  The queries go through
        the compilation cache, so the subsequent workload runs warm.
        """
        from ..projection.project import workload_projection_subsets

        query_literal_sets = []
        for query in queries:
            _, compiled, _ = self._compile(query)
            query_literal_sets.append(compiled.literals)

        added = 0
        start = time.perf_counter()
        with self._rwlock.write():
            for contract in self._contracts.values():
                if contract.projections is None:
                    continue
                subsets = workload_projection_subsets(
                    contract.projections.literals, query_literal_sets
                )
                added += contract.projections.precompute(subsets)
            self.registration_stats.projection_seconds += (
                time.perf_counter() - start
            )
        return added

    # -- persistence hooks -----------------------------------------------------------

    def adopt_index(self, index: PrefilterIndex) -> None:
        """Replace the prefilter index wholesale (the persistence layer's
        snapshot-restore path).  The caller guarantees the index matches
        the registered contracts."""
        with self._rwlock.write():
            self._index = index
            if self._journal is not None:
                # replay rebuilds the index through the mutation records
                # themselves, so the record carries no index payload —
                # it only keeps the journal a complete mutation history
                self._journal.append("adopt_index", {})

    # -- journaling & concurrency -----------------------------------------------------

    @property
    def journal(self):
        """The attached write-ahead journal
        (:class:`repro.broker.journal.Journal`), or ``None``."""
        return self._journal

    def attach_journal(self, journal) -> None:
        """Attach a journal: every further acknowledged mutation is
        durably appended to it before the mutating call returns.  Use
        :func:`repro.broker.journal.open_database` rather than calling
        this directly — it replays the existing tail first."""
        self._journal = journal

    @property
    def lock(self) -> RWLock:
        """The database's reader-writer lock.  Queries hold the read
        side, mutations the write side; the persistence layer takes the
        write side around snapshot+compaction so no acknowledged
        mutation can fall between the snapshot and the journal reset."""
        return self._rwlock

    # -- metrics ----------------------------------------------------------------------

    def _record_query(self, stats: QueryStats) -> None:
        """Count one query and observe its timings."""
        with self._counts_lock:
            counts = self._counts
            counts["query.count"] += 1
            counts["query.permission_checks"] += stats.checked
            counts["query.permitted"] += stats.permitted
            if stats.degraded:
                counts["query.degraded"] += 1
                counts["query.contracts_timed_out"] += stats.timed_out
                counts["query.contracts_skipped"] += stats.skipped
        metrics = self.metrics
        metrics.observe("query.translation_seconds",
                        stats.translation_seconds)
        metrics.observe("query.prefilter_seconds", stats.prefilter_seconds)
        metrics.observe("query.selection_seconds", stats.selection_seconds)
        metrics.observe("query.permission_seconds", stats.permission_seconds)
        metrics.observe("query.total_seconds", stats.total_seconds)
        metrics.observe("query.candidates", stats.candidates,
                        buckets=COUNT_BUCKETS)
        if stats.used_prefilter:
            metrics.observe("query.pruning_ratio", stats.pruning_ratio,
                            buckets=RATIO_BUCKETS)

    def add_count(self, name: str, amount: int = 1) -> None:
        """Add to one of the database's counts: for the helpers that
        register on its behalf (``register.*``)."""
        with self._counts_lock:
            self._counts[name] += amount

    def collect(self) -> dict:
        """The database's counts, read by :attr:`metrics` on export.
        The caches' hit/miss counts and the journal replay's are read
        from the objects that keep them."""
        with self._counts_lock:
            counts = dict(self._counts)
        for prefix, cache in (("query.cache", self._query_cache),
                              ("planner.cache", self._plan_cache)):
            stats = cache.stats()
            if stats.hits:
                counts[f"{prefix}.hits"] = stats.hits
            if stats.misses:
                counts[f"{prefix}.misses"] = stats.misses
        report = self.journal_report
        if report is not None:
            counts["journal.replayed"] = report.replayed
            if report.torn_records:
                counts["journal.torn_records"] = report.torn_records
            if report.discarded_stale:
                counts["journal.discarded_stale"] = report.discarded_stale
        return {"counters": counts}

    def metrics_snapshot(self) -> dict:
        """The metrics registry snapshot plus the compilation-cache view."""
        snapshot = self.metrics.snapshot()
        snapshot["cache"] = self._query_cache.stats().to_dict()
        snapshot["plan_cache"] = self._plan_cache.stats().to_dict()
        return snapshot

    def metrics_report(self) -> str:
        """Human-readable aggregate report (the ``metrics`` CLI output)."""
        cache = self._query_cache.stats()
        header = (
            f"query cache: {cache.size}/{cache.capacity} entries, "
            f"{cache.hits} hits / {cache.misses} misses "
            f"({cache.hit_rate:.0%} hit rate), "
            f"{cache.shape_hits} shape hits, "
            f"{cache.evictions} evictions"
        )
        return header + "\n\n" + self.metrics.render_text()

    # -- access & introspection -----------------------------------------------------------

    def get(self, contract_id: int) -> Contract:
        contract = self._contracts.get(contract_id)
        if contract is None:
            raise BrokerError(f"no contract with id {contract_id}")
        return contract

    def contracts(self) -> Iterator[Contract]:
        # a materialized snapshot: safe to consume while another thread
        # registers or deregisters (the dict itself never escapes)
        return iter(list(self._contracts.values()))

    def __len__(self) -> int:
        return len(self._contracts)

    def __contains__(self, contract_id: int) -> bool:
        return contract_id in self._contracts

    @property
    def index(self) -> PrefilterIndex:
        return self._index

    def database_stats(self) -> dict:
        """Table-2 style aggregate statistics of the stored automata."""
        import statistics as st

        state_counts = [c.ba.num_states for c in self._contracts.values()]
        transition_counts = [
            c.ba.num_transitions for c in self._contracts.values()
        ]
        if not state_counts:
            return {"contracts": 0}
        return {
            "contracts": len(state_counts),
            "states_avg": st.mean(state_counts),
            "states_stddev": st.pstdev(state_counts),
            "transitions_avg": st.mean(transition_counts),
            "transitions_stddev": st.pstdev(transition_counts),
            "index_nodes": self._index.num_nodes,
            "index_size": self._index.size_estimate(),
        }
