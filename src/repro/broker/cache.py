"""The query compilation cache.

Compiling a query is the fixed per-query cost of the paper's runtime
module: LTL→BA translation (§3), the query BA's literal set (which keys
projection selection, §5.2), and the pruning condition extracted by
Algorithm 1 (§4.1).  None of those depend on the database contents — only
on the query formula — so a broker serving a repeated workload should pay
them once per *distinct* query, not once per call.

:class:`QueryCompilationCache` is an LRU map from the **normalized**
formula text to a :class:`CompiledQuery` record.  Normalization reuses
the translator's own front end — :func:`repro.ltl.rewrite.simplify`
(NNF + smart-constructor simplification) rendered back through
:func:`repro.ltl.printer.format_formula` — so syntactically different but
rewrite-equivalent queries (``F a`` and ``true U a``, say) share one
entry.  The same ``simplify`` splits the formula (:func:`normalize`)
into its **shape** — each event replaced by ``_0``, ``_1``, … in order
of first sight — and the **binding**, the events behind the
placeholders.  §7.2's pattern queries are a few shapes under many
bindings, so every miss translates the *shape* once (an LRU of the same
capacity) and renames that automaton back to its binding: a text's
automaton never depends on what the cache saw before.

A cache entry is a *prepared query*: besides what the formula alone
determines, it memoizes — per candidate contract, on the pair's first
check — the encoding the check runs on and the Definition-7 binding
(:meth:`CompiledQuery.prepared`), so a warm check is one lookup plus the
search — over a product whose adjacency the binding keeps from the
pair's earlier searches (``QueryBinding.successors``).  In front of the
normalization sits a bounded text → (formula, key, shape, binding) memo
(:meth:`QueryCompilationCache.parsed`): a repeated query *text* is not
even tokenized again.

The cache is thread-safe (a shard server answers each connection on its
own thread) and keeps hit/miss/eviction counters that the broker's
metrics registry and the ``contract-broker metrics`` CLI surface.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..automata.buchi import BuchiAutomaton
from ..automata.encode import (
    EncodedAutomaton,
    QueryBinding,
    bind_query,
    encode_automaton,
)
from ..automata.ltl2ba import DEFAULT_STATE_BUDGET, translate
from ..index.condition import Condition
from ..index.pruning import pruning_condition
from ..ltl.ast import Formula
from ..ltl.parser import parse
from ..ltl.printer import format_formula
from ..ltl.rewrite import event_shape, simplify

if TYPE_CHECKING:
    from .contract import Contract

#: Default number of distinct compiled queries kept (LRU).
DEFAULT_CACHE_CAPACITY = 128

#: Number of chosen query plans kept (LRU).
PLAN_CACHE_CAPACITY = 256

#: (cache key, event shape, binding): what a miss needs of a formula
Normalized = tuple[str, Formula, dict[str, str]]


def normalize(formula: Formula) -> Normalized:
    """The cache key of ``formula`` — its simplified-NNF rendering — its
    event shape and the shape's binding, from one :func:`simplify`."""
    core = simplify(formula)
    return (format_formula(core), *event_shape(core))


class _LRU(OrderedDict):
    """An LRU-ordered mapping of at most ``capacity`` entries (``0``
    stores nothing); its owner holds the lock."""

    def __init__(self, capacity: int):
        super().__init__()
        self.capacity = capacity

    def touch(self, key):
        """``get(key)`` that also makes ``key`` the most recent entry."""
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def put(self, key, value) -> int:
        """Store ``value`` as the most recent entry; returns how many
        least recent entries were evicted."""
        if not self.capacity:
            return 0
        self[key] = value
        self.move_to_end(key)
        evicted = max(len(self) - self.capacity, 0)
        for _ in range(evicted):
            self.popitem(last=False)
        return evicted


#: What one permission check runs on: the contract-side encoding (a
#: projection quotient's or the contract's own), its §6.2.4 seed mask,
#: the query's Definition-7 binding to it and the query's encoding.
PreparedCheck = tuple[EncodedAutomaton, int, QueryBinding, EncodedAutomaton]


class CompiledQuery:
    """A prepared query: everything the broker derives from a query
    formula alone, or from the formula and one contract alone.

    The pruning condition is materialized lazily — scan-mode queries
    (prefilter off) never need it — and cached on first use, so a warm
    entry serves all of translation, literal extraction and Algorithm 1
    for free.  The per-contract part (:meth:`prepared`) fills in as the
    query meets its candidates.
    """

    __slots__ = ("formula", "key", "query_ba", "literals", "_condition",
                 "_condition_text", "_encoded", "_prepared", "__weakref__")

    def __init__(self, formula: Formula, key: str,
                 query_ba: BuchiAutomaton):
        self.formula = formula
        self.key = key
        self.query_ba = query_ba
        self.literals = query_ba.literals()
        self._condition: Condition | None = None
        self._condition_text: str | None = None
        self._encoded: EncodedAutomaton | None = None
        #: contract id -> (contract, store generation, PreparedCheck),
        #: one memo for checks on the contract-level encoding ([0]) and
        #: one for checks through the projection store ([1])
        self._prepared: tuple[dict, dict] = ({}, {})

    @property
    def condition(self) -> Condition:
        """The pruning condition of the query BA (computed on first use).

        Concurrent first accesses may both compute it; the function is
        deterministic, so either result is the same value and the benign
        race only costs duplicated work.
        """
        condition = self._condition
        if condition is None:
            condition = self._condition = pruning_condition(self.query_ba)
        return condition

    @property
    def condition_text(self) -> str:
        """``str(condition)``, rendered once (``QueryStats`` carries it
        on every prefiltered query)."""
        text = self._condition_text
        if text is None:
            text = self._condition_text = str(self.condition)
        return text

    def prepared(self, contract: "Contract",
                 use_projections: bool) -> PreparedCheck:
        """What checking ``contract`` against this query runs on: the
        encoding of the smallest applicable projection quotient (the
        contract-level encoding when ``use_projections`` is off, the
        contract has no store, or nothing smaller is stored), its seed
        mask, the query's binding to that encoding, and the query
        encoding the binding was built from — re-encoded over the
        table when the last one does not bind to this contract
        (:meth:`~repro.automata.encode.EncodedAutomaton.binds_to`).

        All four depend only on the (query, contract) pair, so they are
        computed on the pair's first check and memoized *on this cache
        entry* — the memo is bounded by the compile cache's capacity
        times the candidates a query meets, and dies with the entry on
        LRU eviction.  A read is validated against the identity of the
        ``Contract`` object and the store's ``generation`` (bumped when a
        workload precomputation stores a new, possibly smaller,
        projection), so a stale selection is never served.  Concurrent
        first checks of one pair may both compute; the values are equal
        and the last store wins.

        The binding is also where the pair's searches keep the product
        adjacency they expanded
        (:attr:`~repro.automata.encode.QueryBinding.successors`), so
        that table has this memo's owner, validation and lifetime: a
        recomputed pair starts from an empty one.
        """
        store = contract.projections if use_projections else None
        generation = 0 if store is None else store.generation
        memo = self._prepared[store is not None]
        known = memo.get(contract.contract_id)
        if (known is not None and known[0] is contract
                and known[1] == generation):
            return known[2]
        if store is None:
            encoded, seeds_mask = contract.encoded, contract.encoded_seeds_mask
        else:
            encoded, seeds_mask = store.select_artifacts(self.literals)
        query = self._encoded
        if query is None or not query.binds_to(encoded):
            query = self._encoded = encode_automaton(self.query_ba,
                                                     table=encoded.table)
        check = (encoded, seeds_mask, bind_query(encoded, query), query)
        memo[contract.contract_id] = (contract, generation, check)
        return check

    def forget_contract(self, contract_id: int) -> None:
        """Drop what :meth:`prepared` memoized for one contract."""
        for memo in self._prepared:
            memo.pop(contract_id, None)

    @property
    def has_condition(self) -> bool:
        """Whether the pruning condition has been materialized yet."""
        return self._condition is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CompiledQuery({self.key!r}, "
                f"{self.query_ba.num_states} states)")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time view of the cache counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    #: misses served by the shape memo (always 0 for the plan cache)
    shape_hits: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per request; 0.0 before any request."""
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        """The counters plus ``hit_rate`` — the ``metrics_snapshot``
        form."""
        return {**asdict(self), "hit_rate": self.hit_rate}


class QueryCompilationCache:
    """LRU cache of :class:`CompiledQuery` records.

    Args:
        capacity: maximum distinct entries kept — and texts, and shapes;
            ``0`` disables storage (every request compiles, nothing is
            retained — the counters still run, so a disabled cache
            reports a 0% hit rate rather than lying).
        state_budget: translation state cap, forwarded to
            :func:`repro.automata.ltl2ba.translate`.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY,
                 state_budget: int = DEFAULT_STATE_BUDGET):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.state_budget = state_budget
        self._entries = _LRU(capacity)  # key -> CompiledQuery
        self._texts = _LRU(capacity)  # text -> (formula, Normalized)
        self._shapes = _LRU(capacity)  # shape -> its BuchiAutomaton
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._shape_hits = 0

    def parsed(self, text: str) -> tuple[Formula, Normalized]:
        """The parsed formula and :func:`normalize` triple of a text.

        Tokenizing, parsing, simplifying and printing a query only to
        find that its entry is cached cost a tenth of a warm query; both
        results are pure functions of the text, so the last ``capacity``
        distinct texts keep them.  Pass the triple on to
        :meth:`compile`.  The memo has no counters of its own: hits,
        misses and evictions describe compiled entries.
        """
        with self._lock:
            known = self._texts.touch(text)
        if known is None:
            formula = parse(text)
            known = (formula, normalize(formula))
            with self._lock:
                self._texts.put(text, known)
        return known

    def compile(self, formula: Formula, normalized: Normalized | None = None
                ) -> tuple[CompiledQuery, bool]:
        """The compiled record for ``formula`` and whether it was a hit.
        ``normalized`` is the formula's :func:`normalize` triple when the
        caller already has it (from :meth:`parsed`).

        A miss renames the automaton of the formula's shape, translated
        first if the shape memo lacks it (a ``TranslationError`` is never
        stored).  Translation happens outside the lock (it can take
        milliseconds); if two threads race to compile the same new
        query, the first insertion wins and the loser adopts it, so a
        key never maps to two different automata.
        """
        key, shape, binding = normalized or normalize(formula)
        with self._lock:
            entry = self._entries.touch(key)
            if entry is not None:
                self._hits += 1
                return entry, True
            self._misses += 1
            shape_ba = self._shapes.touch(shape)
            if shape_ba is not None:
                self._shape_hits += 1
        if shape_ba is None:
            shape_ba = translate(shape, state_budget=self.state_budget)
            with self._lock:
                self._shapes.put(shape, shape_ba)
        query_ba = shape_ba.rename_events(binding).canonical()
        entry = CompiledQuery(formula, key, query_ba)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing, False
            self._evictions += self._entries.put(key, entry)
        return entry, False

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                shape_hits=self._shape_hits,
            )

    def clear(self) -> None:
        """Drop all entries (counters are kept — they are lifetime totals)."""
        with self._lock:
            self._entries.clear()
            self._texts.clear()
            self._shapes.clear()

    def forget_contract(self, contract_id: int) -> None:
        """Drop every entry's prepared memo for a deregistered contract,
        so a long-lived hot entry does not keep the contract's automata
        alive.  (Correctness does not rest on this — a prepared read is
        validated against the ``Contract`` object — memory does.)"""
        with self._lock:
            for entry in self._entries.values():
                entry.forget_contract(contract_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, formula: Formula) -> bool:
        key = normalize(formula)[0]
        with self._lock:
            return key in self._entries


class QueryPlanCache:
    """LRU cache of chosen :class:`~repro.broker.planner.QueryPlan`\\ s,
    living alongside the compilation cache.

    The database keys entries by ``(compiled-query key, attribute-filter
    cache key, statistics version)``: distinct filters hash to
    distinct entries, and the statistics-version component means a
    register/deregister implicitly invalidates every cached plan — a
    stale plan can cost time, never answers, but there is no reason to
    keep one.
    """

    capacity = PLAN_CACHE_CAPACITY

    def __init__(self):
        self._entries = _LRU(self.capacity)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key):
        """The cached plan for ``key``, or ``None`` (counts the miss)."""
        with self._lock:
            plan = self._entries.touch(key)
            if plan is not None:
                self._hits += 1
            else:
                self._misses += 1
            return plan

    def put(self, key, plan) -> None:
        with self._lock:
            self._evictions += self._entries.put(key, plan)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )

    def clear(self) -> None:
        """Drop all entries (counters are kept — they are lifetime
        totals)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
