"""The query compilation cache.

Compiling a query is the fixed per-query cost of the paper's runtime
module: LTL→BA translation (§3), the query BA's literal set (which keys
projection selection, §5.2), and the pruning condition extracted by
Algorithm 1 (§4.1).  None of those depend on the database contents — only
on the query formula — so a broker serving a repeated workload (every
``benchmarks/bench_*.py`` sweep, and any production query mix with
popular queries) should pay them once per *distinct* query, not once per
call.

:class:`QueryCompilationCache` is an LRU map from the **normalized**
formula text to a :class:`CompiledQuery` record.  Normalization reuses
the translator's own front end — :func:`repro.ltl.rewrite.simplify`
(NNF + smart-constructor simplification) rendered back through
:func:`repro.ltl.printer.format_formula` — so syntactically different but
rewrite-equivalent queries (``F a`` and ``true U a``, say) share one
entry and one translation.

A cache entry is a *prepared query*: besides what the formula alone
determines, it memoizes — per candidate contract, on the pair's first
check — the encoding the check runs on and the Definition-7 binding
(:meth:`CompiledQuery.prepared`), so a warm check is one lookup plus the
search — over a product whose adjacency the binding keeps from the
pair's earlier searches (``QueryBinding.successors``).  In front of the
normalization sits a bounded text → (formula, key) memo
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
from ..ltl.rewrite import simplify

if TYPE_CHECKING:
    from .contract import Contract

#: Default number of distinct compiled queries kept (LRU).
DEFAULT_CACHE_CAPACITY = 128

#: Number of chosen query plans kept (LRU).
PLAN_CACHE_CAPACITY = 256


def normalized_query_key(formula: Formula) -> str:
    """The cache key: the simplified-NNF rendering of ``formula``."""
    return format_formula(simplify(formula))


#: What one permission check runs on: the contract-side encoding (a
#: projection quotient's or the contract's own), its §6.2.4 seed mask
#: and the query's Definition-7 binding to it.
PreparedCheck = tuple[EncodedAutomaton, int, QueryBinding]


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

    @property
    def encoded_query(self) -> EncodedAutomaton:
        """The flat int encoding of the query BA (computed on first use,
        same benign-race pattern as :attr:`condition`).  Encoded over the
        query's own events; :meth:`prepared` rebases it onto each
        contract's vocabulary
        (:func:`repro.automata.encode.bind_query`)."""
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = encode_automaton(self.query_ba)
        return encoded

    def prepared(self, contract: "Contract",
                 use_projections: bool) -> PreparedCheck:
        """What checking ``contract`` against this query runs on: the
        encoding of the smallest applicable projection quotient (the
        contract-level encoding when ``use_projections`` is off, the
        contract has no store, or nothing smaller is stored), its seed
        mask, and the query's binding to that encoding.

        All three depend only on the (query, contract) pair, so they are
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
        encoded = None
        if store is not None:
            _, encoded, seeds_mask = store.select_artifacts(self.literals)
        if encoded is None:
            encoded = contract.encoded
            seeds_mask = contract.encoded_seeds_mask
        check = (encoded, seeds_mask, bind_query(encoded, self.encoded_query))
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
        capacity: maximum distinct entries kept; ``0`` disables storage
            (every request compiles, nothing is retained — the counters
            still run, so a disabled cache reports a 0% hit rate rather
            than lying).
        state_budget: translation state cap, forwarded to
            :func:`repro.automata.ltl2ba.translate`.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY,
                 state_budget: int = DEFAULT_STATE_BUDGET):
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.state_budget = state_budget
        self._entries: OrderedDict[str, CompiledQuery] = OrderedDict()
        #: query text -> (parsed formula, normalized key), LRU, at most
        #: ``capacity`` texts
        self._texts: OrderedDict[str, tuple[Formula, str]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def parsed(self, text: str) -> tuple[Formula, str]:
        """The parsed formula of a query text and its cache key.

        Tokenizing, parsing, simplifying and printing a query only to
        find that its entry is cached cost a tenth of a warm query; both
        results are pure functions of the text, so the last ``capacity``
        distinct texts keep them.  Pass the key on to :meth:`compile`.
        The memo has no counters of its own: hits, misses and evictions
        describe compiled entries.
        """
        with self._lock:
            known = self._texts.get(text)
            if known is not None:
                self._texts.move_to_end(text)
                return known
        formula = parse(text)
        known = (formula, normalized_query_key(formula))
        if self.capacity > 0:
            with self._lock:
                self._texts[text] = known
                while len(self._texts) > self.capacity:
                    self._texts.popitem(last=False)
        return known

    def compile(self, formula: Formula,
                key: str | None = None) -> tuple[CompiledQuery, bool]:
        """The compiled record for ``formula`` and whether it was a hit.
        ``key`` is the formula's :func:`normalized_query_key` when the
        caller already has it (from :meth:`parsed`).

        Translation happens outside the lock (it can take milliseconds);
        if two threads race to compile the same new query, the first
        insertion wins and the loser adopts it, so a key never maps to
        two different automata.
        """
        if key is None:
            key = normalized_query_key(formula)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry, True
            self._misses += 1
        query_ba = translate(formula, state_budget=self.state_budget)
        entry = CompiledQuery(formula, key, query_ba)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing, False
            if self.capacity > 0:
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions += 1
        return entry, False

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
        """Drop all entries (counters are kept — they are lifetime totals)."""
        with self._lock:
            self._entries.clear()
            self._texts.clear()

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
        with self._lock:
            return normalized_query_key(formula) in self._entries


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
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key):
        """The cached plan for ``key``, or ``None`` (counts the miss)."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return plan
            self._misses += 1
            return None

    def put(self, key, plan) -> None:
        with self._lock:
            self._entries[key] = plan
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

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
