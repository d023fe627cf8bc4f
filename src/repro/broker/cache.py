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

The cache is thread-safe (a shard server answers each connection on its
own thread) and keeps hit/miss/eviction counters that the broker's
metrics registry and the ``contract-broker metrics`` CLI surface.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..automata.buchi import BuchiAutomaton
from ..automata.encode import EncodedAutomaton, encode_automaton
from ..automata.ltl2ba import DEFAULT_STATE_BUDGET, translate
from ..index.condition import Condition
from ..index.pruning import pruning_condition
from ..ltl.ast import Formula
from ..ltl.printer import format_formula
from ..ltl.rewrite import simplify

#: Default number of distinct compiled queries kept (LRU).
DEFAULT_CACHE_CAPACITY = 128

#: Number of chosen query plans kept (LRU).
PLAN_CACHE_CAPACITY = 256


def normalized_query_key(formula: Formula) -> str:
    """The cache key: the simplified-NNF rendering of ``formula``."""
    return format_formula(simplify(formula))


class CompiledQuery:
    """Everything the broker derives from a query formula alone.

    The pruning condition is materialized lazily — scan-mode queries
    (prefilter off) never need it — and cached on first use, so a warm
    entry serves all of translation, literal extraction and Algorithm 1
    for free.
    """

    __slots__ = ("formula", "key", "query_ba", "literals", "_condition",
                 "_encoded")

    def __init__(self, formula: Formula, key: str,
                 query_ba: BuchiAutomaton):
        self.formula = formula
        self.key = key
        self.query_ba = query_ba
        self.literals = query_ba.literals()
        self._condition: Condition | None = None
        self._encoded: EncodedAutomaton | None = None

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
    def encoded_query(self) -> EncodedAutomaton:
        """The flat int encoding of the query BA (computed on first use,
        same benign-race pattern as :attr:`condition`).  Encoded over the
        query's own events; :func:`repro.automata.encode.bind_query`
        rebases it onto each contract's vocabulary at check time."""
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = encode_automaton(self.query_ba)
        return encoded

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
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def compile(self, formula: Formula) -> tuple[CompiledQuery, bool]:
        """The compiled record for ``formula`` and whether it was a hit.

        Translation happens outside the lock (it can take milliseconds);
        if two threads race to compile the same new query, the first
        insertion wins and the loser adopts it, so a key never maps to
        two different automata.
        """
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
