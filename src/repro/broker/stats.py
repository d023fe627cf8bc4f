"""Incrementally maintained database statistics for the cost-based planner.

The planner (:mod:`repro.broker.planner`) prices pipeline orders from
three quantities it must not compute per query: how selective an
attribute condition is, how big the stored automata are, and how much a
projection can shrink a permission check.  This module maintains all
three incrementally — :meth:`DatabaseStatistics.add_contract` /
:meth:`~DatabaseStatistics.remove_contract` run inside the database's
write lock on every register/deregister — so planning reads are O(plan),
never O(database).

Selectivity follows the textbook approach: per-attribute value
histograms (a :class:`collections.Counter` per attribute) answer
equality and membership conditions exactly and range conditions by
summing the matching histogram entries; conditions the statistics
cannot see through (``contains`` on collection-valued attributes) fall
back to
:data:`DEFAULT_SELECTIVITY`.  Estimates steer plans only — plans change
time, never answers — so a stale or approximate histogram can never
produce a wrong query result.

The whole object renders as a JSON-able document
(:meth:`DatabaseStatistics.to_dict`) for introspection; nothing persists
it — loading a snapshot re-registers every contract, which rebuilds the
statistics exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Any, Mapping

from .relational import AttributeCondition, AttributeFilter, apply_operator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .contract import Contract

#: Selectivity assumed for conditions the histograms cannot price:
#: ``contains`` membership on collection-valued attributes.
DEFAULT_SELECTIVITY = 0.5

#: Pseudo-count credited to values the histogram has never seen, so an
#: unseen-but-plausible equality never estimates to exactly zero (the
#: plan should still expect *some* survivors).
_UNSEEN_PSEUDOCOUNT = 0.5

#: JSON-scalar types a histogram entry can persist; other values are
#: folded into the per-attribute ``other`` bucket on save.
_SCALAR_TYPES = (str, int, float, bool, type(None))


class _AttributeStat:
    """One attribute's histogram: how many contracts declare it, and the
    per-value counts (unhashable values land in ``other``)."""

    __slots__ = ("present", "values", "other")

    def __init__(self, present: int = 0, other: int = 0):
        self.present = present
        self.values: Counter = Counter()
        self.other = other

    @property
    def empty(self) -> bool:
        return self.present <= 0


class AttributeStatistics:
    """Per-attribute value histograms over the registered contracts."""

    def __init__(self) -> None:
        self._stats: dict[str, _AttributeStat] = {}
        self.contracts = 0

    # -- maintenance -----------------------------------------------------------------

    def add(self, attributes: Mapping[str, Any]) -> None:
        self.contracts += 1
        for attribute, value in attributes.items():
            stat = self._stats.setdefault(attribute, _AttributeStat())
            stat.present += 1
            try:
                stat.values[value] += 1
            except TypeError:
                stat.other += 1

    def remove(self, attributes: Mapping[str, Any]) -> None:
        self.contracts = max(self.contracts - 1, 0)
        for attribute, value in attributes.items():
            stat = self._stats.get(attribute)
            if stat is None:
                continue
            stat.present = max(stat.present - 1, 0)
            try:
                count = stat.values.get(value, 0)
            except TypeError:
                count = None
            if count is None:
                stat.other = max(stat.other - 1, 0)
            elif count > 1:
                stat.values[value] = count - 1
            elif count == 1:
                del stat.values[value]
            if stat.empty:
                del self._stats[attribute]

    # -- introspection ---------------------------------------------------------------

    def presence(self, attribute: str) -> int:
        """How many contracts declare ``attribute``."""
        stat = self._stats.get(attribute)
        return stat.present if stat is not None else 0

    def distinct(self, attribute: str) -> int:
        """Distinct histogram values of ``attribute`` (excludes the
        unhashable ``other`` bucket)."""
        stat = self._stats.get(attribute)
        return len(stat.values) if stat is not None else 0

    def attributes(self) -> list[str]:
        return sorted(self._stats)

    # -- estimation ------------------------------------------------------------------

    def estimate_condition(self, condition: AttributeCondition) -> float:
        """Estimated fraction of the database matching ``condition``,
        in ``[0, 1]``.  An empty database estimates 1.0 (nothing to
        prune, and the plan cost scales by N anyway)."""
        total = self.contracts
        if total <= 0:
            return 1.0
        stat = self._stats.get(condition.attribute)
        if stat is None:
            # the attribute is never declared: only the pseudo-count
            # keeps the estimate off exactly zero
            return min(_UNSEEN_PSEUDOCOUNT / total, 1.0)
        op, value = condition.op, condition.value

        def eq_count(v: Any) -> float:
            try:
                return float(stat.values.get(v, 0))
            except TypeError:
                return 0.0

        if op == "==":
            hits = eq_count(value)
            if hits == 0.0:
                hits = min(_UNSEEN_PSEUDOCOUNT, stat.present)
                hits = max(hits, stat.other * DEFAULT_SELECTIVITY)
            return min(hits, stat.present) / total
        if op == "!=":
            return max(stat.present - eq_count(value), 0.0) / total
        if op in ("<", "<=", ">", ">="):
            hits = 0.0
            for v, count in stat.values.items():
                try:
                    if apply_operator(op, v, value):
                        hits += count
                except TypeError:
                    continue
            hits += stat.other * DEFAULT_SELECTIVITY
            hits = max(hits, min(_UNSEEN_PSEUDOCOUNT, stat.present))
            return min(hits, stat.present) / total
        if op == "in":
            hits = sum(eq_count(v) for v in value)
            hits = max(hits, min(_UNSEEN_PSEUDOCOUNT, stat.present))
            return min(hits, stat.present) / total
        # "contains" looks inside collection-valued attributes the
        # histogram keys cannot index
        return (stat.present / total) * DEFAULT_SELECTIVITY

    def estimate_filter(self, attribute_filter: AttributeFilter) -> float:
        """Estimated fraction surviving the whole conjunction
        (independence assumption: per-condition estimates multiply)."""
        selectivity = 1.0
        for condition in attribute_filter.conditions:
            selectivity *= self.estimate_condition(condition)
        return selectivity

    # -- introspection ---------------------------------------------------------------

    def to_dict(self) -> dict:
        attributes = {}
        for attribute in sorted(self._stats):
            stat = self._stats[attribute]
            values = []
            other = stat.other
            for value, count in stat.values.items():
                if isinstance(value, _SCALAR_TYPES):
                    values.append([value, count])
                else:
                    other += count
            values.sort(key=lambda pair: repr(pair[0]))
            attributes[attribute] = {
                "present": stat.present,
                "other": other,
                "values": values,
            }
        return {"contracts": self.contracts, "attributes": attributes}


class DatabaseStatistics:
    """Whole-database aggregates the planner prices plans from.

    Maintained incrementally under the database write lock; ``version``
    is bumped on every mutation, so cached plans (keyed by it) can never
    outlive the statistics that justified them.
    """

    def __init__(self) -> None:
        self.attributes = AttributeStatistics()
        self.contracts = 0
        self.total_states = 0
        self.total_transitions = 0
        self.projection_stores = 0
        self.total_min_blocks = 0
        self.version = 0

    # -- maintenance -----------------------------------------------------------------

    def add_contract(self, contract: "Contract") -> None:
        self.contracts += 1
        self.total_states += contract.ba.num_states
        self.total_transitions += contract.ba.num_transitions
        if contract.projections is not None:
            self.projection_stores += 1
            self.total_min_blocks += contract.projections.min_block_count
        self.attributes.add(contract.attributes)
        self.version += 1

    def remove_contract(self, contract: "Contract") -> None:
        self.contracts = max(self.contracts - 1, 0)
        self.total_states = max(
            self.total_states - contract.ba.num_states, 0
        )
        self.total_transitions = max(
            self.total_transitions - contract.ba.num_transitions, 0
        )
        if contract.projections is not None:
            self.projection_stores = max(self.projection_stores - 1, 0)
            self.total_min_blocks = max(
                self.total_min_blocks - contract.projections.min_block_count,
                0,
            )
        self.attributes.remove(contract.attributes)
        self.version += 1

    # -- aggregates ------------------------------------------------------------------

    @property
    def avg_states(self) -> float:
        """Mean automaton size of the stored contracts."""
        return self.total_states / self.contracts if self.contracts else 0.0

    @property
    def avg_min_blocks(self) -> float:
        """Mean best-case quotient size over contracts that carry a
        projection store (the full automaton size elsewhere)."""
        if not self.projection_stores:
            return self.avg_states
        return self.total_min_blocks / self.projection_stores

    # -- introspection ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """The JSON-able form (``version`` is deliberately
        excluded — it is a session-local mutation counter, meaningless
        across processes)."""
        return {
            "contracts": self.contracts,
            "total_states": self.total_states,
            "total_transitions": self.total_transitions,
            "projection_stores": self.projection_stores,
            "total_min_blocks": self.total_min_blocks,
            "attributes": self.attributes.to_dict(),
        }
