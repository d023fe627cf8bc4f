"""The relational pre-selection substrate.

The paper scopes itself to the temporal side of the broker and assumes
"a traditional DBMS takes care of the features modeled as relational
attributes" (§1, point a): a complete system first narrows a much larger
database by attributes (route, date, price, ...) and only then checks
temporal permission.  This module is that substrate — a small in-memory
attribute store with typed conditions, enough to build the end-to-end
examples the paper's introduction motivates and to bound the contract
sets the temporal machinery sees.

Conditions are **data**, not code: an :class:`AttributeCondition` is an
``(attribute, op, value)`` triple, so a filter can be serialized
(:meth:`AttributeCondition.to_dict`), hashed into a plan-cache key
(:meth:`AttributeFilter.cache_key`) and cost-estimated from per-attribute
statistics (:mod:`repro.broker.stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from ..errors import BrokerError

#: Operators the condition AST understands.  ``in`` tests the attribute
#: against a collection of allowed values; ``contains`` tests a
#: collection-valued attribute for one member.
CONDITION_OPS = ("==", "!=", "<", "<=", ">", ">=", "in", "contains")


def apply_operator(op: str, actual: Any, value: Any) -> bool:
    """Evaluate one comparison operator (no TypeError shielding — the
    caller decides whether incomparable values mean "no match" or "skip")."""
    if op == "==":
        return actual == value
    if op == "!=":
        return actual != value
    if op == "<":
        return actual < value
    if op == "<=":
        return actual <= value
    if op == ">":
        return actual > value
    if op == ">=":
        return actual >= value
    if op == "in":
        return actual in value
    if op == "contains":
        return value in actual
    raise BrokerError(f"unknown condition operator {op!r}")


def _normalize_membership(value: Any) -> tuple:
    """A deterministic tuple of the allowed values of an ``in`` condition
    (sorted by repr so equal value *sets* produce equal cache keys)."""
    if isinstance(value, (str, bytes)):
        raise BrokerError(
            "the 'in' operator takes a collection of allowed values, "
            f"got the scalar {value!r}"
        )
    seen = []
    for v in value:
        if not any(v == s for s in seen):
            seen.append(v)
    return tuple(sorted(seen, key=repr))


class AttributeCondition:
    """One attribute condition, e.g. ``price <= 500``, as data.

    ``op`` is one of :data:`CONDITION_OPS`; ``value`` is the comparison
    operand (a collection for ``in``, normalized to a deterministic
    tuple).  Missing attributes never match (a contract that does not
    declare a price cannot satisfy a price bound), and neither do
    incomparable values (``TypeError`` is a no-match, not an error).
    """

    __slots__ = ("attribute", "op", "value")

    def __init__(self, attribute: str, op: str, value: Any = None):
        if op not in CONDITION_OPS:
            raise BrokerError(
                f"unknown condition operator {op!r}; expected one of "
                f"{list(CONDITION_OPS)}"
            )
        if op == "in":
            value = _normalize_membership(value)
        self.attribute = attribute
        self.op = op
        self.value = value

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        if self.attribute not in attributes:
            return False
        try:
            return bool(
                apply_operator(self.op, attributes[self.attribute], self.value)
            )
        except TypeError:
            return False

    def cache_key(self):
        """A hashable, deterministic identity for plan/compilation cache
        keys (falls back to ``repr`` for unhashable operands)."""
        try:
            hash(self.value)
        except TypeError:
            return (self.attribute, self.op, repr(self.value))
        return (self.attribute, self.op, self.value)

    def to_dict(self) -> dict:
        """A JSON-able ``{"attribute", "op", "value"}`` document."""
        value = list(self.value) if self.op == "in" else self.value
        return {"attribute": self.attribute, "op": self.op, "value": value}

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "AttributeCondition":
        """Rebuild a condition from :meth:`to_dict` output (or any
        mapping with ``attribute``/``op``/``value`` keys)."""
        missing = {"attribute", "op"} - set(doc)
        if missing:
            raise BrokerError(
                f"attribute condition document is missing {sorted(missing)}"
            )
        return cls(doc["attribute"], doc["op"], doc.get("value"))

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, AttributeCondition):
            return NotImplemented
        return (
            self.attribute == other.attribute
            and self.op == other.op
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash(self.cache_key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AttributeCondition({self.attribute!r}, {self.op!r}, "
                f"{self.value!r})")

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


def eq(attribute: str, value: Any) -> AttributeCondition:
    """``attribute == value``."""
    return AttributeCondition(attribute, "==", value)


def ne(attribute: str, value: Any) -> AttributeCondition:
    """``attribute != value``."""
    return AttributeCondition(attribute, "!=", value)


def lt(attribute: str, value: Any) -> AttributeCondition:
    """``attribute < value``."""
    return AttributeCondition(attribute, "<", value)


def le(attribute: str, value: Any) -> AttributeCondition:
    """``attribute <= value``."""
    return AttributeCondition(attribute, "<=", value)


def gt(attribute: str, value: Any) -> AttributeCondition:
    """``attribute > value``."""
    return AttributeCondition(attribute, ">", value)


def ge(attribute: str, value: Any) -> AttributeCondition:
    """``attribute >= value``."""
    return AttributeCondition(attribute, ">=", value)


def is_in(attribute: str, values: Iterable[Any]) -> AttributeCondition:
    """``attribute in values``."""
    return AttributeCondition(attribute, "in", tuple(values))


def contains(attribute: str, value: Any) -> AttributeCondition:
    """``value in attribute`` (for collection-valued attributes)."""
    return AttributeCondition(attribute, "contains", value)


def condition_from_doc(doc: Any) -> AttributeCondition:
    """Build a condition from either document shape a query spec may
    use: a ``{"attribute", "op", "value"}`` mapping or an
    ``[attribute, op, value]`` triple."""
    if isinstance(doc, Mapping):
        return AttributeCondition.from_dict(doc)
    if isinstance(doc, Sequence) and not isinstance(doc, (str, bytes)):
        if len(doc) != 3:
            raise BrokerError(
                f"filter condition {doc!r} is not an "
                "[attribute, op, value] triple"
            )
        attribute, op, value = doc
        return AttributeCondition(attribute, op, value)
    raise BrokerError(
        f"cannot build an attribute condition from {doc!r}; expected a "
        "mapping or an [attribute, op, value] triple"
    )


@dataclass(frozen=True)
class AttributeFilter:
    """A conjunction of attribute conditions (a WHERE clause)."""

    conditions: tuple[AttributeCondition, ...] = ()

    @classmethod
    def where(cls, *conditions: AttributeCondition) -> "AttributeFilter":
        return cls(tuple(conditions))

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return all(c.matches(attributes) for c in self.conditions)

    def cache_key(self) -> tuple:
        """A hashable identity for plan-cache keys."""
        return tuple(c.cache_key() for c in self.conditions)

    def to_list(self) -> list[list[Any]]:
        """The JSON-able ``[[attribute, op, value], ...]`` form shared
        with the conformance harness's ``FilterSpec``."""
        return [
            [c.attribute, c.op, list(c.value) if c.op == "in" else c.value]
            for c in self.conditions
        ]

    @classmethod
    def from_list(cls, items: Iterable[Any]) -> "AttributeFilter":
        """Rebuild a filter from :meth:`to_list` output (triples and/or
        ``{"attribute", "op", "value"}`` mappings)."""
        return cls(tuple(condition_from_doc(item) for item in items))

    def __str__(self) -> str:
        if not self.conditions:
            return "TRUE"
        return " AND ".join(str(c) for c in self.conditions)


#: A filter that matches every contract.
MATCH_ALL = AttributeFilter()
