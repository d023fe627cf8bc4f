"""Declarative query documents: the serializable query API.

A :class:`QuerySpec` is a whole broker query as data — the LTL query
text, the relational filter, and the execution options — loadable from
a JSON (or YAML, when PyYAML is importable) document::

    {
      "query": "F(missedFlight && F(refund || dateChange))",
      "filter": [["price", "<=", 500], ["route", "==", "SAN-NYC"]],
      "options": {"deadline_seconds": 0.5, "degradation": "drop"}
    }

and executed directly: ``db.query(QuerySpec.from_file("spec.json"))``
(the ``contract-broker query --spec`` and ``explain --spec`` commands
are thin wrappers over exactly this).  Filter entries may equivalently
be ``{"attribute": ..., "op": ..., "value": ...}`` mappings.

Everything round-trips: the filter is the serializable condition AST of
:mod:`repro.broker.relational`, the options map onto
:class:`~repro.broker.options.QueryOptions` fields, and
:meth:`QuerySpec.to_dict` emits only non-default options, so a spec
survives ``from_dict(to_dict(spec))`` unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from ..errors import BrokerError
from .options import QueryOptions, _shown
from .relational import MATCH_ALL, AttributeFilter

_SPEC_KEYS = frozenset({"query", "filter", "options"})


@dataclass(frozen=True)
class QuerySpec:
    """One broker query as a self-contained, serializable document."""

    query: str
    filter: AttributeFilter = MATCH_ALL
    options: QueryOptions = QueryOptions()

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "QuerySpec":
        """Build a spec from a ``{"query", "filter", "options"}``
        document; raises :class:`~repro.errors.BrokerError` on unknown
        keys or malformed entries (a typo'd option must not silently run
        an unconfigured query)."""
        if not isinstance(doc, Mapping):
            raise BrokerError(
                f"query spec must be a mapping, got {type(doc).__name__}"
            )
        unknown = set(doc) - _SPEC_KEYS
        if unknown:
            raise BrokerError(
                f"unknown query-spec key(s) {sorted(unknown)}; expected "
                f"{sorted(_SPEC_KEYS)}"
            )
        query = doc.get("query")
        if not isinstance(query, str) or not query.strip():
            raise BrokerError(
                "query spec needs a non-empty LTL 'query' string"
            )
        conditions = doc.get("filter") or []
        if not isinstance(conditions, (list, tuple)):
            raise BrokerError(
                f"query-spec 'filter' must be a list of conditions, got "
                f"{_shown(conditions)}"
            )
        attribute_filter = AttributeFilter.from_list(conditions)
        options = QueryOptions.from_doc(doc.get("options") or {})
        return cls(query=query, filter=attribute_filter, options=options)

    @classmethod
    def from_file(cls, path) -> "QuerySpec":
        """Load a spec from a JSON file (YAML for ``.yaml``/``.yml``
        paths, when PyYAML is available)."""
        path = Path(path)
        try:
            text = path.read_bytes().decode("utf-8")
        except OSError as exc:
            raise BrokerError(f"cannot read query spec {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise BrokerError(f"query spec {path} is not UTF-8: {exc}") from exc
        if path.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError:
                raise BrokerError(
                    f"cannot load {path}: PyYAML is not installed; use a "
                    "JSON spec instead"
                ) from None
            kind, errors = "YAML", (yaml.YAMLError, ValueError, RecursionError)
            load = yaml.safe_load
        else:
            # ValueError: the int-string limit; RecursionError: nesting
            # deeper than the stack
            kind, errors = "JSON", (ValueError, RecursionError)
            load = json.loads
        try:
            doc = load(text)
        except errors as exc:
            raise BrokerError(
                f"malformed {kind} query spec {path}: {exc}"
            ) from exc
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        """The JSON-able document form (only non-default options are
        emitted, so ``from_dict`` round-trips)."""
        doc: dict[str, Any] = {"query": self.query}
        if self.filter.conditions:
            doc["filter"] = self.filter.to_list()
        options = self.options.to_doc()
        if options:
            doc["options"] = options
        return doc

    def to_options(self) -> QueryOptions:
        """The effective :class:`QueryOptions` — the spec's options with
        its filter folded in."""
        return self.options.evolve(attribute_filter=self.filter)
