"""Registered contracts: the broker's unit of storage.

A contract couples (a) ordinary relational attributes — price, route,
dates, whatever the application schema needs — with (b) a temporal
specification given as a set of declarative LTL clauses over the common
event vocabulary (§1, requirement iv).  At registration the broker
translates the clauses' conjunction to a Büchi automaton and precomputes
the auxiliary structures both optimizations need: the §6.2.4 seeds and
the §5 projection store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..automata.buchi import BuchiAutomaton
from ..automata.encode import EncodedAutomaton
from ..errors import BrokerError
from ..ltl.ast import Formula, conj
from ..ltl.parser import parse
from ..ltl.printer import format_formula
from ..projection.store import ProjectionStore


@dataclass(frozen=True)
class ContractSpec:
    """What a provider submits: a name, the declarative temporal clauses,
    and the relational attributes."""

    name: str
    clauses: tuple[Formula, ...]
    attributes: Mapping[str, Any] = field(default_factory=dict)

    @property
    def formula(self) -> Formula:
        """The conjunction of all clauses (§2, Example 5)."""
        return conj(self.clauses)

    @property
    def vocabulary(self) -> frozenset[str]:
        """The events the specification cites — the set ``V`` that the
        permission semantics restricts sequences to (Definition 4)."""
        out: set[str] = set()
        for clause in self.clauses:
            out |= clause.variables()
        return frozenset(out)

    def to_doc(self) -> dict:
        """The spec document: what a journal ``register`` record, a
        snapshot manifest entry, a shard ``register`` frame, the
        process-pool payload and a CLI spec file carry."""
        return {
            "name": self.name,
            "clauses": [format_formula(c) for c in self.clauses],
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_doc(cls, doc: Any) -> "ContractSpec":
        """The one reader of a spec document, from whichever of those
        places.  ``clauses`` is a list of LTL texts (or parsed formulas,
        or one bare clause, as ``register(name, clauses)`` takes);
        ``attributes`` may be null or absent; other keys — the wire's
        ``op`` — are ignored.  Any other shape is a :class:`BrokerError`
        naming the entry; a clause that does not parse raises the
        parser's own error."""
        if not isinstance(doc, Mapping):
            raise BrokerError(f"contract document must be a mapping: {doc!r}")
        name = doc.get("name")
        if not isinstance(name, str):
            raise BrokerError(f"contract document without a name: {doc!r}")
        clauses = doc.get("clauses")
        if isinstance(clauses, (str, Formula)):
            clauses = [clauses]
        if not isinstance(clauses, (list, tuple)) or not all(
            isinstance(c, (str, Formula)) for c in clauses
        ):
            raise BrokerError(
                f"contract {name!r}: clauses must be a list of LTL "
                f"formulas, got {clauses!r}"
            )
        attributes = doc.get("attributes") or {}
        if not isinstance(attributes, Mapping):
            raise BrokerError(
                f"contract {name!r}: attributes must be a mapping, "
                f"got {attributes!r}"
            )
        return cls(
            name=name,
            clauses=tuple(
                parse(c) if isinstance(c, str) else c for c in clauses
            ),
            attributes=dict(attributes),
        )


@dataclass
class Contract:
    """A registered contract with its precomputed artifacts.

    ``vocabulary`` is copied out of the spec at registration so the hot
    permission path does not re-derive it from the formula on every
    check.  ``encoded`` / ``encoded_seeds_mask`` are the flat int/bitset
    forms of ``ba`` / ``seeds`` (:mod:`repro.automata.encode`) the
    deciders and the stream monitor walk.
    """

    contract_id: int
    spec: ContractSpec
    ba: BuchiAutomaton
    seeds: frozenset
    encoded: EncodedAutomaton
    encoded_seeds_mask: int
    vocabulary: frozenset = frozenset()
    projections: ProjectionStore | None = None

    def __post_init__(self) -> None:
        if not self.vocabulary:
            self.vocabulary = self.spec.vocabulary

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def attributes(self) -> Mapping[str, Any]:
        return self.spec.attributes

    def __str__(self) -> str:
        return (
            f"Contract#{self.contract_id}({self.name!r}, "
            f"{len(self.spec.clauses)} clauses, {self.ba.num_states} states)"
        )
