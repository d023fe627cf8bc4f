"""The unified query-execution options: one object for every knob.

Every public query entry point (``query``, ``query_many``,
``plan_query``) accepts one :class:`QueryOptions` object and funnels
into the single internal ``_run_query`` path, and the budget fields
(``deadline_seconds`` / ``step_budget``) give every query a well-defined
degraded answer instead of an unbounded Algorithm-2 run (the permission
problem is PSPACE-complete — Theorem 6).

Degradation semantics (:class:`Degradation`): a candidate whose check
exhausted its budget *survived the relational filter and the prefilter*,
so it is a legitimate "maybe" answer.  ``Degradation.MAYBE`` (default)
reports such candidates on ``QueryOutcome.maybe_ids`` with a
``TIMED_OUT`` / ``SKIPPED`` verdict; ``DROP`` records only the verdict;
``FAIL`` raises :class:`~repro.errors.QueryBudgetError`.

:meth:`QueryOptions.to_doc` / :meth:`QueryOptions.from_doc` are the one
document codec of the JSON-able fields: a
:class:`~repro.broker.spec.QuerySpec`'s ``options`` mapping and the
shard protocol's query requests both use it.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Mapping

from ..errors import BrokerError
from .relational import MATCH_ALL, AttributeFilter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..automata.buchi import BuchiAutomaton
    from ..automata.encode import EncodedAutomaton
    from ..projection.store import ProjectionStore
    from .planner import QueryPlan


#: QueryOptions fields a document's ``options`` mapping may set (the
#: JSON-able subset — programmatic fields like ``plan`` and
#: ``contract_ids`` stay out of the document format).
SPEC_OPTION_KEYS = frozenset({
    "explain",
    "deadline_seconds",
    "step_budget",
    "degradation",
})

#: What a document's value for each non-enum option must be: a JSON
#: ``true``/``false``, a number (never a boolean, never NaN) or an
#: integer, ``null`` standing for the unbounded default.
_OPTION_TYPES = {
    "explain": ("a boolean", lambda v: isinstance(v, bool)),
    "deadline_seconds": ("a number of seconds or null", lambda v: v is None
                         or type(v) in (int, float) and v == v),
    "step_budget": ("an integer or null",
                    lambda v: v is None or type(v) is int),
}


def _shown(value: Any) -> str:
    """``repr`` of a scalar, the type name of anything else (a nested
    document's ``repr`` can be deeper than the stack)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return repr(value)
    return f"a {type(value).__name__}"


class Degradation(enum.Enum):
    """What to do with candidates whose permission check ran out of
    budget (they passed the relational and prefilter stages, so the
    exact answer is unknown but plausible)."""

    #: report them as "maybe" candidates on the outcome (default)
    MAYBE = "maybe"
    #: exclude them from the answer; only the verdict map records them
    DROP = "drop"
    #: raise :class:`~repro.errors.QueryBudgetError` instead of degrading
    FAIL = "fail"


@dataclass(frozen=True)
class QueryOptions:
    """Everything one query evaluation can be configured with.

    Attributes:
        attribute_filter: relational pre-selection (§3's attribute
            filter); defaults to matching every contract.
        contract_ids: restrict evaluation to these contract ids (used by
            the single-contract surfaces; ``None`` = whole database).
        plan: the :class:`~repro.broker.planner.QueryPlan` to execute —
            which of the §4 index and the §5 projections to engage, and
            whether the index runs before or after the attribute filter.
            ``None`` (default) = the database's cost-based planner
            chooses per query; a given plan is *pinned*: executed as is,
            bypassing the planner and its cache (the ablation hook of
            the paper-figure benches and the static conformance cells).
            Plans never change answers, only time.
        explain: extract a simultaneous-lasso witness per returned
            contract.
        deadline_seconds: wall-clock budget for the whole evaluation
            (prefilter + selection + permission + witnesses), measured
            from the moment the compiled query starts evaluating.
            Translation is bounded separately by the translator's state
            budget.  ``None`` = unbounded.
        step_budget: per-candidate cap on permission-search steps (pairs
            visited + nested-cycle nodes); deterministic, unlike the
            wall-clock deadline.  ``None`` = unbounded.
        degradation: policy for budget-exhausted candidates.
    """

    attribute_filter: AttributeFilter = MATCH_ALL
    contract_ids: tuple[int, ...] | None = None
    plan: "QueryPlan | None" = None
    explain: bool = False
    deadline_seconds: float | None = None
    step_budget: int | None = None
    degradation: Degradation = Degradation.MAYBE

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError(
                f"deadline_seconds must be >= 0, got {self.deadline_seconds}"
            )
        if self.step_budget is not None and self.step_budget < 1:
            raise ValueError(
                f"step_budget must be >= 1, got {self.step_budget}"
            )

    @property
    def budgeted(self) -> bool:
        """Whether any execution budget is configured."""
        return (
            self.deadline_seconds is not None
            or self.step_budget is not None
        )

    def evolve(self, **changes: Any) -> "QueryOptions":
        """A copy with the given fields replaced (``dataclasses.replace``
        spelled as a method for call-site brevity)."""
        return replace(self, **changes)

    def to_doc(self) -> dict[str, Any]:
        """The :data:`SPEC_OPTION_KEYS` fields that differ from their
        defaults, as JSON values, so :meth:`from_doc` round-trips; the
        filter, ``contract_ids`` and a pinned ``plan`` are not in it."""
        doc: dict[str, Any] = {}
        for key in _DOC_ORDER:
            value = getattr(self, key)
            if value != _DEFAULTS[key]:
                doc[key] = (
                    value.value if isinstance(value, Degradation) else value
                )
        return doc

    @classmethod
    def from_doc(
        cls,
        doc: Mapping[str, Any],
        attribute_filter: AttributeFilter = MATCH_ALL,
    ) -> "QueryOptions":
        """Options from a :meth:`to_doc` mapping (and the filter, which
        documents carry beside it); raises
        :class:`~repro.errors.BrokerError` on an unknown key or a
        malformed value — a typo'd option must not silently run an
        unconfigured query."""
        if not isinstance(doc, Mapping):
            raise BrokerError(
                f"query-spec 'options' must be a mapping, got "
                f"{type(doc).__name__}"
            )
        fields = dict(doc)
        if fields.get("use_planner") is True:
            # the 2.x spelling of the only path there is (2.x documents
            # and coordinators send it): accepted and dropped
            del fields["use_planner"]
        unknown = set(fields) - SPEC_OPTION_KEYS
        if unknown:
            raise BrokerError(
                f"unknown query option(s) {sorted(unknown)}; expected a "
                f"subset of {sorted(SPEC_OPTION_KEYS)} (options removed "
                "since 1.x are listed in the removed-API tables of "
                "CHANGELOG.md)"
            )
        for key, (expected, accepts) in _OPTION_TYPES.items():
            if key in fields and not accepts(fields[key]):
                raise BrokerError(
                    f"query option {key!r} must be {expected}, got "
                    f"{_shown(fields[key])}"
                )
        if "degradation" in fields:
            value = fields["degradation"]
            try:
                fields["degradation"] = Degradation(value)
            except ValueError:
                raise BrokerError(
                    f"unknown degradation policy {_shown(value)}; expected "
                    f"one of {[d.value for d in Degradation]}"
                ) from None
        try:
            return cls(attribute_filter=attribute_filter, **fields)
        except (TypeError, ValueError) as exc:
            raise BrokerError(f"invalid query options: {exc}") from exc


_DOC_ORDER = tuple(sorted(SPEC_OPTION_KEYS))
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(QueryOptions)}


@dataclass(frozen=True)
class PrebuiltArtifacts:
    """Derived per-contract artifacts a caller already holds.

    Registration normally translates the spec and precomputes seeds and
    projections; the persistence layer (and any caller that did the work
    elsewhere — a process pool, a previous session) passes this bundle to
    :meth:`~repro.broker.database.ContractDatabase.register` to skip the
    recomputation.  The caller is responsible for the artifacts actually
    matching the spec.
    """

    ba: "BuchiAutomaton | None" = None
    seeds: frozenset | None = None
    projections: "ProjectionStore | None" = None
    encoded: "EncodedAutomaton | None" = None


def coerce_query_options(
    surface: str, options: "QueryOptions | None"
) -> QueryOptions:
    """Resolve a query entry point's ``options`` argument: ``None``
    means the defaults, anything but a :class:`QueryOptions` is a
    ``TypeError`` naming the entry point (an
    :class:`~repro.broker.relational.AttributeFilter` belongs in
    ``QueryOptions(attribute_filter=...)``)."""
    if options is None:
        return QueryOptions()
    if not isinstance(options, QueryOptions):
        raise TypeError(
            f"{surface}() expected QueryOptions, "
            f"got {type(options).__name__}"
        )
    return options
