"""The contract broker: registration, relational pre-selection, and
temporal-permission query evaluation.

Quick tour::

    from repro.broker import ContractDatabase, AttributeFilter, le

    db = ContractDatabase()
    db.register(
        "Ticket A",
        ["G(dateChange -> !F refund)", ...],
        attributes={"price": 420, "route": "SAN-NYC"},
    )
    outcome = db.query(
        "F(missedFlight && F(refund || dateChange))",
        QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
            deadline_seconds=0.5,
        ),
    )
"""

from .analytics import Comparison, Relation, compare
from .cache import CacheStats, CompiledQuery, QueryCompilationCache
from .contract import Contract, ContractSpec
from .vocabulary import EventVocabulary
from .persist import load_database, save_database
from .journal import Journal, JournalReplayReport, open_database
from .parallel import register_many
from .registration import Quarantine, QuarantinedSpec, RegistrationReport
from .planner import (
    CostModel,
    PlannedStage,
    QueryPlan,
    QueryPlanner,
    SCAN_PLAN,
)
from .database import BrokerConfig, ContractDatabase, RegistrationStats
from .options import Degradation, PrebuiltArtifacts, QueryOptions
from .query import QueryOutcome, QueryStats, Verdict
from .relational import (
    MATCH_ALL,
    AttributeCondition,
    AttributeFilter,
    contains,
    eq,
    ge,
    gt,
    is_in,
    le,
    lt,
    ne,
)
from .spec import QuerySpec
from .stats import AttributeStatistics, DatabaseStatistics

__all__ = [
    "Comparison",
    "Relation",
    "compare",
    "CacheStats",
    "CompiledQuery",
    "QueryCompilationCache",
    "Contract",
    "ContractSpec",
    "EventVocabulary",
    "load_database",
    "save_database",
    "Journal",
    "JournalReplayReport",
    "open_database",
    "Quarantine",
    "QuarantinedSpec",
    "RegistrationReport",
    "CostModel",
    "PlannedStage",
    "QueryPlan",
    "QueryPlanner",
    "SCAN_PLAN",
    "QuerySpec",
    "AttributeStatistics",
    "DatabaseStatistics",
    "register_many",
    "BrokerConfig",
    "ContractDatabase",
    "RegistrationStats",
    "Degradation",
    "PrebuiltArtifacts",
    "QueryOptions",
    "QueryOutcome",
    "QueryStats",
    "Verdict",
    "MATCH_ALL",
    "AttributeCondition",
    "AttributeFilter",
    "contains",
    "eq",
    "ge",
    "gt",
    "is_in",
    "le",
    "lt",
    "ne",
]
