"""repro — a full reproduction of *"Querying contract databases based on
temporal behavior"* (Damaggio, Deutsch, Zhou; SIGMOD 2011).

The library implements a contract broker in which service contracts are
both specified and queried through their temporal behavior, expressed as
declarative LTL clauses over a common event vocabulary:

* :mod:`repro.ltl` — LTL ASTs, parser, semantics, Dwyer pattern library;
* :mod:`repro.automata` — Büchi automata and an LTL2BA-style translator;
* :mod:`repro.core` — the permission semantics and Algorithm 2;
* :mod:`repro.index` — the prefiltering index (§4);
* :mod:`repro.projection` — the bisimulation optimization (§5);
* :mod:`repro.broker` — the end-to-end contract database;
* :mod:`repro.stream` — fleet-scale streaming monitoring over encoded
  frontiers, with watch queries and alerts;
* :mod:`repro.dist` — sharded serving: jump-consistent-hash placement,
  a fan-out/merge coordinator, and journal-shipping read replicas;
* :mod:`repro.workload` — the synthetic workload generator (§7.2);
* :mod:`repro.bench` — the harness regenerating the paper's tables and
  figures.

Thirty-second tour::

    from repro import ContractDatabase

    db = ContractDatabase()
    db.register("Ticket A", [
        "G(dateChange -> !F refund)",       # no refund after a change
    ])
    outcome = db.query("F(missedFlight && F(refund || dateChange))")
    print(outcome.contract_names)

Every query accepts a :class:`QueryOptions` with execution budgets
(``deadline_seconds`` / ``step_budget``) for bounded-latency serving —
see :mod:`repro.broker.options`.
"""

from .broker import (
    AttributeFilter,
    BrokerConfig,
    Contract,
    ContractDatabase,
    ContractSpec,
    Degradation,
    QueryOptions,
    QueryOutcome,
    QuerySpec,
    RegistrationReport,
    Verdict,
    open_database,
    register_many,
)
from .core import Deadline, ExecutionBudget, StepBudget, find_witness, permits
from .errors import ReproError
from .ltl import Formula, Run, parse, satisfies
from .stream import Alert, FleetMonitor, MonitorOptions, MonitorStatus

__version__ = "12.1.0"

#: the cluster front-end loads on first use: ``import repro`` (and every
#: CLI start) stays clear of :mod:`repro.dist` and ``asyncio``
_DIST_NAMES = ("DistributedDatabase", "LocalCluster", "Replica")


def __getattr__(name: str):
    if name in _DIST_NAMES:
        from . import dist

        return getattr(dist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AttributeFilter",
    "BrokerConfig",
    "Contract",
    "ContractDatabase",
    "ContractSpec",
    "Deadline",
    "Degradation",
    "ExecutionBudget",
    "QueryOptions",
    "QueryOutcome",
    "QuerySpec",
    "RegistrationReport",
    "StepBudget",
    "Verdict",
    "open_database",
    "register_many",
    "find_witness",
    "permits",
    "ReproError",
    "Formula",
    "Run",
    "parse",
    "satisfies",
    "Alert",
    "FleetMonitor",
    "MonitorOptions",
    "MonitorStatus",
    "DistributedDatabase",
    "LocalCluster",
    "Replica",
    "__version__",
]
