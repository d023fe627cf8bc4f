"""Fault-isolated batch registration: reports and the quarantine.

Before 1.5, :func:`repro.broker.parallel.register_many` was all-or-
nothing: ``pool.map`` raises on the first worker exception, so one
contract whose translation blows the state budget (or whose clauses do
not parse) aborted the whole batch.  A broker ingesting third-party
specifications cannot work that way — the §7.2 workloads are thousands
of independent contracts, and one poison pill must not take the other
N−1 down with it.

This module holds the data structures of the rewritten batch path:

* :class:`QuarantinedSpec` — one spec that failed, with the exception
  that killed it and the pipeline stage it died in;
* :class:`RegistrationReport` — what a batch did: registered contracts
  (in input order), quarantined specs, pool retries and fallbacks.  It
  behaves as a sequence of the registered contracts, so existing
  call sites iterating the old list return value keep working;
* :class:`Quarantine` — the database-attached holding area
  (``db.quarantine``); quarantined specs are retriable once the caller
  fixes the cause (e.g. raises the state budget).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from .contract import Contract, ContractSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import ContractDatabase


@dataclass
class QuarantinedSpec:
    """One specification the batch path refused to let poison the rest.

    Attributes:
        spec: the offending specification (``None`` when it could not
            even be materialized from its raw document).
        name: the contract name (best effort when ``spec`` is None).
        error: the exception that killed it.
        stage: pipeline stage it died in — ``"parse"``, ``"translate"``
            or ``"register"``.
        attempts: how many times registration has been attempted
            (bumped by :meth:`Quarantine.retry`).
    """

    spec: ContractSpec | None
    name: str
    error: BaseException
    stage: str
    attempts: int = 1

    def describe(self) -> str:
        return (
            f"{self.name!r} [{self.stage}] "
            f"{type(self.error).__name__}: {self.error}"
        )


@dataclass
class RegistrationReport:
    """The outcome of one ``register_many`` batch.

    Sequence-compatible with the pre-1.5 return value: iterating,
    indexing and ``len()`` see the successfully registered contracts in
    input order.
    """

    contracts: list[Contract] = field(default_factory=list)
    quarantined: list[QuarantinedSpec] = field(default_factory=list)
    #: transient pool failures that were retried with backoff
    pool_retries: int = 0
    #: the batch (or part of it) fell back to serial in-process work
    pool_fallback: bool = False

    @property
    def ok(self) -> bool:
        return not self.quarantined

    @property
    def registered(self) -> int:
        return len(self.contracts)

    def summary(self) -> str:
        parts = [f"registered {len(self.contracts)}"]
        if self.quarantined:
            parts.append(f"quarantined {len(self.quarantined)}")
        if self.pool_retries:
            parts.append(f"retried pool x{self.pool_retries}")
        if self.pool_fallback:
            parts.append("serial fallback")
        return ", ".join(parts)

    # -- sequence compatibility -------------------------------------------------------

    def __iter__(self) -> Iterator[Contract]:
        return iter(self.contracts)

    def __len__(self) -> int:
        return len(self.contracts)

    def __getitem__(self, index):
        return self.contracts[index]

    def __contains__(self, contract: Contract) -> bool:
        return contract in self.contracts


class Quarantine:
    """The database's holding area for specs that failed registration.

    Thread-safe; attached to every database as ``db.quarantine``.
    Entries stay until a retry succeeds or the caller discards them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: list[QuarantinedSpec] = []

    def add(self, entry: QuarantinedSpec) -> None:
        with self._lock:
            self._entries.append(entry)

    def extend(self, entries) -> None:
        with self._lock:
            self._entries.extend(entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def entries(self) -> list[QuarantinedSpec]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[QuarantinedSpec]:
        return iter(self.entries)

    def retry(self, db: "ContractDatabase") -> RegistrationReport:
        """Serially re-attempt every quarantined spec against ``db``.

        Successes are registered and removed from the quarantine;
        failures stay, with ``attempts`` bumped and ``error`` refreshed.
        Specs with no materialized :class:`ContractSpec` (parse-stage
        casualties) cannot be retried and stay put — the raw document
        has to be fixed and resubmitted.
        """
        from ..errors import ReproError

        report = RegistrationReport()
        with self._lock:
            entries = list(self._entries)
        still_failing: list[QuarantinedSpec] = []
        for entry in entries:
            if entry.spec is None:
                still_failing.append(entry)
                continue
            try:
                contract = db.register(entry.spec)
            except ReproError as exc:
                entry.attempts += 1
                entry.error = exc
                still_failing.append(entry)
                report.quarantined.append(entry)
            else:
                report.contracts.append(contract)
                db.add_count("register.quarantine_recovered")
        with self._lock:
            # keep any entries added concurrently while we were retrying
            added = [e for e in self._entries if e not in entries]
            self._entries = still_failing + added
        return report
