"""Parallel contract registration.

§7.4 of the paper: "Since the workload is completely parallel (each
contract is simplified independently), scaling the number of contracts
can be tackled by adding resources" — the authors ran their 11-hour
projection precomputation on three cores.  :func:`register_many` is
that scaling knob: the expensive, purely functional per-contract work
(LTL→BA translation) runs in a *process* pool, and only the cheap,
stateful steps (index insertion, id assignment) happen serially in the
parent.

Fault isolation (1.5): the batch path distinguishes **poison pills**
from **transient pool failures**.  A spec whose clauses fail to parse,
whose translation blows the state budget, or whose registration is
rejected is *quarantined* — recorded on the
:class:`~repro.broker.registration.RegistrationReport` (and on
``db.quarantine`` for later retry) with the exception that killed it,
while every healthy spec in the batch still registers.  A pool that
breaks (:class:`~concurrent.futures.process.BrokenProcessPool` on
worker OOM/crash, ``OSError`` in restricted sandboxes) is retried with
capped exponential backoff, re-submitting only the specs that have not
already been translated; if the pool keeps breaking, the leftovers fall
back to in-process translation.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Mapping, Sequence

from ..automata.buchi import BuchiAutomaton
from ..automata.ltl2ba import translate
from ..automata.serialize import automaton_from_dict, automaton_to_dict
from ..core import faults
from ..core.retry import BackoffPolicy
from ..errors import BrokerError, ReproError, TranslationError
from .contract import ContractSpec
from .database import ContractDatabase
from .options import PrebuiltArtifacts
from .registration import QuarantinedSpec, RegistrationReport

#: Pool-level failure retries before the serial fallback.
DEFAULT_MAX_RETRIES = 2

#: First retry's backoff; doubles per retry, capped at 1 s.
DEFAULT_BACKOFF_SECONDS = 0.05


def _translate_clauses(payload: tuple[dict, int]) -> dict:
    """Worker: parse + conjoin + translate one contract's clauses.

    Spec document in, JSON-ready automaton out — keeps the
    inter-process payload small and version-stable.
    """
    document, state_budget = payload
    ba = translate(
        ContractSpec.from_doc(document).formula, state_budget=state_budget
    )
    return automaton_to_dict(ba)


def _item_name(item) -> str:
    if isinstance(item, ContractSpec):
        return item.name
    if isinstance(item, Mapping):
        name = item.get("name")
        if isinstance(name, str):
            return name
    return "<unnamed>"


def _quarantine(db, report: RegistrationReport, entry: QuarantinedSpec):
    report.quarantined.append(entry)
    db.quarantine.add(entry)
    db.add_count("register.quarantined")


def _register_one(
    db: ContractDatabase,
    report: RegistrationReport,
    spec: ContractSpec,
    ba: BuchiAutomaton | None,
) -> None:
    """Register one translated (or to-be-translated) spec, quarantining
    a failure instead of letting it poison the batch."""
    try:
        prebuilt = PrebuiltArtifacts(ba=ba) if ba is not None else None
        contract = db.register(spec, prebuilt=prebuilt)
    except TranslationError as exc:
        _quarantine(db, report, QuarantinedSpec(
            spec=spec, name=spec.name, error=exc, stage="translate",
        ))
    except ReproError as exc:
        _quarantine(db, report, QuarantinedSpec(
            spec=spec, name=spec.name, error=exc, stage="register",
        ))
    else:
        report.contracts.append(contract)


def register_many(
    db: ContractDatabase,
    specs: "Sequence[ContractSpec | Mapping]",
    workers: int = 1,
    *,
    max_retries: int = DEFAULT_MAX_RETRIES,
    backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
    _sleep=time.sleep,
) -> RegistrationReport:
    """Register a batch of specs, translating in parallel.

    ``specs`` may mix :class:`ContractSpec` objects and raw spec
    documents (``{"name": ..., "clauses": [LTL text, ...],
    "attributes": {...}}`` — the CLI spec-file shape); raw documents
    whose clauses fail to parse are quarantined rather than raised.

    Returns a :class:`RegistrationReport`: sequence-compatible with the
    registered :class:`Contract` objects in input order, plus the
    quarantined specs and the pool retry/fallback record.  Contract ids
    are assigned in input order by the parent process, so results are
    identical to serial registration for the healthy subset.

    Failure handling:

    * **poison pills** (parse error, state-budget blowout, registration
      rejection) are quarantined individually — also recorded on
      ``db.quarantine`` for a later :meth:`~repro.broker.registration.
      Quarantine.retry`;
    * **transient pool failures** (:class:`BrokenProcessPool`,
      ``OSError``/``PermissionError`` in sandboxed environments) are
      retried up to ``max_retries`` times with exponential backoff
      (``backoff_seconds``, doubled per retry, capped at 1 s),
      re-submitting only untranslated specs; persistent failure falls
      back to in-process translation for the leftovers.  Specs that
      already translated are **never** re-translated.

    The wall clock spent in the pool (including failed attempts) is
    accounted to ``registration_stats.translation_seconds`` so the
    stats stay consistent either way.
    """
    report = RegistrationReport()

    # normalize every item up front: parse-stage poison pills are
    # quarantined here and never reach the pool
    resolved: list[ContractSpec | None] = []
    for item in specs:
        try:
            spec = item
            if not isinstance(item, ContractSpec):
                spec = ContractSpec.from_doc(item)
                if not spec.name or not spec.clauses:
                    raise BrokerError(
                        f"spec document without a name or clauses: {item!r}"
                    )
            resolved.append(spec)
        except ReproError as exc:
            resolved.append(None)
            _quarantine(db, report, QuarantinedSpec(
                spec=None, name=_item_name(item), error=exc, stage="parse",
            ))

    healthy = [i for i, spec in enumerate(resolved) if spec is not None]

    if workers <= 1 or len(healthy) <= 1:
        for i in healthy:
            _register_one(db, report, resolved[i], ba=None)
        return report

    payloads = {
        i: (resolved[i].to_doc(), db.config.state_budget) for i in healthy
    }

    documents: dict[int, dict] = {}
    dead: set[int] = set()  # quarantined during the pool phase
    pending = list(healthy)
    # Pool retries follow the shared backoff shape (see
    # :mod:`repro.core.retry`) without jitter — a single local pool has
    # no herd to desynchronize, and jitter-free delays keep the
    # ``register_many`` timing contract exact.
    policy = BackoffPolicy(
        max_retries=max_retries, base_seconds=backoff_seconds,
        cap_seconds=1.0, jitter=0.0,
    )
    attempt = 0
    pool_start = time.perf_counter()
    while pending:
        broken = False
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    i: pool.submit(_translate_clauses, payloads[i])
                    for i in pending
                }
                faults.hit("register.pool", attempt=attempt)
                still_pending = []
                for i in pending:
                    try:
                        documents[i] = futures[i].result()
                    except (BrokenProcessPool, OSError) as exc:
                        # the pool died under this future; the spec
                        # itself is not implicated — retry it
                        still_pending.append(i)
                        broken = True
                    except ReproError as exc:
                        dead.add(i)
                        _quarantine(db, report, QuarantinedSpec(
                            spec=resolved[i], name=resolved[i].name,
                            error=exc, stage="translate",
                        ))
                    except Exception as exc:
                        # a worker exception that is not ours (pickling,
                        # recursion, ...) is deterministic for this spec
                        dead.add(i)
                        _quarantine(db, report, QuarantinedSpec(
                            spec=resolved[i], name=resolved[i].name,
                            error=exc, stage="translate",
                        ))
                pending = still_pending
        except (OSError, PermissionError, BrokenProcessPool):
            broken = True  # pool never came up (or died at submit time)
        if not pending or not broken:
            break
        attempt += 1
        if attempt > max_retries:
            # persistent pool failure: translate the leftovers in
            # process (inside db.register below), never re-translating
            # the documents already in hand
            report.pool_fallback = True
            db.add_count("register.pool_fallback")
            break
        report.pool_retries += 1
        db.add_count("register.pool_retries")
        _sleep(policy.delay(attempt))

    pool_seconds = time.perf_counter() - pool_start

    for i in healthy:
        if i in dead:
            continue
        spec = resolved[i]
        document = documents.get(i)
        ba = None
        if document is not None:
            try:
                ba = automaton_from_dict(document)
            except ReproError as exc:
                _quarantine(db, report, QuarantinedSpec(
                    spec=spec, name=spec.name, error=exc, stage="translate",
                ))
                continue
        # document is None only on the serial-fallback path:
        # _register_one translates in-process via db.register
        _register_one(db, report, spec, ba=ba)

    # The parent did not time the (parallel) translation; account the
    # pool wall clock so registration stats stay meaningful.
    db.registration_stats.translation_seconds += pool_seconds
    return report
