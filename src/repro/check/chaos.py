"""Scripted chaos drills: fault injection against the recovery paths.

The conformance runner (:mod:`repro.check.runner`) checks that the
stack answers *correctly*; this module checks that it answers correctly
**after being hurt**.  Each drill arms the fault-injection registry
(:mod:`repro.core.faults`) at one seam, lets the failure happen, and
verifies the documented recovery property:

* ``persist-crash`` — a simulated crash while writing each snapshot
  artifact in turn; the directory must still load (fallback ladder /
  journal) and answer exactly like the database that was being saved;
* ``journal-truncation`` — a write-ahead journal holding a dozen
  acknowledged mutations is cut at byte boundaries; every cut must
  recover a prefix-consistent database that reconverges to the full
  state once the lost tail is re-applied (the kill-9 property);
* ``replication-truncation`` — the same byte-boundary cuts observed
  from the *read side*: a journal-shipping replica
  (:mod:`repro.dist.replica`) catching up over each torn journal must
  hold a consistent prefix, must never mutate the leader's file, and
  must reconverge through a snapshot re-sync once the leader heals and
  compacts (epoch bump);
* ``quarantine`` — a batch with poison pills (unparseable clauses, a
  state-budget blowout) must register every healthy spec, quarantine
  the pills with their exceptions, and recover them via
  ``db.quarantine.retry`` once the cause is fixed;
* ``dist-flap`` — transient faults on the coordinator's ``dist.send``/
  ``dist.recv`` seams during a query storm: every flap must be
  absorbed by the RPC retry machinery (answers bit-for-bit equal to
  the fault-free cluster's), a fault window outlasting the retry
  budget must degrade *soundly* (``permitted ⊆ exact ⊆ permitted ∪
  maybe``), and once the seams heal and the breakers reset the
  answers must reconverge bit-for-bit;
* ``dist-partition`` — one shard partitioned off (every transport op
  against it raises): its circuit breaker must open, queries must
  degrade soundly while it is gone, and partition-then-heal must
  reconverge bit-for-bit;
* ``dist-failover`` — kill the leader of a journaled shard, promote
  its caught-up replica (epoch bump), fail the coordinator's address
  over, and re-answer a pinned query set **identically** to the
  pre-kill cluster — same global contract ids, same verdicts
  (invariant 16).

Drills are deterministic (no randomness, no timing dependence) so a
failure in CI reproduces locally from the same command:
``contract-broker chaos``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..broker.contract import ContractSpec
from ..broker.database import BrokerConfig, ContractDatabase
from ..core.faults import FAULTS, SimulatedCrash
from ..ltl.parser import parse

#: Mutations in the journal the truncation drill sweeps.  ≥10 so the
#: sweep crosses many record boundaries, small enough to stay fast.
DEFAULT_MUTATIONS = 12


@dataclass
class DrillResult:
    """One drill's verdict."""

    name: str
    ok: bool
    detail: str
    checks: int = 0
    elapsed_seconds: float = 0.0

    def describe(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"[{verdict}] {self.name}: {self.detail} "
            f"({self.checks} check(s), {self.elapsed_seconds:.2f}s)"
        )


@dataclass
class ChaosReport:
    """The outcome of one chaos run."""

    results: list[DrillResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    def summary(self) -> str:
        passed = sum(1 for r in self.results if r.ok)
        verdict = "OK" if self.ok else "FAILURES"
        return (
            f"chaos: {passed}/{len(self.results)} drill(s) passed "
            f"-> {verdict}"
        )

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "drills": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "detail": r.detail,
                    "checks": r.checks,
                    "elapsed_seconds": r.elapsed_seconds,
                }
                for r in self.results
            ],
        }


def _spec(i: int) -> ContractSpec:
    """A small deterministic spec; distinct vocabulary per contract so
    answers discriminate between recovery states."""
    return ContractSpec(
        name=f"chaos-{i}",
        clauses=(parse(f"G(a{i} -> F b{i})"),),
        attributes={"slot": i},
    )


def _names(db: ContractDatabase) -> list[str]:
    """Contract names in registration order (ids are dense and
    assigned in order, so a crash-recovered database's list is a prefix
    of the full one)."""
    contracts = sorted(db.contracts(), key=lambda c: c.contract_id)
    return [c.name for c in contracts]


def _drill(name, fn) -> DrillResult:
    started = time.perf_counter()
    FAULTS.reset()
    try:
        ok, detail, checks = fn()
    except Exception as exc:  # a drill crashing is itself a failure
        ok, detail, checks = False, f"{type(exc).__name__}: {exc}", 0
    finally:
        FAULTS.reset()
    return DrillResult(
        name=name,
        ok=ok,
        detail=detail,
        checks=checks,
        elapsed_seconds=time.perf_counter() - started,
    )


#: Snapshot writes per save: automata, seeds, encodings, projections,
#: index, then the manifest last.
_ARTIFACT_WRITES = 6


def _persist_crash_drill(contracts: int = 4):
    """Crash on every artifact write position in turn; the directory
    must stay loadable and answer identically."""
    from ..broker.persist import load_database, save_database

    checks = 0
    db = ContractDatabase(BrokerConfig())
    for i in range(contracts):
        db.register(_spec(i))
    baseline = _names(db)
    # one crash position per snapshot artifact (manifest is last)
    for position in range(1, _ARTIFACT_WRITES + 1):
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            directory = Path(tmp) / "db"
            save_database(db, directory)  # a good snapshot to fall back on
            FAULTS.fail_at("persist.artifact_write", nth=position)
            try:
                save_database(db, directory)
                return False, (
                    f"injected crash at artifact write #{position} "
                    "did not fire"
                ), checks
            except SimulatedCrash:
                pass
            finally:
                FAULTS.reset()
            loaded = load_database(directory)
            checks += 1
            if _names(loaded) != baseline:
                return False, (
                    f"crash at artifact write #{position}: loaded "
                    f"{_names(loaded)} != {baseline}"
                ), checks
    return True, (
        f"crashed at each of {_ARTIFACT_WRITES} artifact-write "
        "positions; every directory loaded back identically"
    ), checks


def _journal_truncation_drill(mutations: int = DEFAULT_MUTATIONS,
                              stride: int = 1):
    """Cut the journal at byte boundaries; every cut must recover a
    prefix of the acknowledged history and reconverge when the lost
    tail is re-applied."""
    from ..broker.journal import JOURNAL_FILE, open_database

    checks = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        source = Path(tmp) / "source"
        db = open_database(source)
        specs = [_spec(i) for i in range(mutations)]
        for spec in specs:
            db.register(spec)
        full = _names(db)
        raw = (source / JOURNAL_FILE).read_bytes()
        header_end = raw.index(b"\n") + 1
        reconverged: set[int] = set()
        for cut in range(header_end, len(raw) + 1, max(stride, 1)):
            trial = Path(tmp) / f"cut-{cut}"
            trial.mkdir()
            (trial / JOURNAL_FILE).write_bytes(raw[:cut])
            recovered = open_database(trial)
            got = _names(recovered)
            checks += 1
            # prefix consistency: exactly the first k acknowledged
            # mutations survive, for some k
            if got != full[: len(got)]:
                return False, (
                    f"cut at byte {cut}: {got} is not a prefix of {full}"
                ), checks
            # reconvergence: re-applying the lost tail restores the
            # full state.  The recovered database is a pure function of
            # how many complete records survived the cut, so one
            # reconvergence per distinct prefix length covers them all.
            if len(got) in reconverged:
                continue
            reconverged.add(len(got))
            for spec in specs[len(got):]:
                recovered.register(spec)
            if _names(recovered) != full:
                return False, (
                    f"cut at byte {cut}: reconverged to "
                    f"{_names(recovered)} != {full}"
                ), checks
    return True, (
        f"journal of {mutations} mutations cut at {checks} byte "
        "boundaries; every cut recovered a consistent prefix and "
        "reconverged"
    ), checks


def _replication_drill(mutations: int = DEFAULT_MUTATIONS,
                       stride: int = 1):
    """A replica catching up over a torn leader journal must hold a
    prefix of the acknowledged history, must never mutate the leader's
    file, and must reconverge to the full state once the leader heals
    and compacts (epoch bump → snapshot re-sync)."""
    from ..broker.journal import JOURNAL_FILE, open_database
    from ..broker.persist import save_database
    from ..dist.replica import Replica

    checks = 0
    cuts = 0
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        source = Path(tmp) / "source"
        db = open_database(source)
        specs = [_spec(i) for i in range(mutations)]
        for spec in specs:
            db.register(spec)
        full = _names(db)
        raw = (source / JOURNAL_FILE).read_bytes()
        header_end = raw.index(b"\n") + 1
        compacted: set[int] = set()
        for cut in range(header_end, len(raw) + 1, max(stride, 1)):
            cuts += 1
            trial = Path(tmp) / f"cut-{cut}"
            trial.mkdir()
            journal_path = trial / JOURNAL_FILE
            journal_path.write_bytes(raw[:cut])
            replica = Replica(trial)
            replica.poll()
            got = _names(replica.db)
            checks += 1
            # prefix consistency: mid-flush bytes are simply not
            # consumed, so the replica holds the first k mutations
            if got != full[: len(got)]:
                return False, (
                    f"cut at byte {cut}: replica state {got} is not a "
                    f"prefix of {full}"
                ), checks
            # a reader must never heal (truncate) the leader's file
            checks += 1
            if journal_path.read_bytes() != raw[:cut]:
                return False, (
                    f"cut at byte {cut}: the replica mutated the "
                    "leader's journal"
                ), checks
            # reconvergence is a pure function of the surviving prefix
            # length: exercise the leader-compacts path once per length
            if len(got) in compacted:
                continue
            compacted.add(len(got))
            # the leader restarts on the torn journal (healing it),
            # re-applies the lost mutations, and compacts: snapshot +
            # epoch bump — the replica's byte cursor is now meaningless
            leader = open_database(trial)
            for spec in specs[len(_names(leader)):]:
                leader.register(spec)
            save_database(leader, trial)
            report = replica.catch_up(timeout=30)
            checks += 2
            if not report.resynced:
                return False, (
                    f"cut at byte {cut}: the replica did not re-sync "
                    "from the snapshot after the epoch bump"
                ), checks
            if _names(replica.db) != full:
                return False, (
                    f"cut at byte {cut}: replica reconverged to "
                    f"{_names(replica.db)} != {full}"
                ), checks
    return True, (
        f"replica tailed {cuts} torn-journal cuts: every cut held a "
        "consistent prefix without touching the leader's file, and "
        f"every distinct prefix ({len(compacted)}) re-synced to the "
        "full state after the leader compacted"
    ), checks


def _quarantine_drill():
    """Poison pills must not take the batch down, and must be
    recoverable once the cause is fixed."""
    from ..broker.parallel import register_many

    db = ContractDatabase(BrokerConfig(state_budget=6))
    report = register_many(db, [
        ContractSpec(
            name="healthy-a", clauses=(parse("F a"),), attributes={}
        ),
        {"name": "unparseable", "clauses": ["G((("]},
        # a conjunction of eventualities whose BA blows the tiny budget
        ContractSpec(
            name="budget-blowout",
            clauses=tuple(parse(f"F e{i}") for i in range(6)),
            attributes={},
        ),
        ContractSpec(
            name="healthy-b", clauses=(parse("G !z"),), attributes={}
        ),
    ])
    checks = 1
    if report.registered != 2 or len(report.quarantined) != 2:
        return False, f"unexpected batch outcome: {report.summary()}", checks
    stages = sorted(q.stage for q in report.quarantined)
    if stages != ["parse", "translate"]:
        return False, f"unexpected quarantine stages: {stages}", checks
    # the healthy survivors answer queries (index consistent)
    outcome = db.query("F a")
    checks += 1
    if "healthy-a" not in outcome.contract_names:
        return False, "healthy survivor not queryable", checks
    # fix the cause (raise the budget) and retry the quarantine
    db.config = BrokerConfig(state_budget=512)
    recovered = db.quarantine.retry(db)
    checks += 1
    if recovered.registered != 1 or len(db.quarantine) != 1:
        return False, (
            f"retry recovered {recovered.registered}, "
            f"{len(db.quarantine)} left (expected 1 and 1)"
        ), checks
    return True, (
        "2 poison pills quarantined (parse, translate), 2 healthy "
        "specs registered and queryable, 1 recovered by retry"
    ), checks


#: A fast, still-jittered retry schedule for the network drills (the
#: real default waits tens of milliseconds per retry — pointless
#: against an injected fault).
_DRILL_RETRY_KW = dict(
    max_retries=2, base_seconds=0.002, cap_seconds=0.01,
)

#: Contracts per network drill — enough to land on every shard of a
#: 3-shard cluster.
_DIST_CONTRACTS = 9


def _answer(outcome) -> tuple:
    """The comparable part of a query outcome: the answer itself (ids,
    names, maybes, per-contract verdicts) minus the timing noise."""
    return (
        outcome.contract_ids,
        outcome.contract_names,
        outcome.maybe_ids,
        outcome.maybe_names,
        {cid: v.value for cid, v in outcome.verdicts.items()},
    )


def _sound(exact_ids: set, outcome) -> bool:
    """The degradation invariant: ``permitted ⊆ exact ⊆ permitted ∪
    maybe`` (invariant 8, applied across the network)."""
    permitted = set(outcome.contract_ids)
    maybe = set(outcome.maybe_ids)
    return permitted <= exact_ids and exact_ids <= permitted | maybe


def _dist_queries(n: int = 3):
    """Discriminating pinned queries: ``F ai & G !bi`` violates exactly
    contract ``chaos-i`` (which obliges ``bi`` after ``ai``), so every
    query's exact answer excludes precisely one contract."""
    return [f"F a{i} & G !b{i}" for i in range(0, _DIST_CONTRACTS, n)]


def _dist_flap_drill():
    """Transient send/recv faults are absorbed by retries (bit-for-bit
    answers); a fault window past the retry budget degrades soundly;
    healed seams + reset breakers reconverge bit-for-bit."""
    from ..core.retry import BackoffPolicy
    from ..dist.cluster import LocalCluster

    checks = 0
    queries = _dist_queries()
    with LocalCluster(3) as cluster:
        with cluster.database(
            retry=BackoffPolicy(**_DRILL_RETRY_KW),
            breaker_reset_seconds=60.0,  # only reset_breakers() heals
        ) as db:
            for i in range(_DIST_CONTRACTS):
                db.register(_spec(i))
            baseline = [_answer(o) for o in db.query_many(queries)]
            exact = [set(b[0]) for b in baseline]

            # -- flap: each query sees two transient faults, within the
            # retry budget no matter which shards absorb them
            for round_no, seam in enumerate(("dist.send", "dist.recv")):
                for qi, query in enumerate(queries):
                    FAULTS.fail_at(seam, nth=1, times=2, exc=OSError("flap"))
                    outcome = db.query(query)
                    FAULTS.reset()
                    checks += 1
                    if _answer(outcome) != baseline[qi]:
                        return False, (
                            f"{seam} flap on {query!r}: retried answer "
                            "diverged from the fault-free cluster"
                        ), checks
            retries = db.metrics.counter_value("dist.retries")
            checks += 1
            if retries < 2 * len(queries):
                return False, (
                    f"flap storm only recorded {retries} retry(ies); "
                    "the faults were not absorbed by the retry path"
                ), checks

            # -- a window outlasting every retry budget: sound
            # degradation, never a wrong answer
            FAULTS.fail_at("dist.send", nth=1, times=10**6,
                           exc=OSError("long outage"))
            degraded = db.query_many(queries)
            FAULTS.reset()
            for qi, outcome in enumerate(degraded):
                checks += 1
                if not _sound(exact[qi], outcome):
                    return False, (
                        f"long outage on {queries[qi]!r}: degraded "
                        "answer is unsound"
                    ), checks

            # -- heal + close the breakers the outage opened:
            # bit-for-bit reconvergence
            db.reset_breakers()
            healed = [_answer(o) for o in db.query_many(queries)]
            checks += 1
            if healed != baseline:
                return False, (
                    "healed cluster did not reconverge to the "
                    "fault-free answers"
                ), checks
    return True, (
        f"{2 * len(queries)} transient flaps absorbed bit-for-bit "
        f"({retries} retries), long outage degraded soundly, healed "
        "cluster reconverged"
    ), checks


def _dist_partition_drill():
    """Partition one shard off: its breaker opens, queries degrade
    soundly, and partition-then-heal reconverges bit-for-bit."""
    from ..core.retry import BackoffPolicy
    from ..dist.cluster import LocalCluster

    checks = 0
    queries = _dist_queries()
    victim = 1

    def partition(**context):
        if context.get("shard") == victim:
            raise OSError(f"shard {victim} is partitioned off")

    with LocalCluster(3) as cluster:
        with cluster.database(
            retry=BackoffPolicy(**_DRILL_RETRY_KW),
            breaker_reset_seconds=60.0,
        ) as db:
            for i in range(_DIST_CONTRACTS):
                db.register(_spec(i))
            baseline = [_answer(o) for o in db.query_many(queries)]
            exact = [set(b[0]) for b in baseline]

            for seam in ("dist.connect", "dist.send", "dist.recv"):
                FAULTS.fail_at(seam, nth=1, times=10**6, action=partition)
            degraded = db.query_many(queries)
            for qi, outcome in enumerate(degraded):
                checks += 1
                if not _sound(exact[qi], outcome):
                    return False, (
                        f"partition: {queries[qi]!r} degraded unsoundly"
                    ), checks
            # repeated queries against the partition trip the breaker:
            # the victim fails fast instead of burning its retry budget
            db.query_many(queries)
            checks += 1
            breaker = db.health[victim]
            if breaker.state != "open":
                return False, (
                    f"shard {victim} breaker is {breaker.state!r} after "
                    "a sustained partition (expected 'open')"
                ), checks
            checks += 1
            if db.metrics.counter_value("dist.breaker_open") < 1:
                return False, "dist.breaker_open was never counted", checks

            FAULTS.reset()
            db.reset_breakers()
            healed = [_answer(o) for o in db.query_many(queries)]
            checks += 1
            if healed != baseline:
                return False, (
                    "healed partition did not reconverge to the "
                    "fault-free answers"
                ), checks
    return True, (
        f"shard {victim} partitioned: sound degradation, breaker "
        "opened, heal reconverged bit-for-bit"
    ), checks


def _dist_failover_drill():
    """Kill the leader, promote its caught-up replica, fail the
    coordinator over: the pinned queries re-answer identically — same
    global ids, same verdicts (invariant 16)."""
    from ..core.retry import BackoffPolicy
    from ..dist.cluster import LocalCluster

    checks = 0
    queries = _dist_queries()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        with LocalCluster(2, directory=Path(tmp) / "cluster") as cluster:
            with cluster.database(
                retry=BackoffPolicy(**_DRILL_RETRY_KW),
            ) as db:
                for i in range(_DIST_CONTRACTS):
                    db.register(_spec(i))
                baseline = [_answer(o) for o in db.query_many(queries)]
                exact = [set(b[0]) for b in baseline]

                replica = cluster.replica(0)
                replica.catch_up()
                old_epoch = replica.cursor.epoch

                skipped = db.metrics.counter_value("dist.merge.skipped_shards")
                cluster.stop_shard(0)  # the leader dies
                degraded = db.query_many(queries)
                checks += 1
                if db.metrics.counter_value(
                        "dist.merge.skipped_shards") == skipped:
                    return False, (
                        "dead leader: every query was answered in full; "
                        "the stopped shard still serves"
                    ), checks
                for qi, outcome in enumerate(degraded):
                    checks += 1
                    if not _sound(exact[qi], outcome):
                        return False, (
                            f"dead leader: {queries[qi]!r} degraded "
                            "unsoundly"
                        ), checks

                promotion = replica.promote(Path(tmp) / "promoted")
                checks += 1
                if promotion.epoch <= old_epoch:
                    return False, (
                        f"promotion kept epoch {promotion.epoch} "
                        f"(leader was at {old_epoch}); siblings would "
                        "not resync"
                    ), checks
                address = cluster.restart_shard(0, db=replica.db)
                db.fail_over(0, address)

                recovered = [_answer(o) for o in db.query_many(queries)]
                checks += 1
                if recovered != baseline:
                    return False, (
                        "failed-over cluster did not re-answer the "
                        "pinned queries identically"
                    ), checks
                checks += 1
                if db.metrics.counter_value("dist.failovers") != 1:
                    return False, "dist.failovers was not counted", checks
    return True, (
        f"leader killed, replica promoted to epoch {promotion.epoch}, "
        f"{len(queries)} pinned queries re-answered identically after "
        "failover"
    ), checks


#: Every drill by name, in run order.
DRILLS = {
    "persist-crash": lambda mutations, stride: _persist_crash_drill(),
    "journal-truncation": (
        lambda mutations, stride: _journal_truncation_drill(
            mutations, stride
        )
    ),
    "replication-truncation": (
        lambda mutations, stride: _replication_drill(mutations, stride)
    ),
    "quarantine": lambda mutations, stride: _quarantine_drill(),
    "dist-flap": lambda mutations, stride: _dist_flap_drill(),
    "dist-partition": lambda mutations, stride: _dist_partition_drill(),
    "dist-failover": lambda mutations, stride: _dist_failover_drill(),
}


def run_chaos_drills(
    mutations: int = DEFAULT_MUTATIONS,
    stride: int = 1,
    drills: "list[str] | None" = None,
) -> ChaosReport:
    """Run the named ``drills`` (default: all, in :data:`DRILLS` order);
    deterministic, self-contained, ~seconds."""
    if drills is None:
        selected = list(DRILLS)
    else:
        unknown = [name for name in drills if name not in DRILLS]
        if unknown:
            raise ValueError(
                f"unknown drill(s) {unknown}; available: {sorted(DRILLS)}"
            )
        selected = list(drills)
    report = ChaosReport()
    for name in selected:
        fn = DRILLS[name]
        report.results.append(_drill(
            name, lambda fn=fn: fn(mutations, stride)
        ))
    return report
