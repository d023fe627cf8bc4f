"""Journal-shipping read replicas.

A :class:`Replica` keeps a read-only copy of a leader shard's database
warm by tailing the leader's ``journal.jsonl`` — the same write-ahead
journal that already makes the leader crash-safe doubles as the
replication stream, the way the related stream-checking work replays a
finite observation prefix (Huang & Cleaveland; PAPERS.md).  The
replica's cursor is ``(epoch, byte offset, next sequence)``:

* **catch-up** — :meth:`poll` reads verified records past the offset
  with :meth:`Journal.read_from <repro.broker.journal.Journal.read_from>`
  (never mutating the leader's file) and applies them through
  :func:`~repro.broker.journal.apply_prefix`, the loop the leader's own
  recovery replays with — so by construction the replica can only ever
  hold a *prefix* of the leader's acknowledged state;
* **torn tails** — a record the leader is mid-flush on simply is not
  consumed; the cursor stays put and the next poll retries;
* **epoch changes** — when the leader compacts (snapshot + journal
  reset, epoch bump), the byte cursor is meaningless; the replica
  re-syncs through :func:`~repro.broker.journal.restore`, the leader's
  own restore step (same snapshot load, same epoch verdict, and the
  leader's journaled configuration unless the replica was given one),
  and resumes tailing the fresh journal.

Queries against the replica are plain local queries — stale by at most
the replication lag, never wrong about any prefix they claim.

Two roles build on that loop (1.10):

* **read routing** — the front-end hands a shard's read traffic to its
  replica under a :class:`ReadPreference` staleness bound (see
  :meth:`repro.dist.coordinator.DistributedDatabase.attach_replica`);
* **promotion** — when the leader dies, :meth:`Replica.promote` turns
  the caught-up replica into a writable, journaled leader of its own:
  it verifies the replica holds the *entire* shipped journal tail,
  bumps the journal epoch past the dead leader's, and snapshots into a
  fresh directory a :class:`~repro.dist.server.ShardServer` can serve —
  so a coordinator can fail the shard's address over without
  renumbering a single global contract id.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..broker.database import BrokerConfig, ContractDatabase
from ..broker.journal import JOURNAL_FILE, Journal, apply_prefix, restore
from ..broker.persist import read_manifest, save_database
from ..core.retry import BackoffPolicy
from ..errors import DistError
from ..obs.metrics import MetricsRegistry

#: The poll cadence :meth:`Replica.catch_up` waits on between polls —
#: starts tight (journal writes usually land within milliseconds) and
#: backs off to a capped plateau instead of busy-spinning.
CATCH_UP_BACKOFF = BackoffPolicy(
    max_retries=0,  # unused: catch_up polls until its own deadline
    base_seconds=0.01,
    cap_seconds=0.25,
)


@dataclass
class ReplicaCursor:
    """Where in the leader's journal the replica stands."""

    epoch: int = -1  #: -1 = never synced
    offset: int = 0
    next_seq: int = 1


@dataclass(frozen=True)
class ReadPreference:
    """How stale a routed replica read may be.

    A coordinator serving a shard's read from its replica first polls
    the replica; when more than ``max_staleness_records`` verified
    leader records remain unapplied (or the replica is stalled), the
    read falls back to the leader instead.  The default of 0 only ever
    serves fully-caught-up answers."""

    max_staleness_records: int = 0

    def __post_init__(self) -> None:
        if self.max_staleness_records < 0:
            raise DistError(
                "max_staleness_records must be >= 0, got "
                f"{self.max_staleness_records}"
            )


@dataclass(frozen=True)
class PromotionReport:
    """What :meth:`Replica.promote` produced."""

    directory: str  #: the promoted leader's data directory
    epoch: int  #: the journal epoch the new leader writes at
    contracts: int  #: contracts carried over from the dead leader
    applied: int  #: records the final pre-promotion poll applied


@dataclass
class PollReport:
    """What one :meth:`Replica.poll` observed and applied."""

    applied: int = 0
    resynced: bool = False
    torn: bool = False
    #: verified leader records not yet applied (the replication lag
    #: in records; 0 when fully caught up)
    lag_records: int = 0
    #: bytes of journal past the cursor (includes any torn tail)
    lag_bytes: int = 0
    epoch: int = -1
    warnings: list = field(default_factory=list)


class Replica:
    """A read-only database tailing ``leader_dir``'s journal."""

    def __init__(self, leader_dir: str | Path, *,
                 config: BrokerConfig | None = None,
                 metrics: MetricsRegistry | None = None):
        self.leader_dir = Path(leader_dir)
        self.config = config
        # dist.replica.*, unlocked: one thread drives a replica at a time
        self._counts: Counter = Counter()
        self._lag: PollReport | None = None  # the last report's lag gauges
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register(self)
        self.cursor = ReplicaCursor()
        self._db = ContractDatabase(config)
        self._stalled_seq: int | None = None
        self.promoted = False

    @property
    def db(self) -> ContractDatabase:
        """The replica's local database (query it directly)."""
        return self._db

    @property
    def stalled(self) -> bool:
        """True when an unapplicable journal record poisoned the tail:
        the replica holds a consistent *prefix* but cannot advance
        until the leader compacts (or is replaced)."""
        return self._stalled_seq is not None

    @property
    def journal_path(self) -> Path:
        return self.leader_dir / JOURNAL_FILE

    # -- the replication loop ---------------------------------------------------------

    def poll(self) -> PollReport:
        """One replication step: detect epoch changes, read the tail,
        apply what verified.  Cheap when there is nothing new."""
        if self.promoted:
            raise DistError(
                "a promoted replica is a leader now; it no longer tails "
                f"{self.leader_dir}"
            )
        report = PollReport(epoch=self.cursor.epoch)
        started = time.perf_counter()

        header_epoch = Journal.read_header_epoch(self.journal_path)
        if header_epoch is None:
            # no journal (leader not started) or its header is torn;
            # nothing trustworthy to ship yet
            self._observe_lag(report)
            return report

        tailed = False
        if header_epoch != self.cursor.epoch:
            self._resync(report)
        else:
            tail = Journal.read_from(
                self.journal_path, self.cursor.offset,
                expected_seq=self.cursor.next_seq,
            )
            if tail.end_offset < self.cursor.offset:
                # the file shrank under the same epoch (leader healed
                # its own torn tail); fall back to a full resync
                self._resync(report)
            else:
                self._apply(tail.records, report)
                self.cursor.offset = tail.end_offset
                report.torn = tail.torn
                tailed = True
        report.epoch = self.cursor.epoch
        # a tail read or a resync leaves the cursor just past the last
        # verified record; a resync that could not read the header does not
        self._observe_lag(report, scanned=tailed or report.resynced)
        self._counts["dist.replica.polls"] += 1
        self.metrics.observe(
            "dist.replica.poll_seconds", time.perf_counter() - started
        )
        if report.applied:
            self._counts["dist.replica.applied"] += report.applied
        return report

    def catch_up(self, *, timeout: float = 30.0,
                 backoff: BackoffPolicy | None = None) -> PollReport:
        """Poll until fully caught up (lag 0, no torn tail) or
        ``timeout`` elapses.

        The wait between polls follows ``backoff`` (default
        :data:`CATCH_UP_BACKOFF`): capped exponential with the shared
        deterministic jitter, salted by the leader directory so two
        replicas of different leaders desynchronize."""
        policy = backoff if backoff is not None else CATCH_UP_BACKOFF
        salt = f"replica:{self.leader_dir}"
        deadline = time.monotonic() + timeout
        attempt = 0
        while True:
            report = self.poll()
            header = Journal.read_header_epoch(self.journal_path)
            caught_up = (
                not report.torn
                and report.lag_bytes == 0
                and (header is None or header == self.cursor.epoch)
            )
            if caught_up:
                return report
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DistError(
                    f"replica did not catch up within {timeout}s "
                    f"(lag {report.lag_bytes} bytes, torn={report.torn})"
                )
            attempt += 1
            time.sleep(min(policy.delay(attempt, salt), remaining))

    def promote(self, directory: str | Path) -> PromotionReport:
        """Turn this caught-up replica into a writable leader rooted at
        ``directory``.

        Promotion refuses unless the replica holds the **entire**
        verified journal tail the dead leader shipped (a torn trailing
        record was never acknowledged to any client, so discarding it
        is safe), and refuses a stalled replica outright — promoting a
        poisoned prefix would silently drop acknowledged writes.  On
        success the replica's database gets a fresh journal at an epoch
        **past** the old leader's and is snapshotted into ``directory``
        — so any sibling replica re-pointed at the new leader sees the
        epoch change and resyncs from the new snapshot.  The promoted
        database keeps every contract's local id, which keeps every
        *global* id stable across the coordinator's failover
        (invariant 15).
        """
        if self.promoted:
            raise DistError("replica is already promoted")
        directory = Path(directory)
        if directory.resolve() == self.leader_dir.resolve():
            raise DistError(
                "promote into a fresh directory, not the dead leader's "
                f"({self.leader_dir}): its journal must stay intact as "
                "the replication source of record"
            )
        report = self.poll()
        if self.stalled:
            raise DistError(
                "a stalled replica holds only a prefix of the leader's "
                "acknowledged state and cannot be promoted (record "
                f"seq={self._stalled_seq} failed to apply)"
            )
        if report.lag_records:
            raise DistError(
                f"replica lags {report.lag_records} verified record(s) "
                "behind the shipped journal tail; catch_up() before "
                "promoting"
            )
        new_epoch = max(self.cursor.epoch, 0) + 1
        directory.mkdir(parents=True, exist_ok=True)
        # save_database writes the snapshot, bumps the journal to
        # epoch+1 and compacts — so open the journal one epoch early
        # and let the save land exactly on new_epoch
        journal = Journal.open(
            directory / JOURNAL_FILE, epoch=new_epoch - 1,
            config=self._db.config,
        )
        self._db.attach_journal(journal)
        save_database(self._db, directory)
        self.promoted = True
        self._counts["dist.replica.promotions"] += 1
        return PromotionReport(
            directory=str(directory),
            epoch=journal.epoch,
            contracts=len(self._db),
            applied=report.applied,
        )

    def _resync(self, report: PollReport) -> None:
        """Rebuild through the leader's own restore step (its snapshot,
        its configuration unless this replica was given one), then
        position the cursor at the end of the current journal epoch's
        tail."""
        manifest = read_manifest(self.leader_dir)
        tail = Journal.read_from(self.journal_path, 0)
        if tail.epoch is None:
            # header torn or file vanished mid-resync; keep the old
            # cursor invalid so the next poll retries the resync
            report.warnings.append("resync: journal header unreadable")
            return
        self._db, stale = restore(
            self.leader_dir, manifest, self.config,
            tail.epoch, tail.config, tail.records,
        )
        self._stalled_seq = None
        self.cursor = ReplicaCursor(
            epoch=tail.epoch, offset=tail.end_offset,
            next_seq=(tail.records[-1].seq + 1) if tail.records else 1,
        )
        if stale is None:
            self._apply(tail.records, report)
        elif tail.records:
            report.warnings.append(
                f"resync: journal {stale}; discarded "
                f"{len(tail.records)} record(s)"
            )
        report.resynced = True
        report.torn = tail.torn
        self._counts["dist.replica.resyncs"] += 1

    def _apply(self, records, report: PollReport) -> None:
        if self.stalled:
            return
        applied, failure = apply_prefix(self._db, records)
        report.applied += applied
        if applied:
            self.cursor.next_seq = records[applied - 1].seq + 1
        if failure is not None:
            # an unapplicable record poisons everything after it
            # (prefix consistency); stall until the next epoch
            record = records[applied]
            self._stalled_seq = record.seq
            report.warnings.append(
                f"replica: record seq={record.seq} op={record.op!r} "
                f"failed to apply ({type(failure).__name__}: {failure}); "
                "stalling until the leader compacts"
            )
            self._counts["dist.replica.stalled_records"] += 1

    def _observe_lag(self, report: PollReport, scanned: bool = False) -> None:
        """Fill in the lag past the cursor.  ``scanned`` says the caller
        has just read the tail up to the cursor: whatever bytes follow
        hold no verified record, so the tail is not read again."""
        try:
            size = self.journal_path.stat().st_size
        except OSError:
            size = 0
        report.lag_bytes = max(0, size - self.cursor.offset)
        # count verified-but-unapplied records without applying them
        if report.lag_bytes and not scanned:
            tail = Journal.read_from(
                self.journal_path, self.cursor.offset,
                expected_seq=self.cursor.next_seq,
            )
            report.lag_records = len(tail.records)
        else:
            report.lag_records = 0
        self._lag = report

    # -- the read surface -------------------------------------------------------------

    def query(self, query, options=None):
        """A read-only query against the replica's current state."""
        self._counts["dist.replica.queries"] += 1
        return self._db.query(query, options)

    def query_many(self, queries, options=None):
        outcomes = self._db.query_many(queries, options)
        self._counts["dist.replica.queries"] += len(outcomes)
        return outcomes

    def collect(self) -> dict:
        """The ``dist.replica.*`` counts, and the last observed lag as
        gauges, read by :attr:`metrics` on export."""
        doc = {"counters": dict(self._counts)}
        if self._lag is not None:
            doc["gauges"] = {"dist.replica.lag_records": self._lag.lag_records,
                             "dist.replica.lag_bytes": self._lag.lag_bytes}
        return doc

    def __len__(self) -> int:
        return len(self._db)
