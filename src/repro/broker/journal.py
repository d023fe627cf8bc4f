"""The broker's write-ahead journal: crash-safe mutation durability.

The §7.4 experiments make registration the expensive side of the broker
(an 11-hour projection precomputation on the paper's hardware), and the
snapshot layer (:mod:`repro.broker.persist`) already makes *saved* state
cheap to restore — but a crash between saves lost every mutation since
the last :func:`~repro.broker.persist.save_database`.  This module
closes that window with the standard database answer, a write-ahead
journal:

* every acknowledged mutation (``register``/``deregister``/
  ``adopt_index``/configuration change) appends one JSON record to
  ``journal.jsonl`` beside the snapshot, flushed and ``fsync``'d before
  the mutation call returns — kill-9 at any instant loses at most the
  mutation that had not yet been acknowledged;
* :func:`open_database` restores the snapshot (if any) and **replays**
  the journal tail on top of it, re-deriving each mutation's artifacts
  deterministically;
* :func:`~repro.broker.persist.save_database` **compacts** the journal
  once the snapshot safely holds its records (epoch handshake below).

Record format — one JSON object per line, e.g.::

    {"ck": "9f2a…", "data": {…}, "op": "register", "seq": 3}

``ck`` is a SHA-256 prefix over the rest of the record, so every line is
independently verifiable.  A torn tail (the crash happened mid-write) is
detected by JSON/checksum/sequence failure and *truncated away* on open:
everything before it was individually fsync'd and replays; nothing after
it can be trusted.  This is what makes recovery prefix-consistent — no
partial mutation is ever visible.

Epoch handshake with the snapshot: the manifest records the
``journal_epoch`` it was saved under, and the journal's header record
carries the journal's own epoch.

* journal epoch == manifest epoch → the tail holds post-snapshot
  mutations: replay it;
* journal epoch <  manifest epoch → the crash hit between manifest
  write and journal compaction; every record is already in the
  snapshot: discard the tail (and compact);
* journal epoch >  manifest epoch → the snapshot was rolled back or
  copied stale; replaying could reference contracts the snapshot does
  not hold: discard with a loud warning rather than corrupt.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..core import faults
from ..errors import JournalError, ReproError
from .contract import ContractSpec
from .database import BrokerConfig, ContractDatabase
from .persist import _fsync_directory, load_database, read_manifest

JOURNAL_FILE = "journal.jsonl"

#: Operations a journal may hold. ``open`` is the header; the rest are
#: mutations replayed in order.
KNOWN_OPS = frozenset(
    {"open", "register", "deregister", "adopt_index", "config"}
)


@dataclass(frozen=True)
class JournalRecord:
    """One parsed, checksum-verified journal line."""

    seq: int
    op: str
    data: dict


@dataclass(frozen=True)
class JournalTail:
    """What :meth:`Journal.read_from` observed past a byte offset.

    ``end_offset`` is the position just past the last *verified* record
    — the next ``read_from`` call should resume there.  ``torn`` means
    bytes past ``end_offset`` failed verification (most often a record
    the writer had not finished flushing); a reader must stop before
    them and retry from ``end_offset`` later, never consume them.
    """

    #: verified mutation records in order (the header is not included)
    records: tuple[JournalRecord, ...]
    #: the byte offset the read started at
    start_offset: int
    #: the offset just past the last verified record
    end_offset: int
    #: the header record's epoch, when the read started at offset 0
    #: (``None`` otherwise — the header lives at the head of the file)
    epoch: int | None
    #: whether unverifiable bytes follow ``end_offset``
    torn: bool
    #: the file size at read time
    file_size: int


@dataclass
class JournalReplayReport:
    """What :func:`open_database` replayed versus discarded.

    Attached to the returned database as ``db.journal_report``.
    """

    epoch: int = 0
    replayed: int = 0
    #: records discarded because the snapshot already contained them
    #: (journal epoch behind the manifest's)
    discarded_stale: int = 0
    #: bytes truncated off a torn tail on open
    torn_bytes: int = 0
    #: lines dropped by checksum/sequence verification
    torn_records: int = 0
    warnings: list = field(default_factory=list)
    replay_seconds: float = 0.0


def _checksum(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _encode(seq: int, op: str, data: dict) -> bytes:
    doc = {"seq": seq, "op": op, "data": data}
    try:
        doc["ck"] = _checksum({"seq": seq, "op": op, "data": data})
        line = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise JournalError(
            f"journal record {op!r} is not JSON-serializable: {exc}"
        ) from exc
    return line.encode("utf-8") + b"\n"


class Journal:
    """An append-only, fsync'd mutation log beside a snapshot directory.

    Use :meth:`open` — it scans an existing file, verifies every line,
    and self-heals a torn tail by truncating it (recording how much was
    dropped on :attr:`torn_bytes` / :attr:`torn_records`).
    """

    def __init__(self, path: Path, *, epoch: int, records: list[JournalRecord],
                 torn_bytes: int = 0, torn_records: int = 0):
        self.path = path
        self.epoch = epoch
        #: verified mutation records (the header is not included)
        self.tail = records
        self.torn_bytes = torn_bytes
        self.torn_records = torn_records
        #: the configuration dict carried by the header record, if any
        self.header_config: dict | None = None
        self._next_seq = (records[-1].seq + 1) if records else 1
        self._fh = None

    # -- construction -----------------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, *, epoch: int = 0,
             config: BrokerConfig | None = None) -> "Journal":
        """Open (or create) the journal at ``path``.

        A missing file is created with a fresh header at ``epoch``.  An
        existing file is scanned; its header's epoch wins over the
        ``epoch`` argument, and any torn tail is truncated in place.
        """
        path = Path(path)
        if not path.exists():
            journal = cls(path, epoch=epoch, records=[])
            journal._write_header(config)
            return journal

        raw = path.read_bytes()
        records: list[JournalRecord] = []
        header_epoch = epoch
        header_config = None
        good_bytes = 0
        torn_records = 0
        offset = 0
        expected_seq = 0
        for line in raw.split(b"\n"):
            line_span = len(line) + 1  # the split-off newline
            if not line:
                offset += line_span
                continue
            if offset + len(line) >= len(raw) and not raw.endswith(b"\n"):
                # unterminated final line: torn mid-write
                torn_records += 1
                break
            record = cls._decode(line)
            if record is None or record.seq != expected_seq:
                torn_records += 1
                break
            if record.op == "open":
                header_epoch = int(record.data.get("epoch", epoch))
                header_config = record.data.get("config")
            else:
                records.append(record)
            expected_seq += 1
            offset += line_span
            good_bytes = offset
        torn_bytes = len(raw) - good_bytes
        if torn_bytes:
            # self-heal: everything past the last verified record is
            # untrustworthy (and would desynchronize future appends)
            with open(path, "r+b") as fh:
                fh.truncate(good_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        journal = cls(
            path, epoch=header_epoch, records=records,
            torn_bytes=torn_bytes, torn_records=torn_records,
        )
        journal.header_config = (
            header_config if isinstance(header_config, dict) else None
        )
        journal._next_seq = expected_seq if expected_seq > 0 else 1
        if good_bytes == 0:
            # nothing usable survived (even the header was torn)
            journal._next_seq = 0
            journal._write_header(config)
        return journal

    @staticmethod
    def _decode(line: bytes) -> JournalRecord | None:
        try:
            doc = json.loads(line.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(doc, dict):
            return None
        ck = doc.get("ck")
        seq = doc.get("seq")
        op = doc.get("op")
        data = doc.get("data")
        if (
            not isinstance(seq, int)
            or not isinstance(op, str)
            or not isinstance(data, dict)
            or op not in KNOWN_OPS
        ):
            return None
        if ck != _checksum({"seq": seq, "op": op, "data": data}):
            return None
        return JournalRecord(seq=seq, op=op, data=data)

    # -- reader-side tailing ----------------------------------------------------------

    @classmethod
    def read_from(cls, path: str | Path, offset: int = 0, *,
                  expected_seq: int | None = None) -> JournalTail:
        """Read verified records starting at byte ``offset`` — the
        replication tail API.

        Unlike :meth:`open`, this **never mutates the file**: it is safe
        against a journal another process is actively appending to.  A
        torn last record (partially flushed by the writer, or cut by a
        crash) simply is not consumed — ``end_offset`` stops before it
        and ``torn`` is set, so the reader resumes from the same place
        once the writer completes (or heals) the record.

        ``expected_seq`` pins the sequence number the first record must
        carry (a replica passes its cursor's next sequence); ``None``
        accepts whatever contiguous run starts at ``offset``.  When the
        read starts at offset 0, the header record is consumed (not
        returned) and its epoch is reported on :attr:`JournalTail.epoch`.
        """
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return JournalTail(
                records=(), start_offset=offset, end_offset=offset,
                epoch=None, torn=False, file_size=0,
            )
        offset = max(0, min(offset, len(raw)))
        epoch: int | None = None
        records: list[JournalRecord] = []
        position = offset
        good = offset
        torn = False
        for line in raw[offset:].split(b"\n"):
            line_span = len(line) + 1
            if not line:
                position += line_span
                if position <= len(raw):
                    good = position
                continue
            if position + len(line) >= len(raw) and not raw.endswith(b"\n"):
                torn = True  # unterminated final line: mid-flush
                break
            record = cls._decode(line)
            if record is None:
                torn = True
                break
            if record.op == "open" and position == 0:
                epoch = int(record.data.get("epoch", 0))
                expected_seq = record.seq + 1
            else:
                if expected_seq is not None and record.seq != expected_seq:
                    torn = True
                    break
                expected_seq = record.seq + 1
                records.append(record)
            position += line_span
            good = position
        return JournalTail(
            records=tuple(records), start_offset=offset, end_offset=good,
            epoch=epoch, torn=torn, file_size=len(raw),
        )

    @classmethod
    def read_header_epoch(cls, path: str | Path) -> int | None:
        """The header record's epoch, without reading the whole file
        (``None`` when the file is missing or its header is torn).
        Replicas poll this to detect a leader compaction — the epoch
        bump that invalidates their byte cursor."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                head = fh.read(65536)
        except OSError:
            return None
        newline = head.find(b"\n")
        if newline < 0:
            return None
        record = cls._decode(head[:newline])
        if record is None or record.op != "open":
            return None
        return int(record.data.get("epoch", 0))

    # -- appending --------------------------------------------------------------------

    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "ab")
        return self._fh

    def _write_record(self, op: str, data: dict) -> int:
        seq = self._next_seq
        payload = _encode(seq, op, data)
        faults.hit("journal.append", op=op, seq=seq)
        fh = self._handle()
        try:
            fh.write(payload)
            fh.flush()
            faults.hit("journal.fsync", op=op, seq=seq)
            os.fsync(fh.fileno())
        except OSError as exc:
            raise JournalError(
                f"journal append failed for {op!r}: {exc}"
            ) from exc
        self._next_seq = seq + 1
        return seq

    def _write_header(self, config: BrokerConfig | None) -> None:
        data: dict = {"epoch": self.epoch}
        if config is not None:
            data["config"] = asdict(config)
            self.header_config = data["config"]
        self._next_seq = 0
        self._write_record("open", data)

    def append(self, op: str, data: dict) -> int:
        """Durably append one mutation record; returns its sequence
        number.  The record is flushed and fsync'd before returning —
        this is the acknowledgement point of the crash-safety
        contract."""
        if op not in KNOWN_OPS or op == "open":
            raise JournalError(f"unknown journal operation {op!r}")
        seq = self._write_record(op, data)
        self.tail.append(JournalRecord(seq=seq, op=op, data=data))
        return seq

    # -- compaction -------------------------------------------------------------------

    def compact(self, epoch: int, config: BrokerConfig | None = None) -> None:
        """Atomically replace the journal with a fresh header at
        ``epoch`` — called once a snapshot safely holds every tail
        record (write the manifest first, then compact)."""
        faults.hit("journal.compact", epoch=epoch)
        self.close()
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        data: dict = {"epoch": epoch}
        if config is not None:
            data["config"] = asdict(config)
            self.header_config = data["config"]
        with open(tmp, "wb") as fh:
            fh.write(_encode(0, "open", data))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_directory(self.path.parent)
        self.epoch = epoch
        self.tail = []
        self._next_seq = 1

    def _rewrite(self) -> None:
        """Rewrite the file as header + the current (renumbered) tail —
        used when replay drops unapplicable records, so the file never
        disagrees with what the database actually replayed."""
        self.close()
        self.tail = [
            JournalRecord(seq=i, op=r.op, data=r.data)
            for i, r in enumerate(self.tail, start=1)
        ]
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(_encode(0, "open", {"epoch": self.epoch}))
            for record in self.tail:
                fh.write(_encode(record.seq, record.op, record.data))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        _fsync_directory(self.path.parent)
        self._next_seq = len(self.tail) + 1

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    # -- introspection ----------------------------------------------------------------

    def latest_config(self) -> dict | None:
        """The most recent configuration the journal knows: the last
        ``config`` record's payload, if any (configuration changes are
        journaled so an argument-less reopen uses the latest one)."""
        for record in reversed(self.tail):
            if record.op == "config":
                return record.data.get("config")
        return self.header_config

    def __len__(self) -> int:
        return len(self.tail)


# -- the runtime entry point ----------------------------------------------------------


def open_database(
    directory: str | Path,
    config: BrokerConfig | None = None,
) -> ContractDatabase:
    """Open a crash-safe, journaled database rooted at ``directory``.

    Restores the snapshot if one exists (via
    :func:`~repro.broker.persist.load_database`), replays the journal
    tail on top of it, and attaches the journal so every further
    mutation is durably logged.  On a directory with neither snapshot
    nor journal, starts an empty journaled database.

    The returned database carries a :class:`JournalReplayReport` as
    ``db.journal_report`` (and, after a snapshot restore, the usual
    ``db.load_report``).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    report = JournalReplayReport()
    start = time.perf_counter()

    manifest = read_manifest(directory)
    manifest_epoch = manifest.journal_epoch if manifest is not None else 0

    journal = Journal.open(
        directory / JOURNAL_FILE, epoch=manifest_epoch, config=config
    )
    report.epoch = journal.epoch
    report.torn_bytes = journal.torn_bytes
    report.torn_records = journal.torn_records
    if journal.torn_records:
        report.warnings.append(
            f"journal: truncated a torn tail ({journal.torn_records} "
            f"record(s), {journal.torn_bytes} byte(s))"
        )

    # Configuration precedence: explicit argument > journaled config
    # change > manifest/default.
    effective_config = config
    if effective_config is None:
        config_doc = journal.latest_config()
        if config_doc is not None:
            effective_config = BrokerConfig.from_dict(config_doc)

    if manifest is not None:
        db = load_database(directory, effective_config)
    else:
        db = ContractDatabase(effective_config)

    if journal.epoch == manifest_epoch:
        _replay(db, journal, report)
    elif journal.epoch < manifest_epoch:
        report.discarded_stale = len(journal.tail)
        report.warnings.append(
            f"journal: epoch {journal.epoch} is behind the snapshot's "
            f"{manifest_epoch}; its {len(journal.tail)} record(s) are "
            "already in the snapshot (discarded)"
        )
        journal.compact(manifest_epoch, db.config)
    else:
        report.discarded_stale = len(journal.tail)
        report.warnings.append(
            f"journal: epoch {journal.epoch} is ahead of the snapshot's "
            f"{manifest_epoch} (stale or rolled-back snapshot?); "
            f"discarding {len(journal.tail)} unreplayable record(s)"
        )
        journal.compact(manifest_epoch, db.config)

    report.replay_seconds = time.perf_counter() - start
    db.metrics.inc("journal.replayed", report.replayed)
    if report.torn_records:
        db.metrics.inc("journal.torn_records", report.torn_records)
    if report.discarded_stale:
        db.metrics.inc("journal.discarded_stale", report.discarded_stale)
    db.journal_report = report
    db.attach_journal(journal)
    return db


def deregister_target(db: ContractDatabase, data: dict) -> int:
    """The id, in ``db``, of the contract a ``deregister`` record
    removes.

    Records carry the contract's ``rank`` in id order at the time of
    the call.  Ids are not stable across processes (a snapshot load
    renumbers them densely, a save leaves the live ones alone) but
    their order is, and every replayer applies the same records in the
    same order, so the rank resolves to the same contract everywhere.
    Records written before 2.0 carry the writer's live ``contract_id``
    instead and replay against that id as they always did.
    """
    try:
        if "rank" not in data:
            return int(data["contract_id"])
        rank = int(data["rank"])
    except (KeyError, TypeError, ValueError) as exc:
        raise JournalError(f"malformed deregister record {data!r}") from exc
    ids = sorted(c.contract_id for c in db.contracts())
    if not 0 <= rank < len(ids):
        raise JournalError(
            f"deregister record names rank {rank} of {len(ids)} contract(s)"
        )
    return ids[rank]


def apply_record(db: ContractDatabase, record: JournalRecord) -> None:
    """Apply one mutation record to ``db`` — what the leader's own
    replay and a replica both do with it.  A record that cannot be
    applied raises a :class:`ReproError`; what to do then (truncate the
    journal, stall the replica) is the caller's."""
    if record.op == "register":
        db.register(ContractSpec.from_doc(record.data))
    elif record.op == "deregister":
        db.deregister(deregister_target(db, record.data))
    # adopt_index: the register/deregister records rebuild the index
    # incrementally, which is the index the adopted snapshot held at
    # this point.  config: consumed before replay (latest_config); the
    # database was constructed with the newest one.


def _replay(db: ContractDatabase, journal: Journal,
            report: JournalReplayReport) -> None:
    """Re-apply the journal tail onto ``db``, stopping (and truncating
    the rest away) at the first record that fails to apply — a
    replayable prefix is the crash-safety contract; an unreplayable
    middle would leave later records referencing state that never
    materialized."""
    applied = 0
    for position, record in enumerate(journal.tail):
        try:
            apply_record(db, record)
        except ReproError as exc:
            report.warnings.append(
                f"journal: record seq={record.seq} op={record.op!r} "
                f"failed to replay ({type(exc).__name__}: {exc}); "
                f"dropping it and the {len(journal.tail) - position - 1} "
                "record(s) after it"
            )
            del journal.tail[position:]
            journal._rewrite()
            break
        applied += 1
    report.replayed = applied
