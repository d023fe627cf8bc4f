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
partial mutation is ever visible.  One scanner (:func:`_scan`) reads the
bytes for every reader — :meth:`Journal.open`, which heals the file, and
:meth:`Journal.read_from` / :meth:`Journal.read_header_epoch`, which a
replica tails it with and which never write — so they cannot disagree on
where the verified prefix ends.

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

That verdict, the snapshot load and the configuration precedence are one
step, :func:`restore`, which crash recovery (:func:`open_database`) and
replication (:class:`repro.dist.replica.Replica`) share, as they share
:func:`apply_prefix` for the records that do replay.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..core import faults
from ..errors import JournalError, ReproError
from .contract import ContractSpec
from .database import BrokerConfig, ContractDatabase
from .persist import Manifest, atomic_replace, load_database, read_manifest

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
    #: the offset just past the last verified record
    end_offset: int
    #: the header record's epoch, when the read started at offset 0
    #: (``None`` otherwise — the header lives at the head of the file)
    epoch: int | None
    #: the header record's configuration, likewise
    config: dict | None
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


def _decode(line: bytes) -> JournalRecord | None:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or too deep
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


def _scan(data: bytes, offset: int = 0,
          expected_seq: int | None = None) -> JournalTail:
    """The one reader of journal bytes; ``data`` is the file's content
    from byte ``offset`` on.

    Every line must end in a newline (an unterminated tail is a record
    still being written, or cut by a crash), carry its checksum, a known
    operation and — from ``expected_seq`` on, when given — the next
    sequence number.  The line at byte 0 must be the header: an ``open``
    record at sequence 0 with an int ``epoch`` and a mapping-or-absent
    ``config``; an ``open`` record anywhere else is no record.  Nothing
    past the first line that fails is read, so a file that does not
    start with a header is torn from byte 0.
    """
    header_epoch = header_config = None
    records: list[JournalRecord] = []
    if offset == 0:
        expected_seq = 0
    start = end = offset
    for line in data.split(b"\n")[:-1]:  # the last piece has no newline
        if line:  # a blank line counts once a verified record follows it
            record = _decode(line)
            if record is None:
                break
            if expected_seq is not None and record.seq != expected_seq:
                break
            if start == 0:
                epoch = record.data.get("epoch")
                config = record.data.get("config")
                if (record.op != "open" or type(epoch) is not int
                        or not isinstance(config, dict | None)):
                    break
                header_epoch, header_config = epoch, config
            elif record.op == "open":
                break
            else:
                records.append(record)
            expected_seq = record.seq + 1
            end = start + len(line) + 1
        start += len(line) + 1
    size = offset + len(data)
    return JournalTail(
        records=tuple(records), end_offset=end, epoch=header_epoch,
        config=header_config, torn=end < size, file_size=size,
    )


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

        An existing file is scanned; its header's epoch wins over the
        ``epoch`` argument, and any torn tail is truncated in place.  A
        missing file, or one whose header did not survive, starts with a
        fresh header at ``epoch``.
        """
        path = Path(path)
        found = _scan(path.read_bytes() if path.exists() else b"")
        if found.torn:
            # self-heal: everything past the last verified record is
            # untrustworthy (and would desynchronize future appends)
            with open(path, "r+b") as fh:
                fh.truncate(found.end_offset)
                fh.flush()
                os.fsync(fh.fileno())
        journal = cls(
            path, epoch=epoch if found.epoch is None else found.epoch,
            records=list(found.records),
            torn_bytes=found.file_size - found.end_offset,
            torn_records=int(found.torn),
        )
        if found.epoch is None:
            journal._write_header(config)
        else:
            journal.header_config = found.config
        return journal

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
        returned) and reported on :attr:`JournalTail.epoch` and
        :attr:`JournalTail.config`.
        """
        try:
            with open(path, "rb") as fh:
                offset = max(0, min(offset, fh.seek(0, os.SEEK_END)))
                fh.seek(offset)
                data = fh.read()
        except FileNotFoundError:
            offset, data = 0, b""  # a missing file reads as an empty one
        return _scan(data, offset, expected_seq)

    @classmethod
    def read_header_epoch(cls, path: str | Path) -> int | None:
        """The header record's epoch, without reading the whole file
        (``None`` when the file is missing or its header is torn).
        Replicas poll this to detect a leader compaction — the epoch
        bump that invalidates their byte cursor."""
        try:
            with open(path, "rb") as fh:
                head = fh.read(65536)
        except OSError:
            return None
        return _scan(head[: head.find(b"\n") + 1]).epoch

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

    def _header_data(self, epoch: int) -> dict:
        data: dict = {"epoch": epoch}
        if self.header_config is not None:
            data["config"] = self.header_config
        return data

    def _write_header(self, config: BrokerConfig | None) -> None:
        if config is not None:
            self.header_config = asdict(config)
        self._next_seq = 0
        self._write_record("open", self._header_data(self.epoch))

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

    # -- rewriting --------------------------------------------------------------------

    def compact(self, epoch: int, config: BrokerConfig | None = None) -> None:
        """Atomically replace the journal with a fresh header at
        ``epoch`` — called once a snapshot safely holds every tail
        record (write the manifest first, then compact)."""
        faults.hit("journal.compact", epoch=epoch)
        if config is not None:
            self.header_config = asdict(config)
        self._rewrite(epoch, [])

    def _rewrite(self, epoch: int, records: list[JournalRecord]) -> None:
        """The one rewrite: atomically replace the file with the header
        the journal holds (its configuration included) at ``epoch`` and
        ``records`` renumbered from 1 — an empty list to compact, the
        applied prefix when replay drops unapplicable records, so the
        file never disagrees with what the database actually replayed."""
        self.close()
        header = JournalRecord(0, "open", self._header_data(epoch))
        tail = [
            JournalRecord(seq=i, op=r.op, data=r.data)
            for i, r in enumerate(records, start=1)
        ]
        atomic_replace(self.path, b"".join(
            _encode(r.seq, r.op, r.data) for r in [header, *tail]
        ))
        self.epoch = epoch
        self.tail = tail
        self._next_seq = len(tail) + 1

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    def __len__(self) -> int:
        return len(self.tail)


# -- the runtime entry point ----------------------------------------------------------


def restore(
    directory: Path,
    manifest: Manifest | None,
    config: BrokerConfig | None,
    epoch: int,
    header_config: dict | None,
    records,
) -> tuple[ContractDatabase, str | None]:
    """The one restore step, shared by :func:`open_database` and a
    replica's resync: the state the journal tail of ``directory``
    applies to, and whether it may.

    ``epoch``, ``header_config`` and ``records`` are the journal as
    scanned.  Returns the snapshot ``manifest`` names, restored through
    :func:`~repro.broker.persist.load_database` (an empty database when
    there is none), and ``None`` when ``records`` are to be replayed on
    top of it, else the reason they must be discarded (the epoch
    handshake in the module docstring).  Configuration precedence: the
    explicit ``config`` > the journaled one (the last pre-6.0 ``config``
    record, else the header's) > the manifest's, or the default.
    """
    if config is None:
        journaled = header_config
        for record in records:
            if record.op == "config":
                journaled = record.data.get("config")
        if journaled is not None:
            config = BrokerConfig.from_dict(journaled)
    if manifest is None:
        db, manifest_epoch = ContractDatabase(config), 0
    else:
        db = load_database(directory, config)
        manifest_epoch = manifest.journal_epoch
    if epoch == manifest_epoch:
        return db, None
    if epoch < manifest_epoch:
        return db, (
            f"epoch {epoch} is behind the snapshot's {manifest_epoch}; "
            "its records are already in the snapshot"
        )
    return db, (
        f"epoch {epoch} is ahead of the snapshot's {manifest_epoch} "
        "(stale or rolled-back snapshot?); its records cannot be "
        "replayed onto it"
    )


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

    db, stale = restore(
        directory, manifest, config,
        journal.epoch, journal.header_config, journal.tail,
    )
    if stale is None:
        _replay(db, journal, report)
    else:
        report.discarded_stale = len(journal.tail)
        report.warnings.append(
            f"journal: {stale}; discarding {len(journal.tail)} record(s)"
        )
        journal.compact(manifest_epoch, db.config)

    db.journal_report = report  # the journal.* counts db.metrics reads
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


def apply_prefix(
    db: ContractDatabase, records
) -> tuple[int, ReproError | None]:
    """Apply mutation records to ``db`` in order, up to the first that
    fails — what the leader's own replay and a replica both do with a
    journal tail.  Returns how many applied and that failure (``None``
    when all did).  Nothing after an unapplicable record is applied —
    it could reference state that never materialized — and the reaction
    is the caller's: the leader truncates its journal there, a replica
    stalls."""
    for applied, record in enumerate(records):
        try:
            if record.op == "register":
                db.register(ContractSpec.from_doc(record.data))
            elif record.op == "deregister":
                db.deregister(deregister_target(db, record.data))
            # adopt_index: the register/deregister records rebuild the
            # index incrementally, which is the index the adopted
            # snapshot held at this point.  config: consumed by the
            # restore step; the database was constructed with the
            # newest one.
        except ReproError as exc:
            return applied, exc
    return len(records), None


def _replay(db: ContractDatabase, journal: Journal,
            report: JournalReplayReport) -> None:
    """Re-apply the journal tail onto ``db`` and truncate away whatever
    did not apply — a replayable prefix is the crash-safety contract."""
    report.replayed, failure = apply_prefix(db, journal.tail)
    if failure is not None:
        record = journal.tail[report.replayed]
        report.warnings.append(
            f"journal: record seq={record.seq} op={record.op!r} "
            f"failed to replay ({type(failure).__name__}: {failure}); "
            f"dropping it and the {len(journal.tail) - report.replayed - 1} "
            "record(s) after it"
        )
        journal._rewrite(journal.epoch, journal.tail[:report.replayed])
