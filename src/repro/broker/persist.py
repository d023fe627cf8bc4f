"""Persisting and reloading contract databases (snapshot format v2).

The paper's prototype modules exchange text files (§7.1); this module
provides the library equivalent: a database directory holding

* ``contracts.json`` — the manifest: every contract's name, clause texts
  and relational attributes (the authoritative specification), the full
  broker configuration it was registered under, the format version, and
  a SHA-256 checksum per derived-artifact file;
* ``automata.json``    — the translated contract BAs, keyed by contract
  name (duplicate names hold a list in registration order);
* ``seeds.json``       — the §6.2.4 seed set per contract, as state ids
  of the stored (canonically numbered) automaton;
* ``encoded.json``     — the flat int/bitset encoding of each stored
  automaton (:mod:`repro.automata.encode`) the deciders walk,
  in the same canonical numbering;
* ``projections.json`` — each contract's deduplicated bisimulation
  partitions and subset -> partition map (§5.2);
* ``index.json``       — the §4 prefilter set-trie with its contract
  sets, contract ids renumbered to dense save-order positions.

No file names an in-memory event bit (``encoded.json`` numbers events
by the sorted vocabulary, ``index.json`` writes literal texts): loading
fills the database's event table in registration order, rebases each
restored encoding into it and parses the index last.  The planner's
statistics are not stored — re-registering rebuilds them exactly (a
pre-11.0 snapshot's ``stats.json`` is ignored).

The §7.4 experiments show registration-side cost (translation, index
building, all-subsets partitioning) dominating query cost, so the v2
snapshot persists *all* derived artifacts: ``load_database`` restores a
fully indexed database in O(read) instead of O(rebuild).

Robustness model:

* every write goes through :func:`atomic_replace` (temp file, fsync,
  ``os.replace``, directory fsync — the journal's rewrite uses it too),
  and the manifest is written last — a crash mid-save never clobbers a
  loadable snapshot (at worst the old manifest's checksums reject
  half-replaced artifacts and the loader rebuilds);
* every derived artifact is verified against its manifest checksum; a
  missing, corrupt, mismatching or misshapen artifact (or one
  contract's entry of it) is *ignored*, with a warning naming the file,
  and the corresponding structures are rebuilt from the specifications
  — correctness never depends on snapshot integrity, only cold-start
  time does;
* stored automata are trusted per contract only if they cite no event
  outside the specification's vocabulary; any name miss or stale entry
  falls back to re-translation, with a warning recorded in the
  :class:`LoadReport` attached to the returned database
  (``db.load_report``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from ..automata.encode import EncodedAutomaton, encode_automaton
from ..automata.serialize import automaton_from_dict, automaton_to_dict
from ..core import faults
from ..errors import BrokerError, IndexError_, ReproError
from ..index.prefilter import PrefilterIndex
from ..projection.store import ProjectionStore
from .contract import ContractSpec
from .database import BrokerConfig, ContractDatabase
from .options import PrebuiltArtifacts

_CONTRACTS_FILE = "contracts.json"
_AUTOMATA_FILE = "automata.json"
_SEEDS_FILE = "seeds.json"
_ENCODED_FILE = "encoded.json"
_PROJECTIONS_FILE = "projections.json"
_INDEX_FILE = "index.json"
_FORMAT_VERSION = 2


@dataclass
class LoadReport:
    """What :func:`load_database` restored versus rebuilt.

    Attached to the returned database as ``db.load_report``.  A fully
    successful snapshot restore has every ``*_restored`` counter equal to
    ``contracts``, ``index_restored`` true, and no warnings.
    """

    contracts: int = 0
    automata_restored: int = 0
    seeds_restored: int = 0
    encoded_restored: int = 0
    projections_restored: int = 0
    index_restored: bool = False
    #: names of contracts whose stored automaton was missing or stale and
    #: were re-translated from their clauses
    retranslated: list = field(default_factory=list)
    #: artifact files that failed SHA-256 verification (or were missing
    #: from the manifest's checksum table)
    checksum_failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    load_seconds: float = 0.0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def atomic_replace(path: Path, payload: bytes) -> None:
    """The one atomic file replacement (snapshot artifacts and the
    journal's rewrite): write a temp file in the same directory, then
    rename it over ``path`` — a crash mid-write leaves the previous
    file intact.

    The temp file is fsync'd *before* the rename (otherwise the rename
    can land on disk ahead of the data it points to, and a power cut
    yields a zero-length "successfully replaced" file), and the
    directory is fsync'd *after* (so the rename itself is durable)."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    try:  # best effort: platforms that cannot open directories skip it
        fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _atomic_write(path: Path, text: str) -> None:
    """Replace one snapshot artifact (the ``persist.artifact_write``
    fault seam sits in front of every one of them)."""
    faults.hit("persist.artifact_write", filename=path.name)
    atomic_replace(path, text.encode("utf-8"))


def _clean_stale_tmp(directory: Path) -> None:
    """Remove ``.*.tmp`` leftovers of a crashed prior save.  They are
    invisible to the loader (which only reads manifest-named files) but
    accumulate forever otherwise."""
    for stale in directory.glob(".*.tmp"):
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - raced or read-only
            pass


def save_database(db: ContractDatabase, directory: str | Path) -> Path:
    """Write ``db`` to ``directory`` (created if missing).

    The save holds the database's write lock: the snapshot is a
    consistent point-in-time image, and — when a write-ahead journal is
    attached and co-located with ``directory`` — the journal compaction
    happens under the same critical section, so no acknowledged mutation
    can slip between "serialized into the snapshot" and "removed from
    the journal".
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _clean_stale_tmp(directory)

    journal = db.journal
    compact_journal = (
        journal is not None
        and journal.path.parent.resolve() == directory.resolve()
    )

    with db.lock.write():
        return _save_locked(db, directory, journal if compact_journal else None)


def _save_locked(db: ContractDatabase, directory: Path, journal) -> Path:
    contracts = sorted(db.contracts(), key=lambda c: c.contract_id)
    # Contract ids restart from 0 on load, so every persisted id is the
    # contract's dense position in save order.
    id_map = {c.contract_id: i for i, c in enumerate(contracts)}

    contract_docs = []
    automata_docs: dict[str, list] = {}
    seed_docs: dict[str, list] = {}
    encoded_docs: dict[str, list] = {}
    projection_docs: dict[str, list] = {}
    for contract in contracts:
        contract_docs.append(contract.spec.to_doc())
        # One numbering per contract keeps the stored automaton, its seed
        # set, its encoding and its partitions in the same dense-integer
        # state space.
        numbering = contract.ba.canonical_numbering()
        canonical_ba = contract.ba.map_states(numbering.__getitem__)
        automata_docs.setdefault(contract.name, []).append(
            automaton_to_dict(canonical_ba, canonicalize=False)
        )
        seed_docs.setdefault(contract.name, []).append(
            sorted(numbering[s] for s in contract.seeds)
        )
        # Re-encoded against the canonical numbering (the in-memory
        # encoding indexes the live automaton's states, which need not
        # be JSON-representable).
        encoded_docs.setdefault(contract.name, []).append(
            encode_automaton(canonical_ba, contract.vocabulary).to_dict()
        )
        projection_docs.setdefault(contract.name, []).append(
            contract.projections.to_dict(numbering)
            if contract.projections is not None
            else None
        )

    artifacts = {}
    payloads = [
        (_AUTOMATA_FILE, automata_docs),
        (_SEEDS_FILE, seed_docs),
        (_ENCODED_FILE, encoded_docs),
        (_PROJECTIONS_FILE, projection_docs),
        (_INDEX_FILE, db.index.to_dict(id_map)),
    ]
    for filename, payload in payloads:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        artifacts[filename] = _sha256(text.encode("utf-8"))
        _atomic_write(directory / filename, text)

    new_epoch = journal.epoch + 1 if journal is not None else 0
    manifest = {
        "format_version": _FORMAT_VERSION,
        "config": dataclasses.asdict(db.config),
        "contracts": contract_docs,
        "artifacts": artifacts,
        # the epoch handshake with the co-located write-ahead journal
        # (see repro.broker.journal): a journal whose header epoch is
        # behind this value holds only records this snapshot subsumes
        "journal_epoch": new_epoch,
    }
    # The manifest lands last: a snapshot is only as new as its manifest,
    # and its checksums disown any artifact a crash left half-updated.
    _atomic_write(
        directory / _CONTRACTS_FILE, json.dumps(manifest, indent=2) + "\n"
    )
    if journal is not None:
        # only after the manifest durably holds every journaled
        # mutation may the journal forget them; a crash between the two
        # writes leaves a stale-epoch journal that the next open
        # discards instead of double-replaying
        journal.compact(new_epoch, db.config)
    return directory


class Manifest(NamedTuple):
    """``contracts.json`` as :func:`read_manifest` validated it."""

    config: BrokerConfig
    #: spec documents in id order; each loads through
    #: :meth:`ContractSpec.from_doc`
    contracts: list
    #: artifact filename -> SHA-256 of its bytes
    artifacts: dict
    journal_epoch: int


def read_manifest(directory: str | Path) -> Manifest | None:
    """The one reader of a snapshot manifest: ``None`` when
    ``directory`` holds none, :class:`BrokerError` when the file is not
    a version-2 manifest of the shape ``save_database`` writes."""
    path = Path(directory) / _CONTRACTS_FILE
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BrokerError(f"malformed {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise BrokerError(f"malformed {path}: not a JSON object")
    if doc.get("format_version") != _FORMAT_VERSION:
        raise BrokerError(
            f"unsupported database format: {doc.get('format_version')!r}"
        )

    def member(key: str, kind: type):
        value = doc.get(key, kind())  # absent = empty list/dict, epoch 0
        if not isinstance(value, kind):
            raise BrokerError(
                f"malformed {path}: {key!r} must be a {kind.__name__}, "
                f"got {value!r}"
            )
        return value

    return Manifest(
        config=BrokerConfig.from_dict(doc.get("config", {})),
        contracts=member("contracts", list),
        artifacts=member("artifacts", dict),
        journal_epoch=member("journal_epoch", int),
    )


def _read_artifact(
    directory: Path, filename: str, checksums: dict, report: LoadReport
):
    """The parsed artifact, or ``None`` (with the reason recorded on the
    report) when it is missing, unlisted, corrupt, or fails
    verification."""
    path = directory / filename
    if not path.exists():
        report.warnings.append(f"{filename}: missing; rebuilding")
        return None
    raw = path.read_bytes()
    expected = checksums.get(filename)
    if expected is None or _sha256(raw) != expected:
        report.checksum_failures.append(filename)
        report.warnings.append(
            f"{filename}: checksum verification failed; rebuilding"
        )
        return None
    try:
        doc = json.loads(raw.decode("utf-8"))
        if not isinstance(doc, dict):  # every artifact is a JSON object
            raise ValueError(f"a JSON {type(doc).__name__}")
    except (ValueError, RecursionError) as exc:  # not UTF-8/JSON, or too deep
        report.warnings.append(f"{filename}: malformed ({exc}); rebuilding")
        return None
    return doc


def _stored_automaton(doc, spec: ContractSpec):
    # A stored automaton is reduced, and ``reduce_automaton`` ends by
    # dropping unreachable states: every state but the initial one is
    # some transition's target.  Checked before ``automaton_from_dict``
    # allocates the state range a checksum-valid document names.
    try:
        states, transitions = int(doc["states"]), len(doc["transitions"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BrokerError(f"malformed automaton document: {exc}") from exc
    if states > transitions + 1:
        raise BrokerError(
            f"{states} states but {transitions} transitions: not a "
            f"reduced automaton"
        )
    ba = automaton_from_dict(doc)
    # Trust the stored automaton only if it cites no event the
    # specification does not (a stale or edited file would).
    if not ba.events() <= spec.vocabulary:
        raise BrokerError("cites events outside the specification")
    return ba


def _stored_seeds(doc, ba) -> frozenset:
    try:
        seeds = frozenset(int(s) for s in doc)
    except (TypeError, ValueError) as exc:
        raise BrokerError(f"malformed seed set: {exc}") from exc
    if not seeds <= ba.states:
        raise BrokerError("seed set cites states the automaton lacks")
    return seeds


def _stored_encoding(doc, ba, spec: ContractSpec) -> EncodedAutomaton:
    encoded = EncodedAutomaton.from_dict(ba, doc)
    # Its vocabulary *is* Definition 7's admissibility check, so a stale
    # one would silently change verdicts — reject it.
    if encoded.events != tuple(sorted(spec.vocabulary)):
        raise BrokerError("vocabulary differs from the specification")
    return encoded


def _stored_projections(doc, ba, cap) -> ProjectionStore:
    store = ProjectionStore.from_dict(ba, doc)
    if store.max_subset_size != cap:
        raise BrokerError("subset cap differs from the configured one")
    return store


def load_database(
    directory: str | Path,
    config: BrokerConfig | None = None,
) -> ContractDatabase:
    """Rebuild a database saved by :func:`save_database`.

    Restores every verified artifact — automata, seed sets, projection
    partitions, the prefilter index — and recomputes from the clause
    specifications whatever is missing or fails verification.  The
    returned database carries a :class:`LoadReport` as ``db.load_report``
    describing what was restored versus rebuilt.

    Args:
        directory: the saved database directory.
        config: optional configuration override; defaults to the one the
            database was saved with.  Overriding knobs that shape an
            artifact (``prefilter_depth``, ``projection_subset_cap``,
            ``use_projections``) makes the loader rebuild that artifact.
    """
    start = time.perf_counter()
    directory = Path(directory)
    manifest = read_manifest(directory)
    if manifest is None:
        raise BrokerError(f"{directory / _CONTRACTS_FILE} does not exist")
    if config is None:
        config = manifest.config

    report = LoadReport()
    checksums = manifest.artifacts
    automata_docs = _read_artifact(
        directory, _AUTOMATA_FILE, checksums, report
    )
    seeds_docs = _read_artifact(directory, _SEEDS_FILE, checksums, report)
    encoded_docs = _read_artifact(
        directory, _ENCODED_FILE, checksums, report
    )
    projection_docs = None
    if config.use_projections:
        projection_docs = _read_artifact(
            directory, _PROJECTIONS_FILE, checksums, report
        )
    index_doc = _read_artifact(directory, _INDEX_FILE, checksums, report)

    def stored(filename, docs, fallback, build, *context):
        """One rung of the fallback ladder, for the contract at hand
        (``spec``, the ``position``-th of its name — duplicate names
        store one entry per registration, in order): its entry of the
        artifact ``docs`` as ``build`` validated it — or ``None``, with
        a warning naming the file, when there is none or ``build``
        rejects it (the registration below then does ``fallback``)."""
        if docs is None:
            return None  # the file itself was unusable: already reported
        try:
            entries = docs.get(spec.name)
            if (not isinstance(entries, list) or position >= len(entries)
                    or entries[position] is None):
                raise BrokerError("no stored entry")
            return build(entries[position], *context)
        except ReproError as exc:
            report.warnings.append(
                f"{filename}: {spec.name!r}: {exc}; {fallback}"
            )
            return None

    db = ContractDatabase(config)
    retranslated: list = []
    positions: dict[str, int] = {}
    for doc in manifest.contracts:
        spec = ContractSpec.from_doc(doc)
        position = positions.get(spec.name, 0)
        positions[spec.name] = position + 1

        seeds = encoded = projections = None
        ba = stored(_AUTOMATA_FILE, automata_docs, "retranslating",
                    _stored_automaton, spec)
        if ba is None:
            # the other artifacts only align with the *stored* automaton's
            # state numbering, so they are recomputed with it
            report.retranslated.append(spec.name)
        else:
            seeds = stored(_SEEDS_FILE, seeds_docs, "recomputing",
                           _stored_seeds, ba)
            encoded = stored(_ENCODED_FILE, encoded_docs, "re-encoding",
                             _stored_encoding, ba, spec)
            projections = stored(
                _PROJECTIONS_FILE, projection_docs, "recomputing",
                _stored_projections, ba, config.projection_subset_cap,
            )
        report.automata_restored += ba is not None
        report.seeds_restored += seeds is not None
        report.encoded_restored += encoded is not None
        report.projections_restored += projections is not None

        contract = db.register(
            spec,
            prebuilt=PrebuiltArtifacts(
                ba=ba, seeds=seeds, projections=projections, encoded=encoded
            ),
            update_index=False,
        )
        if ba is None:
            retranslated.append(contract)

    # The index goes in last, into the event table the registrations
    # filled: adopted if it is of the configured depth (a re-translated
    # BA's entries refreshed), else every contract is inserted afresh.
    index = None
    if index_doc is not None:
        try:
            index = PrefilterIndex.from_dict(index_doc, db.event_table)
            # loading numbers the contracts 0, 1, … in manifest order
            if index.universe != frozenset(range(len(manifest.contracts))):
                raise IndexError_("contract ids do not match the manifest")
        except IndexError_ as exc:
            report.warnings.append(f"{_INDEX_FILE}: invalid ({exc}); rebuilding")
            index = None
    if index is not None and index.depth == config.prefilter_depth:
        for contract in retranslated:
            index.remove_contract(contract.contract_id)
        report.index_restored = True
    else:
        index, retranslated = db.index, db.contracts()
    for contract in retranslated:
        index.add_contract(contract.contract_id, contract.ba, contract.vocabulary)
    if report.index_restored:
        db.adopt_index(index)

    report.contracts = len(db)
    report.load_seconds = time.perf_counter() - start
    db.load_report = report
    return db
