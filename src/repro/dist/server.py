"""One shard of the distributed broker: a database behind a socket.

A :class:`ShardServer` owns a :class:`~repro.broker.database.ContractDatabase`
(journaled via :func:`~repro.broker.journal.open_database` when rooted
in a directory — which is what makes journal-shipping replication
possible) and serves the :mod:`repro.dist.protocol` request/response
ops over a loopback TCP socket.  It runs either in-process (a daemon
accept thread — what the tests, the conformance cells and
:class:`~repro.dist.cluster.LocalCluster` use) or as a dedicated
process via :func:`serve_shard` (what ``contract-broker serve``
launches).

The server never decides placement: it answers for exactly the
contracts the front-end registered on it.  Identity on the wire is
the contract *name*; local ids stay local (invariant 15).  There is no
client class here: :class:`~repro.dist.coordinator.DistributedDatabase`
is the one RPC client (``status()`` answers per shard), and anything
else speaks :mod:`~repro.dist.protocol` frames on a plain socket.
"""

from __future__ import annotations

import socketserver
import threading
from collections import Counter
from pathlib import Path

from ..broker.contract import ContractSpec
from ..broker.database import BrokerConfig, ContractDatabase
from ..broker.journal import open_database
from ..errors import BrokerError, DistError, ProtocolError, ReproError
from . import protocol

#: Ops a shard answers.  ``save`` snapshots + compacts (the leader-side
#: epoch bump replicas must survive); ``shutdown`` stops the server.
SHARD_OPS = frozenset({
    "ping", "register", "deregister", "query", "query_many",
    "ingest", "status", "save", "shutdown",
})


class ShardServer:
    """A broker shard serving the wire protocol.

    ``directory`` roots a journaled database (crash-safe, replicatable);
    without one the shard is memory-only.  ``db`` serves an existing
    database instead of opening one — the failover path: a promoted
    replica's database goes straight behind a fresh socket without a
    reload (``directory`` then defaults to the attached journal's, so
    ``save``/``status`` keep working).  ``start()`` binds a loopback
    socket and serves from daemon threads; :meth:`handle_request` is
    also directly callable, so in-process callers (tests, the
    conformance runner) can skip the socket without skipping the
    serialization round-trip.
    """

    def __init__(self, shard_id: int, *,
                 directory: str | Path | None = None,
                 config: BrokerConfig | None = None,
                 db: ContractDatabase | None = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.shard_id = shard_id
        self.directory = Path(directory) if directory is not None else None
        if db is not None:
            if config is not None:
                raise DistError(
                    "pass either a pre-built db or a config to build "
                    "one with, not both"
                )
            self.db = db
            if self.directory is None and db.journal is not None:
                self.directory = Path(db.journal.path).parent
        elif self.directory is not None:
            self.db = open_database(self.directory, config)
        else:
            self.db = ContractDatabase(config)
        # name -> local id and its inverse.  Handler threads read both
        # without a lock, so neither is ever changed in place: the two
        # mutating ops build the next pair under the lock and rebind.
        self._ids = {c.name: c.contract_id for c in self.db.contracts()}
        self._names = {cid: name for name, cid in self._ids.items()}
        self._catalog_lock = threading.Lock()
        # dist.shard.* counts, published through the database's registry
        # (which the status op reads); handler threads run concurrently
        self._counts: Counter = Counter()
        self._counts_lock = threading.Lock()
        self.db.metrics.register(self)
        self._host = host
        self._port = port
        self._server: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None

    # -- the request surface ----------------------------------------------------------

    def handle_request(self, doc: dict) -> dict:
        """Dispatch one request document to a response document."""
        op = doc.get("op")
        if op not in SHARD_OPS:
            return protocol.error_doc(ProtocolError(f"unknown op {op!r}"))
        try:
            payload = getattr(self, f"_op_{op}")(doc)
        except ReproError as exc:
            self._count("dist.shard.errors")
            return protocol.error_doc(exc)
        except (KeyError, TypeError, ValueError) as exc:
            self._count("dist.shard.errors")
            return protocol.error_doc(
                ProtocolError(f"malformed {op!r} request: {exc}")
            )
        self._count(f"dist.shard.ops.{op}")
        return {"ok": True, **payload}

    def _count(self, name: str) -> None:
        with self._counts_lock:
            self._counts[name] += 1

    def collect(self) -> dict:
        """The ``dist.shard.*`` counts, read by the database's registry
        on export."""
        with self._counts_lock:
            return {"counters": dict(self._counts)}

    def _op_ping(self, doc: dict) -> dict:
        return {"pong": True, "shard_id": self.shard_id}

    def _op_register(self, doc: dict) -> dict:
        try:
            spec = ContractSpec.from_doc(doc)
        except BrokerError as exc:
            raise ProtocolError(f"malformed 'register' request: {exc}") from exc
        name = spec.name
        if not name:
            raise ProtocolError("register needs a contract name, got ''")
        with self._catalog_lock:
            if name in self._ids:
                raise DistError(
                    f"shard {self.shard_id} already holds contract {name!r}"
                )
            contract = self.db.register(spec)
            self._ids = {**self._ids, name: contract.contract_id}
            self._names = {**self._names, contract.contract_id: name}
        return {"name": name, "contract_id": contract.contract_id}

    def _op_deregister(self, doc: dict) -> dict:
        name = doc["name"]
        with self._catalog_lock:
            contract_id = self._ids.get(name)
            if contract_id is None:
                raise DistError(
                    f"shard {self.shard_id} holds no contract {name!r}"
                )
            self.db.deregister(contract_id)
            self._ids = {n: c for n, c in self._ids.items() if n != name}
            self._names = {c: n for c, n in self._names.items() if n != name}
        return {"name": name}

    def _op_query(self, doc: dict) -> dict:
        options = protocol.options_from_doc(doc)
        outcome = self.db.query(doc["query"], options)
        return {"outcome": protocol.outcome_to_doc(outcome, self._names)}

    def _op_query_many(self, doc: dict) -> dict:
        options = protocol.options_from_doc(doc)
        outcomes = self.db.query_many(list(doc["queries"]), options)
        return protocol.outcomes_doc(outcomes, self._names)

    def _op_ingest(self, doc: dict) -> dict:
        report = self.db.ingest(list(doc["events"]))
        return {"report": {
            "events": report.events,
            "deliveries": report.deliveries,
            "unknown_events": report.unknown_events,
            "alerts": [
                {
                    "kind": a.kind,
                    "contract": a.contract,
                    "watch": a.watch,
                    "event_index": a.event_index,
                    "events": sorted(a.events),
                }
                for a in report.alerts
            ],
        }}

    def _op_status(self, doc: dict) -> dict:
        journal = self.db.journal
        journal_doc = None
        if journal is not None:
            path = Path(journal.path)
            journal_doc = {
                "epoch": journal.epoch,
                "records": len(journal),
                "size_bytes": (
                    path.stat().st_size if path.exists() else 0
                ),
            }
        return {
            "shard_id": self.shard_id,
            "contracts": len(self.db),
            "names": sorted(self._ids),
            "directory": str(self.directory) if self.directory else None,
            "journal": journal_doc,
            "metrics": self.db.metrics.snapshot()["counters"],
        }

    def _op_save(self, doc: dict) -> dict:
        from ..broker.persist import save_database

        if self.directory is None:
            raise DistError(
                f"shard {self.shard_id} is memory-only; nothing to save"
            )
        save_database(self.db, self.directory)
        journal = self.db.journal
        return {"epoch": journal.epoch if journal is not None else None}

    def _op_shutdown(self, doc: dict) -> dict:
        if self._server is not None:
            # shut down from another thread: serve_forever must not wait
            # on the very request it is answering
            threading.Thread(target=self.stop, daemon=True).start()
        return {"stopping": True}

    # -- the socket surface -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise DistError(f"shard {self.shard_id} is not serving")
        return self._server.server_address  # type: ignore[return-value]

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "ShardServer":
        """Bind the socket and serve from a daemon thread."""
        if self._server is not None:
            return self
        self._server = _Server((self._host, self._port), self)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"shard-{self.shard_id}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self.db.journal is not None:
            self.db.journal.close()


class _Handler(socketserver.BaseRequestHandler):
    """One client connection: answer frames until the client hangs up."""

    def handle(self):
        shard = self.server.shard
        try:
            while True:
                request = protocol.recv_frame(self.request)
                if request is None:
                    return
                protocol.send_frame(self.request, shard.handle_request(request))
        except ProtocolError as exc:
            try:
                protocol.send_frame(self.request, protocol.error_doc(exc))
            except OSError:
                pass
        except OSError:
            pass  # client went away mid-exchange


class _Server(socketserver.ThreadingTCPServer):
    """The listener of one :class:`ShardServer`.  Module-level, like its
    handler, so no class object (cyclic garbage) holds the shard: a
    stopped shard's database is freed by reference counting, not at the
    next full collection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], shard: ShardServer):
        self.shard = shard
        super().__init__(address, _Handler)


def serve_shard(shard_id: int, directory: str | None, config_doc: dict | None,
                host: str, port: int, conn=None) -> None:
    """Process entry point: run one shard until told to stop.

    ``conn`` (a multiprocessing pipe end) receives the bound port once
    the socket is up, then blocks until the parent sends anything —
    the stop signal.  With no pipe (foreground CLI use) the server runs
    until the process is interrupted.
    """
    config = BrokerConfig.from_dict(config_doc) if config_doc else None
    server = ShardServer(
        shard_id, directory=directory, config=config, host=host, port=port
    )
    server.start()
    try:
        if conn is not None:
            conn.send(("ready", server.port))
            conn.recv()  # blocks until the parent signals stop (or EOFError)
        else:  # pragma: no cover - foreground mode is exercised via CLI
            threading.Event().wait()
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        server.stop()
