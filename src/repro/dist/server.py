"""One shard of the distributed broker: a database behind a socket.

A :class:`ShardServer` owns a :class:`~repro.broker.database.ContractDatabase`
(journaled via :func:`~repro.broker.journal.open_database` when rooted
in a directory — which is what makes journal-shipping replication
possible) and serves the :mod:`repro.dist.protocol` request/response
ops over a loopback TCP socket, from daemon threads of the process
that made it.  A shard per process is one ``contract-broker serve
--shards 1`` per process.

The server never decides placement: it answers for exactly the
contracts the front-end registered on it.  Identity on the wire is
the contract *name*; local ids stay local (invariant 15).  There is no
client class here: :class:`~repro.dist.coordinator.DistributedDatabase`
is the one RPC client (``status()`` answers per shard), and anything
else speaks :mod:`~repro.dist.protocol` frames on a plain socket.
"""

from __future__ import annotations

import socket
import threading
from collections import Counter
from pathlib import Path

from ..broker.contract import ContractSpec
from ..broker.database import BrokerConfig, ContractDatabase
from ..broker.journal import open_database
from ..errors import BrokerError, DistError, ProtocolError, ReproError
from . import protocol

#: Ops a shard answers.  ``save`` snapshots + compacts (the leader-side
#: epoch bump replicas must survive).  No op stops a shard: only its
#: owner's :meth:`ShardServer.stop` does.
SHARD_OPS = frozenset({
    "ping", "register", "deregister", "query", "query_many",
    "ingest", "status", "save",
})


class ShardServer:
    """A broker shard serving the wire protocol.

    ``directory`` roots a journaled database (crash-safe, replicatable);
    without one the shard is memory-only.  ``db`` serves an existing
    database instead of opening one — the failover path: a promoted
    replica's database goes straight behind a fresh socket without a
    reload (``directory`` then defaults to the attached journal's, so
    ``save``/``status`` keep working).  :meth:`start` binds a loopback
    socket and serves it; :meth:`stop` ends the shard for every client
    at once.  :meth:`handle_request` is also directly callable, so
    in-process callers (tests, the conformance runner) can skip the
    socket without skipping the serialization round-trip.
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
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        # each open connection and the thread serving it
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()

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

    # -- the socket surface -----------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise DistError(f"shard {self.shard_id} is not serving")
        return self._listener.getsockname()

    @property
    def port(self) -> int:
        return self.address[1]

    def start(self) -> "ShardServer":
        """Bind the socket and accept on a daemon thread; each
        connection is served by a thread of its own."""
        if self._listener is not None:
            return self
        self._listener = socket.create_server((self._host, self._port))
        self._acceptor = threading.Thread(
            target=self._accept, args=(self._listener,),
            name=f"shard-{self.shard_id}", daemon=True,
        )
        self._acceptor.start()
        return self

    def stop(self) -> None:
        """End the shard at once and for every client: close the
        listener and every open connection, wait for the requests in
        flight, then close the journal.  A request sent on a connection
        opened before ``stop()`` gets EOF or a reset, never an answer."""
        listener, self._listener = self._listener, None
        if listener is not None:
            _hang_up(listener)  # the blocked accept() returns
            self._acceptor.join()
            self._acceptor = None
            listener.close()
            with self._connections_lock:
                connections = list(self._connections.items())
            for connection, _ in connections:
                _hang_up(connection)  # a blocked recv() reads EOF
            for _, thread in connections:
                thread.join()
        if self.db.journal is not None:
            self.db.journal.close()

    def _accept(self, listener: socket.socket) -> None:
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                if self._listener is not listener:
                    return  # stop() shut it down
                continue
            thread = threading.Thread(
                target=self._serve, args=(connection,), daemon=True,
            )
            with self._connections_lock:
                self._connections[connection] = thread
            thread.start()

    def _serve(self, connection: socket.socket) -> None:
        """One client connection: answer frames until the client hangs
        up or the shard stops."""
        try:
            while True:
                request = protocol.recv_frame(connection)
                if request is None:
                    return
                protocol.send_frame(connection, self.handle_request(request))
        except ProtocolError as exc:
            try:
                protocol.send_frame(connection, protocol.error_doc(exc))
            except OSError:
                pass
        except OSError:
            pass  # client went away mid-exchange, or the shard stopped
        finally:
            with self._connections_lock:
                del self._connections[connection]
            connection.close()


def _hang_up(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # the peer is gone already
