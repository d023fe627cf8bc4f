"""One shard behind a socket: dispatch, persistence, error surfaces."""

import contextlib
import gc
import socket
import struct
import sys
import threading
import time
import weakref

import pytest

from repro.broker.journal import open_database
from repro.core.retry import BackoffPolicy
from repro.dist import DistributedDatabase, LocalCluster, protocol
from repro.dist.server import SHARD_OPS, ShardServer
from repro.errors import DistError


@pytest.fixture
def shard():
    server = ShardServer(0)
    yield server
    server.stop()


@contextlib.contextmanager
def _wire(server):
    """A plain blocking socket to ``server``: ``request(doc)`` writes one
    frame and reads one back — the protocol with no client around it."""
    with socket.create_connection(server.address, timeout=10.0) as sock:
        def request(doc):
            protocol.send_frame(sock, doc)
            return protocol.recv_frame(sock)

        yield request


def _register(server, name, clauses, attributes=None):
    response = server.handle_request({
        "op": "register", "name": name, "clauses": clauses,
        "attributes": attributes or {},
    })
    assert response["ok"], response
    return response


class TestDispatch:
    def test_ping(self, shard):
        assert shard.handle_request({"op": "ping"}) == {
            "ok": True, "pong": True, "shard_id": 0,
        }

    def test_unknown_op_is_an_error_response(self, shard):
        # no client stops a shard, so "shutdown" is no op: only the
        # owner's stop() ends a shard
        for op in ("explode", "shutdown"):
            response = shard.handle_request({"op": op})
            assert response["ok"] is False
            assert "unknown op" in response["error"]

    def test_malformed_request_is_an_error_response(self, shard):
        # missing required keys must not crash the server loop
        response = shard.handle_request({"op": "register"})
        assert response["ok"] is False
        assert response["kind"] == "ProtocolError"

    def test_register_query_deregister(self, shard):
        _register(shard, "alpha", ["G (a -> F b)"])
        # beta mentions both events, so no plan's index stage can rule
        # it out: it is a candidate and gets a verdict
        _register(shard, "beta", ["G (a -> G !b)"])
        request = {
            "op": "query", "query": "F (a && F b)",
            # a 2.x coordinator's spelling of "the planner chooses"
            "options": {"use_planner": True},
        }
        response = shard.handle_request(request)
        assert response["ok"]
        outcome = response["outcome"]
        assert outcome["permitted"] == ["alpha"]
        assert outcome["verdicts"]["beta"] == "not_permitted"

        assert shard.handle_request(
            {"op": "deregister", "name": "beta"}
        )["ok"]
        response = shard.handle_request(request)
        assert set(response["outcome"]["verdicts"]) == {"alpha"}

    def test_duplicate_register_rejected(self, shard):
        _register(shard, "alpha", ["F a"])
        response = shard.handle_request({
            "op": "register", "name": "alpha", "clauses": ["F b"],
            "attributes": {},
        })
        assert response["ok"] is False
        assert "already holds" in response["error"]

    def test_deregister_unknown_rejected(self, shard):
        response = shard.handle_request({"op": "deregister", "name": "ghost"})
        assert response["ok"] is False
        assert "no contract" in response["error"]

    def test_query_with_attribute_filter(self, shard):
        _register(shard, "cheap", ["F a"], {"price": 100})
        _register(shard, "pricey", ["F a"], {"price": 900})
        response = shard.handle_request({
            "op": "query", "query": "F a",
            "filter": [["price", "<=", 500]],
        })
        assert response["outcome"]["permitted"] == ["cheap"]

    def test_query_many(self, shard):
        _register(shard, "alpha", ["G (a -> F b)"])
        response = shard.handle_request({
            "op": "query_many", "queries": ["F a", "G !a"],
        })
        assert response["ok"]
        assert len(response["outcomes"]) == 2

    def test_status_reports_names_and_counters(self, shard):
        _register(shard, "alpha", ["F a"])
        status = shard.handle_request({"op": "status"})
        assert status["shard_id"] == 0
        assert status["contracts"] == 1
        assert status["names"] == ["alpha"]
        assert status["journal"] is None
        assert status["metrics"]["dist.shard.ops.register"] == 1

    def test_save_without_directory_rejected(self, shard):
        response = shard.handle_request({"op": "save"})
        assert response["ok"] is False
        assert "memory-only" in response["error"]


class TestConcurrentConnections:
    """Every connection gets its own handler thread, so a register on
    one runs beside queries on another."""

    def test_register_beside_readers(self, shard):
        # the name catalog used to be one dict mutated in place: a
        # status or query iterating it while a register inserted died
        # with "dictionary changed size during iteration", which
        # handle_request does not catch — the client saw a dropped
        # connection.  Enough names for an iteration to span a thread
        # switch, a short switch interval to make the switches happen.
        for i in range(3000):
            _register(shard, f"old{i}", ["G a"])
        failures = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    for request in ({"op": "status"},
                                    {"op": "query", "query": "F b"}):
                        response = shard.handle_request(request)
                        assert response["ok"], response
            except BaseException as exc:  # the thread must report, not die
                failures.append(exc)

        thread = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread.start()
        try:
            for i in range(300):
                _register(shard, f"new{i}", ["G a"])
        finally:
            done.set()
            thread.join()
            sys.setswitchinterval(interval)
        assert failures == []
        status = shard.handle_request({"op": "status"})
        assert status["contracts"] == len(status["names"]) == 3300

    def test_racing_duplicate_registers_admit_one(self, shard, monkeypatch):
        # the duplicate-name check and the insert are one step, however
        # long the registration between them takes
        real_register = shard.db.register

        def slow_register(spec):
            time.sleep(0.02)
            return real_register(spec)

        monkeypatch.setattr(shard.db, "register", slow_register)
        responses = []

        def register():
            responses.append(shard.handle_request({
                "op": "register", "name": "alpha", "clauses": ["G a"],
            }))

        threads = [threading.Thread(target=register) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(response["ok"] for response in responses) == 1
        assert shard.handle_request({"op": "status"})["contracts"] == 1


class TestPersistence:
    def test_journaled_shard_survives_restart(self, tmp_path):
        server = ShardServer(2, directory=tmp_path)
        try:
            _register(server, "alpha", ["F a"], {"price": 10})
            status = server.handle_request({"op": "status"})
            assert status["journal"]["records"] >= 1
        finally:
            server.stop()

        reborn = ShardServer(2, directory=tmp_path)
        try:
            status = reborn.handle_request({"op": "status"})
            assert status["names"] == ["alpha"]
            # local ids were recovered: the name stays addressable
            assert reborn.handle_request(
                {"op": "deregister", "name": "alpha"}
            )["ok"]
        finally:
            reborn.stop()

    def test_save_bumps_epoch(self, tmp_path):
        server = ShardServer(0, directory=tmp_path)
        try:
            _register(server, "alpha", ["F a"])
            before = server.handle_request({"op": "status"})
            response = server.handle_request({"op": "save"})
            assert response["ok"]
            assert response["epoch"] == before["journal"]["epoch"] + 1
        finally:
            server.stop()

        db = open_database(tmp_path)
        try:
            assert len(db) == 1
        finally:
            db.journal.close()


class TestSocketSurface:
    def test_client_round_trip(self):
        server = ShardServer(1).start()
        try:
            with _wire(server) as request:
                assert request({"op": "ping"})["shard_id"] == 1
                request({
                    "op": "register", "name": "alpha",
                    "clauses": ["F a"], "attributes": {},
                })
                outcome = request(
                    {"op": "query", "query": "F a"}
                )["outcome"]
                assert outcome["permitted"] == ["alpha"]
        finally:
            server.stop()

    def test_error_response_raises_dist_error(self):
        server = ShardServer(1).start()
        try:
            with _wire(server) as request:
                response = request({"op": "deregister", "name": "ghost"})
                assert response["ok"] is False
                assert response["kind"] == "DistError"
                # the connection survives an application-level error
                assert request({"op": "ping"})["pong"]
            # and the front-end turns such a response into the exception
            _register(server, "alpha", ["F a"])
            with DistributedDatabase([server.address]) as db:
                with pytest.raises(DistError, match="rejected"):
                    db.register("alpha", ["F a"])
        finally:
            server.stop()

    @pytest.mark.parametrize("payload", [
        b"[" * 100_000 + b"]" * 100_000, b'{"op": ' + b"7" * 5_000 + b"}",
    ], ids=["array-100000-deep", "integer-5000-digits"])
    def test_hostile_payload_is_answered_and_the_shard_serves_on(
        self, payload
    ):
        """A frame of bytes no JSON reader takes — not only malformed
        ones — is answered with a ``ProtocolError`` reply, not a
        traceback, and the shard answers the next frame."""
        server = ShardServer(1).start()
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                sock.sendall(struct.pack(">I", len(payload)) + payload)
                response = protocol.recv_frame(sock)
            assert response["ok"] is False
            assert response["kind"] == "ProtocolError"
            with _wire(server) as request:
                assert request({"op": "ping"})["pong"]
        finally:
            server.stop()

    def test_unreachable_shard_is_reported_not_raised(self):
        with DistributedDatabase(
            [("127.0.0.1", 1)], rpc_timeout=0.5,
            retry=BackoffPolicy(max_retries=0),
        ) as db:
            (status,) = db.status()["shards"]
        assert status["ok"] is False
        assert "cannot reach" in status["error"]

    def test_address_requires_serving(self):
        server = ShardServer(0)
        with pytest.raises(DistError):
            server.address

    def test_shard_ops_is_the_full_surface(self, shard):
        for op in SHARD_OPS:
            assert hasattr(shard, f"_op_{op}")


class TestStop:
    """``stop()`` ends a shard at once and for every client."""

    def test_a_connection_opened_before_stop_gets_no_answer(self, tmp_path):
        server = ShardServer(0, directory=tmp_path).start()
        journal = tmp_path / "journal.jsonl"
        with socket.create_connection(server.address, timeout=10.0) as sock:
            protocol.send_frame(sock, {
                "op": "register", "name": "alpha", "clauses": ["F a"],
            })
            assert protocol.recv_frame(sock)["ok"]
            before = journal.read_bytes()
            server.stop()
            try:
                protocol.send_frame(sock, {
                    "op": "register", "name": "beta", "clauses": ["F b"],
                })
                answer = protocol.recv_frame(sock)
            except OSError:  # a reset
                answer = None
        assert answer is None
        assert journal.read_bytes() == before

    def test_stopping_a_cluster_does_not_wait_on_a_poll(self):
        cluster = LocalCluster(3)
        started = time.perf_counter()
        cluster.stop()
        assert time.perf_counter() - started < 0.25


class TestStoppedShardsFreeTheirDatabase:
    def test_stop_releases_every_database_without_a_collection(self):
        """A stopped shard's database goes with its last reference: the
        listener and handler classes are module-level, not cyclic
        garbage made per ``start()`` that holds the shard until a full
        collection."""
        gc.collect()
        gc.disable()
        try:
            cluster = LocalCluster(2)
            dbs = [weakref.ref(server.db) for server in cluster.servers]
            with cluster.database() as front:
                for i in range(6):
                    front.register(f"c{i}", [f"G(a{i % 3} -> F b)"])
                assert front.query("F b").contract_names
            cluster.stop_shard(0)
            cluster.restart_shard(0)
            dbs.append(weakref.ref(cluster.servers[0].db))
            cluster.stop()
            # a handler thread lets go of its shard once the client's
            # hang-up reaches it
            deadline = time.monotonic() + 5
            while any(ref() is not None for ref in dbs):
                assert time.monotonic() < deadline, [
                    ref() is not None for ref in dbs]
                time.sleep(0.01)
        finally:
            gc.enable()
