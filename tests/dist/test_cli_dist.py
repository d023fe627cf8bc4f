"""The distributed CLI surface: serve and shard-status."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.broker.database import ContractDatabase
from repro.cli import main
from repro.dist import DistributedDatabase, ShardServer

SRC = str(Path(repro.__file__).resolve().parents[1])


class TestServe:
    def test_serve_seeds_and_stops(self, tmp_path, capsys):
        specs = tmp_path / "specs.json"
        specs.write_text(json.dumps([
            {"name": "alpha", "clauses": ["F a"], "attributes": {}},
            {"name": "beta", "clauses": ["G !a"], "attributes": {}},
        ]), encoding="utf-8")
        port_file = tmp_path / "ports.json"
        assert main([
            "serve", "--shards", "2", "--specs", str(specs),
            "--directory", str(tmp_path / "cluster"),
            "--port-file", str(port_file), "--duration", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "shard 0:" in out and "shard 1:" in out
        assert "registered 2 contracts across 2 shard(s)" in out
        assert "cluster stopped" in out
        addresses = json.loads(port_file.read_text(encoding="utf-8"))
        assert len(addresses) == 2
        # the journals survive the cluster
        assert (tmp_path / "cluster" / "shard-0" / "journal.jsonl").exists()

    def test_serve_rejects_no_shards(self, capsys):
        assert main(["serve", "--shards", "0", "--duration", "0"]) == 1
        assert "at least one shard" in capsys.readouterr().err

    def test_a_shard_per_process(self, tmp_path):
        """A shard per process is one ``serve --shards 1`` per process;
        a front-end over their addresses answers as one node does."""
        port_files = [tmp_path / f"ports-{i}.json" for i in range(2)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--shards", "1",
                 "--directory", str(tmp_path / f"shard-{i}"),
                 "--port-file", str(port_file), "--duration", "60"],
                stdout=subprocess.DEVNULL,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            for i, port_file in enumerate(port_files)
        ]
        try:
            addresses = [_wait_for_address(port_file, proc)
                         for port_file, proc in zip(port_files, procs)]
            local = ContractDatabase()
            with DistributedDatabase(addresses) as db:
                for i in range(6):
                    clauses = [f"G(a{i % 3} -> F b)"]
                    db.register(f"c{i}", clauses)
                    local.register(f"c{i}", clauses)
                for query in ("F b", "F a0 & G !b", "G F a1"):
                    assert db.query(query).contract_names == (
                        local.query(query).contract_names)
                assert all(len(shard["names"]) > 0
                           for shard in db.status()["shards"])
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.wait(timeout=30)


def _wait_for_address(port_file: Path, proc) -> tuple[str, int]:
    """The one address ``serve --port-file`` writes, once it is there."""
    deadline = time.monotonic() + 30
    while True:
        assert proc.poll() is None, "serve exited before writing its port file"
        try:
            ((host, port),) = json.loads(port_file.read_text(encoding="utf-8"))
            return host, port
        except (OSError, ValueError):
            assert time.monotonic() < deadline, "serve wrote no port file"
            time.sleep(0.05)


class TestShardStatus:
    def test_status_against_live_shard(self, capsys):
        server = ShardServer(0).start()
        try:
            server.handle_request({
                "op": "register", "name": "alpha",
                "clauses": ["F a"], "attributes": {},
            })
            host, port = server.address
            assert main([
                "shard-status", "--address", f"{host}:{port}",
            ]) == 0
            out = capsys.readouterr().out
            assert "1 contract(s), memory-only" in out
            assert "contracts: alpha" in out
            assert "1/1 shard(s) up, 1 contract(s) total" in out

            assert main([
                "shard-status", "--address", f"{host}:{port}", "--json",
            ]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["shards"][0]["names"] == ["alpha"]
        finally:
            server.stop()

    def test_status_via_port_file(self, tmp_path, capsys):
        server = ShardServer(0).start()
        try:
            port_file = tmp_path / "ports.json"
            port_file.write_text(
                json.dumps([list(server.address)]), encoding="utf-8"
            )
            assert main(["shard-status", "--port-file", str(port_file)]) == 0
            assert "1 shard(s)" in capsys.readouterr().out
        finally:
            server.stop()

    def test_status_requires_an_address(self, capsys):
        assert main(["shard-status"]) == 1
        assert "provide --address or --port-file" in capsys.readouterr().err

    def test_status_rejects_malformed_address(self, capsys):
        assert main(["shard-status", "--address", "nope"]) == 1
        assert "expected HOST:PORT" in capsys.readouterr().err

    def test_status_dead_shard_is_a_finding_not_a_failure(self, capsys):
        # one dead shard must not fail the whole invocation: exit 0,
        # the shard marked down with the transport error attached
        assert main(["shard-status", "--address", "127.0.0.1:1"]) == 0
        out = capsys.readouterr().out
        assert "down (" in out
        assert "0/1 shard(s) up, 0 contract(s) total" in out

    def test_status_json_carries_the_down_error(self, capsys):
        assert main([
            "shard-status", "--address", "127.0.0.1:1", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        (shard,) = doc["shards"]
        assert shard["up"] is False
        assert "cannot reach" in shard["error"]
        assert shard["contracts"] is None

    def test_status_mixed_live_and_dead_shards(self, capsys):
        server = ShardServer(0).start()
        try:
            host, port = server.address
            assert main([
                "shard-status",
                "--address", f"{host}:{port}",
                "--address", "127.0.0.1:1",
            ]) == 0
            out = capsys.readouterr().out
            assert "1/2 shard(s) up" in out
            assert "down (" in out
        finally:
            server.stop()

    def test_status_health_summary(self, capsys):
        server = ShardServer(0).start()
        try:
            host, port = server.address
            assert main([
                "shard-status", "--health",
                "--address", f"{host}:{port}",
                "--address", "127.0.0.1:1",
            ]) == 0
            out = capsys.readouterr().out
            assert "up, 0 contract(s)" in out
            assert "down (" in out
            assert "1/2 shard(s) up" in out
        finally:
            server.stop()


class TestPromoteCli:
    def _journaled_leader(self, tmp_path):
        from repro.broker.journal import open_database

        leader_dir = tmp_path / "leader"
        db = open_database(leader_dir)
        db.register("alpha", ["F a"], {})
        db.register("beta", ["G !a"], {})
        return leader_dir

    def test_promote_writes_a_new_leader(self, tmp_path, capsys):
        from repro.broker.persist import load_database

        leader_dir = self._journaled_leader(tmp_path)
        promoted = tmp_path / "promoted"
        assert main([
            "promote", str(leader_dir), str(promoted),
        ]) == 0
        out = capsys.readouterr().out
        assert "promoted into" in out
        assert "journal epoch 1" in out
        recovered = load_database(promoted)
        assert sorted(c.name for c in recovered.contracts()) == [
            "alpha", "beta",
        ]

    def test_promote_json_report(self, tmp_path, capsys):
        leader_dir = self._journaled_leader(tmp_path)
        assert main([
            "promote", str(leader_dir), str(tmp_path / "promoted"),
            "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epoch"] == 1
        assert doc["contracts"] == 2

    def test_promote_refuses_the_leader_directory(self, tmp_path, capsys):
        leader_dir = self._journaled_leader(tmp_path)
        assert main([
            "promote", str(leader_dir), str(leader_dir),
        ]) == 1
        assert "fresh directory" in capsys.readouterr().err
