"""CI job ``dist_smoke``: the sharded broker and its journal-shipping
replica against the single-node oracle, and a served cluster over real
sockets.  ``tests/dist`` is tier-1's; the ``dist-failover`` drill is
``test_dist_chaos.py``'s."""

import json
import socket
import struct

import pytest

from repro.broker.options import Degradation, QueryOptions
from repro.dist import LocalCluster, protocol
from repro.errors import LTLSyntaxError

GUARDS = ("src/*",)


@pytest.mark.guards(*GUARDS, budget=600)
def test_distributed_conformance_cells(run, artifacts):
    """``sharded`` runs every case through a real 3-shard LocalCluster
    behind the front-end; ``replicated`` replays half the case through a
    journal-shipping replica across an epoch bump — both match the
    single-node oracle bit for bit."""
    run("-m", "repro.cli", "check", "--seed", "7", "--cases", "200",
        "--configs", "sharded,replicated",
        "--artifacts", artifacts / "dist-artifacts")


@pytest.mark.guards(*GUARDS, budget=1500)
def test_distributed_cells_under_faults(run, artifacts):
    """Invariant 16: ``flaky-network`` arms transient faults on the
    front-end's send/recv seams, and retries absorb every one;
    ``failover`` kills the leader of a journaled cluster, promotes its
    replica and fails over — the re-answer is still exact."""
    run("-m", "repro.cli", "check", "--seed", "7", "--cases", "200",
        "--configs", "flaky-network,failover",
        "--artifacts", artifacts / "dist-artifacts")


@pytest.mark.guards(*GUARDS, budget=60)
def test_serve_and_shard_status_over_real_sockets(run, tmp_path):
    """A malformed query is refused before any shard is asked; a frame
    of hostile bytes is a ProtocolError reply and the shard stays up; a
    dead shard is a finding of ``shard-status`` (exit 0), not a
    failure."""
    specs, ports = tmp_path / "specs.json", tmp_path / "ports.json"
    run("-m", "repro.cli", "generate", "--count", "12", "--patterns", "2",
        "--seed", "7", "--out", specs)

    def shard_status():
        out = run("-m", "repro.cli", "shard-status", "--port-file", ports,
                  "--json").stdout
        return json.loads(out)["shards"]

    with LocalCluster(3, directory=tmp_path / "cluster") as cluster:
        with cluster.database() as db:
            for doc in json.loads(specs.read_text()):
                db.register(doc["name"], doc["clauses"],
                            doc.get("attributes") or {})
            assert len(db) == 12
            for options in (None, QueryOptions(degradation=Degradation.FAIL)):
                with pytest.raises(LTLSyntaxError):
                    db.query("G (p ->", options)
            assert db.metrics.counter_value("dist.merge.skipped_shards") == 0
        cluster.replica().catch_up()
        ports.write_text(json.dumps([list(a) for a in cluster.addresses]))
        shards = shard_status()
        assert sum(s["contracts"] for s in shards) == 12, shards

        payload = b"[" * 100_000 + b"]" * 100_000
        with socket.create_connection(cluster.addresses[0], timeout=10) as sock:
            sock.sendall(struct.pack(">I", len(payload)) + payload)
            reply = protocol.recv_frame(sock)
        assert reply["kind"] == "ProtocolError", reply
        assert shard_status()[0]["up"] is True

        cluster.stop_shard(1)
        after = shard_status()
        assert after[1]["error"] and after[1]["contracts"] is None, after
        assert [s["up"] for s in after] == [True, False, True], after
        assert after[0]["contracts"] + after[2]["contracts"] == (
            12 - shards[1]["contracts"]), after
