"""Convenience harness: a whole cluster on one machine.

:class:`LocalCluster` starts N shard servers in this process — what the
tests, the conformance cells and ``contract-broker serve`` use — plus an
optional journal-shipping replica of shard 0, and hands out the matching
:class:`~repro.dist.coordinator.DistributedDatabase` — the one front-end
(and its keyword arguments are declared there only).  A shard per
process is one ``contract-broker serve --shards 1`` per process, joined
by a front-end over their addresses.
"""

from __future__ import annotations

from pathlib import Path

from ..broker.database import BrokerConfig
from ..errors import DistError
from ..obs.metrics import MetricsRegistry
from .coordinator import DistributedDatabase
from .replica import Replica
from .server import ShardServer


class LocalCluster:
    """N shards (+ optional replica of shard 0) on loopback sockets.

    ``directory`` roots one journaled subdirectory per shard
    (``shard-0/`` … ``shard-N/``); ``None`` keeps every shard
    memory-only (no journals — and therefore no replica).
    """

    def __init__(self, num_shards: int, *,
                 directory: str | Path | None = None,
                 config: BrokerConfig | None = None):
        if num_shards < 1:
            raise DistError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        self.config = config
        self.directory = Path(directory) if directory is not None else None
        self.servers = [
            ShardServer(
                shard, directory=self.shard_dir(shard), config=config,
            ).start()
            for shard in range(num_shards)
        ]
        self.addresses = [
            ("127.0.0.1", server.port) for server in self.servers
        ]

    def shard_dir(self, shard: int) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"shard-{shard}"

    def database(self, **options) -> DistributedDatabase:
        """A fresh front-end over this cluster; ``options`` are
        :class:`DistributedDatabase`'s keyword arguments."""
        return DistributedDatabase(self.addresses, **options)

    def replica(self, shard: int = 0, *,
                metrics: MetricsRegistry | None = None) -> Replica:
        """A journal-shipping replica of ``shard`` (default: shard 0)."""
        leader = self.shard_dir(shard)
        if leader is None:
            raise DistError(
                "a memory-only cluster has no journal to replicate; "
                "construct LocalCluster with a directory"
            )
        return Replica(leader, config=self.config, metrics=metrics)

    def stop_shard(self, shard: int) -> None:
        """Kill one shard server (the chaos drills' leader murder
        weapon); its address stays in the coordinator's view, and since
        :meth:`ShardServer.stop` closes every open connection too, calls
        to it now fail like a dead host, not a closed topology."""
        self.servers[shard].stop()

    def restart_shard(self, shard: int, *, db=None) -> tuple[str, int]:
        """Bring a shard back up (optionally serving a promoted
        replica's ``db``) on a fresh port; returns the new address for
        :meth:`DistributedDatabase.fail_over`."""
        if db is not None:
            server = ShardServer(shard, db=db).start()
        else:
            server = ShardServer(
                shard, directory=self.shard_dir(shard), config=self.config,
            ).start()
        self.servers[shard] = server
        address = ("127.0.0.1", server.port)
        self.addresses[shard] = address
        return address

    def stop(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
