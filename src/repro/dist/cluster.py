"""Convenience harness: a whole cluster on one machine.

:class:`LocalCluster` starts N shard servers — in-process daemon
threads by default (deterministic and fast: what the tests and the
conformance cells use), or separate processes (``mode="process"``, the
deployment shape ``contract-broker serve`` scripts) — plus an optional
journal-shipping replica of shard 0, and hands out the matching
:class:`~repro.dist.coordinator.DistributedDatabase` — the one front-end
(and its keyword arguments are declared there only).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import tempfile
from pathlib import Path

from ..broker.database import BrokerConfig
from ..errors import DistError
from ..obs.metrics import MetricsRegistry
from .coordinator import DistributedDatabase
from .replica import Replica
from .server import ShardServer, serve_shard


class LocalCluster:
    """N shards (+ optional replica of shard 0) on loopback sockets.

    ``directory`` roots one journaled subdirectory per shard
    (``shard-0/`` … ``shard-N/``); ``None`` keeps every shard
    memory-only (no journals — and therefore no replica).
    """

    def __init__(self, num_shards: int, *,
                 directory: str | Path | None = None,
                 config: BrokerConfig | None = None,
                 mode: str = "thread"):
        if num_shards < 1:
            raise DistError(f"need at least one shard, got {num_shards}")
        if mode not in ("thread", "process"):
            raise DistError(f"unknown cluster mode {mode!r}")
        self.num_shards = num_shards
        self.config = config
        self.mode = mode
        self._tmp = None
        if directory is None and mode == "process":
            # process shards need a filesystem rendezvous for journals
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            directory = self._tmp.name
        self.directory = Path(directory) if directory is not None else None
        self.servers: list[ShardServer] = []
        self._processes: list = []
        self._pipes: list = []
        self.addresses: list[tuple[str, int]] = []
        self._start()

    def shard_dir(self, shard: int) -> Path | None:
        if self.directory is None:
            return None
        return self.directory / f"shard-{shard}"

    def _start(self) -> None:
        if self.mode == "thread":
            for shard in range(self.num_shards):
                server = ShardServer(
                    shard, directory=self.shard_dir(shard),
                    config=self.config,
                ).start()
                self.servers.append(server)
                self.addresses.append(("127.0.0.1", server.port))
            return
        ctx = multiprocessing.get_context("spawn")
        config_doc = (
            dataclasses.asdict(self.config)
            if self.config is not None else None
        )
        for shard in range(self.num_shards):
            parent, child = ctx.Pipe()
            process = ctx.Process(
                target=serve_shard,
                args=(shard, str(self.shard_dir(shard)), config_doc,
                      "127.0.0.1", 0, child),
                daemon=True,
            )
            process.start()
            child.close()
            tag, port = parent.recv()  # blocks until the socket is bound
            if tag != "ready":  # pragma: no cover - defensive
                raise DistError(f"shard {shard} failed to start: {tag}")
            self._processes.append(process)
            self._pipes.append(parent)
            self.addresses.append(("127.0.0.1", port))

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
        """Kill one thread-mode shard server (the chaos drills' leader
        murder weapon); its address stays in the coordinator's view so
        calls to it now fail like a dead host, not a closed topology."""
        if self.mode != "thread":
            raise DistError("stop_shard is only supported in thread mode")
        self.servers[shard].stop()

    def restart_shard(self, shard: int, *, db=None) -> tuple[str, int]:
        """Bring a thread-mode shard back up (optionally serving a
        promoted replica's ``db``) on a fresh port; returns the new
        address for :meth:`DistributedDatabase.fail_over`."""
        if self.mode != "thread":
            raise DistError("restart_shard is only supported in thread mode")
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
        for pipe, process in zip(self._pipes, self._processes):
            try:
                pipe.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for pipe, process in zip(self._pipes, self._processes):
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)
            pipe.close()
        self._pipes = []
        self._processes = []
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
