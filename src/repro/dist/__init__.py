"""The distributed broker: sharding, fan-out querying, replication.

Layering: ``dist`` sits strictly *above* :mod:`repro.broker` — it
decides **where** contracts live and moves documents over the wire,
while every answer is still produced by an ordinary
:class:`~repro.broker.database.ContractDatabase` on some shard.
Distribution changes placement, never answers (docs/DEVELOPMENT.md
invariant 15); the ``sharded`` and ``replicated`` conformance cells
re-prove that equivalence against the single-node oracle on every run,
and the ``flaky-network`` / ``failover`` cells re-prove it *through*
injected transport faults and a leader replacement (invariant 16: a
retried or failed-over query returns the same answer a never-failed
cluster would, or a sound degradation).

Entry points:

* :class:`~repro.dist.partition.ShardRouter` — stable,
  seed-independent placement (SHA-256 + jump consistent hash);
* :class:`~repro.dist.server.ShardServer` — one shard: a (journaled)
  database behind a length-prefixed JSON socket protocol;
* :class:`~repro.dist.coordinator.DistributedDatabase` — the one
  cluster front-end: a synchronous, ``ContractDatabase``-shaped client
  that routes, fans out and merges (the merged answer is assembled by
  the code a single node uses), with per-shard
  :class:`~repro.dist.coordinator.ShardHealth` circuit breakers and
  deadline-aware RPC retry; it is also the only RPC client — a shard's
  status is ``db.status()``;
* :class:`~repro.dist.replica.Replica` — a read-only copy kept warm by
  tailing the leader's write-ahead journal (journal shipping); serves
  routed reads under a :class:`~repro.dist.replica.ReadPreference`
  staleness bound and takes over for a dead leader via
  :meth:`~repro.dist.replica.Replica.promote`;
* :class:`~repro.dist.cluster.LocalCluster` — N shards (+ replica) on
  one machine, for tests, benchmarks and the CLI.
"""

from .cluster import LocalCluster
from .coordinator import (
    DistributedDatabase,
    RoutedContract,
    ShardHealth,
    TransientShardError,
)
from .partition import ShardRouter, jump_hash, stable_key
from .replica import (
    PollReport,
    PromotionReport,
    ReadPreference,
    Replica,
    ReplicaCursor,
)
from .server import ShardServer

__all__ = [
    "DistributedDatabase",
    "LocalCluster",
    "PollReport",
    "PromotionReport",
    "ReadPreference",
    "Replica",
    "ReplicaCursor",
    "RoutedContract",
    "ShardHealth",
    "ShardServer",
    "ShardRouter",
    "TransientShardError",
    "jump_hash",
    "stable_key",
]
