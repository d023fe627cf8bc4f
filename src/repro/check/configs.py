"""The configuration lattice the differential runner sweeps.

Every case runs through each :class:`StackConfig`; exact configurations
must reproduce the oracle's answer bit-for-bit, budgeted ones must
respect the degradation invariant ``permitted ⊆ exact ⊆ permitted ∪
maybe`` (docs/DEVELOPMENT.md invariant 8).

The lattice covers the decider crossed with both index optimizations
(4 exact configurations, each a *pinned* query plan — any single-layer
bug breaks at least one cell while the others pin the blame), one
*planner* configuration that leaves the pipeline to the cost-based
query planner like every other cell does (plans change *time*, never
*answers* — docs/DEVELOPMENT.md invariant 14 — so this cell is
exact), plus four
*mode* configurations that exercise the serving machinery around the
decider: a cache-warm repeat
(compilation-cache reuse), a step-budgeted run under the MAYBE
degradation policy, a save→load round trip (snapshot persistence must
answer like the database that produced it), and a journal replay
(snapshot + write-ahead-journal tail recovery must answer like the
database whose mutations it replays).

Two *monitor* cells check the streaming side: every contract is run
over a deterministic generated event trace through the encoded
:class:`~repro.stream.engine.FleetMonitor`, and its per-prefix verdict
transcript (status, watch-query satisfiability, violation index,
unknown-event count) must match, character for character, the one
:func:`~repro.check.oracle.oracle_monitor` derives from the batch
decider on the history spelled out as a formula — invariant 13, stream
≡ batch.  ``monitor-unknown`` salts the trace with events outside
every vocabulary to pin the unknown-event accounting.

Four *distributed* cells close the lattice at 15: ``sharded`` registers
every contract through a 3-shard coordinator
(:mod:`repro.dist`) and the merged fan-out answer must match the
single-node oracle bit-for-bit, and ``replicated`` ships the leader's
write-ahead journal to a read replica across a mid-stream compaction
(epoch bump → snapshot re-sync) and both the leader's and the
caught-up replica's answers must match the oracle — invariant 15:
distribution changes placement, never answers.  ``flaky-network``
re-runs the sharded path with transient faults armed on the
coordinator's ``dist.send``/``dist.recv`` seams — the RPC retry
machinery must absorb every injected failure and still match the
oracle bit-for-bit — and ``failover`` kills the leader of a journaled
cluster, promotes its caught-up replica, fails the coordinator's
address over, and the re-answered query must still match the oracle —
invariant 16: a retried or failed-over query returns the same answer a
never-failed cluster would, or a sound degradation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..broker.planner import QueryPlan
from ..errors import ReproError

#: Step budget of the degraded configuration: small enough to trip on
#: the occasional hard case, large enough that most checks complete and
#: the exact-subset comparison still bites.
BUDGET_CONFIG_STEPS = 64


@dataclass(frozen=True)
class StackConfig:
    """One point of the lattice.

    ``plan`` pins the query pipeline (``None`` = the database's planner
    chooses per query, and the answer must still match the oracle
    bit-for-bit); ``mode`` selects how the query is executed:

    * ``"direct"`` — one plain ``db.query`` call;
    * ``"cache_warm"`` — the same query twice on one database; both the
      cold and the warm answer are checked;
    * ``"budget"`` — a deterministic step budget with ``MAYBE``
      degradation (the only non-exact configuration);
    * ``"roundtrip"`` — save the database to a snapshot, load it back,
      query the loaded copy;
    * ``"journal"`` — register half the contracts, snapshot, register
      the rest (which land only in the write-ahead journal), reopen the
      directory so the tail is replayed, query the recovered copy;
    * ``"monitor"`` — stream a deterministic generated event trace
      through the encoded fleet monitor; the expected answer is the
      monitor oracle's per-prefix verdict transcript on the same trace
      (the case query doubles as the watch query);
    * ``"monitor_unknown"`` — the same, with out-of-vocabulary events
      salted into the trace (exercises unknown-event accounting);
    * ``"sharded"`` — register through a 3-shard
      :class:`~repro.dist.cluster.LocalCluster` coordinator and query
      through the fan-out/merge path;
    * ``"replicated"`` — register against a journaled leader with a
      mid-stream snapshot+compaction, catch a journal-shipping replica
      up across the epoch bump, and check the leader's and the
      replica's answers;
    * ``"flaky_network"`` — the sharded path with transient faults
      armed on the coordinator's transport seams; retries must absorb
      them and the answer must still be exact;
    * ``"failover"`` — a journaled 2-shard cluster whose leader is
      killed mid-run: the caught-up replica is promoted (epoch bump)
      and the coordinator fails over to it; the re-answered query must
      still be exact.
    """

    name: str
    plan: QueryPlan | None = None
    mode: str = "direct"

    @property
    def exact(self) -> bool:
        """Whether this configuration must match the oracle exactly."""
        return self.mode != "budget"

def _base_lattice() -> list[StackConfig]:
    out = []
    for use_prefilter in (False, True):
        for use_projections in (False, True):
            name = "ndfs"
            name += "+pf" if use_prefilter else ""
            name += "+proj" if use_projections else ""
            out.append(
                StackConfig(
                    name=name, plan=QueryPlan(use_prefilter, use_projections)
                )
            )
    return out


def config_lattice() -> tuple[StackConfig, ...]:
    """The full default lattice (15 configurations)."""
    return tuple(
        _base_lattice()
        + [
            # the cost-based planner picks the pipeline per query; its
            # choices may differ from every pinned cell above, but the
            # answer may not (invariant 14: plans change time, never
            # answers)
            StackConfig(name="ndfs-planner"),
            StackConfig(name="cache-warm", mode="cache_warm"),
            StackConfig(name="budget-maybe", mode="budget"),
            # the loaded copy answers from the persisted encoded.json
            # artifact, which this cell continuously proves equal to the
            # database that wrote it
            StackConfig(name="save-load", mode="roundtrip"),
            StackConfig(name="journal-replay", mode="journal"),
            # the encoded streaming monitor vs the monitor oracle on a
            # deterministic generated trace (invariant 13)
            StackConfig(name="monitor-stream", mode="monitor"),
            StackConfig(name="monitor-unknown", mode="monitor_unknown"),
            # the distributed deployment vs the single node (invariant
            # 15: distribution changes placement, never answers)
            StackConfig(name="sharded", mode="sharded"),
            StackConfig(name="replicated", mode="replicated"),
            # the distributed deployment *while failing* vs the single
            # node (invariant 16: a retried or failed-over query
            # returns the never-failed answer, or a sound degradation
            # — these exact cells pin the never-failed half)
            StackConfig(name="flaky-network", mode="flaky_network"),
            StackConfig(name="failover", mode="failover"),
        ]
    )


def configs_by_name(names: list[str] | None = None) -> tuple[StackConfig, ...]:
    """Resolve configuration names (``None`` = the whole lattice)."""
    lattice = config_lattice()
    if names is None:
        return lattice
    by_name = {config.name: config for config in lattice}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise ReproError(
            f"unknown configuration(s) {unknown}; available: "
            f"{sorted(by_name)}"
        )
    return tuple(by_name[name] for name in names)
