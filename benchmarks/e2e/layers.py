"""The one table of layer entry points and per-layer metrics.

``LAYERS`` names every public function or method the traced run wraps
(layer = module name, as in ``src/repro``).  ``PER_LAYER`` derives the
per-layer metrics listed in ``BENCHMARK.json`` from the spans those
wrappers record plus a few *facts* the workloads read from the
program's public surface (``cache_stats()``, ``QueryStats``,
``LoadReport``, file sizes) or time from outside where no span can
(``Workload.facts`` and ``Workload.trace_extras``, already per pass).

Conventions: ``_s`` is seconds of **self** time per pass (a pass is one
fixed set of operations of the workload — every query once, one bulk
round, one replay of the log), ``_n`` a count per pass, a ratio is
dimensionless.  The few ``_s`` metrics that are inclusive say so.  A
metric reads 0 on a workload that never enters the layer, and -1
("absent") when the entry point it needs no longer exists.
"""

from __future__ import annotations

import statistics
from typing import Callable, NamedTuple

from tracing import Aggregate, Layer

ABSENT = -1.0


try:
    from repro.core.permission import PermissionStats
except ImportError:  # the table must load whatever ``src/`` looks like
    PermissionStats = None


def _permission_before(args, kwargs):
    """Hand the check a ``PermissionStats`` to fill.  Runs 2 500 times a
    pass around a 25 us call: no import, no copy."""
    if PermissionStats is not None and kwargs.get("stats") is None:
        kwargs["stats"] = PermissionStats()
    return kwargs


def _permission_value(permitted, args, kwargs):
    stats = kwargs.get("stats")
    return (stats.search_steps if stats else 0, bool(permitted))


LAYERS: list[Layer] = [
    Layer("ltl.parse", "repro.ltl.parser:parse"),
    Layer("automata.ltl2ba.translate", "repro.automata.ltl2ba:translate",
          value=lambda ba, a, k: ba.num_states),
    Layer("automata.encode.encode", "repro.automata.encode:encode_automaton"),
    Layer("automata.encode.bind_query", "repro.automata.encode:bind_query"),
    Layer("broker.cache.compile",
          "repro.broker.cache:QueryCompilationCache.compile"),
    Layer("broker.planner.plan", "repro.broker.planner:QueryPlanner.plan"),
    Layer("index.condition", "repro.index.pruning:pruning_condition"),
    Layer("index.evaluate", "repro.index.prefilter:PrefilterIndex.evaluate"),
    Layer("index.insert", "repro.index.prefilter:PrefilterIndex.add_contract"),
    Layer("index.remove",
          "repro.index.prefilter:PrefilterIndex.remove_contract"),
    Layer("projection.build",
          "repro.projection.store:ProjectionStore.__init__"),
    Layer("projection.select",
          "repro.projection.store:ProjectionStore.select_artifacts",
          # quotient states / full states of the automaton handed on
          value=lambda r, a, k: (
              r[0].num_states / max(a[0].ba.num_states, 1))),
    Layer("projection.project", "repro.projection.project:project"),
    Layer("projection.quotient", "repro.automata.bisim:quotient"),
    Layer("core.seeds.compute", "repro.core.seeds:compute_seeds"),
    Layer("core.permission.check", "repro.core.permission:permits_encoded",
          before=_permission_before, value=_permission_value),
    Layer("broker.database.query",
          "repro.broker.database:ContractDatabase.query"),
    Layer("broker.database.query_many",
          "repro.broker.database:ContractDatabase.query_many"),
    Layer("broker.database.register",
          "repro.broker.database:ContractDatabase.register"),
    Layer("broker.database.deregister",
          "repro.broker.database:ContractDatabase.deregister"),
    Layer("broker.journal.open", "repro.broker.journal:open_database"),
    Layer("broker.journal.append", "repro.broker.journal:Journal.append"),
    Layer("broker.journal.compact", "repro.broker.journal:Journal.compact"),
    Layer("broker.persist.save", "repro.broker.persist:save_database"),
    Layer("broker.persist.load", "repro.broker.persist:load_database"),
    Layer("stream.build",
          "repro.broker.database:ContractDatabase.monitor_fleet"),
    Layer("stream.watch_register",
          "repro.stream.engine:FleetMonitor.register_watch"),
    Layer("stream.ingest", "repro.stream.engine:FleetMonitor.ingest"),
    Layer("dist.partition.route",
          "repro.dist.partition:ShardRouter.shard_for"),
    Layer("dist.protocol.encode", "repro.dist.protocol:encode_frame",
          value=lambda frame, a, k: len(frame)),
    Layer("dist.protocol.decode", "repro.dist.protocol:decode_payload"),
    Layer("dist.protocol.write", "repro.dist.protocol:write_frame",
          is_async=True),
    Layer("dist.protocol.read", "repro.dist.protocol:read_frame",
          is_async=True),
    Layer("dist.server.handle",
          "repro.dist.server:ShardServer.handle_request"),
]

#: span name -> layer, for the share table
LAYER_OF = {layer.span: layer.layer for layer in LAYERS}
#: spans that are waiting windows, not work (see tracing.py)
WINDOWS = frozenset(layer.span for layer in LAYERS if layer.is_async)

_DATABASE_SPANS = (
    "broker.database.query", "broker.database.query_many",
    "broker.database.register", "broker.database.deregister",
)
_MATERIALIZE = {"projection.project", "projection.quotient",
                "core.seeds.compute", "automata.encode.encode"}


class Context(NamedTuple):
    """What a per-layer metric is computed from."""

    measured: Aggregate   # spans of the traced measured phase
    setup: Aggregate      # spans of the traced set-up
    passes: int
    facts: dict


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    compute: Callable[[Context], float | None]


def _per_pass(value, ctx: Context):
    return None if value is None else value / max(ctx.passes, 1)


def _self(span: str):
    return lambda c: _per_pass(c.measured.self_s(span), c)


def _count(span: str):
    return lambda c: _per_pass(c.measured.count(span), c)


def _fact(key: str, default=0.0):
    return lambda c: c.facts.get(key, default)


def _sum_self(spans):
    def compute(c: Context):
        parts = [c.measured.self_s(s) for s in spans]
        return None if None in parts else _per_pass(sum(parts), c)
    return compute


def _mean_value(span: str, pick=lambda v: v):
    def compute(c: Context):
        if span in c.measured.missing:
            return None
        values = [pick(v) for v in c.measured.values.get(span, ())]
        return statistics.fmean(values) if values else 0.0
    return compute


def _materialize_s(c: Context):
    if "projection.select" in c.measured.missing:
        return None
    spans = c.measured.under(_MATERIALIZE, "projection.select")
    return _per_pass(sum(s.end - s.start for s in spans), c)


def _materialized_n(c: Context):
    if "projection.quotient" in c.measured.missing:
        return None
    return _per_pass(
        len(c.measured.under({"projection.quotient"}, "projection.select")), c
    )


def _check_p95_ms(c: Context):
    durations = sorted(c.measured.durations("core.permission.check"))
    if not durations:
        return None if "core.permission.check" in c.measured.missing else 0.0
    return durations[min(len(durations) - 1, int(len(durations) * 0.95))] * 1e3


def _stats_drift(c: Context):
    """(outside-clock stage seconds - the program's own QueryStats stage
    seconds) / operation wall, over the traced in-process queries."""
    wall = c.facts.get("stats_wall_s", 0.0)
    if not wall:
        return 0.0
    parts = [c.measured.inclusive_s(s) for s in (
        "ltl.parse", "broker.cache.compile", "index.condition",
        "index.evaluate", "projection.select", "core.permission.check",
    )]
    if None in parts:
        return None
    return (sum(parts) - c.facts.get("stats_stage_s", 0.0)) / wall


def _replay_s(c: Context):
    opened = c.setup.inclusive_s("broker.journal.open")
    loaded = c.setup.inclusive_s("broker.persist.load")
    if opened is None or loaded is None:
        return None
    return (opened - loaded) / max(c.setup.count("broker.journal.open"), 1)


def _load_s(c: Context):
    loaded = c.setup.inclusive_s("broker.persist.load")
    if loaded is None:
        return None
    return loaded / max(c.setup.count("broker.persist.load"), 1)


def _rpc_union(c: Context):
    """Seconds per pass the coordinator had at least one RPC in flight."""
    return _per_pass(
        c.measured.union_s("dist.protocol.write", "dist.protocol.read"), c)


def _handle_union(c: Context):
    return _per_pass(c.measured.union_s("dist.server.handle"), c)


def _transport_s(c: Context):
    parts = [_rpc_union(c), _handle_union(c),
             _self("dist.protocol.encode")(c),
             _self("dist.protocol.decode")(c)]
    if None in parts:
        return None
    rpc, handle, encode, decode = parts
    return rpc - handle - encode - decode if rpc else 0.0


def _coordinator_self_s(c: Context):
    rpc = _rpc_union(c)
    if rpc is None:
        return None
    if not rpc:
        return 0.0
    return _per_pass(_roots_wall(c), c) - rpc


def _bytes_per_query(c: Context):
    if "dist.protocol.encode" in c.measured.missing:
        return None
    ops = len(c.measured.roots())
    total = sum(c.measured.values.get("dist.protocol.encode", ()))
    return total / ops if ops else 0.0


def _setup_self(span: str):
    return lambda c: c.setup.self_s(span)


def _roots_wall(c: Context) -> float:
    return sum(s.end - s.start for s in c.measured.roots())


def _unaccounted(c: Context):
    wall = _roots_wall(c)
    if not wall:
        return 0.0
    return sum(
        c.measured.self_seconds[s.id] for s in c.measured.roots()
    ) / wall


def _overlap(c: Context):
    """Seconds sibling spans ran side by side, over the wall: 0 on one
    thread; between shard threads, time spent waiting for the GIL."""
    wall = _roots_wall(c)
    if not wall:
        return 0.0
    return sum(c.measured.self_seconds.values()) / wall - 1.0


PER_LAYER: list[Metric] = [
    Metric("ltl.parse_s", "s", "lower", _self("ltl.parse")),
    Metric("ltl.parse_n", "count", "lower", _count("ltl.parse")),
    Metric("automata.ltl2ba.translate_s", "s", "lower",
           _self("automata.ltl2ba.translate")),
    Metric("automata.ltl2ba.translate_n", "count", "lower",
           _count("automata.ltl2ba.translate")),
    Metric("automata.ltl2ba.states_avg", "count", "lower",
           _mean_value("automata.ltl2ba.translate")),
    Metric("automata.encode.encode_s", "s", "lower",
           _self("automata.encode.encode")),
    Metric("automata.encode.bind_query_s", "s", "lower",
           _self("automata.encode.bind_query")),
    Metric("broker.cache.hit_rate", "ratio", "higher",
           _fact("cache_hit_rate")),
    Metric("broker.cache.evictions_n", "count", "lower",
           _fact("cache_evictions")),
    Metric("broker.cache.compile_s", "s", "lower",
           _self("broker.cache.compile")),
    Metric("broker.planner.plan_s", "s", "lower",
           _self("broker.planner.plan")),
    Metric("broker.planner.cache_hit_rate", "ratio", "higher",
           _fact("plan_cache_hit_rate")),
    Metric("broker.relational.filter_s", "s", "lower",
           _fact("relational_filter_s")),
    Metric("broker.relational.match_ratio", "ratio", "lower",
           _fact("relational_match_ratio")),
    Metric("index.condition_s", "s", "lower", _self("index.condition")),
    Metric("index.evaluate_s", "s", "lower", _self("index.evaluate")),
    Metric("index.pruning_ratio", "ratio", "higher",
           _fact("index_pruning_ratio")),
    Metric("index.insert_s", "s", "lower", _self("index.insert")),
    Metric("index.remove_s", "s", "lower", _self("index.remove")),
    Metric("index.nodes_n", "count", "lower", _fact("index_nodes")),
    # inclusive: the per-subset ``project`` calls are the build
    Metric("projection.build_s", "s", "lower",
           lambda c: _per_pass(c.measured.inclusive_s("projection.build"), c)),
    Metric("projection.select_s", "s", "lower", _self("projection.select")),
    # inclusive: project + quotient + seeds + encoding of a first use
    Metric("projection.materialize_s", "s", "lower", _materialize_s),
    Metric("projection.materialized_n", "count", "lower", _materialized_n),
    Metric("projection.state_ratio", "ratio", "lower",
           _mean_value("projection.select")),
    Metric("core.seeds.compute_s", "s", "lower", _self("core.seeds.compute")),
    Metric("core.permission.check_s", "s", "lower",
           _self("core.permission.check")),
    Metric("core.permission.check_n", "count", "lower",
           _count("core.permission.check")),
    Metric("core.permission.steps_n", "count", "lower",
           lambda c: None if "core.permission.check" in c.measured.missing
           else _per_pass(sum(
               v[0] for v in c.measured.values.get("core.permission.check", ())
           ), c)),
    Metric("core.permission.permitted_ratio", "ratio", "higher",
           _mean_value("core.permission.check", lambda v: float(v[1]))),
    Metric("core.permission.check_p95_ms", "ms", "lower", _check_p95_ms),
    Metric("broker.database.self_s", "s", "lower",
           _sum_self(_DATABASE_SPANS)),
    Metric("broker.database.stats_drift", "ratio", "lower", _stats_drift),
    Metric("broker.parallel.batch_ratio", "ratio", "higher",
           _fact("batch_ratio")),
    Metric("broker.journal.append_s", "s", "lower",
           _self("broker.journal.append")),
    Metric("broker.journal.append_n", "count", "lower",
           _count("broker.journal.append")),
    Metric("broker.journal.bytes_per_record", "B", "lower",
           _fact("journal_bytes_per_record")),
    Metric("broker.journal.replay_s", "s", "lower", _replay_s),
    Metric("broker.journal.replayed_n", "count", "lower",
           _fact("journal_replayed")),
    Metric("broker.journal.compact_s", "s", "lower",
           _self("broker.journal.compact")),
    Metric("broker.persist.save_s", "s", "lower",
           _self("broker.persist.save")),
    # inclusive: one whole load_database call, averaged over the set-ups
    Metric("broker.persist.load_s", "s", "lower", _load_s),
    Metric("broker.persist.bytes_per_contract", "B", "lower",
           _fact("stored_bytes_per_contract")),
    Metric("broker.persist.restored_ratio", "ratio", "higher",
           _fact("restored_ratio")),
    Metric("stream.parse_s", "s", "lower", _fact("stream_parse_s")),
    Metric("stream.build_s", "s", "lower", _setup_self("stream.build")),
    Metric("stream.watch_register_s", "s", "lower",
           _setup_self("stream.watch_register")),
    Metric("stream.advance_s", "s", "lower",
           _fact("stream_advance_s")),
    Metric("stream.advance_n", "count", "lower",
           _fact("stream_advance_n")),
    Metric("stream.watch_s", "s", "lower", _fact("stream_watch_s")),
    Metric("stream.alerts_n", "count", "lower", _fact("stream_alerts")),
    Metric("stream.unknown_n", "count", "lower", _fact("stream_unknown")),
    Metric("stream.active_ratio", "ratio", "higher",
           _fact("stream_active_ratio")),
    Metric("dist.partition.route_s", "s", "lower",
           _setup_self("dist.partition.route")),
    Metric("dist.partition.skew", "ratio", "lower", _fact("shard_skew")),
    Metric("dist.protocol.encode_s", "s", "lower",
           _self("dist.protocol.encode")),
    Metric("dist.protocol.decode_s", "s", "lower",
           _self("dist.protocol.decode")),
    Metric("dist.protocol.bytes_per_query", "B", "lower", _bytes_per_query),
    # seconds at least one shard was inside handle_request
    Metric("dist.server.handle_s", "s", "lower", _handle_union),
    Metric("dist.server.rpc_s", "s", "lower", _rpc_union),
    Metric("dist.server.transport_s", "s", "lower", _transport_s),
    Metric("dist.coordinator.self_s", "s", "lower", _coordinator_self_s),
    Metric("dist.coordinator.retries_n", "count", "lower",
           _fact("dist_retries")),
    Metric("dist.coordinator.breaker_trips_n", "count", "lower",
           _fact("dist_breaker_trips")),
    Metric("dist.coordinator.overhead_ratio", "ratio", "lower",
           _fact("dist_overhead_ratio")),
    Metric("trace.op_wall_s", "s", "lower",
           lambda c: _per_pass(_roots_wall(c), c)),
    Metric("trace.unaccounted_ratio", "ratio", "lower", _unaccounted),
    Metric("trace.overlap_ratio", "ratio", "lower", _overlap),
    Metric("trace.overhead_ratio", "ratio", "lower",
           _fact("trace_overhead_ratio")),
]


def per_layer_values(ctx: Context) -> dict[str, float]:
    """Every per-layer metric as a number (``ABSENT`` where its entry
    point is gone)."""
    out = {}
    for metric in PER_LAYER:
        value = metric.compute(ctx)
        out[metric.name] = ABSENT if value is None else float(value)
    return out
