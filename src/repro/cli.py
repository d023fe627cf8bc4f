"""Command-line interface to the contract broker.

Mirrors the paper's prototype architecture (§7.1) of four independent
modules exchanging text files:

* ``contract-broker generate``  — the data generator (§7.2): writes a
  JSON file of contract (or query) specifications;
* ``contract-broker stats``     — dataset statistics (Table 2 rows);
* ``contract-broker translate`` — LTL → Büchi automaton, printed or
  saved as JSON (the registration step's conversion);
* ``contract-broker save``      — register a spec file (or reload an
  existing database directory) and persist the database directory:
  contracts + derived artifacts; ``build`` is an alias;
* ``contract-broker load``      — load a snapshot and report what was
  restored versus rebuilt (the crash-recovery / cold-start check);
* ``contract-broker query``     — the runtime module: loads a spec file
  or a built database and evaluates one or more queries (``--query``
  LTL text or ``--spec`` declarative JSON/YAML query-spec files),
  reporting per-phase statistics;
* ``contract-broker explain``   — the cost-based planner's chosen plan
  for one query: per-stage cost estimates, and (unless ``--no-run``)
  the actual stage counts observed when the query runs;
* ``contract-broker monitor``   — the streaming module: replays a JSONL
  event log (or stdin) through the encoded fleet monitor, printing an
  alert whenever a contract is violated or a watch query stops being
  satisfiable;
* ``contract-broker compare``   — behavioral diff of two contracts,
  with witness sequences;
* ``contract-broker metrics``   — run a query workload (optionally
  repeated) and print the broker's aggregate metrics:
  compilation-cache hit rate, per-stage latency histograms, pruning
  distributions;
* ``contract-broker serve``     — the distributed deployment: N shard
  servers on loopback sockets (threads or processes), optionally
  seeded from a spec file, with the address list written to a port
  file other commands and clients can pick up;
* ``contract-broker shard-status`` — interrogate running shard servers
  over the wire protocol: contracts held, journal epoch/size, op
  counters; a dead shard is reported ``down`` (exit 0 — a finding,
  not a CLI failure), and ``--health`` prints the compact up/down
  summary;
* ``contract-broker promote``   — turn a caught-up journal-shipping
  replica of a dead leader into a fresh writable leader directory
  (epoch bump) a shard server can serve;
* ``contract-broker demo``      — the airfare running example end to end.

Spec-file format: a JSON list of ``{"name": ..., "clauses": [LTL, ...],
"attributes": {...}}`` objects.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import IO, Iterator

from .automata.ltl2ba import translate
from .automata.serialize import automaton_to_dict
from .broker.cache import DEFAULT_CACHE_CAPACITY
from .broker.contract import ContractSpec
from .broker.database import BrokerConfig, ContractDatabase
from .broker.options import QueryOptions
from .broker.planner import SCAN_PLAN
from .errors import ReproError
from .ltl.parser import parse
from .workload.generator import WorkloadGenerator, pathological_specs


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contract-broker",
        description="Query contract databases by temporal behavior "
        "(SIGMOD 2011 reproduction).",
    )
    sub = parser.add_subparsers(required=True)

    gen = sub.add_parser("generate", help="generate a synthetic spec file")
    gen.add_argument("--count", type=int, default=100)
    gen.add_argument("--patterns", type=int, default=3,
                     help="clauses per specification")
    gen.add_argument("--vocabulary", type=int, default=12)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--profile", choices=["patterns", "pathological"],
                     default="patterns",
                     help="'patterns' is the §7.2 survey-driven workload; "
                          "'pathological' is the adversarial "
                          "eventuality-conjunction workload for "
                          "budget/timeout testing")
    gen.add_argument("--out", type=Path, required=True)
    gen.set_defaults(handler=_cmd_generate)

    stats = sub.add_parser("stats", help="Table-2 statistics of a spec file")
    stats.add_argument("specs", type=Path)
    stats.set_defaults(handler=_cmd_stats)

    trans = sub.add_parser("translate", help="LTL to Büchi automaton")
    trans.add_argument("formula", help="LTL formula text")
    trans.add_argument("--json", action="store_true",
                       help="emit the automaton as JSON")
    trans.add_argument("--dot", action="store_true",
                       help="emit the automaton in Graphviz DOT")
    trans.set_defaults(handler=_cmd_translate)

    save = sub.add_parser(
        "save",
        aliases=["build"],
        help="build (or reload) a database and write a v2 snapshot "
             "with all derived artifacts",
    )
    save.add_argument("specs", type=Path,
                      help="spec file or existing database directory")
    save.add_argument("--out", type=Path, required=True,
                      help="snapshot directory to write")
    save.add_argument("--index-depth", type=int, default=2)
    save.add_argument("--projection-cap", type=int, default=2)
    save.set_defaults(handler=_cmd_save)

    load = sub.add_parser(
        "load",
        help="load a snapshot directory and print the restore report "
             "(what was restored vs rebuilt)",
    )
    load.add_argument("directory", type=Path)
    load.add_argument("--stats", action="store_true",
                      help="also print database statistics")
    load.set_defaults(handler=_cmd_load)

    query = sub.add_parser(
        "query",
        help="evaluate queries over a spec file or a built database "
             "directory",
    )
    query.add_argument("specs", type=Path)
    query.add_argument("--query", action="append", default=[],
                       dest="queries", help="LTL query (repeatable)")
    query.add_argument("--spec", action="append", default=[], type=Path,
                       dest="spec_files",
                       help="declarative query-spec file, JSON or YAML "
                            "(repeatable); carries its own filter and "
                            "options")
    query.add_argument("--scan", action="store_true",
                       help="pin the scan baseline for --query texts "
                            "(no index, no projections) instead of the "
                            "planner's plan")
    query.add_argument("--index-depth", type=int, default=2)
    query.add_argument("--projection-cap", type=int, default=2)
    _add_budget_flags(query)
    query.set_defaults(handler=_cmd_query)

    explain = sub.add_parser(
        "explain",
        help="show the cost-based plan for one query — per-stage cost "
             "estimates plus the stage counts actually observed",
    )
    explain.add_argument("specs", type=Path,
                         help="spec file or built database directory")
    explain.add_argument("--query", default=None, help="LTL query text")
    explain.add_argument("--spec", type=Path, default=None,
                         dest="spec_file",
                         help="declarative query-spec file (JSON/YAML)")
    explain.add_argument("--no-run", action="store_true",
                         help="plan only; skip executing the query")
    explain.add_argument("--json", action="store_true",
                         help="emit the plan (and actuals) as JSON")
    explain.set_defaults(handler=_cmd_explain)

    mon = sub.add_parser(
        "monitor",
        help="replay a JSONL event log (or stream stdin) through the "
             "fleet monitor and print alerts",
    )
    mon.add_argument("specs", type=Path,
                     help="spec file or built database directory")
    mon.add_argument("--events", type=Path, default=None,
                     help="JSONL event log, one "
                          '{"events": [...], "contract": name-or-null} '
                          "record per line ('-' or omitted = stdin)")
    mon.add_argument("--watch", action="append", default=[],
                     dest="watches",
                     help="fleet-wide watch query, 'name=LTL' or bare "
                          "LTL (repeatable)")
    mon.add_argument("--strict-vocabulary", action="store_true",
                     help="reject snapshots citing events outside a "
                          "contract's vocabulary instead of counting "
                          "them")
    mon.add_argument("--json", action="store_true",
                     help="emit alerts and the final summary as JSON")
    mon.set_defaults(handler=_cmd_monitor)

    met = sub.add_parser(
        "metrics",
        help="run a query workload and print aggregate broker metrics",
    )
    met.add_argument("specs", type=Path,
                     help="spec file or built database directory")
    met.add_argument("--query", action="append", required=True,
                     dest="queries", help="LTL query (repeatable)")
    met.add_argument("--repeat", type=int, default=1,
                     help="run the workload this many times "
                          "(repeats hit the compilation cache)")
    met.add_argument("--scan", action="store_true",
                     help="pin the scan baseline (no index, no "
                          "projections) instead of the planner's plan")
    met.add_argument("--index-depth", type=int, default=2)
    met.add_argument("--projection-cap", type=int, default=2)
    met.add_argument("--cache-capacity", type=int, default=None,
                     help="compilation-cache capacity (0 disables)")
    met.add_argument("--json", action="store_true",
                     help="emit the metrics snapshot as JSON")
    _add_budget_flags(met)
    met.set_defaults(handler=_cmd_metrics)

    comp = sub.add_parser(
        "compare",
        help="compare two contracts' temporal behavior by name",
    )
    comp.add_argument("specs", type=Path,
                      help="spec file or built database directory")
    comp.add_argument("left", help="name of the first contract")
    comp.add_argument("right", help="name of the second contract")
    comp.add_argument("--limit", type=int, default=64,
                      help="behavior-enumeration bound")
    comp.set_defaults(handler=_cmd_compare)

    serve = sub.add_parser(
        "serve",
        help="run a sharded broker cluster on loopback sockets "
             "(journal-backed when --directory is given)",
    )
    serve.add_argument("--shards", type=int, default=3,
                       help="number of shard servers")
    serve.add_argument("--directory", type=Path, default=None,
                       help="root directory; each shard journals under "
                            "shard-N/ (omit for memory-only shards)")
    serve.add_argument("--specs", type=Path, default=None,
                       help="spec file to register across the shards at "
                            "startup")
    serve.add_argument("--mode", choices=["thread", "process"],
                       default="thread",
                       help="shard isolation: in-process threads or "
                            "spawned processes")
    serve.add_argument("--port-file", type=Path, default=None,
                       help="write the shard address list here as JSON "
                            "(what shard-status --port-file reads)")
    serve.add_argument("--duration", type=float, default=None,
                       help="serve for this many seconds then exit "
                            "(default: until interrupted)")
    serve.set_defaults(handler=_cmd_serve)

    shst = sub.add_parser(
        "shard-status",
        help="query running shard servers for contracts held, journal "
             "epoch, and op counters",
    )
    shst.add_argument("--address", action="append", default=[],
                      dest="addresses", metavar="HOST:PORT",
                      help="shard address (repeatable)")
    shst.add_argument("--port-file", type=Path, default=None,
                      help="JSON address list written by serve")
    shst.add_argument("--json", action="store_true",
                      help="emit the per-shard status documents as JSON")
    shst.add_argument("--health", action="store_true",
                      help="print only an up/down health summary per "
                           "shard (no contract listings)")
    shst.set_defaults(handler=_cmd_shard_status)

    promote = sub.add_parser(
        "promote",
        help="promote a journal-shipping replica of a dead leader: "
             "catch up to the shipped journal tail, bump the epoch, "
             "write a fresh leader directory a shard server can serve",
    )
    promote.add_argument("leader", type=Path,
                         help="the dead leader's journaled directory "
                              "(the replication source)")
    promote.add_argument("directory", type=Path,
                         help="fresh directory for the promoted leader")
    promote.add_argument("--timeout", type=float, default=30.0,
                         help="catch-up timeout in seconds")
    promote.add_argument("--json", action="store_true",
                         help="emit the promotion report as JSON")
    promote.set_defaults(handler=_cmd_promote)

    demo = sub.add_parser("demo", help="run the airfare running example")
    demo.set_defaults(handler=_cmd_demo)

    check = sub.add_parser(
        "check",
        help="differential conformance run: random cases through the "
             "whole stack lattice, cross-checked against a brute-force "
             "oracle",
    )
    check.add_argument("--seed", type=int, default=0,
                       help="base seed; each case is reproducible from "
                            "(seed, case index)")
    check.add_argument("--cases", type=int, default=200,
                       help="number of random cases to generate")
    check.add_argument("--profile", choices=["tiny", "small", "wide"],
                       default="small",
                       help="case-shape profile (alphabet size, contract "
                            "count, formula depth)")
    check.add_argument("--configs", default=None,
                       help="comma-separated configuration names to run "
                            "(default: the full lattice)")
    check.add_argument("--artifacts", type=Path,
                       default=Path("conformance-artifacts"),
                       help="directory for failure-repro artifacts")
    check.add_argument("--no-shrink", action="store_true",
                       help="report failures without minimizing them")
    check.add_argument("--json", action="store_true",
                       help="emit the report (and metrics) as JSON")
    check.add_argument("--replay", type=Path, default=None,
                       help="replay one failure artifact instead of "
                            "generating cases")
    check.set_defaults(handler=_cmd_check)

    chaos = sub.add_parser(
        "chaos",
        help="fault-injection drills: simulated crashes mid-snapshot, "
             "journal truncation at byte boundaries, poison-pill "
             "quarantine — each verified to recover as documented",
    )
    chaos.add_argument("--mutations", type=int, default=None,
                       help="journal mutations the truncation drill "
                            "sweeps (default 12)")
    chaos.add_argument("--stride", type=int, default=1,
                       help="byte stride of the truncation sweep "
                            "(1 = every byte boundary)")
    chaos.add_argument("--drills", default=None,
                       help="comma-separated drill names to run "
                            "(default: all; see repro.check.chaos.DRILLS)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the drill report as JSON")
    chaos.set_defaults(handler=_cmd_chaos)

    return parser


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--deadline-ms", type=float, default=None,
                     help="wall-clock budget per query in milliseconds; "
                          "checks cut short degrade to 'maybe' answers")
    sub.add_argument("--step-budget", type=int, default=None,
                     help="per-candidate cap on permission-search steps")


def _query_options(args: argparse.Namespace) -> QueryOptions:
    """The ``query``/``metrics`` flags as options: the execution budget
    and, under ``--scan``, the pinned scan baseline."""
    return QueryOptions(
        plan=SCAN_PLAN if args.scan else None,
        deadline_seconds=(
            args.deadline_ms / 1000.0
            if args.deadline_ms is not None else None
        ),
        step_budget=args.step_budget,
    )


def _broker_config(args: argparse.Namespace) -> BrokerConfig:
    """The configuration the ``build``/``save``/``query``/``metrics``
    flags describe (a subcommand without a flag gets its default)."""
    capacity = getattr(args, "cache_capacity", None)
    return BrokerConfig(
        # a scan never reads the stores
        use_projections=not getattr(args, "scan", False),
        prefilter_depth=args.index_depth,
        projection_subset_cap=args.projection_cap,
        query_cache_capacity=(
            DEFAULT_CACHE_CAPACITY if capacity is None else capacity
        ),
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.profile == "pathological":
        specs = pathological_specs(args.count, seed=args.seed)
    else:
        generator = WorkloadGenerator(
            vocabulary_size=args.vocabulary, seed=args.seed
        )
        specs = generator.generate_specs(args.count, args.patterns)
    docs = [
        ContractSpec(f"contract-{i}", spec.clauses).to_doc()
        for i, spec in enumerate(specs)
    ]
    args.out.write_text(json.dumps(docs, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(docs)} specifications to {args.out}")
    return 0


def _load_specs(path: Path) -> list[ContractSpec]:
    try:
        docs = json.loads(path.read_bytes().decode("utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read spec file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ReproError(f"spec file {path} is not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting
        raise ReproError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(docs, list):
        raise ReproError(f"{path}: expected a JSON list of specifications")
    return [ContractSpec.from_doc(doc) for doc in docs]


def _build_db(path: Path, config: BrokerConfig) -> ContractDatabase:
    db = ContractDatabase(config)
    for spec in _load_specs(path):
        db.register(spec)
    return db


def _cmd_stats(args: argparse.Namespace) -> int:
    from .bench.reporting import format_table

    start = time.perf_counter()
    db = _build_db(args.specs, BrokerConfig(use_projections=False))
    elapsed = time.perf_counter() - start
    stats = db.database_stats()
    print(format_table(
        ["metric", "value"],
        [(k, v) for k, v in stats.items()],
        title=f"Dataset statistics for {args.specs} "
              f"(built in {elapsed:.1f}s)",
    ))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from .automata.serialize import to_dot

    ba = translate(parse(args.formula))
    if args.json:
        print(json.dumps(automaton_to_dict(ba), indent=2, sort_keys=True))
    elif args.dot:
        print(to_dot(ba))
    else:
        print(ba)
    return 0


def _load_or_build_db(path: Path, config: BrokerConfig) -> ContractDatabase:
    """A database from a built directory or a JSON spec file, with a
    one-line progress report either way."""
    from .broker.persist import load_database

    start = time.perf_counter()
    if path.is_dir():
        db = load_database(path, config)
        print(f"loaded {len(db)} contracts in "
              f"{time.perf_counter() - start:.1f}s")
    else:
        db = _build_db(path, config)
        print(f"registered {len(db)} contracts in "
              f"{time.perf_counter() - start:.1f}s")
    return db


def _cmd_save(args: argparse.Namespace) -> int:
    from .broker.persist import save_database

    db = _load_or_build_db(args.specs, _broker_config(args))
    start = time.perf_counter()
    directory = save_database(db, args.out)
    print(f"saved {len(db)} contracts (automata, seeds, encodings, "
          f"projections, index) to {directory} in "
          f"{time.perf_counter() - start:.1f}s")
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from .broker.persist import load_database

    db = load_database(args.directory)
    report = db.load_report
    print(f"loaded {report.contracts} contracts in "
          f"{report.load_seconds:.2f}s")
    print(f"  automata    : {report.automata_restored} restored, "
          f"{len(report.retranslated)} retranslated")
    print(f"  seeds       : {report.seeds_restored} restored")
    print(f"  encodings   : {report.encoded_restored} restored")
    print(f"  projections : {report.projections_restored} restored")
    print(f"  index       : "
          f"{'restored' if report.index_restored else 'rebuilt'}")
    for warning in report.warnings:
        print(f"  warning: {warning}")
    if args.stats:
        for key, value in db.database_stats().items():
            print(f"  {key}: {value}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .broker.spec import QuerySpec

    if not args.queries and not args.spec_files:
        raise ReproError("provide at least one --query or --spec")
    db = _load_or_build_db(args.specs, _broker_config(args))
    options = _query_options(args)
    specs = [QuerySpec(query=text, options=options) for text in args.queries]
    specs += [QuerySpec.from_file(path) for path in args.spec_files]
    for spec in specs:
        outcome = db.query(spec)
        s = outcome.stats
        print(f"\nquery: {spec.query}")
        print(f"  matched : {list(outcome.contract_names)}")
        print(f"  plan    : {s.plan_summary}")
        print(f"  pruning : {s.pruning_condition or '(prefilter off)'}")
        print(f"  phases  : translate {s.translation_seconds * 1000:.1f}ms | "
              f"prefilter {s.prefilter_seconds * 1000:.1f}ms | "
              f"permission {s.permission_seconds * 1000:.1f}ms")
        print(f"  checked : {s.checked} of {s.database_size} contracts "
              f"({s.pruning_ratio:.0%} pruned)")
        if outcome.degraded:
            print(f"  DEGRADED: {s.timed_out} timed out, "
                  f"{s.skipped} skipped; "
                  f"maybe: {list(outcome.maybe_names)}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .broker.spec import QuerySpec

    if (args.query is None) == (args.spec_file is None):
        raise ReproError("provide exactly one of --query or --spec")
    db = _load_or_build_db(args.specs, BrokerConfig())
    if args.spec_file is not None:
        qspec = QuerySpec.from_file(args.spec_file)
    else:
        qspec = QuerySpec(query=args.query)
    plan = db.plan_query(qspec)
    outcome = None if args.no_run else db.query(qspec)

    if args.json:
        doc = {
            "query": qspec.query,
            "filter": qspec.filter.to_list(),
            "plan": plan.to_dict(),
        }
        if outcome is not None:
            s = outcome.stats
            doc["actual"] = {
                "database_size": s.database_size,
                "relational_matches": s.relational_matches,
                "candidates": s.candidates,
                "checked": s.checked,
                "permitted": s.permitted,
                "stage_order": s.stage_order,
                "matched": list(outcome.contract_names),
            }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0

    print(f"query : {qspec.query}")
    print(f"filter: {qspec.filter}")
    print(plan.explain())
    if outcome is not None:
        s = outcome.stats
        print("actual:")
        print(f"  relational matches : {s.relational_matches} "
              f"of {s.database_size}")
        print(f"  candidates checked : {s.checked} of {s.candidates}")
        print(f"  permitted          : {s.permitted} "
              f"-> {list(outcome.contract_names)}")
        print(f"  stage order        : {s.stage_order}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from .stream.engine import read_event_log
    from .stream.options import MonitorOptions, MonitorStatus

    db = _load_or_build_db(args.specs, BrokerConfig())
    fleet = db.monitor_fleet(
        MonitorOptions(strict_vocabulary=args.strict_vocabulary)
    )
    for spec_text in args.watches:
        name, _, formula = spec_text.partition("=")
        if not formula:
            name = formula = spec_text
        fleet.register_watch(name.strip(), formula.strip())
    # watches registered on an already-doomed contract alert immediately
    emitted = list(fleet.alerts)
    for alert in emitted:
        print(json.dumps(alert.to_dict()) if args.json
              else alert.describe(), flush=True)

    # bytes in, decoded per line, so a line that is not UTF-8 is named
    if args.events is None or str(args.events) == "-":
        handle = sys.stdin.buffer
    else:
        try:
            handle = args.events.open("rb")
        except OSError as exc:
            raise ReproError(
                f"cannot read event log {args.events}: {exc}"
            ) from exc
    events = deliveries = 0
    try:
        # one record per ingest call, each alert flushed, so alerts
        # stream out as the log unfolds (stdin may be a live pipe)
        for event in read_event_log(_utf8_lines(handle)):
            report = fleet.ingest([event])
            events += 1
            deliveries += report.deliveries
            for alert in report.alerts:
                emitted.append(alert)
                print(json.dumps(alert.to_dict()) if args.json
                      else alert.describe(), flush=True)
    finally:
        if handle is not sys.stdin.buffer:
            handle.close()

    violated = sum(
        1 for name in fleet.contracts
        if fleet.status(name) is MonitorStatus.VIOLATED
    )
    summary = {
        "events": events,
        "deliveries": deliveries,
        "contracts": len(fleet.contracts),
        "active": len(fleet.active_contracts),
        "violated": violated,
        "alerts": len(emitted),
        "unknown_events": fleet.unknown_event_count,
    }
    if args.json:
        print(json.dumps({"summary": summary}, sort_keys=True))
    else:
        print(f"monitored {summary['contracts']} contracts over "
              f"{events} events ({deliveries} deliveries): "
              f"{summary['active']} active, {violated} violated, "
              f"{len(emitted)} alert(s), "
              f"{summary['unknown_events']} unknown event(s)")
    return 0


def _utf8_lines(handle: IO[bytes]) -> Iterator[str]:
    for lineno, line in enumerate(handle, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ReproError(
                f"event log line {lineno} is not valid UTF-8: {exc}"
            ) from None


def _cmd_metrics(args: argparse.Namespace) -> int:
    db = _load_or_build_db(args.specs, _broker_config(args))
    options = _query_options(args)
    start = time.perf_counter()
    degraded = 0
    for _ in range(max(args.repeat, 1)):
        outcomes = db.query_many(args.queries, options)
        degraded += sum(1 for o in outcomes if o.degraded)
    elapsed = time.perf_counter() - start
    served = max(args.repeat, 1) * len(args.queries)
    print(f"served {served} queries "
          f"({len(args.queries)} distinct x {max(args.repeat, 1)} rounds) "
          f"in {elapsed:.2f}s"
          + (f"; {degraded} degraded" if degraded else "")
          + "\n")
    if args.json:
        print(json.dumps(db.metrics_snapshot(), indent=2, sort_keys=True))
    else:
        print(db.metrics_report())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .broker.analytics import compare
    from .broker.persist import load_database

    if args.specs.is_dir():
        db = load_database(args.specs)
    else:
        db = _build_db(args.specs, BrokerConfig(use_projections=False))
    by_name = {c.name: c for c in db.contracts()}
    missing = [n for n in (args.left, args.right) if n not in by_name]
    if missing:
        raise ReproError(
            f"unknown contract(s) {missing}; available: "
            f"{sorted(by_name)}"
        )
    result = compare(by_name[args.left], by_name[args.right],
                     limit=args.limit)
    print(f"{args.left} vs {args.right}: {result.relation.value}")
    if result.left_only is not None:
        print(f"  only {args.left} allows : {result.left_only}")
    if result.right_only is not None:
        print(f"  only {args.right} allows: {result.right_only}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import ConformanceRunner, configs_by_name, replay_artifact

    if args.replay is not None:
        result = replay_artifact(args.replay)
        print(result.summary())
        for disagreement in result.disagreements:
            print(disagreement.describe())
        return 1 if result.reproduced else 0

    config_names = (
        args.configs.split(",") if args.configs is not None else None
    )
    runner = ConformanceRunner(
        seed=args.seed,
        cases=args.cases,
        profile=args.profile,
        configs=configs_by_name(config_names),
        artifact_dir=args.artifacts,
        shrink=not args.no_shrink,
    )
    # The seed line is load-bearing: CI jobs fuzz with varying seeds and
    # this is what a failure report gets reproduced from.
    print(f"conformance check: seed={args.seed} cases={args.cases} "
          f"profile={args.profile} "
          f"configs={len(runner.configs)}")
    report = runner.run()
    if args.json:
        doc = report.to_dict()
        doc["metrics"] = runner.metrics.snapshot()
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(report.summary())
        for disagreement in report.disagreements:
            print()
            print(disagreement.describe())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .check.chaos import DEFAULT_MUTATIONS, run_chaos_drills

    mutations = (
        args.mutations if args.mutations is not None else DEFAULT_MUTATIONS
    )
    drills = None
    if args.drills:
        drills = [name.strip() for name in args.drills.split(",")
                  if name.strip()]
    try:
        report = run_chaos_drills(
            mutations=mutations, stride=args.stride, drills=drills
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for result in report.results:
            print(result.describe())
        print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .dist import LocalCluster

    if args.shards < 1:
        raise ReproError(f"need at least one shard, got {args.shards}")
    cluster = LocalCluster(
        args.shards, directory=args.directory, mode=args.mode
    )
    try:
        for shard, (host, port) in enumerate(cluster.addresses):
            print(f"shard {shard}: {host}:{port}"
                  + (f"  [{cluster.shard_dir(shard)}]"
                     if cluster.directory else "  [memory]"))
        if args.port_file is not None:
            args.port_file.write_text(
                json.dumps([list(a) for a in cluster.addresses]) + "\n",
                encoding="utf-8",
            )
            print(f"addresses written to {args.port_file}")
        if args.specs is not None:
            with cluster.database() as db:
                for spec in _load_specs(args.specs):
                    db.register(spec)
                print(f"registered {len(db)} contracts across "
                      f"{args.shards} shard(s)")
        if args.duration is None:  # pragma: no cover - interactive mode
            print("serving until interrupted (ctrl-c to stop)")
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
        elif args.duration > 0:
            time.sleep(args.duration)
    finally:
        cluster.stop()
        print("cluster stopped")
    return 0


def _shard_addresses(args: argparse.Namespace) -> list[tuple[str, int]]:
    addresses: list[tuple[str, int]] = []
    if args.port_file is not None:
        doc = json.loads(args.port_file.read_text(encoding="utf-8"))
        addresses.extend((str(h), int(p)) for h, p in doc)
    for text in args.addresses:
        host, _, port = text.rpartition(":")
        if not host or not port.isdigit():
            raise ReproError(
                f"bad --address {text!r}; expected HOST:PORT"
            )
        addresses.append((host, int(port)))
    if not addresses:
        raise ReproError("provide --address or --port-file")
    return addresses


def _cmd_shard_status(args: argparse.Namespace) -> int:
    from .core.retry import BackoffPolicy
    from .dist import DistributedDatabase

    addresses = _shard_addresses(args)
    # a dead shard is a *finding*, not a CLI failure: status() reports
    # it as not ok and keeps interrogating the rest of the cluster.
    # One attempt per shard — this says what is up *now*.
    with DistributedDatabase(
        addresses, rpc_timeout=10.0, retry=BackoffPolicy(max_retries=0)
    ) as db:
        statuses = db.status()["shards"]
    for status, (host, port) in zip(statuses, addresses):
        status["up"] = status.pop("ok")
        status.setdefault("contracts", None)
        status["address"] = f"{host}:{port}"
    up = [s for s in statuses if s["up"]]
    if args.json:
        print(json.dumps({"shards": statuses}, indent=2, sort_keys=True))
        return 0
    for status in statuses:
        if not status["up"]:
            print(f"shard {status['shard_id']} @ {status['address']}: "
                  f"down ({status['error']})")
            continue
        if args.health:
            print(f"shard {status['shard_id']} @ {status['address']}: "
                  f"up, {status['contracts']} contract(s)")
            continue
        journal = status.get("journal")
        journal_text = (
            f"journal epoch {journal['epoch']}, {journal['records']} "
            f"record(s), {journal['size_bytes']}B"
            if journal else "memory-only"
        )
        print(f"shard {status['shard_id']} @ {status['address']}: "
              f"{status['contracts']} contract(s), {journal_text}")
        if status.get("names"):
            print(f"  contracts: {', '.join(status['names'])}")
    total = sum(s["contracts"] for s in up)
    print(f"{len(up)}/{len(statuses)} shard(s) up, "
          f"{total} contract(s) total")
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from .dist import Replica

    replica = Replica(args.leader)
    caught_up = replica.catch_up(timeout=args.timeout)
    report = replica.promote(args.directory)
    if args.json:
        print(json.dumps({
            "leader": str(args.leader),
            "directory": report.directory,
            "epoch": report.epoch,
            "contracts": report.contracts,
            "applied": report.applied,
            "resynced": caught_up.resynced,
        }, indent=2, sort_keys=True))
        return 0
    print(f"replica of {args.leader} caught up "
          f"(applied {caught_up.applied + report.applied} record(s))")
    print(f"promoted into {report.directory}: journal epoch "
          f"{report.epoch}, {report.contracts} contract(s)")
    print("serve the promoted directory behind a shard server and "
          "fail the coordinator's shard address over to it")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .workload.airfare import QUERIES, all_ticket_specs

    db = ContractDatabase()
    for spec in all_ticket_specs():
        contract = db.register(spec)
        print(f"registered {contract}")
    for name, info in QUERIES.items():
        outcome = db.query(info["ltl"])
        print(f"\n{name}: {info['ltl']}")
        print(f"  returned: {sorted(outcome.contract_names)}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
