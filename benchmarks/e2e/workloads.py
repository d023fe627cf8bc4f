"""The five workloads.

Each workload drives the program through its public entry points only
and with default options (``db.query(q)``, ``open_database(dir)``,
``LocalCluster(3)``, ``db.monitor_fleet(watches=...)``), so a change of
default shows.  None touches a surface ROADMAP item 2 plans to delete
(``use_encoded``, the ``use_prefilter``/``use_projections`` toggles, the
deprecated shims, ``ContractMonitor``, the object deciders).

The runner in ``run.py`` calls, in order: ``generate`` (inputs, not the
program's time), ``prepare`` (stored state a workload starts from),
``setup``/``teardown`` (timed; repeated, the last one is measured on),
``run_pass(rec)`` until the run's seconds are used,
``workload_metrics(rec)``, ``verify`` (answers, outside the timed
region).  ``rec.call(fn, *args)`` times one
operation and returns its result (``None`` if it raised);
``rec.aside(name, fn, *args)`` runs, and times under ``name``, work that
belongs to the pass but is not an operation.  A *pass* is a fixed list
of operations in a fixed order: per-pass numbers of two commits compare
even when one fits more passes into the same seconds, and the runner
can follow one operation from pass to pass.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path
from time import perf_counter

import inputs

from repro import (
    ContractDatabase,
    LocalCluster,
    QuerySpec,
    open_database,
)
from repro.automata.ltl2ba import translate
from repro.broker.persist import save_database
from repro.check.oracle import OracleLimitError, oracle_permits
from repro.ltl.parser import parse
from repro.stream import read_event_log

#: (query, contract) pairs checked against the explicit-model oracle
ORACLE_PAIRS = 200
#: the oracle expands 2^events letters: 7 keeps a pair at ~5 ms, and
#: nearly every contract of the dataset cites fewer events than that
ORACLE_MAX_EVENTS = 7


def _scaled(value: int, smoke: bool, minimum: int = 1) -> int:
    return max(minimum, value // 10) if smoke else value


def _query_text(query) -> str:
    return query.query if isinstance(query, QuerySpec) else query


def _as_queries(docs: list) -> list:
    return [
        QuerySpec.from_dict(doc) if isinstance(doc, dict) else doc
        for doc in docs
    ]


def _register_all(db, specs: list[dict]) -> None:
    for spec in specs:
        db.register(spec["name"], spec["clauses"], spec["attributes"])


def _filter_matches(doc, attributes: dict) -> bool:
    """The input document's price filter, evaluated in plain Python (not
    through ``repro.broker.relational``)."""
    if not isinstance(doc, dict):
        return True
    return all(
        attributes[attribute] <= value
        for attribute, op, value in doc.get("filter", [])
        if op == "<="
    )


def oracle_disagreements(rng: random.Random, contracts: list, docs: list,
                         answers: list[tuple],
                         pairs: int) -> tuple[set[int], int]:
    """Positions in ``docs`` on which the program's answer disagrees with
    :func:`repro.check.oracle.oracle_permits` for some sampled contract,
    and how many of the ``pairs`` wanted could not be checked.

    ``contracts`` are the database's ``Contract`` objects, ``docs`` the
    input query documents and ``answers[i]`` the contract names the
    program returned for ``docs[i]``.  Pairs outside the oracle's
    explicit bounds are skipped, as ISSUE.md allows; the sample is
    re-drawn until ``pairs`` fit or 4x as many were tried.
    """
    wrong: set[int] = set()
    checked = 0
    automata: dict[str, object] = {}
    for _ in range(pairs * 4):
        if checked >= pairs:
            break
        position = rng.randrange(len(docs))
        doc = docs[position]
        text = doc["query"] if isinstance(doc, dict) else doc
        contract = rng.choice(contracts)
        if text not in automata:
            automata[text] = translate(parse(text))
        try:
            permitted = oracle_permits(
                contract.ba, automata[text], contract.vocabulary,
                max_events=ORACLE_MAX_EVENTS, max_pairs=20_000,
            )
        except OracleLimitError:
            continue
        checked += 1
        expected = permitted and _filter_matches(doc, contract.attributes)
        if expected != (contract.name in answers[position]):
            wrong.add(position)
    print(f"oracle: {checked} of {pairs} (query, contract) pairs checked, "
          f"{len(wrong)} queries disagree")
    return wrong, pairs - checked


class Workload:
    """Common shape; see the module docstring for the call order."""

    name = ""
    #: root span name of one operation in the traced run
    op = "op"
    #: what ``ops_per_s`` counts, for the printed report
    op_unit = "operations"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.failed = 0
        start = perf_counter()
        made = inputs.instance(seed, inputs.load_shapes(), smoke)
        self.gen_s = perf_counter() - start
        self.specs: list[dict] = made["contracts"]
        self.docs: list = made["queries"]

    def _cached(self, kind: str, params: dict, make):
        value, seconds = inputs.cached(kind, params, make)
        self.gen_s += seconds
        return value

    def generate(self) -> None:
        """Whatever the workload derives from the instance before the
        program runs."""

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def run_pass(self, rec) -> None:
        raise NotImplementedError

    def workload_metrics(self, rec) -> dict[str, float]:
        """The user-felt numbers only this workload has
        (``compare.WORKLOAD_METRICS``), after the passes of an untraced
        run; ``rec`` is the recorder the passes ran under."""
        return {}

    def verify(self) -> None:
        pass

    def answers_digest(self) -> str:
        raise NotImplementedError

    # -- traced run only ----------------------------------------------------------------

    #: set by the runner for the traced phase
    tracing = False

    def begin_traced(self) -> None:
        """Called when the traced phase starts (baselines for deltas)."""

    def facts(self) -> dict:
        """Numbers read off the program's public surface after the
        passes that followed ``begin_traced`` (hit rates, sizes,
        counters); sums are per pass."""
        return {}

    def trace_extras(self, clock) -> dict:
        """Outside measurements no span can give (a generator's parse
        time, with-minus-without differences), per pass."""
        return {}


# -- query workloads -----------------------------------------------------------------


class _QueryWorkload(Workload):
    """Shared by the three query workloads: a database, a query list,
    reference answers from the warm-up pass, QueryStats bookkeeping."""

    op = "op.query"
    op_unit = "queries"

    def __init__(self, *args):
        super().__init__(*args)
        self.db = None
        self.queries = _as_queries(self.docs)
        self.expected: list[tuple] = []
        self.passes = 0
        self.begin_traced()

    def begin_traced(self) -> None:
        # QueryStats sums over the traced phase
        self.stats_sum = {"matches": 0, "candidates": 0, "size": 0,
                          "stage_s": 0.0}
        self.cache_before = self._cache_counters() if self.db else (0, 0, 0)
        self.passes_before = self.passes

    def _databases(self) -> list[ContractDatabase]:
        """The in-process databases answering (the shards', when
        sharded)."""
        return [self.db]

    def _cache_counters(self) -> tuple[int, int, int]:
        stats = [db.cache_stats() for db in self._databases()]
        return (sum(s.hits for s in stats), sum(s.misses for s in stats),
                sum(s.evictions for s in stats))

    def _note(self, outcome) -> None:
        stats = outcome.stats
        sums = self.stats_sum
        sums["matches"] += stats.relational_matches
        sums["candidates"] += stats.candidates
        sums["size"] += stats.database_size
        sums["stage_s"] += (
            stats.translation_seconds + stats.prefilter_seconds
            + stats.selection_seconds + stats.permission_seconds
        )

    def _ask_all(self, rec) -> None:
        for query, expected in zip(self.queries, self.expected):
            outcome = rec.call(self.db.query, query)
            if (outcome is None or outcome.stats.degraded
                    or outcome.contract_names != expected):
                self.failed += 1
            elif self.tracing:
                self._note(outcome)
        self.passes += 1

    def answers_digest(self) -> str:
        return inputs.digest([
            [_query_text(query), list(names)]
            for query, names in zip(self.queries, self.expected)
        ])

    def _fail_queries(self, positions: set[int]) -> None:
        """Count every timed execution of the wrong queries as failed."""
        self.failed += len(positions) * max(self.passes, 1)

    def facts(self) -> dict:
        # the counters saw the untraced passes in between as well
        passes = self.passes - self.passes_before
        hits, misses, evictions = (
            after - before for after, before
            in zip(self._cache_counters(), self.cache_before)
        )
        databases = self._databases()
        plans = [db.plan_cache.stats() for db in databases]
        plan_requests = sum(p.requests for p in plans)
        sums = self.stats_sum
        return {
            "cache_hit_rate": hits / max(hits + misses, 1),
            "cache_evictions": evictions / max(passes, 1),
            "plan_cache_hit_rate": (
                sum(p.hits for p in plans) / max(plan_requests, 1)
            ),
            "relational_match_ratio": (
                sums["matches"] / sums["size"] if sums["size"] else 0.0
            ),
            "index_pruning_ratio": (
                1.0 - sums["candidates"] / sums["matches"]
                if sums["matches"] else 0.0
            ),
            "index_nodes": sum(db.index.num_nodes for db in databases),
            "stats_stage_s": sums["stage_s"],
        }

    def _batch_ratio(self, texts: list[str], batch: list[str], clock) -> float:
        """Sum of single-query walls / one ``query_many`` wall."""
        start = clock()
        for text in texts:
            self.db.query(text)
        singles = clock() - start
        start = clock()
        self.db.query_many(batch)
        return singles / (clock() - start)


class WarmRepeat(_QueryWorkload):
    """In-process database, a query working set that *fits* the
    128-entry compile cache, everything warm: steady state.  Permission
    checks dominate; translation is ~0.  The workload a permission-kernel
    change must show on and a translator/cache change must not."""

    name = "warm_repeat"

    def _open(self):
        return ContractDatabase()

    def setup(self) -> None:
        self.db = self._open()
        _register_all(self.db, self.specs)
        # the warm-up pass: fills the compile and plan caches and
        # materializes every projection quotient the queries select
        self.expected = [self.db.query(q).contract_names
                         for q in self.queries]

    def run_pass(self, rec) -> None:
        self._ask_all(rec)
        if self.tracing:
            # its spans would count every layer of the pass twice;
            # ``trace_extras`` times the batch for the traced run
            return
        # query texts only: the sharded ``query_many`` takes no QuerySpec
        outcomes = rec.aside("query_many", self.db.query_many,
                             [_query_text(q) for q in self.queries])
        for query, expected, outcome in zip(
                self.queries, self.expected, outcomes):
            if (not isinstance(query, QuerySpec)
                    and outcome.contract_names != expected):
                self.failed += 1

    def _reference(self) -> ContractDatabase:
        return self.db

    def workload_metrics(self, rec) -> dict[str, float]:
        return {"batch_queries_per_s":
                len(self.queries) / min(rec.asides["query_many"])}

    def verify(self) -> None:
        wrong, unchecked = oracle_disagreements(
            random.Random(f"oracle-{self.seed}"),
            list(self._reference().contracts()), self.docs, self.expected,
            _scaled(ORACLE_PAIRS, self.smoke, 20),
        )
        self._fail_queries(wrong)
        self.failed += unchecked

    def trace_extras(self, clock) -> dict:
        contracts = list(self._reference().contracts())
        start = clock()
        for query in self.queries:
            if isinstance(query, QuerySpec):
                for contract in contracts:
                    query.filter.matches(contract.attributes)
        filter_s = clock() - start
        texts = [_query_text(q) for q in self.queries]
        return {
            "relational_filter_s": filter_s,
            "batch_ratio": self._batch_ratio(texts, texts, clock),
        }


class ShardedFanout(WarmRepeat):
    """The same contracts and queries as ``warm_repeat`` behind a
    3-shard ``LocalCluster`` over loopback sockets and one
    ``DistributedDatabase`` client: what distribution costs (placement,
    JSON framing, socket round trips, asyncio hand-off, merge).  The
    ratio of its ``op_p50_ms`` to ``warm_repeat``'s is the distribution
    overhead.  Thread mode on purpose: four busy processes on two cores
    would measure the scheduler."""

    name = "sharded_fanout"
    shards = 3

    def __init__(self, *args):
        self.cluster = None
        self.local = None
        self.clusters_started = 0
        super().__init__(*args)

    def _open(self):
        self.clusters_started += 1
        self.cluster = LocalCluster(
            self.shards,
            directory=self.workdir / f"cluster-{self.clusters_started}",
        )
        return self.cluster.database()

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.cluster.stop()
            shutil.rmtree(self.cluster.directory, ignore_errors=True)
            self.db = self.cluster = None

    def _databases(self) -> list[ContractDatabase]:
        return [server.db for server in self.cluster.servers]

    def _reference(self) -> ContractDatabase:
        """One in-process database over the same contracts."""
        if self.local is None:
            self.local = ContractDatabase()
            _register_all(self.local, self.specs)
        return self.local

    def verify(self) -> None:
        # name for name what one in-process database answers
        local = self._reference()
        self._fail_queries({
            position for position, (query, names)
            in enumerate(zip(self.queries, self.expected))
            if local.query(query).contract_names != names
        })
        super().verify()

    def facts(self) -> dict:
        facts = super().facts()
        # merged shard stats are not one clock: no drift to report
        del facts["stats_stage_s"]
        sizes = [shard["contracts"] for shard in self.db.status()["shards"]]
        metrics = self.db.metrics
        facts.update({
            "shard_skew": max(sizes) / (sum(sizes) / len(sizes)),
            "dist_retries": metrics.counter_value("dist.retries"),
            "dist_breaker_trips": metrics.counter_value("dist.breaker_open"),
        })
        return facts

    def trace_extras(self, clock) -> dict:
        extras = super().trace_extras(clock)
        local = self._reference()
        walls = {"local": [], "sharded": []}
        for round_ in range(4):
            for query in self.queries:
                for key, db in (("local", local), ("sharded", self.db)):
                    start = clock()
                    db.query(query)
                    if round_:  # the first round warms the local caches
                        walls[key].append(clock() - start)
        median = {k: sorted(v)[len(v) // 2] for k, v in walls.items()}
        extras["dist_overhead_ratio"] = median["sharded"] / median["local"]
        return extras


class WideDistinct(_QueryWorkload):
    """``warm_repeat``'s database under a stream of *distinct* queries:
    every pass renames the events of the 120 queries with a fresh
    permutation, so the working set is unbounded, the compile cache
    misses (only the few one-pattern texts recur), and every query pays
    parse + translate + pruning condition and may select a projection
    quotient nobody materialized yet.  The workload where cache,
    translator, index and projection-store changes show;
    ``warm_repeat`` — same contracts, same query shapes — is their
    no-change control."""

    name = "wide_distinct"
    permutations = 128

    def generate(self) -> None:
        base = [_query_text(query) for query in self.queries]
        rng = random.Random(f"permutations-{self.seed}")
        self.variants = []
        for _ in range(self.permutations):
            mapping = inputs.event_permutation(rng, inputs.VOCABULARY)
            self.variants.append(
                [inputs.rename_events(text, mapping) for text in base])
        self.asked: dict[str, tuple] = {}
        self.next_variant = 0

    def _next_texts(self) -> list[str]:
        texts = self.variants[self.next_variant % len(self.variants)]
        self.next_variant += 1
        return texts

    def setup(self) -> None:
        self.db = ContractDatabase()
        _register_all(self.db, self.specs)
        # warm-up on a variant of its own: first-use costs that do not
        # depend on the query text, without warming the compile cache
        # for anything the timed passes ask
        for text in self._next_texts():
            self.db.query(text)

    def run_pass(self, rec) -> None:
        for text in self._next_texts():
            outcome = rec.call(self.db.query, text)
            if outcome is None or outcome.stats.degraded:
                self.failed += 1
                continue
            previous = self.asked.setdefault(text, outcome.contract_names)
            if previous != outcome.contract_names:
                self.failed += 1
            if self.tracing:
                self._note(outcome)
        self.passes += 1

    def answers_digest(self) -> str:
        # which variants the timed passes reached depends on the run's
        # seconds; the first variant's answers do not
        return inputs.digest([
            [text, list(self.db.query(text).contract_names)]
            for text in sorted(self.variants[0])
        ])

    def verify(self) -> None:
        rng = random.Random(f"oracle-{self.seed}")
        texts = sorted(self.asked)
        wrong, unchecked = oracle_disagreements(
            rng, list(self.db.contracts()), texts,
            [self.asked[text] for text in texts],
            _scaled(ORACLE_PAIRS, self.smoke, 20),
        )
        # asking again (now a different cache state) must not change it
        wrong |= {
            position
            for position in rng.sample(range(len(texts)), min(60, len(texts)))
            if self.db.query(texts[position]).contract_names
            != self.asked[texts[position]]
        }
        self.failed += len(wrong) + unchecked

    def trace_extras(self, clock) -> dict:
        return {"batch_ratio": self._batch_ratio(
            self.variants[-1], self.variants[-2], clock)}


# -- the write path -------------------------------------------------------------------


class BulkLoad(Workload):
    """The write path: a journaled database (fsync per mutation) reopened
    from a snapshot plus a journal tail, then rounds of {register a pool
    of contracts one by one, ``save_database`` (snapshot + journal
    compaction), close and reopen, deregister the pool}.  The read
    workloads' layers used the other way round: translation and
    projection *build*, index insert/remove, journal, persist.  A change
    that speeds reads up by doing more at registration pays here.

    The reopen after every save is not decoration.  ``deregister``
    journals the *live* contract id, ``load_database`` renumbers ids
    densely, and ``save_database`` leaves the live ids alone — so in a
    process that has ever deregistered, a deregister issued after a save
    is journaled under an id the next reopen does not know, and replay
    drops it and every record after it (seen while building this
    workload; see README.md).  Reopening after the save keeps live and
    stored ids equal, which is the usage the journal supports today.
    """

    name = "bulk_load"
    op = "op.register"
    op_unit = "durable registers"
    check_queries = 6

    def __init__(self, *args):
        super().__init__(*args)
        self.db = None
        self.directory = self.workdir / "bulk"
        self.round = 0
        self.seen: dict = {}

    def generate(self) -> None:
        # a third of the contracts are resident (snapshot + journal
        # tail), the other two thirds the pool each round registers;
        # split by shape, so that every seed registers the same shapes
        # (in its own order, under its own event names)
        shapes = sorted(spec["shape"] for spec in self.specs)
        base = shapes[len(shapes) * 4 // 15]
        tail = shapes[len(shapes) // 3]
        self.base_specs = [s for s in self.specs if s["shape"] < base]
        self.tail_specs = [s for s in self.specs if base <= s["shape"] < tail]
        self.pool = [s for s in self.specs if s["shape"] >= tail]
        self.queries = [
            _query_text(query) for query in _as_queries(self.docs)
        ][:self.check_queries]
        self.rng = random.Random(f"rounds-{self.seed}")

    def prepare(self) -> None:
        """The stored database every set-up reopens: a snapshot of the
        base contracts and a journal tail to replay."""
        db = open_database(self.directory)
        _register_all(db, self.base_specs)
        save_database(db, self.directory)
        _register_all(db, self.tail_specs)
        db.journal.close()

    def setup(self) -> None:
        self._reopen()

    def _reopen(self) -> None:
        """``open_database`` until the first query is answered."""
        self.db = open_database(self.directory)
        self.db.query(self.queries[0])
        report = self.db.load_report
        self.seen["journal_replayed"] = self.db.journal_report.replayed
        self.seen["restored_ratio"] = (
            report.automata_restored + report.seeds_restored
            + report.encoded_restored + report.projections_restored
        ) / (4 * max(report.contracts, 1))

    def teardown(self) -> None:
        if self.db is not None:
            self.db.journal.close()
            self.db = None

    def _round_specs(self, final: bool = False) -> list[dict]:
        """The pool under a fresh event renaming and fresh names: the
        same shapes, but nothing a cache keyed on text has seen.  The
        ``final`` round is the same whatever number of rounds ran."""
        self.round += 1
        rng = random.Random(f"final-{self.seed}") if final else self.rng
        label = "final" if final else f"r{self.round}"
        mapping = inputs.event_permutation(rng, inputs.VOCABULARY)
        return [
            {
                "name": f"{spec['name']}-{label}",
                "clauses": [inputs.rename_events(c, mapping)
                            for c in spec["clauses"]],
                "attributes": spec["attributes"],
            }
            for spec in self.pool
        ]

    def _close_and_reopen(self) -> None:
        self.teardown()
        self._reopen()

    def run_pass(self, rec) -> None:
        resident = len(self.db)
        names = set()
        for spec in self._round_specs():
            contract = rec.call(self.db.register, spec["name"],
                                spec["clauses"], spec["attributes"])
            if contract is None or contract.name != spec["name"]:
                self.failed += 1
            else:
                names.add(spec["name"])
        journal = Path(self.db.journal.path)
        self.seen["journal_bytes_per_record"] = (
            journal.stat().st_size / max(len(self.db.journal), 1)
        )
        rec.aside("save", save_database, self.db, self.directory)
        # the first round's: the same contracts whatever the run's length
        self.seen.setdefault("stored_bytes_per_contract", sum(
            f.stat().st_size for f in self.directory.iterdir() if f.is_file()
        ) / len(self.db))
        rec.aside("reopen", self._close_and_reopen)
        db = self.db
        for contract in list(db.contracts()):
            if contract.name in names:
                rec.aside("deregister", db.deregister, contract.contract_id)
        if len(db) != resident:
            self.failed += len(names)

    def workload_metrics(self, rec) -> dict[str, float]:
        """The fastest round's, like the operations' latencies."""
        deregisters = rec.asides["deregister"]
        size = len(self.pool)
        return {
            "save_s": min(rec.asides["save"]),
            "reopen_s": min(rec.asides["reopen"]),
            "churn_ops_per_s": size / min(
                sum(deregisters[i:i + size])
                for i in range(0, len(deregisters), size)),
            "stored_bytes_per_contract":
                self.seen["stored_bytes_per_contract"],
        }

    def verify(self) -> None:
        """What is on disk is what was acknowledged: a last round is
        left registered (journal only, no save), the directory reopened,
        and names and answers compared with the live database."""
        db = self.db
        _register_all(db, self._round_specs(final=True))
        live_names = sorted(c.name for c in db.contracts())
        live_answers = [db.query(q).contract_names for q in self.queries]
        db.journal.close()
        self.db = reopened = open_database(self.directory)
        problems = (
            reopened.journal_report.warnings + reopened.load_report.warnings
        )
        same = (
            sorted(c.name for c in reopened.contracts()) == live_names
            and [reopened.query(q).contract_names
                 for q in self.queries] == live_answers
        )
        if problems or not same:
            self.failed += len(self.pool)
        self.final = [live_names, [list(a) for a in live_answers]]

    def answers_digest(self) -> str:
        return inputs.digest(self.final)

    def facts(self) -> dict:
        return {**self.seen, "index_nodes": self.db.index.num_nodes}


# -- the stream ---------------------------------------------------------------------------


class StreamMonitor(Workload):
    """``db.monitor_fleet(watches=...)`` over the ``warm_repeat``
    contracts, replaying a JSONL event log (text in, alerts out) in
    batches of 1000 records.  The stream engine shares only the
    registration-time encodings with the query path: it must not move
    when the deciders change and must move when ``repro.stream`` does."""

    name = "stream_monitor"
    op = "op.ingest"
    op_unit = "batches of 1000 records"
    steps = 300
    batch = 1000
    watches = 4

    def generate(self) -> None:
        steps = _scaled(self.steps, self.smoke, 20)
        log = self._cached(
            "eventlog",
            {"seed": self.seed, "specs": inputs.digest(self.specs)[:16],
             "steps": steps},
            lambda: inputs.event_log(self.seed, self.specs, steps, 0.1, 0.01),
        )
        size = _scaled(self.batch, self.smoke, 50)
        lines = log["lines"]
        self.batches = [lines[i:i + size] for i in range(0, len(lines), size)]
        self.records = len(lines)
        self.expected_violations = sorted(
            (name, index) for name, index in log["violations"].items())
        self.expected_unknown = log["unknown"]
        self.watch_queries = {
            f"w{i}": _query_text(query)
            for i, query in enumerate(_as_queries(self.docs[:self.watches]))
        }
        self.alert_digests: set[str] = set()

    def setup(self) -> None:
        self.db = ContractDatabase()
        _register_all(self.db, self.specs)
        self.fleet = self.db.monitor_fleet(watches=self.watch_queries)
        # the warm-up replay fills the monitors' snapshot memos
        self._replay(_Untimed)

    def _ingest(self, lines):
        return self.fleet.ingest(read_event_log(lines))

    def _replay(self, rec) -> int:
        """One replay of the log; returns how many batches failed."""
        self.fleet.reset()
        violations = []
        alerts = []
        unknown = 0
        broken = 0
        for lines in self.batches:
            report = rec.call(self._ingest, lines)
            if report is None or report.events != len(lines):
                broken += 1
                continue
            unknown += report.unknown_events
            violations.extend(
                (a.contract, a.event_index) for a in report.violations)
            alerts.extend(
                (a.kind, a.contract, a.watch, a.event_index)
                for a in report.alerts)
        self.alert_digests.add(inputs.digest(alerts))
        self.alerts_per_replay = len(alerts)
        if (sorted(violations) != self.expected_violations
                or unknown != self.expected_unknown
                or len(self.alert_digests) != 1):
            # the replay's answer is wrong, so every batch of it is
            return len(self.batches)
        return broken

    def run_pass(self, rec) -> None:
        self.failed += self._replay(rec)

    def answers_digest(self) -> str:
        return min(self.alert_digests)

    def facts(self) -> dict:
        return {
            "stream_alerts": self.alerts_per_replay,
            "stream_unknown": self.fleet.unknown_event_count,
            "stream_active_ratio": (
                len(self.fleet.active_contracts) / len(self.fleet.contracts)
            ),
        }

    def trace_extras(self, clock) -> dict:
        """Per replay: the reader alone, the engine alone on parsed
        events through the per-event ``advance`` entry point, and the
        same on a fleet without watches (watch cost = the difference)."""
        start = clock()
        events = [e for lines in self.batches for e in read_event_log(lines)]
        parse_s = clock() - start
        bare = self.db.monitor_fleet()

        def advance_all(fleet) -> float:
            fleet.reset()
            start = clock()
            for event in events:
                fleet.advance(event.contract, event.events)
            return clock() - start

        watched = min(advance_all(self.fleet) for _ in range(3))
        unwatched = min(advance_all(bare) for _ in range(3))
        return {
            "stream_parse_s": parse_s,
            "stream_advance_s": watched,
            "stream_advance_n": self.records,
            # four watches are a few ANDs per delivery: within the noise
            # of two 0.1 s loops, so never report a negative cost
            "stream_watch_s": max(0.0, watched - unwatched),
        }


class _Untimed:
    """A recorder that records nothing (warm-up passes)."""

    @staticmethod
    def call(fn, *args):
        return fn(*args)


WORKLOADS = {
    cls.name: cls
    for cls in (WarmRepeat, WideDistinct, BulkLoad, ShardedFanout,
                StreamMonitor)
}
