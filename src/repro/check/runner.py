"""The configuration-lattice differential runner.

For every generated case the runner computes the ground-truth permitted
set with the explicit-model oracle (filtered by the case's attribute
filter, evaluated directly against the contract attributes), then
executes the case through every :class:`~repro.check.configs.StackConfig`
and compares:

* **exact** configurations must return exactly the oracle's set, with no
  "maybe" residue;
* the **budgeted** configuration must satisfy the degradation invariant
  ``permitted ⊆ exact ⊆ permitted ∪ maybe``.

Contract translation is shared across configurations (via
``PrebuiltArtifacts``) because the translator is identical in every
cell; everything downstream — index build, projection build, seeds,
decider, cache, persistence — runs per configuration, so a divergence
isolates the differing layer.

Any violation is recorded as a :class:`Disagreement`, greedily shrunk
(:mod:`repro.check.shrink`) and written out as a standalone JSON repro
artifact (:mod:`repro.check.artifacts`).  The runner counts progress
and failures (``check.*``) and its
:class:`~repro.obs.metrics.MetricsRegistry` reads them on export, so a
long fuzz run can be watched like any other broker workload.
"""

from __future__ import annotations

import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..automata.encode import encode_automaton
from ..automata.ltl2ba import translate
from ..broker.database import ContractDatabase
from ..broker.options import Degradation, PrebuiltArtifacts, QueryOptions
from ..errors import ReproError, TranslationError
from ..obs.metrics import MetricsRegistry
from .cases import CheckCase
from .configs import BUDGET_CONFIG_STEPS, StackConfig, config_lattice
from .generators import PROFILES, CheckProfile, generate_case
from .oracle import (
    MonitorVerdicts,
    OracleLimitError,
    oracle_monitor,
    oracle_permits,
)
from .shrink import shrink_case

#: Modes whose expected answer is the monitor oracle's per-prefix
#: transcript on a generated event trace, not the oracle's permitted set.
MONITOR_MODES = ("monitor", "monitor_unknown")

#: Length of the generated trace the monitor cells replay per case.
MONITOR_TRACE_LENGTH = 6

#: Events guaranteed outside every generated vocabulary, salted into
#: the ``monitor_unknown`` trace.
MONITOR_ALIEN_EVENTS = ("zz-alpha", "zz-beta")

#: How many shards the ``sharded`` conformance cell spreads a case over.
SHARDED_CELL_SHARDS = 3


def _transcript(name: str, verdicts: MonitorVerdicts) -> str:
    """One contract's monitor verdicts packed into a comparable string:
    ``A``/``V`` per prefix, ``1``/``0`` watch satisfiability per prefix
    (both starting with the empty prefix), the violation index and the
    unknown-event count."""
    status_chars = "".join("A" if a else "V" for a in verdicts.active)
    watch_chars = "".join("1" if sat else "0" for sat in verdicts.can_still)
    return (
        f"{name}|status={status_chars}|watch={watch_chars}"
        f"|violation={verdicts.violation_index}"
        f"|unknown={verdicts.unknown_events}"
    )


def _fleet_transcripts(fleet, specs, trace) -> frozenset[str]:
    """Broadcast ``trace`` through ``fleet`` from where it stands and
    pack each contract's verdicts with :func:`_transcript`."""
    from ..stream import Event, MonitorStatus

    statuses = {
        spec.name: [fleet.status(spec.name) is MonitorStatus.ACTIVE]
        for spec in specs
    }
    watch = {
        spec.name: [fleet.watch_satisfiable(spec.name, "case-query")]
        for spec in specs
    }
    for snapshot in trace:
        fleet.ingest([Event(snapshot)])
        for spec in specs:
            statuses[spec.name].append(
                fleet.status(spec.name) is MonitorStatus.ACTIVE
            )
            watch[spec.name].append(
                fleet.watch_satisfiable(spec.name, "case-query")
            )
    transcripts = set()
    for spec in specs:
        monitor = fleet.monitor(spec.name)
        transcripts.add(_transcript(spec.name, MonitorVerdicts(
            tuple(statuses[spec.name]), tuple(watch[spec.name]),
            monitor.violation_index, monitor.unknown_events,
        )))
    return frozenset(transcripts)


@dataclass
class Disagreement:
    """One configuration's answer diverging from the oracle."""

    case: CheckCase
    config_name: str
    #: which answer of the configuration diverged (a cache-warm run
    #: checks both its cold and its warm answer)
    label: str
    #: "exact-mismatch", "degradation-violation", or "error"
    kind: str
    expected: tuple[str, ...]
    got: tuple[str, ...]
    maybe: tuple[str, ...] = ()
    detail: str = ""
    artifact_path: str | None = None

    def describe(self) -> str:
        lines = [
            f"{self.config_name} [{self.label}] {self.kind} on "
            f"{self.case.case_id}:",
            f"  query    : {self.case.query}",
            f"  filter   : {self.case.filter}",
            f"  expected : {sorted(self.expected)}",
            f"  got      : {sorted(self.got)}"
            + (f" maybe={sorted(self.maybe)}" if self.maybe else ""),
        ]
        if self.detail:
            lines.append(f"  detail   : {self.detail}")
        if self.artifact_path:
            lines.append(f"  artifact : {self.artifact_path}")
        return "\n".join(lines)


@dataclass
class ConformanceReport:
    """The outcome of one conformance run."""

    seed: int
    cases_requested: int
    config_names: tuple[str, ...] = ()
    cases_run: int = 0
    cases_skipped: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def configs_run(self) -> int:
        return self.cases_run * len(self.config_names)

    def summary(self) -> str:
        verdict = (
            "OK"
            if self.ok
            else f"{len(self.disagreements)} DISAGREEMENT(S)"
        )
        return (
            f"conformance seed={self.seed}: {self.cases_run} case(s) "
            f"({self.cases_skipped} skipped) x {len(self.config_names)} "
            f"configuration(s) = {self.configs_run} differential run(s) "
            f"in {self.elapsed_seconds:.1f}s -> {verdict}"
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "cases_requested": self.cases_requested,
            "cases_run": self.cases_run,
            "cases_skipped": self.cases_skipped,
            "configs": list(self.config_names),
            "elapsed_seconds": self.elapsed_seconds,
            "ok": self.ok,
            "disagreements": [
                {
                    "config": d.config_name,
                    "label": d.label,
                    "kind": d.kind,
                    "case": d.case.to_dict(),
                    "expected": sorted(d.expected),
                    "got": sorted(d.got),
                    "maybe": sorted(d.maybe),
                    "detail": d.detail,
                    "artifact": d.artifact_path,
                }
                for d in self.disagreements
            ],
        }


class ConformanceRunner:
    """Drives generation → oracle → configuration lattice → artifacts.

    Args:
        seed: base seed; case ``i`` is fully determined by ``(seed, i)``.
        cases: how many cases to generate and check.
        profile: a :class:`~repro.check.generators.CheckProfile` or the
            name of one of :data:`~repro.check.generators.PROFILES`.
        configs: the :class:`StackConfig` tuple to sweep (default: the
            full 15-point lattice).
        artifact_dir: where failure repro artifacts are written
            (``None`` = don't write artifacts).
        shrink: greedily minimize failing cases before reporting.
        metrics: an external registry to export through (default: a
            fresh one on ``runner.metrics``).
    """

    def __init__(
        self,
        seed: int = 0,
        cases: int = 100,
        profile: CheckProfile | str = "small",
        configs: tuple[StackConfig, ...] | None = None,
        artifact_dir: str | Path | None = None,
        shrink: bool = True,
        metrics: MetricsRegistry | None = None,
    ):
        self.seed = seed
        self.cases_requested = cases
        if isinstance(profile, str):
            if profile not in PROFILES:
                raise ReproError(
                    f"unknown check profile {profile!r}; available: "
                    f"{sorted(PROFILES)}"
                )
            profile = PROFILES[profile]
        self.profile = profile
        self.configs = tuple(configs) if configs is not None else config_lattice()
        self.artifact_dir = Path(artifact_dir) if artifact_dir else None
        self.shrink_enabled = shrink
        self._counts: Counter = Counter()  # one thread runs the lattice
        self.metrics = metrics or MetricsRegistry()
        self.metrics.register(self)

    def collect(self) -> dict:
        """The ``check.*`` counts, read by :attr:`metrics` on export."""
        return {"counters": dict(self._counts)}

    # -- one case ---------------------------------------------------------------------

    def check_case(
        self,
        case: CheckCase,
        configs: tuple[StackConfig, ...] | None = None,
    ) -> list[Disagreement]:
        """Evaluate one case against the oracle across ``configs``
        (default: the runner's lattice); returns the disagreements
        without shrinking or artifact writing.  Raises
        :class:`~repro.errors.TranslationError` /
        :class:`~repro.check.oracle.OracleLimitError` when the case
        cannot be materialized."""
        specs, bas, query_ba = self._materialize(case)
        expected = self._expected_names(case, specs, bas, query_ba)
        failures: list[Disagreement] = []
        for config in configs if configs is not None else self.configs:
            if config.mode in MONITOR_MODES:
                # the monitor cells compare against the monitor oracle's
                # transcripts, not the oracle's permitted set
                config_expected = self._monitor_expected(
                    case, specs, config.mode
                )
            else:
                config_expected = expected
            failures.extend(
                self._check_config(case, specs, bas, config_expected, config)
            )
            self._counts["check.configs_run"] += 1
        return failures

    def _materialize(self, case: CheckCase):
        specs = case.specs()
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ReproError(
                f"case {case.case_id} has duplicate contract names"
            )
        bas = {spec.name: translate(spec.formula) for spec in specs}
        query_ba = translate(case.query_formula())
        return specs, bas, query_ba

    def _expected_names(self, case, specs, bas, query_ba) -> frozenset[str]:
        """The ground truth: oracle-permitted among filter matches."""
        attribute_filter = case.filter.build()
        permitted = set()
        for spec in specs:
            if not attribute_filter.matches(spec.attributes):
                continue
            if oracle_permits(bas[spec.name], query_ba, spec.vocabulary):
                permitted.add(spec.name)
        return frozenset(permitted)

    def _build_db(self, specs, bas) -> ContractDatabase:
        db = ContractDatabase()
        for spec in specs:
            db.register(spec, prebuilt=PrebuiltArtifacts(ba=bas[spec.name]))
        return db

    def _run_config(
        self, case: CheckCase, specs, bas, config: StackConfig
    ) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
        """Execute one configuration; returns ``(label, permitted,
        maybe)`` answer tuples (cache-warm yields two)."""
        if config.mode in MONITOR_MODES:
            got = self._monitor_transcripts(case, specs, bas, config.mode)
            return [(config.mode, tuple(sorted(got)), ())]
        options = QueryOptions(attribute_filter=case.filter.build())
        if config.mode == "journal":
            # snapshot + journal-tail recovery must agree with the
            # oracle bit-for-bit: half the contracts live only in the
            # write-ahead journal when the directory is reopened
            from ..broker.journal import open_database
            from ..broker.persist import save_database

            with tempfile.TemporaryDirectory(
                prefix="repro-check-"
            ) as directory:
                live = open_database(directory)
                half = (len(specs) + 1) // 2
                for spec in specs[:half]:
                    live.register(
                        spec, prebuilt=PrebuiltArtifacts(ba=bas[spec.name])
                    )
                save_database(live, directory)
                for spec in specs[half:]:
                    live.register(
                        spec, prebuilt=PrebuiltArtifacts(ba=bas[spec.name])
                    )
                recovered = open_database(directory)
                outcome = recovered.query(case.query, options)
            return [("journal", outcome.contract_names, outcome.maybe_names)]
        if config.mode == "sharded":
            return self._run_sharded(case, specs)
        if config.mode == "replicated":
            return self._run_replicated(case, specs, bas)
        if config.mode == "flaky_network":
            return self._run_flaky_network(case, specs)
        if config.mode == "failover":
            return self._run_failover(case, specs)
        db = self._build_db(specs, bas)
        if config.mode == "direct":
            outcome = db.query(case.query, options.evolve(plan=config.plan))
            return [("direct", outcome.contract_names, outcome.maybe_names)]
        if config.mode == "cache_warm":
            cold = db.query(case.query, options)
            warm = db.query(case.query, options)
            return [
                ("cold", cold.contract_names, cold.maybe_names),
                ("warm", warm.contract_names, warm.maybe_names),
            ]
        if config.mode == "budget":
            outcome = db.query(
                case.query,
                options.evolve(
                    step_budget=BUDGET_CONFIG_STEPS,
                    degradation=Degradation.MAYBE,
                ),
            )
            return [("budget", outcome.contract_names, outcome.maybe_names)]
        if config.mode == "roundtrip":
            from ..broker.persist import load_database, save_database

            with tempfile.TemporaryDirectory(
                prefix="repro-check-"
            ) as directory:
                save_database(db, directory)
                loaded = load_database(directory)
            outcome = loaded.query(case.query, options)
            return [
                ("roundtrip", outcome.contract_names, outcome.maybe_names)
            ]
        raise ReproError(f"unknown configuration mode {config.mode!r}")

    def _run_sharded(self, case: CheckCase, specs):
        """The ``sharded`` cell: every contract registered through a
        3-shard coordinator, the query answered by fan-out + merge.
        Contracts ship as clause text over the wire (each shard
        re-translates deterministically), so this exercises the whole
        placement → protocol → merge path."""
        from ..dist import LocalCluster

        options = QueryOptions(attribute_filter=case.filter.build())
        with LocalCluster(SHARDED_CELL_SHARDS) as cluster:
            db = cluster.database()
            try:
                for spec in specs:
                    db.register(spec)
                outcome = db.query(case.query, options)
            finally:
                db.close()
        return [("sharded", outcome.contract_names, outcome.maybe_names)]

    def _run_flaky_network(self, case: CheckCase, specs):
        """The ``flaky-network`` cell: the sharded path with transient
        faults armed on the coordinator's ``dist.send``/``dist.recv``
        seams — two injected transport failures per query, which the
        RPC retry machinery must absorb without changing the answer
        (invariant 16, never-failed half)."""
        from ..core.faults import FAULTS
        from ..core.retry import BackoffPolicy
        from ..dist import LocalCluster

        options = QueryOptions(attribute_filter=case.filter.build())
        with LocalCluster(SHARDED_CELL_SHARDS) as cluster:
            db = cluster.database(retry=BackoffPolicy(
                max_retries=2, base_seconds=0.002, cap_seconds=0.01,
            ))
            try:
                for spec in specs:
                    db.register(spec)
                # two faults, at most two retries per shard: absorbed
                # no matter which shards they land on
                FAULTS.fail_at("dist.send", nth=1, times=1,
                               exc=OSError("injected send fault"))
                FAULTS.fail_at("dist.recv", nth=1, times=1,
                               exc=OSError("injected recv fault"))
                try:
                    outcome = db.query(case.query, options)
                finally:
                    FAULTS.reset()
            finally:
                db.close()
        return [
            ("flaky-network", outcome.contract_names, outcome.maybe_names)
        ]

    def _run_failover(self, case: CheckCase, specs):
        """The ``failover`` cell: a journaled 2-shard cluster whose
        leader dies after registration; its caught-up replica is
        promoted (epoch bump) and the coordinator fails the shard
        address over — the re-answered query must still match the
        oracle, on the same global contract ids (invariant 16)."""
        from ..dist import LocalCluster

        options = QueryOptions(attribute_filter=case.filter.build())
        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
            with LocalCluster(2, directory=Path(tmp) / "cluster") as cluster:
                db = cluster.database()
                try:
                    for spec in specs:
                        db.register(spec)
                    replica = cluster.replica(0)
                    replica.catch_up()
                    cluster.stop_shard(0)
                    replica.promote(Path(tmp) / "promoted")
                    address = cluster.restart_shard(0, db=replica.db)
                    db.fail_over(0, address)
                    outcome = db.query(case.query, options)
                finally:
                    db.close()
        return [("failover", outcome.contract_names, outcome.maybe_names)]

    def _run_replicated(self, case: CheckCase, specs, bas):
        """The ``replicated`` cell: a journaled leader with a mid-stream
        snapshot+compaction, and a journal-shipping replica that must
        survive the epoch bump (snapshot re-sync) and then answer
        exactly like the leader — which must answer like the oracle."""
        from ..broker.journal import open_database
        from ..broker.persist import save_database
        from ..dist.replica import Replica

        options = QueryOptions(attribute_filter=case.filter.build())
        with tempfile.TemporaryDirectory(prefix="repro-check-") as directory:
            leader = open_database(directory)
            half = (len(specs) + 1) // 2
            for spec in specs[:half]:
                leader.register(
                    spec, prebuilt=PrebuiltArtifacts(ba=bas[spec.name])
                )
            replica = Replica(directory)
            replica.poll()  # catches the pre-compaction journal tail
            # snapshot + compact bumps the epoch: the replica's byte
            # cursor dies and it must re-sync from the snapshot
            save_database(leader, directory)
            for spec in specs[half:]:
                leader.register(
                    spec, prebuilt=PrebuiltArtifacts(ba=bas[spec.name])
                )
            replica.catch_up()
            leader_outcome = leader.query(case.query, options)
            replica_outcome = replica.query(case.query, options)
        return [
            ("leader", leader_outcome.contract_names,
             leader_outcome.maybe_names),
            ("replica", replica_outcome.contract_names,
             replica_outcome.maybe_names),
        ]

    # -- monitor cells ----------------------------------------------------------------

    def _monitor_trace(self, case, specs, mode) -> list[frozenset[str]]:
        """The deterministic event trace a monitor cell replays: fully
        determined by the case id and mode (string seeding hashes the
        seed bytes, so this is stable across processes — unlike
        ``hash()``).  ``monitor_unknown`` adds events guaranteed to be
        outside every contract vocabulary."""
        vocabulary: set[str] = set(case.query_formula().variables())
        for spec in specs:
            vocabulary |= spec.vocabulary
        pool = sorted(vocabulary)
        if mode == "monitor_unknown":
            pool += list(MONITOR_ALIEN_EVENTS)
        rng = random.Random(f"{case.case_id}|{mode}")
        return [
            frozenset(event for event in pool if rng.random() < 0.35)
            for _ in range(MONITOR_TRACE_LENGTH)
        ]

    def _monitor_expected(self, case, specs, mode) -> frozenset[str]:
        """The expected side of a monitor cell: each contract's
        transcript as :func:`~repro.check.oracle.oracle_monitor` derives
        it from the contract formula, the trace and the case query —
        the batch decider on the history spelled out as a formula."""
        trace = self._monitor_trace(case, specs, mode)
        query = case.query_formula()
        return frozenset(
            _transcript(spec.name, oracle_monitor(
                spec.formula, spec.vocabulary, trace, query
            ))
            for spec in specs
        )

    def _monitor_transcripts(self, case, specs, bas, mode) -> frozenset[str]:
        """Per-contract verdict transcripts of the encoded fleet engine
        over the generated trace: one string per contract packing the
        status and watch-query satisfiability after every prefix
        (including the empty one), the violation index and the
        unknown-event count — invariant 13 says the set equals
        :meth:`_monitor_expected`'s.

        The trace is replayed twice: on a fresh fleet, then after
        ``fleet.reset()`` with every monitor memo warm, so the second
        replay is answered from memo hits.  The two replays' transcripts
        are united: a pair that differs leaves a contract with two
        transcripts, which the oracle's set never holds."""
        from ..stream.engine import FleetMonitor

        trace = self._monitor_trace(case, specs, mode)
        fleet = FleetMonitor()
        for spec in specs:
            fleet.add_contract(
                spec.name, encode_automaton(bas[spec.name], spec.vocabulary)
            )
        fleet.register_watch("case-query", case.query_formula())
        first = _fleet_transcripts(fleet, specs, trace)
        fleet.reset()
        return first | _fleet_transcripts(fleet, specs, trace)

    def _check_config(
        self,
        case: CheckCase,
        specs,
        bas,
        expected: frozenset[str],
        config: StackConfig,
    ) -> list[Disagreement]:
        try:
            answers = self._run_config(case, specs, bas, config)
        except Exception as exc:  # the harness must survive stack crashes
            return [
                Disagreement(
                    case=case,
                    config_name=config.name,
                    label=config.mode,
                    kind="error",
                    expected=tuple(sorted(expected)),
                    got=(),
                    detail=f"{type(exc).__name__}: {exc}",
                )
            ]
        failures = []
        for label, permitted, maybe in answers:
            got = frozenset(permitted)
            maybe_set = frozenset(maybe)
            if config.exact:
                if got != expected or maybe_set:
                    failures.append(
                        Disagreement(
                            case=case,
                            config_name=config.name,
                            label=label,
                            kind="exact-mismatch",
                            expected=tuple(sorted(expected)),
                            got=tuple(sorted(got)),
                            maybe=tuple(sorted(maybe_set)),
                        )
                    )
            elif not (got <= expected <= got | maybe_set):
                failures.append(
                    Disagreement(
                        case=case,
                        config_name=config.name,
                        label=label,
                        kind="degradation-violation",
                        expected=tuple(sorted(expected)),
                        got=tuple(sorted(got)),
                        maybe=tuple(sorted(maybe_set)),
                    )
                )
        return failures

    # -- the full run -----------------------------------------------------------------

    def _still_fails(self, config: StackConfig):
        """The shrink predicate: does ``config`` still disagree with the
        oracle on a candidate case?"""

        def predicate(candidate: CheckCase) -> bool:
            try:
                return bool(self.check_case(candidate, (config,)))
            except ReproError:
                return False

        return predicate

    def _handle_failure(
        self, failure: Disagreement, original: CheckCase
    ) -> Disagreement:
        """Shrink a failing case, re-derive the disagreement on the
        shrunk case, and write the repro artifact."""
        from .artifacts import write_artifact

        case = failure.case
        if self.shrink_enabled:
            config = next(
                c for c in self.configs if c.name == failure.config_name
            )
            shrunk = shrink_case(case, self._still_fails(config))
            if shrunk is not case:
                try:
                    refreshed = self.check_case(shrunk, (config,))
                except ReproError:
                    refreshed = []
                if refreshed:
                    failure = refreshed[0]
        if self.artifact_dir is not None:
            path = write_artifact(
                self.artifact_dir,
                failure,
                seed=self.seed,
                original_case=original,
            )
            failure.artifact_path = str(path)
            self._counts["check.artifacts_written"] += 1
        return failure

    def run(self) -> ConformanceReport:
        report = ConformanceReport(
            seed=self.seed,
            cases_requested=self.cases_requested,
            config_names=tuple(c.name for c in self.configs),
        )
        started = time.perf_counter()
        for index in range(self.cases_requested):
            case = generate_case(self.seed, index, self.profile)
            case_started = time.perf_counter()
            try:
                failures = self.check_case(case)
            except (TranslationError, OracleLimitError):
                report.cases_skipped += 1
                self._counts["check.cases_skipped"] += 1
                continue
            report.cases_run += 1
            self._counts["check.cases"] += 1
            self.metrics.observe(
                "check.case_seconds", time.perf_counter() - case_started
            )
            for failure in failures:
                self._counts["check.disagreements"] += 1
                report.disagreements.append(
                    self._handle_failure(failure, case)
                )
        report.elapsed_seconds = time.perf_counter() - started
        return report
