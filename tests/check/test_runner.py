"""The differential runner end to end: clean sweeps, injected wrong
verdicts, shrinking, artifacts, and replay."""

import json

import pytest

from repro.automata import graph
from repro.check import (
    CheckCase,
    ConformanceRunner,
    config_lattice,
    configs_by_name,
    generate_case,
    load_artifact,
    replay_artifact,
)
from repro.check.cases import ContractCase, FilterSpec
from repro.core.permission import permits_encoded as real_permits
from repro.errors import ReproError


class TestLattice:
    def test_lattice_shape(self):
        lattice = config_lattice()
        assert len(lattice) == 15
        names = [c.name for c in lattice]
        assert len(set(names)) == len(names)
        assert "journal-replay" in names
        assert "ndfs-encoded" not in names
        assert "ndfs-planner" in names
        # 4.0: one decider, one executor — no scc* or parallel cell
        assert not any(name.startswith("scc") for name in names)
        assert "parallel-x2" not in names
        assert not hasattr(lattice[0], "algorithm")
        assert "monitor-stream" in names and "monitor-unknown" in names
        assert "sharded" in names and "replicated" in names
        assert "flaky-network" in names and "failover" in names
        assert sum(1 for c in lattice if not c.exact) == 1

    def test_configs_by_name_rejects_unknown(self):
        with pytest.raises(ReproError):
            configs_by_name(["no-such-config"])

    def test_unknown_profile_rejected(self):
        with pytest.raises(ReproError):
            ConformanceRunner(profile="enormous")


class TestCleanRun:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        """One 12-case sweep of the whole lattice (the slowest thing in
        tier-1), shared by the tests that only read its report."""
        artifact_dir = tmp_path_factory.mktemp("artifacts")
        runner = ConformanceRunner(seed=7, cases=12, artifact_dir=artifact_dir)
        return runner, runner.run(), artifact_dir

    def test_small_run_agrees_everywhere(self, sweep):
        runner, report, artifact_dir = sweep
        assert report.ok
        assert report.cases_run + report.cases_skipped == 12
        assert report.configs_run == report.cases_run * 15
        assert list(artifact_dir.iterdir()) == []
        assert runner.metrics.counter_value("check.cases") == report.cases_run
        assert runner.metrics.counter_value("check.disagreements") == 0

    def test_report_to_dict_is_json_able(self, sweep):
        _, report, _ = sweep
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] is True
        assert doc["seed"] == 7

    def test_duplicate_contract_names_rejected(self):
        case = CheckCase(
            case_id="dup",
            contracts=(
                ContractCase(name="c0", clauses=("a",)),
                ContractCase(name="c0", clauses=("b",)),
            ),
            query="F a",
        )
        with pytest.raises(ReproError):
            ConformanceRunner().check_case(case)


def _invert_decider(monkeypatch):
    """Install a wrong decider: every definite verdict is flipped."""

    def inverted(contract, query, binding=None, **kwargs):
        return not real_permits(contract, query, binding, **kwargs)

    monkeypatch.setattr("repro.broker.database.permits_encoded", inverted)


class TestInjectedWrongVerdict:
    """The acceptance pipeline: a hand-injected wrong verdict must be
    detected, shrunk, written as a standalone artifact, and replayable."""

    def test_detection_shrink_artifact_replay(self, tmp_path, monkeypatch):
        _invert_decider(monkeypatch)
        # prefilter off so the (stubbed) decider is consulted for every
        # candidate and the inversion cannot be masked
        runner = ConformanceRunner(
            seed=7,
            cases=4,
            configs=configs_by_name(["ndfs"]),
            artifact_dir=tmp_path,
        )
        report = runner.run()
        assert not report.ok
        failure = report.disagreements[0]
        assert failure.kind == "exact-mismatch"
        assert failure.artifact_path is not None

        doc = load_artifact(failure.artifact_path)
        assert doc["config"] == "ndfs"
        assert doc["expected"] != doc["got"]
        # the artifact is standalone: the stored case alone reproduces
        restored = CheckCase.from_dict(doc["case"])
        assert runner.check_case(restored, configs_by_name(["ndfs"]))

        # replay while the bug is still installed -> reproduced
        replayed = replay_artifact(failure.artifact_path)
        assert replayed.reproduced
        assert "FAILURE REPRODUCED" in replayed.summary()

        # replay after the fix -> passes
        monkeypatch.undo()
        fixed = replay_artifact(failure.artifact_path)
        assert not fixed.reproduced
        assert "passes" in fixed.summary()

    def test_shrinking_minimizes_the_case(self, tmp_path, monkeypatch):
        _invert_decider(monkeypatch)
        runner = ConformanceRunner(
            seed=7,
            cases=2,
            configs=configs_by_name(["ndfs"]),
            artifact_dir=tmp_path,
        )
        report = runner.run()
        assert not report.ok
        for failure in report.disagreements:
            original = generate_case(
                7, int(failure.case.case_id.rsplit("case", 1)[1])
            )
            assert len(failure.case.contracts) <= len(original.contracts)
            doc = load_artifact(failure.artifact_path)
            if failure.case != original:
                assert doc["original_case"] == original.to_dict()

    def test_crashing_decider_reported_as_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("decider exploded")

        monkeypatch.setattr(
            "repro.broker.database.permits_encoded", broken
        )
        runner = ConformanceRunner(
            seed=7, cases=1, configs=configs_by_name(["ndfs"]), shrink=False
        )
        report = runner.run()
        assert not report.ok
        assert report.disagreements[0].kind == "error"
        assert "decider exploded" in report.disagreements[0].detail


def _skip_live_state_pruning(monkeypatch):
    """A stream-engine bug: the live mask keeps every *reachable* state,
    so a history no allowed sequence extends is reported late."""

    def reachable_states(encoded):
        return sum(1 << state for state in graph.reachable_from(
            encoded.initial, encoded.successor_ids
        ))

    monkeypatch.setattr(
        "repro.stream.encoded.live_state_mask", reachable_states
    )


def _latch_lost_watches(monkeypatch):
    """The historical fleet bug: a watch that was lost once stays
    reported unsatisfiable although its verdict can recover."""
    from repro.stream.engine import FleetMonitor

    live = FleetMonitor.watch_satisfiable

    def latched(self, name, watch):
        lost = self.__dict__.setdefault("_lost_watches", set())
        if not live(self, name, watch):
            lost.add((name, watch))
        return (name, watch) not in lost

    monkeypatch.setattr(FleetMonitor, "watch_satisfiable", latched)


def _key_step_memo_on_frontier_alone(monkeypatch):
    """A step-memo bug: every step table of a monitor shares one
    frontier → successor memo, so a frontier stepped under one snapshot
    answers for every other."""
    from repro.stream.encoded import EncodedMonitor

    compile_snapshot = EncodedMonitor._compile_snapshot
    shared = {}

    def one_memo(self, snap):
        table, _, unknown = compile_snapshot(self, snap)
        steps = shared.setdefault(id(self), (self, {}))[1]
        entry = self._snap_memo[snap] = (table, steps, unknown)
        return entry

    monkeypatch.setattr(EncodedMonitor, "_compile_snapshot", one_memo)


def _skip_unknown_events_on_step_hits(monkeypatch):
    """A step-memo bug: a step answered from the memo does not count
    the snapshot's unknown events (as if the count sat on the miss
    path)."""
    from repro.stream.encoded import EncodedMonitor

    advance = EncodedMonitor.advance

    def counting_misses(self, snapshot):
        entry = self._snap_memo.get(frozenset(snapshot))
        hit = entry is not None and self._frontier in entry[1]
        before = self.unknown_events
        status = advance(self, snapshot)
        if hit:
            self.unknown_events = before
        return status

    monkeypatch.setattr(EncodedMonitor, "advance", counting_misses)


class TestSeededEngineBugs:
    """The monitor oracle kills seeded stream-engine bugs (ROADMAP 6(a)
    in miniature): the same detect → shrink → artifact → replay pipeline
    as the injected wrong verdict above, through the ``monitor-stream``
    cell.  ``cases`` reaches the first seed-7 case each bug shows on."""

    @pytest.mark.parametrize("install, cases", [
        (_skip_live_state_pruning, 1),
        (_latch_lost_watches, 45),
        (_key_step_memo_on_frontier_alone, 3),
    ])
    def test_detection_shrink_artifact_replay(
        self, install, cases, tmp_path, monkeypatch
    ):
        configs = configs_by_name(["monitor-stream"])
        install(monkeypatch)
        runner = ConformanceRunner(
            seed=7, cases=cases, configs=configs, artifact_dir=tmp_path
        )
        report = runner.run()
        assert not report.ok
        failure = report.disagreements[0]
        assert failure.config_name == "monitor-stream"
        assert failure.kind == "exact-mismatch"
        restored = CheckCase.from_dict(
            load_artifact(failure.artifact_path)["case"]
        )
        assert runner.check_case(restored, configs)
        assert replay_artifact(failure.artifact_path).reproduced

        # the unmutated engine passes the replay and the same sweep
        monkeypatch.undo()
        assert not replay_artifact(failure.artifact_path).reproduced
        assert ConformanceRunner(
            seed=7, cases=cases, configs=configs
        ).run().ok


class TestWarmReplay:
    """The monitor cells replay each trace a second time after
    ``fleet.reset()``, with every memo warm: a bug that only a memo hit
    shows is caught where one fresh-fleet replay would pass.  Seed-7
    case 1 is such a case for the bug below; over the first 60 cases
    ``monitor-stream`` catches it on 49 with the warm replay and on 16
    without it."""

    def test_a_bug_only_memo_hits_show_is_caught(self, monkeypatch):
        configs = configs_by_name(["monitor-stream"])
        _skip_unknown_events_on_step_hits(monkeypatch)
        report = ConformanceRunner(
            seed=7, cases=2, configs=configs, shrink=False
        ).run()
        assert "seed7-case1" in {
            d.case.case_id for d in report.disagreements
        }
        monkeypatch.undo()
        assert ConformanceRunner(seed=7, cases=2, configs=configs).run().ok


def _drop_last_contract_transition(monkeypatch):
    """A product bug: ``_expand_pair`` never joins a contract state's
    last transition."""
    from repro.core import permission

    def expand(contract, query, binding, pair):
        nq = query.num_states
        c, q = divmod(pair, nq)
        found = []
        for qi in range(query.offsets[q], query.offsets[q + 1]):
            row = binding.compat[query.trans_labels[qi]]
            for ci in range(contract.offsets[c], contract.offsets[c + 1] - 1):
                if (row >> contract.trans_labels[ci]) & 1:
                    found.append(
                        contract.trans_dsts[ci] * nq + query.trans_dsts[qi]
                    )
        successors = tuple(dict.fromkeys(reversed(found)))[::-1]
        binding.successors[pair] = successors
        return successors

    monkeypatch.setattr(permission, "_expand_pair", expand)


class TestSeededProductBug:
    """The decider and the watch masks expand one compatibility product,
    so a bug in it shows through both of its consumers: on seed-7 cases
    0-3 the ``ndfs`` cell *and* the ``monitor-stream`` cell disagree with
    the oracle."""

    def test_both_consumers_report_it(self, monkeypatch):
        configs = configs_by_name(["ndfs", "monitor-stream"])
        _drop_last_contract_transition(monkeypatch)
        report = ConformanceRunner(
            seed=7, cases=4, configs=configs, shrink=False
        ).run()
        assert {d.config_name for d in report.disagreements} == {
            "ndfs", "monitor-stream"
        }
        monkeypatch.undo()
        assert ConformanceRunner(seed=7, cases=4, configs=configs).run().ok


class TestReplayValidation:
    def test_replay_rejects_non_artifact(self, tmp_path):
        bogus = tmp_path / "not-artifact.json"
        bogus.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ReproError):
            replay_artifact(bogus)


class TestFilterIntegration:
    def test_filter_excludes_contract_everywhere(self):
        case = CheckCase(
            case_id="filtered",
            contracts=(
                ContractCase(
                    name="cheap",
                    clauses=("G (a -> F b)",),
                    attributes={"price": 100},
                ),
                ContractCase(
                    name="pricey",
                    clauses=("G (a -> F b)",),
                    attributes={"price": 900},
                ),
            ),
            query="F a",
            filter=FilterSpec((("price", "<=", 400),)),
        )
        assert ConformanceRunner().check_case(case) == []
