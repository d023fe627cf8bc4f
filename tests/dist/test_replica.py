"""Journal shipping: a replica tails the leader's journal and can only
ever hold a prefix of the leader's acknowledged state."""

import json

import pytest

from repro.broker.database import BrokerConfig
from repro.broker.journal import open_database
from repro.broker.persist import save_database
from repro.dist.replica import Replica
from repro.errors import DistError, ReproError


@pytest.fixture
def leader(tmp_path):
    db = open_database(tmp_path)
    yield db
    if db.journal is not None:
        db.journal.close()


def _names(db):
    return sorted(c.name for c in db.contracts())


class TestCatchUp:
    def test_replica_converges_to_leader(self, tmp_path, leader):
        for i in range(5):
            leader.register(f"contract-{i}", ["G (a -> F b)"], {"price": i})
        replica = Replica(tmp_path)
        report = replica.catch_up()
        assert report.lag_bytes == 0
        assert len(replica) == 5
        assert _names(replica.db) == _names(leader)

        # answers match the leader's bit for bit
        expected = leader.query("F a")
        got = replica.query("F a")
        assert got.contract_names == expected.contract_names
        assert got.verdicts == expected.verdicts

    def test_incremental_tail_does_not_resync(self, tmp_path, leader):
        leader.register("alpha", ["F a"])
        replica = Replica(tmp_path)
        first = replica.catch_up()
        assert first.resynced  # the initial sync is a resync by definition

        leader.register("beta", ["F a"])
        leader.deregister(self_id := next(
            c.contract_id for c in leader.contracts() if c.name == "alpha"
        ))
        report = replica.catch_up()
        assert not report.resynced
        assert report.applied == 2
        assert _names(replica.db) == ["beta"]
        assert self_id is not None

    def test_empty_leader_dir_is_just_lag_zero(self, tmp_path):
        replica = Replica(tmp_path / "leader-not-started")
        report = replica.poll()
        assert report.applied == 0
        assert not report.torn
        assert report.lag_bytes == 0
        # catch_up terminates even with no journal at all
        assert replica.catch_up(timeout=1.0).lag_bytes == 0

    def test_catch_up_times_out_on_permanent_tear(self, tmp_path, leader):
        leader.register("alpha", ["F a"])
        raw = (tmp_path / "journal.jsonl").read_bytes()
        trial = tmp_path / "torn"
        trial.mkdir()
        (trial / "journal.jsonl").write_bytes(raw[:-4])
        replica = Replica(trial)
        with pytest.raises(DistError, match="did not catch up"):
            replica.catch_up(timeout=0.3)


class TestTornTail:
    def test_torn_record_not_consumed_then_resumed(self, tmp_path, leader):
        leader.register("alpha", ["F a"])
        replica = Replica(tmp_path)
        replica.catch_up()
        offset = replica.cursor.offset

        # simulate the leader mid-flush: append half a record
        path = tmp_path / "journal.jsonl"
        before = path.read_bytes()
        leader.register("beta", ["F a"])
        complete = path.read_bytes()
        path.write_bytes(complete[: len(before) + 10])

        report = replica.poll()
        assert report.torn
        assert report.applied == 0
        assert replica.cursor.offset == offset  # cursor did not move
        assert _names(replica.db) == ["alpha"]
        # the replica never mutates the leader's journal
        assert path.read_bytes() == complete[: len(before) + 10]

        # the flush completes; the very next poll applies the record
        path.write_bytes(complete)
        report = replica.poll()
        assert not report.torn
        assert report.applied == 1
        assert _names(replica.db) == ["alpha", "beta"]


class TestConfiguration:
    """A replica restores through the leader's own restore step, so it
    runs the leader's configuration unless it was given one (before 8.0
    it ran the defaults until the leader's first snapshot)."""

    LEADER = BrokerConfig(prefilter_depth=3, projection_subset_cap=1)

    def test_replica_follows_the_journaled_configuration(self, tmp_path):
        leader = open_database(tmp_path, self.LEADER)
        leader.register("a", ["G (x -> F y)"])
        replica = Replica(tmp_path)
        replica.poll()
        assert replica.db.config == leader.config == self.LEADER
        assert _names(replica.db) == ["a"]
        # the first snapshot changes nothing: the manifest says the same
        save_database(leader, tmp_path)
        leader.register("b", ["F x"])
        assert replica.poll().resynced
        assert replica.db.config == self.LEADER
        assert _names(replica.db) == ["a", "b"]
        leader.journal.close()

    def test_an_explicit_configuration_still_wins(self, tmp_path):
        leader = open_database(tmp_path, self.LEADER)
        leader.register("a", ["G (x -> F y)"])
        mine = BrokerConfig(use_projections=False)
        replica = Replica(tmp_path, config=mine)
        replica.poll()
        assert replica.db.config == mine
        save_database(leader, tmp_path)
        assert replica.poll().resynced
        assert replica.db.config == mine
        assert _names(replica.db) == ["a"]
        leader.journal.close()


class TestEpochChange:
    def test_compaction_triggers_resync(self, tmp_path, leader):
        for i in range(3):
            leader.register(f"c{i}", ["F a"])
        replica = Replica(tmp_path)
        replica.catch_up()
        epoch_before = replica.cursor.epoch

        # the leader compacts: snapshot + fresh journal, epoch bump
        leader.register("late", ["F a"])
        save_database(leader, tmp_path)
        leader.register("post-compaction", ["F a"])

        report = replica.catch_up()
        assert report.resynced
        assert replica.cursor.epoch == epoch_before + 1
        assert _names(replica.db) == _names(leader)
        assert replica.metrics.counter_value("dist.replica.resyncs") >= 1

    def test_replica_state_survives_header_unreadable(self, tmp_path, leader):
        leader.register("alpha", ["F a"])
        replica = Replica(tmp_path)
        replica.catch_up()

        path = tmp_path / "journal.jsonl"
        saved = path.read_bytes()
        path.write_bytes(b'{"torn-header')  # no newline: header torn
        report = replica.poll()
        assert report.applied == 0
        assert _names(replica.db) == ["alpha"]  # prior state kept

        path.write_bytes(saved)
        replica.catch_up()
        assert _names(replica.db) == ["alpha"]


    def test_malformed_leader_manifest_is_a_typed_error(self, tmp_path, leader):
        """A resync from a manifest whose entry lacks ``clauses`` was a
        KeyError before 6.0."""
        leader.register("alpha", ["F a"])
        save_database(leader, tmp_path)
        manifest_path = tmp_path / "contracts.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["contracts"][0]["clauses"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ReproError):
            Replica(tmp_path).poll()


class TestDeregisterAcrossCompaction:
    def test_deregister_after_save_reaches_the_same_contract(
        self, tmp_path, leader
    ):
        """The leader's live ids go sparse, a save compacts the journal,
        and a later deregister must still remove the same contract on a
        replica that re-synced from the (densely renumbered) snapshot."""
        ids = {
            name: leader.register(name, ["F a"]).contract_id
            for name in "abcd"
        }
        leader.deregister(ids["b"])
        replica = Replica(tmp_path)
        replica.catch_up()
        save_database(leader, tmp_path)
        leader.deregister(ids["d"])
        leader.register("e", ["F a"])
        report = replica.catch_up()
        assert report.warnings == []
        assert report.lag_records == 0
        assert _names(replica.db) == _names(leader) == ["a", "c", "e"]

        # and a replica that starts from the snapshot agrees
        late = Replica(tmp_path)
        assert late.catch_up().warnings == []
        assert _names(late.db) == ["a", "c", "e"]


class TestLagMetrics:
    def test_lag_gauges_track_unapplied_records(self, tmp_path, leader):
        replica = Replica(tmp_path)
        leader.register("alpha", ["F a"])
        replica.catch_up()
        assert replica.metrics.gauge_value("dist.replica.lag_records") == 0
        assert replica.metrics.gauge_value("dist.replica.lag_bytes") == 0

        leader.register("beta", ["F a"])
        leader.register("gamma", ["F a"])
        # observe without applying: lag is visible before the poll that
        # consumes it
        from repro.dist.replica import PollReport

        probe = PollReport()
        replica._observe_lag(probe)
        assert probe.lag_records == 2
        assert replica.metrics.gauge_value("dist.replica.lag_records") == 2
        assert replica.metrics.gauge_value("dist.replica.lag_bytes") > 0
        # after a real poll the gauges drop back to zero
        replica.catch_up()
        assert replica.metrics.gauge_value("dist.replica.lag_records") == 0
        assert replica.metrics.counter_value("dist.replica.applied") >= 3


class TestReplicaReads:
    def test_query_many_takes_a_generator(self, tmp_path, leader):
        """The batch is materialized once: counting the queries must not
        exhaust the iterator the database is about to evaluate."""
        leader.register("alpha", ["F a"])
        leader.register("beta", ["G (a -> F b)"])
        replica = Replica(tmp_path)
        replica.catch_up()
        queries = ["F a", "F b"]
        outcomes = replica.query_many(q for q in queries)
        assert [o.contract_names for o in outcomes] == [
            o.contract_names for o in leader.query_many(queries)
        ]
        assert len(outcomes) == 2
        assert replica.metrics.counter_value("dist.replica.queries") == 2
