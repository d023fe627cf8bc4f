"""Fault tolerance in the distributed broker (1.10): per-shard circuit
breakers, RPC retry under injected transport faults, replica read
routing, leader promotion, and the merged answer when *every* shard is
dead.

The invariant throughout is invariant 16: a retried or failed-over
query returns the same answer a never-failed cluster would, or a sound
degradation (``permitted ⊆ exact ⊆ permitted ∪ maybe``).
"""

import time

import pytest

import repro.dist.coordinator as coordinator_module
from repro.broker.database import ContractDatabase
from repro.broker.journal import open_database
from repro.broker.options import Degradation, QueryOptions
from repro.broker.persist import load_database
from repro.broker.query import Verdict
from repro.core import faults
from repro.core.retry import BackoffPolicy
from repro.dist import (
    DistributedDatabase,
    LocalCluster,
    ReadPreference,
    Replica,
    RoutedContract,
    ShardHealth,
)
from repro.errors import DistError, QueryBudgetError, RetryableDistError
from repro.ltl.parser import parse

#: A retry policy tight enough for tests: same shape, no real sleeping.
FAST_RETRY = BackoffPolicy(max_retries=2, base_seconds=0.002,
                           cap_seconds=0.01)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestShardHealth:
    def _breaker(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_seconds", 5.0)
        return ShardHealth(clock=clock, **kwargs), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self._breaker()
        assert breaker.state == "closed"
        assert breaker.healthy
        assert breaker.allow()

    def test_opens_on_the_nth_consecutive_failure(self):
        breaker, _ = self._breaker()
        assert breaker.record_failure(OSError("one")) is False
        assert breaker.record_failure(OSError("two")) is False
        # exactly the tripping failure reports True (the metric hook)
        assert breaker.record_failure(OSError("three")) is True
        assert breaker.state == "open"
        assert not breaker.healthy
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self._breaker()
        breaker.record_failure(OSError("one"))
        breaker.record_failure(OSError("two"))
        breaker.record_success()
        assert breaker.consecutive_failures == 0
        breaker.record_failure(OSError("again"))
        assert breaker.state == "closed"

    def test_half_open_grants_a_single_probe(self):
        breaker, clock = self._breaker()
        for i in range(3):
            breaker.record_failure(OSError(f"f{i}"))
        assert not breaker.allow()  # open: fail fast
        clock.advance(5.0)
        assert breaker.allow()  # the reset timeout elapsed: one probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # concurrent callers wait on it

    def test_probe_success_closes(self):
        breaker, clock = self._breaker()
        for i in range(3):
            breaker.record_failure(OSError(f"f{i}"))
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_immediately(self):
        breaker, clock = self._breaker()
        for i in range(3):
            breaker.record_failure(OSError(f"f{i}"))
        clock.advance(5.0)
        assert breaker.allow()
        # a single half-open failure trips again — no fresh threshold
        assert breaker.record_failure(OSError("probe failed")) is True
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_reset_forgets_everything(self):
        breaker, _ = self._breaker()
        for i in range(3):
            breaker.record_failure(OSError(f"f{i}"))
        breaker.reset()
        assert breaker.state == "closed"
        assert breaker.consecutive_failures == 0
        assert breaker.last_error is None

    def test_to_dict_shape(self):
        breaker, _ = self._breaker()
        breaker.record_failure(OSError("boom"))
        doc = breaker.to_dict()
        assert doc["state"] == "closed"
        assert doc["consecutive_failures"] == 1
        assert doc["failure_threshold"] == 3
        assert "boom" in doc["last_error"]

    def test_rejects_a_zero_threshold(self):
        with pytest.raises(DistError, match="failure_threshold"):
            ShardHealth(failure_threshold=0)


class TestRpcRetry:
    """Transient transport faults on the coordinator's seams must be
    absorbed by the retry loop for idempotent ops, surfaced as the
    typed :class:`RetryableDistError` for mutations."""

    def _db(self, cluster, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        return cluster.database(**kwargs)

    def test_transient_send_fault_is_absorbed(self):
        oracle = ContractDatabase()
        with LocalCluster(3) as cluster, self._db(cluster) as db:
            for i in range(6):
                clauses = ["G (a -> F b)"] if i % 2 else ["G !a"]
                oracle.register(f"c{i}", clauses)
                db.register(f"c{i}", clauses)
            expected = oracle.query("F a")
            faults.fail_at("dist.send", nth=1, times=1,
                           exc=OSError("injected send fault"))
            faults.fail_at("dist.recv", nth=1, times=1,
                           exc=OSError("injected recv fault"))
            try:
                outcome = db.query("F a")
            finally:
                faults.reset()
            # the faulted run answers exactly like the never-failed one
            assert outcome.contract_names == expected.contract_names
            assert not outcome.maybe_names
            assert not outcome.stats.degraded
            assert db.metrics.counter_value("dist.retries") >= 2

    def test_register_under_a_transient_fault_is_typed_not_retried(self):
        with LocalCluster(2) as cluster, self._db(cluster) as db:
            faults.fail_at("dist.send", nth=1, times=1,
                           exc=OSError("injected send fault"))
            try:
                with pytest.raises(RetryableDistError):
                    db.register("alpha", ["F a"])
            finally:
                faults.reset()
            # exactly one fault was armed and it was not auto-retried,
            # so the shard never saw the registration: a verified
            # re-issue must succeed, not collide
            db.register("alpha", ["F a"])
            assert len(db) == 1
            assert db.metrics.counter_value("dist.retries") == 0

    def test_repeated_faults_trip_the_breaker(self):
        with LocalCluster(2) as cluster:
            with self._db(cluster, breaker_threshold=3,
                          breaker_reset_seconds=60.0) as db:
                db.register("alpha", ["F a"])
                faults.fail_at("dist.send", nth=1, times=10 ** 6,
                               exc=OSError("network down"))
                try:
                    outcome = db.query("F a")
                finally:
                    faults.reset()
                # both shards exhausted their retry budgets: every
                # contract degrades to a sound SKIPPED maybe
                assert set(outcome.maybe_names) == {"alpha"}
                assert db.metrics.counter_value("dist.breaker_open") >= 1
                states = {h.state for h in db.health}
                assert "open" in states
                # a healed operator closes the breakers and the
                # answer reconverges bit-for-bit
                db.reset_breakers()
                recovered = db.query("F a")
                assert recovered.contract_names == ("alpha",)
                assert not recovered.maybe_names


#: nine contracts over three shards: shard 0 holds c0, c5, c6; shard 1
#: holds c8; shard 2 the other five (placement hashes the name)
NINE = [f"c{i}" for i in range(9)]


def _register_nine(db):
    for i, name in enumerate(NINE):
        db.register(name, ["G (a -> F b)"] if i % 2 else ["G !a"])


def _dist_counters(db):
    return {name: value
            for name, value in db.metrics.snapshot()["counters"].items()
            if name.startswith("dist.")}


def _query_delta(db, *args):
    """The query's outcome and the ``dist.*`` counters it moved."""
    before = _dist_counters(db)
    outcome = db.query(*args)
    after = _dist_counters(db)
    return outcome, {name: value - before.get(name, 0)
                     for name, value in after.items()
                     if value != before.get(name, 0)}


def _slow_queries(server, seconds):
    real = server.handle_request

    def slow(doc):
        if doc.get("op") == "query_many":
            time.sleep(seconds)
        return real(doc)

    server.handle_request = slow


class TestPipelinedFanOut:
    """A query writes every shard its frame before it reads any answer.
    A shard whose send or read fails goes on through the one retry
    loop; every counter below is what the front-end that awaited one
    task per shard recorded for the same fault plan."""

    def _db(self, cluster, **kwargs):
        kwargs.setdefault("retry", FAST_RETRY)
        db = cluster.database(**kwargs)
        _register_nine(db)
        return db

    def test_send_fault_on_one_shard_while_the_others_answer(self):
        with LocalCluster(3) as cluster, self._db(cluster) as db:
            # the second send of the fan-out is shard 1's
            faults.fail_at("dist.send", nth=2, times=1,
                           exc=OSError("injected send fault"))
            outcome, moved = _query_delta(db, "F a")
        assert outcome.contract_names == ("c1", "c3", "c5", "c7")
        assert not outcome.maybe_names
        assert moved == {
            "dist.queries": 1, "dist.retries": 1,
            "dist.shard.0.requests": 1,
            "dist.shard.1.failures": 1, "dist.shard.1.requests": 1,
            "dist.shard.1.retries": 1,
            "dist.shard.2.requests": 1,
        }

    def test_read_timeout_after_the_others_answered(self, monkeypatch):
        """Shard 0 is read first and never answers in time; shards 1
        and 2 answered while the front-end waited on it, so only shard
        0's contracts are SKIPPED, and the query is back within its
        deadline plus the RPC grace — never after the slow shard."""
        monkeypatch.setattr(coordinator_module, "RPC_GRACE_SECONDS", 0.2)
        with LocalCluster(3) as cluster, self._db(cluster) as db:
            _slow_queries(cluster.servers[0], 2.0)
            started = time.perf_counter()
            outcome, moved = _query_delta(
                db, "F a", QueryOptions(deadline_seconds=0.3)
            )
            took = time.perf_counter() - started
        assert took < 1.5  # 0.3 + 0.2 s, with room for a loaded host
        assert outcome.contract_names == ("c1", "c3", "c7")
        assert outcome.maybe_names == ("c0", "c5", "c6")
        assert {outcome.verdicts[cid] for cid in (1, 6, 7)} == {
            Verdict.SKIPPED
        }
        assert moved == {
            "dist.queries": 1, "dist.merge.skipped_shards": 1,
            "dist.shard.0.timeouts": 1,
            "dist.shard.1.requests": 1, "dist.shard.2.requests": 1,
        }

    def test_read_timeouts_retry_until_the_budget_is_spent(self):
        with LocalCluster(3) as cluster, self._db(
                cluster, rpc_timeout=0.25) as db:
            _slow_queries(cluster.servers[0], 1.0)
            outcome, moved = _query_delta(db, "F a")
        assert outcome.maybe_names == ("c0", "c5", "c6")
        assert moved == {
            "dist.queries": 1, "dist.merge.skipped_shards": 1,
            "dist.retries": 2, "dist.breaker_open": 1,
            "dist.shard.0.timeouts": 3, "dist.shard.0.retries": 2,
            "dist.shard.1.requests": 1, "dist.shard.2.requests": 1,
        }

    def test_a_breaker_open_shard_is_never_dialed(self):
        with LocalCluster(3) as cluster, self._db(
                cluster, retry=BackoffPolicy(max_retries=0),
                breaker_threshold=1, breaker_reset_seconds=60.0) as db:

            def shard_1_down(**context):
                if context.get("shard") == 1:
                    raise OSError("shard 1 is down")

            faults.fail_at("dist.send", nth=1, times=10 ** 6,
                           action=shard_1_down)
            db.query("F a")
            faults.reset()
            assert [h.state for h in db.health] == ["closed", "open",
                                                    "closed"]
            touched = []
            for seam in ("dist.connect", "dist.send", "dist.recv"):
                faults.fail_at(
                    seam, nth=1, times=10 ** 6,
                    action=lambda **context: touched.append(context),
                )
            outcome, moved = _query_delta(db, "F a")
        assert [c["shard"] for c in touched] == [0, 0, 2, 2]
        assert outcome.contract_names == ("c1", "c3", "c5", "c7")
        assert outcome.maybe_names == ("c8",)
        assert moved == {
            "dist.queries": 1, "dist.merge.skipped_shards": 1,
            "dist.shard.0.requests": 1, "dist.shard.2.requests": 1,
        }

    def test_a_replica_routed_shard_among_leader_routed_ones(
            self, tmp_path):
        with LocalCluster(3, directory=tmp_path) as cluster, \
                self._db(cluster) as db:
            replica = cluster.replica(0)
            replica.catch_up()
            db.attach_replica(0, replica)
            # shard 0 reads from its replica: the first send is shard 1's
            faults.fail_at("dist.send", nth=1, times=1,
                           exc=OSError("injected send fault"))
            outcome, moved = _query_delta(db, "F a")
        assert outcome.contract_names == ("c1", "c3", "c5", "c7")
        assert moved == {
            "dist.queries": 1, "dist.replica_reads": 1, "dist.retries": 1,
            "dist.shard.1.failures": 1, "dist.shard.1.requests": 1,
            "dist.shard.1.retries": 1,
            "dist.shard.2.requests": 1,
        }

    def test_a_shard_that_stays_down_under_the_fail_policy(self):
        with LocalCluster(3) as cluster, self._db(
                cluster, retry=BackoffPolicy(max_retries=1,
                                             base_seconds=0.002,
                                             cap_seconds=0.01)) as db:

            def shard_2_down(**context):
                if context.get("shard") == 2:
                    raise OSError("shard 2 is down")

            faults.fail_at("dist.send", nth=1, times=10 ** 6,
                           action=shard_2_down)
            before = _dist_counters(db)
            with pytest.raises(QueryBudgetError, match="shard 2 failed"):
                db.query("F a", QueryOptions(degradation=Degradation.FAIL))
            faults.reset()
            moved = {name: value - before.get(name, 0)
                     for name, value in _dist_counters(db).items()
                     if value != before.get(name, 0)}
            assert moved == {
                "dist.retries": 1,
                "dist.shard.0.requests": 1, "dist.shard.1.requests": 1,
                "dist.shard.2.failures": 2, "dist.shard.2.retries": 1,
            }
            # the connections the refused query used still frame cleanly
            assert db.query("F a").contract_names == ("c1", "c3", "c5",
                                                      "c7")


class TestMergeAllShardsDead:
    """Satellite: the merged outcome when *no* shard answered — the
    worst sound degradation the coordinator can emit."""

    def _coordinator(self):
        # closed on return: _merge reads the catalog, never the loop
        with DistributedDatabase([("127.0.0.1", 1), ("127.0.0.1", 2),
                                  ("127.0.0.1", 3)]) as coordinator:
            for cid, (name, shard) in enumerate(
                [("alpha", 0), ("beta", 1), ("gamma", 2),
                 ("delta", 0), ("epsilon", 1)], start=1,
            ):
                routed = RoutedContract(cid, name, shard)
                coordinator._catalog[cid] = routed
                coordinator._by_name[name] = cid
        return coordinator

    def test_every_shard_dead_is_all_skipped_maybes(self):
        coordinator = self._coordinator()
        outcome = coordinator._merge(
            parse("F a"), [(0, None), (1, None), (2, None)], QueryOptions()
        )
        assert outcome.contract_names == ()
        assert outcome.maybe_names == (
            "alpha", "beta", "gamma", "delta", "epsilon",
        )
        assert all(v is Verdict.SKIPPED for v in outcome.verdicts.values())
        # every registered contract is still accounted a candidate:
        # nothing silently vanishes from the answer's denominator
        assert outcome.stats.candidates == 5
        assert outcome.stats.skipped == 5
        assert outcome.stats.checked == 0
        assert outcome.stats.degraded

    def test_every_shard_dead_with_drop_policy_is_empty_but_degraded(self):
        coordinator = self._coordinator()
        outcome = coordinator._merge(
            parse("F a"), [(0, None), (1, None), (2, None)],
            QueryOptions(degradation=Degradation.DROP),
        )
        assert outcome.contract_names == ()
        assert outcome.maybe_names == ()
        assert outcome.stats.degraded

    def test_every_shard_dead_with_fail_policy_raises(self):
        # end to end: a cluster whose every shard is unreachable must
        # refuse under Degradation.FAIL, not fabricate an empty answer
        cluster = LocalCluster(2)
        db = cluster.database(retry=FAST_RETRY, rpc_timeout=2.0)
        try:
            db.register("alpha", ["F a"])
            for server in cluster.servers:
                server.stop()
            with pytest.raises(QueryBudgetError):
                db.query("F a", QueryOptions(degradation=Degradation.FAIL))
            # and under MAYBE the same cluster degrades soundly
            outcome = db.query("F a")
            assert set(outcome.maybe_names) == {"alpha"}
        finally:
            db.close()
            cluster.stop()


class TestReplicaReadRouting:
    def test_fresh_replica_serves_the_read(self, tmp_path):
        with LocalCluster(2, directory=tmp_path) as cluster:
            with cluster.database() as db:
                names = [f"c{i}" for i in range(4)]
                for i, name in enumerate(names):
                    db.register(name, ["G (a -> F b)"], {"price": i})
                expected = db.query("F a")
                replica = cluster.replica(0)
                assert replica.catch_up().lag_records == 0
                # a shard's replica holds that shard's contracts only
                assert [c.name for c in replica.db.contracts()] == (
                    db.router.partition(names)[0]
                )
                db.attach_replica(0, replica)
                routed = db.query("F a")
                assert routed.contract_names == expected.contract_names
                assert routed.verdicts == expected.verdicts
                assert db.metrics.counter_value("dist.replica_reads") == 1

    def _lagging_replica(self, cluster, lag_records):
        """A replica whose routed-read poll reports ``lag_records``
        without applying anything — the shape a replica takes when its
        leader's journal outruns what it can verify before the read."""
        from repro.dist.replica import PollReport

        replica = cluster.replica(0)
        replica.catch_up()
        replica.poll = lambda: PollReport(lag_records=lag_records)
        return replica

    def test_stale_replica_falls_back_to_the_leader(self, tmp_path):
        with LocalCluster(1, directory=tmp_path) as cluster:
            with cluster.database() as db:
                db.register("c0", ["F a"])
                replica = self._lagging_replica(cluster, lag_records=2)
                db.attach_replica(0, replica, ReadPreference(
                    max_staleness_records=0,
                ))
                # new writes the lagging replica never applied
                db.register("c1", ["F a"])
                outcome = db.query("F a")
                # the leader answered: both contracts, not the stale one
                assert outcome.contract_names == ("c0", "c1")
                assert db.metrics.counter_value(
                    "dist.replica_read_fallbacks"
                ) == 1
                assert db.metrics.counter_value("dist.replica_reads") == 0

    def test_staleness_bound_admits_a_lagging_replica(self, tmp_path):
        with LocalCluster(1, directory=tmp_path) as cluster:
            with cluster.database() as db:
                db.register("c0", ["F a"])
                replica = self._lagging_replica(cluster, lag_records=2)
                db.attach_replica(0, replica, ReadPreference(
                    max_staleness_records=2,
                ))
                db.register("c1", ["F a"])
                outcome = db.query("F a")
                # two records behind is within the bound: the replica's
                # (stale but honestly stale) answer is served
                assert outcome.contract_names == ("c0",)
                assert db.metrics.counter_value("dist.replica_reads") == 1

    def test_detach_restores_leader_reads(self, tmp_path):
        with LocalCluster(1, directory=tmp_path) as cluster:
            with cluster.database() as db:
                db.register("c0", ["F a"])
                replica = cluster.replica(0)
                replica.catch_up()
                db.attach_replica(0, replica)
                db.detach_replica(0)
                db.query("F a")
                assert db.metrics.counter_value("dist.replica_reads") == 0

    def test_negative_staleness_is_rejected(self):
        with pytest.raises(DistError, match="max_staleness_records"):
            ReadPreference(max_staleness_records=-1)

    def test_attach_to_an_unknown_shard_is_rejected(self, tmp_path):
        with LocalCluster(1, directory=tmp_path) as cluster:
            with cluster.database() as db:
                with pytest.raises(DistError):
                    db.attach_replica(7, cluster.replica(0))


class TestPromotion:
    def _leader(self, tmp_path, contracts=3):
        leader_dir = tmp_path / "leader"
        db = open_database(leader_dir)
        for i in range(contracts):
            db.register(f"c{i}", ["G (a -> F b)"], {"price": i})
        return leader_dir, db

    def test_promotion_bumps_the_epoch_and_roundtrips(self, tmp_path):
        leader_dir, leader = self._leader(tmp_path)
        replica = Replica(leader_dir)
        replica.catch_up()
        leader.journal.close()  # the leader "dies"
        report = replica.promote(tmp_path / "promoted")
        assert report.epoch == 1  # past the dead leader's epoch 0
        assert report.contracts == 3
        assert replica.promoted
        # the promoted directory is a complete, loadable leader whose
        # answers match what the dead leader would have said
        recovered = load_database(tmp_path / "promoted")
        assert sorted(c.name for c in recovered.contracts()) == [
            "c0", "c1", "c2",
        ]
        expected = leader.query("F a")
        got = recovered.query("F a")
        assert got.contract_names == expected.contract_names

    def test_promoted_replica_is_writable(self, tmp_path):
        leader_dir, _ = self._leader(tmp_path)
        replica = Replica(leader_dir)
        replica.catch_up()
        replica.promote(tmp_path / "promoted")
        # local ids survive promotion (global ids stay stable across
        # the coordinator's failover) and new writes journal cleanly
        replica.db.register("fresh", ["F a"])
        assert len(replica.db) == 4

    def test_promotion_refuses_the_leader_directory(self, tmp_path):
        leader_dir, _ = self._leader(tmp_path)
        replica = Replica(leader_dir)
        replica.catch_up()
        with pytest.raises(DistError, match="fresh directory"):
            replica.promote(leader_dir)

    def test_double_promotion_refused(self, tmp_path):
        leader_dir, _ = self._leader(tmp_path)
        replica = Replica(leader_dir)
        replica.catch_up()
        replica.promote(tmp_path / "promoted")
        with pytest.raises(DistError, match="already promoted"):
            replica.promote(tmp_path / "promoted-again")

    def test_poll_after_promotion_refused(self, tmp_path):
        leader_dir, _ = self._leader(tmp_path)
        replica = Replica(leader_dir)
        replica.catch_up()
        replica.promote(tmp_path / "promoted")
        with pytest.raises(DistError, match="leader now"):
            replica.poll()

    def test_stalled_replica_refuses_promotion(self, tmp_path):
        leader_dir, leader = self._leader(tmp_path, contracts=1)
        replica = Replica(leader_dir)
        replica.catch_up()
        # poison the tail: a journal record the replica cannot apply
        # (an unparseable clause) stalls it on a consistent prefix
        leader.journal.append("register", {
            "name": "poison", "clauses": ["((("], "attributes": {},
        })
        report = replica.poll()
        assert replica.stalled, report
        with pytest.raises(DistError, match="stalled"):
            replica.promote(tmp_path / "promoted")

    def test_sibling_replica_resyncs_from_the_promoted_leader(
            self, tmp_path):
        leader_dir, leader = self._leader(tmp_path)
        replica = Replica(leader_dir)
        replica.catch_up()
        leader.journal.close()
        promoted_dir = tmp_path / "promoted"
        replica.promote(promoted_dir)
        # a sibling replica re-pointed at the new leader sees the epoch
        # bump and resyncs from the promoted snapshot
        sibling = Replica(promoted_dir)
        report = sibling.catch_up()
        assert report.resynced
        assert sorted(c.name for c in sibling.db.contracts()) == [
            "c0", "c1", "c2",
        ]
