"""The cluster front-end: routing, fan-out/merge, and — crucially — how
per-shard degradation surfaces in the merged outcome.

The invariant under test throughout is the single-node one, invariant
15 makes it survive distribution: ``permitted ⊆ exact ⊆ permitted ∪
maybe`` where *exact* is what the single-node oracle answers for the
same contracts and query.
"""

import threading

import pytest

from repro.broker.contract import ContractSpec
from repro.broker.database import ContractDatabase
from repro.broker.options import Degradation, QueryOptions
from repro.broker.query import Verdict
from repro.broker.spec import QuerySpec
from repro.dist import (
    DistributedDatabase,
    LocalCluster,
    RoutedContract,
    ShardRouter,
)
from repro.dist.coordinator import RPC_GRACE_SECONDS
from repro.errors import DistError, QueryBudgetError
from repro.ltl.parser import parse

SPECS = [
    (f"contract-{i}", ["G (a -> F b)"] if i % 2 else ["G !a"], {"price": i * 100})
    for i in range(8)
]


@pytest.fixture
def cluster():
    with LocalCluster(3) as cluster:
        yield cluster


def _populate(db):
    for name, clauses, attributes in SPECS:
        db.register(name, clauses, attributes)


def _oracle():
    db = ContractDatabase()
    _populate(db)
    return db


class TestEndToEnd:
    def test_matches_single_node_oracle(self, cluster):
        oracle = _oracle()
        with cluster.database() as db:
            _populate(db)
            assert len(db) == len(oracle)
            for query in ("F a", "G !a", "F (a & F b)"):
                expected = oracle.query(query)
                got = db.query(query)
                # identical answers in identical (registration) order
                assert got.contract_names == expected.contract_names
                assert got.maybe_names == expected.maybe_names
                # every shard plans for itself, so how many candidates
                # reach the decider is the shards' business; the ledger
                # still balances
                s = got.stats
                assert s.permitted <= s.checked == s.candidates <= len(db)

    def test_merge_reports_what_each_shard_ran(self, cluster):
        """Shards plan for themselves.  Every shard-0 contract mentions
        ``a``, so there ``F a`` cannot prune and the shard scans; on the
        other two only every second contract does, and with a filter
        condition to save on they prune first.  The merged stats carry
        both choices instead of shard 0's."""
        router = ShardRouter(3)
        per_shard = [0, 0, 0]
        with cluster.database() as db:
            for i in range(45):
                name = f"c{i}"
                shard = router.shard_for(name)
                per_shard[shard] += 1
                mentions_a = shard == 0 or per_shard[shard] % 2
                db.register(
                    name,
                    ["G (a -> F b)"] if mentions_a else ["G (c -> F d)"],
                    {"price": 100 * (i % 10)},
                )
            assert min(per_shard) >= 8
            outcome = db.query(QuerySpec.from_dict({
                "query": "F a", "filter": [["price", "<=", 500]],
            }))
        s = outcome.stats
        assert s.stage_order == "attr_first | prefilter_first"
        summaries = s.plan_summary.split(" | ")
        assert len(summaries) == 2
        assert summaries[0].startswith("QueryPlan(no-prefilter")
        assert "prefilter_first" in summaries[1]
        assert s.used_prefilter
        # the prefilter stage's ledger sums over the shards that ran it
        assert s.prefilter_input == per_shard[1] + per_shard[2]
        assert 0 < s.prefilter_output < s.prefilter_input
        assert s.pruning_ratio == pytest.approx(
            1 - s.prefilter_output / s.prefilter_input
        )
        assert not hasattr(s, "planned")

    def test_query_many_matches_oracle(self, cluster):
        queries = ["F a", "G (a -> F b)", "F b"]
        oracle = _oracle()
        expected = [o.contract_names for o in oracle.query_many(queries)]
        with cluster.database() as db:
            _populate(db)
            got = db.query_many(queries)
            assert [o.contract_names for o in got] == expected

    def test_attribute_filter_crosses_the_wire(self, cluster):
        oracle = _oracle()
        spec = QuerySpec.from_dict({
            "query": "F a", "filter": [["price", "<=", 300]],
        })
        with cluster.database() as db:
            _populate(db)
            assert (
                db.query(spec).contract_names
                == oracle.query(spec).contract_names
            )

    def test_duplicate_registration_rejected_globally(self, cluster):
        with cluster.database() as db:
            db.register("alpha", ["F a"])
            with pytest.raises(DistError, match="already registered"):
                db.register("alpha", ["F b"])

    def test_register_takes_a_spec_and_forwards_texts_unparsed(self, cluster):
        with cluster.database() as db:
            spec = ContractSpec("alpha", (parse("G(a -> F b)"),), {"price": 1})
            assert db.register(spec).name == "alpha"
            assert db.query("F b").contract_names == ("alpha",)
            # clause texts travel as given: a malformed one is the
            # shard's rejection, not a client-side parse error
            with pytest.raises(DistError, match="rejected 'register'"):
                db.register("beta", ["((("])
            assert len(db) == 1

    def test_deregister_routes_home(self, cluster):
        with cluster.database() as db:
            routed = [db.register(n, c, a) for n, c, a in SPECS[:4]]
            db.deregister(routed[1].contract_id)
            assert len(db) == 3
            with pytest.raises(DistError, match="no contract"):
                db.deregister(routed[1].contract_id)

    def test_ingest_routes_by_contract(self, cluster):
        with cluster.database() as db:
            db.register("alpha", ["G (a -> F b)"])
            db.register("beta", ["G (a -> F b)"])
            report = db.ingest([
                {"contract": "alpha", "events": ["a"]},
                {"contract": "beta", "events": ["a", "b"]},
            ])
            assert report["events"] == 2  # two stream records routed
            assert report["deliveries"] == 2
            with pytest.raises(DistError, match="no contract"):
                db.ingest([{"contract": "ghost", "events": ["a"]}])

    def test_status_spans_the_cluster(self, cluster):
        with cluster.database() as db:
            _populate(db)
            status = db.status()
            assert status["contracts"] == len(SPECS)
            assert len(status["shards"]) == 3
            placed = sorted(
                name for shard in status["shards"]
                for name in shard["names"]
            )
            assert placed == sorted(name for name, _, _ in SPECS)


class TestDegradedMerge:
    """Satellite: one shard down or late must surface exactly as the
    single-node degradation contract demands."""

    def _cluster_with_dead_shard(self):
        cluster = LocalCluster(3)
        db = cluster.database(rpc_timeout=2.0)
        _populate(db)
        dead = cluster.servers[1]
        dead_names = {
            name for name, _, _ in SPECS
            if db.router.shard_for(name) == 1
        }
        assert dead_names, "fixture needs contracts on the dead shard"
        dead.stop()
        return cluster, db, dead_names

    def test_dead_shard_contracts_become_skipped_maybe(self):
        cluster, db, dead_names = self._cluster_with_dead_shard()
        try:
            oracle = _oracle()
            exact = set(oracle.query("F a").contract_names)
            outcome = db.query("F a")

            permitted = set(outcome.contract_names)
            maybe = set(outcome.maybe_names)
            # the single-node degradation invariant, distributed:
            assert permitted <= exact <= permitted | maybe
            # precisely the dead shard's contracts became maybes
            assert maybe == dead_names
            by_name = {
                db._catalog[i].name: v
                for i, v in outcome.verdicts.items()
            }
            for name in dead_names:
                assert by_name[name] is Verdict.SKIPPED
            assert outcome.stats.degraded
            assert outcome.stats.skipped >= len(dead_names)
            # every dead-shard contract is counted a candidate (we
            # cannot know which its prefilter would have kept)
            assert (
                outcome.stats.candidates
                == outcome.stats.checked + len(dead_names)
            )
            assert (
                db.metrics.counter_value("dist.merge.skipped_shards") >= 1
            )
        finally:
            db.close()
            cluster.stop()

    def test_dead_shard_with_fail_policy_raises(self):
        # a failed shard under Degradation.FAIL is the same typed
        # refusal a single node gives an exhausted budget
        cluster, db, _ = self._cluster_with_dead_shard()
        try:
            with pytest.raises(QueryBudgetError):
                db.query("F a", QueryOptions(degradation=Degradation.FAIL))
        finally:
            db.close()
            cluster.stop()

    def test_dead_shard_with_drop_policy_drops(self):
        cluster, db, dead_names = self._cluster_with_dead_shard()
        try:
            outcome = db.query(
                "F a", QueryOptions(degradation=Degradation.DROP)
            )
            assert not set(outcome.maybe_names)
            assert set(outcome.contract_names).isdisjoint(dead_names)
            assert outcome.stats.degraded
        finally:
            db.close()
            cluster.stop()


class TestMergeUnit:
    """Direct `_merge` coverage with synthetic shard documents — the
    degradation shapes a live shard can report (TIMED_OUT, SKIPPED)
    plus a completely failed shard, in one outcome."""

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

    def test_global_registration_order_restored(self):
        coordinator = self._coordinator()
        outcome = coordinator._merge(parse("F a"), [
            (0, {"verdicts": {"alpha": "permitted", "delta": "permitted"},
                 "stats": {"candidates": 2, "checked": 2, "permitted": 2}}),
            (1, {"verdicts": {"beta": "permitted", "epsilon": "not_permitted"},
                 "stats": {"candidates": 2, "checked": 2, "permitted": 1}}),
            (2, {"verdicts": {"gamma": "permitted"},
                 "stats": {"candidates": 1, "checked": 1, "permitted": 1}}),
        ], QueryOptions())
        # ascending global id, regardless of shard arrival order
        assert outcome.contract_names == ("alpha", "beta", "gamma", "delta")
        assert outcome.contract_ids == (1, 2, 3, 4)
        assert outcome.stats.candidates == 5
        assert outcome.stats.permitted == 4
        assert not outcome.stats.degraded

    def test_timed_out_on_a_live_shard_becomes_maybe(self):
        coordinator = self._coordinator()
        outcome = coordinator._merge(parse("F a"), [
            (0, {"verdicts": {"alpha": "permitted", "delta": "timed_out"},
                 "stats": {"candidates": 2, "checked": 2, "permitted": 1,
                           "timed_out": 1, "degraded": True}}),
            (1, {"verdicts": {"beta": "skipped"},
                 "stats": {"candidates": 1, "skipped": 1, "degraded": True}}),
            (2, {"verdicts": {}, "stats": {}}),
        ], QueryOptions())
        assert outcome.contract_names == ("alpha",)
        assert outcome.maybe_names == ("beta", "delta")
        assert outcome.verdicts[4] is Verdict.TIMED_OUT
        assert outcome.verdicts[2] is Verdict.SKIPPED
        assert outcome.stats.timed_out == 1
        assert outcome.stats.degraded

    def test_failed_shard_merges_with_live_degradation(self):
        coordinator = self._coordinator()
        outcome = coordinator._merge(parse("F a"), [
            (0, {"verdicts": {"alpha": "permitted", "delta": "timed_out"},
                 "stats": {"candidates": 2, "checked": 2, "permitted": 1,
                           "timed_out": 1, "degraded": True}}),
            (1, None),  # shard 1 never answered
            (2, {"verdicts": {"gamma": "permitted"},
                 "stats": {"candidates": 1, "checked": 1, "permitted": 1}}),
        ], QueryOptions())
        assert outcome.contract_names == ("alpha", "gamma")
        # maybes in ascending global-id order even across sources
        assert outcome.maybe_ids == (2, 4, 5)
        assert outcome.maybe_names == ("beta", "delta", "epsilon")
        assert outcome.verdicts[2] is Verdict.SKIPPED
        assert outcome.verdicts[5] is Verdict.SKIPPED
        # failed-shard contracts count as candidates and skipped
        assert outcome.stats.candidates == 5
        assert outcome.stats.skipped == 2
        assert outcome.stats.degraded

    def test_distinct_shard_plans_are_carried(self):
        coordinator = self._coordinator()
        scan = "QueryPlan(no-prefilter, no-projections: x)"
        prune = "QueryPlan(prefilter, projections, prefilter_first: y)"
        outcome = coordinator._merge(parse("F a"), [
            (0, {"verdicts": {}, "stats": {"plan_summary": scan}}),
            (1, {"verdicts": {}, "stats": {
                "plan_summary": prune, "stage_order": "prefilter_first",
                "prefilter_input": 10, "prefilter_output": 4}}),
            (2, {"verdicts": {}, "stats": {
                "plan_summary": prune, "stage_order": "prefilter_first",
                "prefilter_input": 10, "prefilter_output": 2}}),
        ], QueryOptions())
        assert outcome.stats.plan_summary == f"{scan} | {prune}"
        assert outcome.stats.stage_order == "attr_first | prefilter_first"
        assert outcome.stats.pruning_ratio == pytest.approx(0.7)
        # no shard answered: nothing ran, the defaults stand
        nothing = coordinator._merge(
            parse("F a"), [(0, None), (1, None), (2, None)], QueryOptions()
        )
        assert nothing.stats.plan_summary == ""
        assert nothing.stats.stage_order == "attr_first"

    def test_permission_time_is_critical_path_not_sum(self):
        coordinator = self._coordinator()
        outcome = coordinator._merge(parse("F a"), [
            (0, {"verdicts": {}, "stats": {"permission_seconds": 0.5,
                                           "total_seconds": 0.6}}),
            (1, {"verdicts": {}, "stats": {"permission_seconds": 0.2,
                                           "total_seconds": 0.3}}),
            (2, {"verdicts": {}, "stats": {"permission_seconds": 0.1,
                                           "total_seconds": 0.2}}),
        ], QueryOptions())
        assert outcome.stats.permission_seconds == 0.5
        assert outcome.stats.total_seconds == 0.6


class TestDeadlinePropagation:
    def test_shards_get_the_remaining_budget(self):
        calls = []

        async def fake_call_all(shard_calls, deadline=None):
            calls.extend(
                (shard, doc, timeout)
                for shard, (doc, timeout) in shard_calls.items()
            )
            return [{"ok": True, "outcomes": [{"verdicts": {}, "stats": {}}]}
                    for _ in shard_calls]

        with DistributedDatabase([("127.0.0.1", 1),
                                  ("127.0.0.1", 2)]) as coordinator:
            coordinator._catalog[1] = RoutedContract(1, "alpha", 0)
            coordinator._by_name["alpha"] = 1
            coordinator._call_all = fake_call_all
            coordinator.query_many(
                ["F a"], QueryOptions(deadline_seconds=10.0)
            )
        assert len(calls) == 2
        for _, doc, timeout in calls:
            shipped = doc["options"]["deadline_seconds"]
            # the shard gets what is left of the budget, not more
            assert 0.0 < shipped <= 10.0
            assert timeout == pytest.approx(shipped + RPC_GRACE_SECONDS)

    def test_rejects_non_distributable_options(self):
        with DistributedDatabase([("127.0.0.1", 1)]) as coordinator:
            with pytest.raises(DistError):
                coordinator.query_many(["F a"], QueryOptions(explain=True))


class TestClientSurface:
    def test_single_query_string_rejected_by_query_many(self, cluster):
        with cluster.database() as db:
            with pytest.raises(DistError, match="sequence"):
                db.query_many("F a")

    def test_empty_cluster_rejected(self):
        with pytest.raises(DistError, match="at least one shard"):
            DistributedDatabase([])

    def test_close_is_idempotent(self, cluster):
        db = cluster.database()
        db.close()
        db.close()

    def test_client_starts_no_thread_of_its_own(self, cluster):
        # the loop runs in the calling thread for the length of a call:
        # the client adds no hand-off to a query's path (the shard
        # servers' connection handlers are the cluster's threads)
        before = {thread.name for thread in threading.enumerate()}
        with cluster.database() as db:
            started = {thread.name for thread in threading.enumerate()}
            assert started == before
            _populate(db)
            assert "dist-coordinator" not in {
                thread.name for thread in threading.enumerate()
            }

    def test_callers_on_several_threads_take_turns(self, cluster):
        with cluster.database() as db:
            _populate(db)
            expected = _oracle().query("F b").contract_names
            answers, errors = [], []

            def ask():
                try:
                    for _ in range(10):
                        answers.append(db.query("F b").contract_names)
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(exc)

            threads = [threading.Thread(target=ask) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert errors == []
            assert answers == [expected] * 40
