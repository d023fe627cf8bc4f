"""Unit tests for the metrics registry: owners read on export,
histograms, rendering, and exact totals under concurrent writers."""

import gc
import socket
import sys
import threading
import time
import weakref

import pytest

from repro.broker.database import ContractDatabase
from repro.dist import protocol
from repro.dist.cluster import LocalCluster
from repro.dist.server import ShardServer
from repro.obs.metrics import (
    COUNT_BUCKETS,
    RATIO_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.workload.airfare import all_ticket_specs


class Owner:
    """The smallest owner: counts and gauges as plain numbers."""

    def __init__(self, registry, counters=(), gauges=()):
        self.counters = dict(counters)
        self.gauges = dict(gauges)
        registry.register(self)

    def collect(self):
        return {"counters": self.counters, "gauges": self.gauges}


def _spin(threads, target):
    """Run ``target`` on ``threads`` threads at once, switching every
    microsecond so that a lost update would show."""
    workers = [threading.Thread(target=target) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("t", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(15.0)
        assert h.mean == pytest.approx(3.75)
        assert h.min == 0.5
        assert h.max == 10.0

    def test_quantile_estimates_from_buckets(self):
        h = Histogram("t", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 0.6, 0.7, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0  # bucket upper bound
        assert h.quantile(1.0) == 3.0  # bucket bound clamped to the max

    def test_quantile_overflow_returns_max(self):
        h = Histogram("t", buckets=(1.0,))
        h.observe(9.0)
        assert h.quantile(0.5) == 9.0

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram("t", buckets=(100.0,))
        h.observe(3.0)
        assert h.quantile(0.5) == 3.0

    def test_empty_histogram(self):
        h = Histogram("t")
        assert h.count == 0
        assert h.mean == 0.0
        assert h.quantile(0.9) == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram("t").quantile(0.0)

    def test_requires_buckets(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=())

    def test_snapshot_shape(self):
        h = Histogram("t", buckets=(1.0, 2.0))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["count"] == 1
        assert snap["buckets"] == {1.0: 1, 2.0: 0}
        assert snap["overflow"] == 0
        assert set(snap) >= {"mean", "min", "max", "p50", "p90", "p99"}


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        m = MetricsRegistry()
        owner = Owner(m, counters={"a": 2})
        m.observe("lat", 0.01)
        assert m.counter_value("a") == 2
        assert m.histogram("lat").count == 1
        assert owner.counters == {"a": 2}

    def test_counter_value_of_unknown_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0
        assert MetricsRegistry().gauge_value("nope") == 0.0

    def test_owner_counts_are_read_on_every_export(self):
        m = MetricsRegistry()
        owner = Owner(m, counters={"n": 0})
        assert m.counter_value("n") == 0
        owner.counters["n"] += 5  # no call into the registry
        assert m.counter_value("n") == 5
        assert m.snapshot()["counters"] == {"n": 5}

    def test_same_named_counts_of_live_owners_are_summed(self):
        m = MetricsRegistry()
        first = Owner(m, counters={"n": 2, "a": 1}, gauges={"g": 0.5})
        second = Owner(m, counters={"n": 3}, gauges={"g": 1})
        assert m.snapshot()["counters"] == {"a": 1, "n": 5}
        assert m.gauge_value("g") == 1.5
        m.register(first)  # registering twice does not count twice
        assert m.counter_value("n") == 5
        assert second.counters == {"n": 3}

    def test_a_dead_owners_counts_leave_the_snapshot(self):
        m = MetricsRegistry()
        keep = Owner(m, counters={"n": 2})
        gone = Owner(m, counters={"n": 3, "only": 1}, gauges={"g": 1})
        ref = weakref.ref(gone)
        del gone
        assert ref() is None  # the registry held no strong reference
        assert m.snapshot() == {"counters": {"n": 2}, "histograms": {}}
        assert keep.counters == {"n": 2}

    def test_custom_buckets_honored_on_creation(self):
        m = MetricsRegistry()
        m.observe("ratio", 0.4, buckets=RATIO_BUCKETS)
        assert m.histogram("ratio").buckets == tuple(sorted(RATIO_BUCKETS))
        m.observe("count", 7, buckets=COUNT_BUCKETS)
        assert m.histogram("count").buckets == tuple(sorted(COUNT_BUCKETS))

    def test_snapshot_and_render(self):
        m = MetricsRegistry()
        owner = Owner(m, counters={"query.count": 3},
                      gauges={"dist.replica.lag_records": 2})
        m.observe("query.total_seconds", 0.002)
        snap = m.snapshot()
        assert snap["counters"]["query.count"] == 3
        assert snap["gauges"] == {"dist.replica.lag_records": 2.0}
        assert snap["histograms"]["query.total_seconds"]["count"] == 1
        text = m.render_text()
        assert "query.count" in text
        assert "dist.replica.lag_records" in text
        assert "query.total_seconds" in text
        assert owner.counters == {"query.count": 3}

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render_text()

    def test_thread_safety_of_counters(self):
        """Queries run concurrently under the database's read lock; its
        counts and histograms still add up exactly."""
        db = ContractDatabase()
        for spec in all_ticket_specs():
            db.register(spec)

        def spin():
            for _ in range(100):
                db.query("F refund")

        _spin(4, spin)
        assert db.metrics.counter_value("query.count") == 400
        assert db.metrics.counter_value("query.cache.hits") == 399
        assert db.metrics.histogram("query.total_seconds").count == 400

    def test_thread_safety_of_direct_instrument_handles(self):
        # callers' threads may hold a histogram handle directly rather
        # than look it up in the registry on every observation
        m = MetricsRegistry()
        histogram = m.histogram("lat", buckets=(0.5, 1.0))

        def spin():
            for i in range(1000):
                histogram.observe(0.25 if i % 2 else 0.75)

        _spin(8, spin)
        snap = histogram.snapshot()
        assert snap["count"] == 8000
        assert snap["sum"] == pytest.approx(8000 * 0.5)
        assert snap["buckets"] == {0.5: 4000, 1.0: 4000}
        assert snap["min"] == 0.25
        assert snap["max"] == 0.75


class TestOwnersTotalsAreExact:
    def test_concurrent_ingest_into_one_fleet(self):
        db = ContractDatabase()
        for spec in all_ticket_specs():
            db.register(spec)
        fleet = db.monitor_fleet()
        contracts = fleet.contracts

        def spin():
            for i in range(250):
                fleet.ingest([(contracts[i % len(contracts)], ())])

        _spin(4, spin)
        assert db.metrics.counter_value("monitor.events") == 1000
        assert db.metrics.counter_value("monitor.batches") == 1000

    def test_concurrent_clients_of_one_shard_server(self):
        server = ShardServer(0).start()
        try:
            def spin():
                with socket.create_connection(server.address,
                                              timeout=10.0) as sock:
                    for _ in range(50):
                        protocol.send_frame(sock, {"op": "ping"})
                        assert protocol.recv_frame(sock)["ok"]
                    protocol.send_frame(
                        sock, {"op": "deregister", "name": "ghost"})
                    assert not protocol.recv_frame(sock)["ok"]

            _spin(4, spin)
            counters = server.handle_request({"op": "status"})["metrics"]
        finally:
            server.stop()
        assert counters["dist.shard.ops.ping"] == 200
        assert counters["dist.shard.errors"] == 4


class TestTheRegistryKeepsNothingAlive:
    """Owners are held by weak reference: with the cyclic collector off,
    each dies by reference counting alone."""

    @pytest.fixture(autouse=True)
    def _no_collector(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_fleets_from_the_database(self):
        db = ContractDatabase()
        for spec in all_ticket_specs():
            db.register(spec)
        fleet = db.monitor_fleet(watches={"w": "F refund"})
        fleet.ingest([{"events": ["refund"]}])
        assert db.metrics.counter_value("monitor.events") == 3
        ref = weakref.ref(fleet)
        del fleet
        assert ref() is None
        assert db.metrics.counter_value("monitor.events") == 0

    def test_stopped_and_restarted_shard_servers(self):
        cluster = LocalCluster(2)
        servers = [weakref.ref(server) for server in cluster.servers]
        with cluster.database() as front:
            front.register("c", ["G(a -> F b)"])
            front.query("F b")
        cluster.stop_shard(0)
        cluster.restart_shard(0)
        servers.append(weakref.ref(cluster.servers[0]))
        cluster.stop()
        deadline = time.monotonic() + 5
        while any(ref() is not None for ref in servers):
            assert time.monotonic() < deadline  # handler threads let go
            time.sleep(0.01)

    def test_replicas(self, tmp_path):
        with LocalCluster(1, directory=tmp_path) as cluster:
            with cluster.database() as front:
                front.register("c", ["G(a -> F b)"])
            metrics = MetricsRegistry()
            replica = cluster.replica(0, metrics=metrics)
            replica.poll()
            assert metrics.counter_value("dist.replica.polls") == 1
            ref = weakref.ref(replica)
            del replica
            assert ref() is None
            assert metrics.snapshot()["counters"] == {}
