"""Unit tests for the metrics registry (counters, histograms, rendering)."""

import threading

import pytest

from repro.obs.metrics import (
    COUNT_BUCKETS,
    RATIO_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("n")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


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
        m.inc("a", 2)
        m.observe("lat", 0.01)
        assert m.counter_value("a") == 2
        assert m.histogram("lat").count == 1

    def test_counter_value_of_unknown_is_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_custom_buckets_honored_on_creation(self):
        m = MetricsRegistry()
        m.observe("ratio", 0.4, buckets=RATIO_BUCKETS)
        assert m.histogram("ratio").buckets == tuple(sorted(RATIO_BUCKETS))
        m.observe("count", 7, buckets=COUNT_BUCKETS)
        assert m.histogram("count").buckets == tuple(sorted(COUNT_BUCKETS))

    def test_snapshot_and_render(self):
        m = MetricsRegistry()
        m.inc("query.count", 3)
        m.observe("query.total_seconds", 0.002)
        snap = m.snapshot()
        assert snap["counters"]["query.count"] == 3
        assert snap["histograms"]["query.total_seconds"]["count"] == 1
        text = m.render_text()
        assert "query.count" in text
        assert "query.total_seconds" in text

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render_text()

    def test_reset(self):
        m = MetricsRegistry()
        m.inc("a")
        m.reset()
        assert m.counter_value("a") == 0
        assert m.snapshot() == {"counters": {}, "histograms": {}}
        m.inc("a", 2)  # a fresh counter, not the one reset dropped
        assert m.counter_value("a") == 2

    def test_thread_safety_of_counters(self):
        m = MetricsRegistry()

        def spin():
            for _ in range(1000):
                m.inc("hits")
                m.observe("lat", 0.001)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter_value("hits") == 4000
        assert m.histogram("lat").count == 4000

    def test_thread_safety_of_direct_instrument_handles(self):
        # worker threads hold instrument handles directly (as the
        # query_many pool does) rather than going through the registry
        m = MetricsRegistry()
        counter = m.counter("hits")
        histogram = m.histogram("lat", buckets=(0.5, 1.0))

        def spin():
            for i in range(1000):
                counter.inc()
                histogram.observe(0.25 if i % 2 else 0.75)

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000
        snap = histogram.snapshot()
        assert snap["count"] == 8000
        assert snap["sum"] == pytest.approx(8000 * 0.5)
        assert snap["buckets"] == {0.5: 4000, 1.0: 4000}
        assert snap["min"] == 0.25
        assert snap["max"] == 0.75
