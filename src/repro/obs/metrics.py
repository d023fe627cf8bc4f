"""Aggregate broker metrics: counters and bucketed histograms.

The paper's runtime module "outputs statistics regarding their
evaluation" per query (§7.1); a serving broker additionally needs the
*aggregate* view over a whole workload — how often the compilation cache
hit, where the latency distribution sits, how hard the prefilter pruned.
This module is that aggregation layer: a tiny, dependency-free metrics
registry in the spirit of Prometheus client libraries, restricted to
exactly what the broker and the benchmark harness consume.

Design constraints:

* **cheap** — recording a value is a dict lookup plus a few integer
  increments; the broker feeds every :class:`~repro.broker.query.QueryStats`
  through it unconditionally, so this sits on the hot path;
* **thread-safe** — :meth:`ContractDatabase.query_many` evaluates
  permission checks from a thread pool, and nothing stops applications
  from sharing a database across threads;
* **bounded** — histograms store fixed bucket counters (plus running
  count/sum/min/max), never the observations themselves, so memory does
  not grow with traffic.

Quantiles are estimated from the buckets (the upper bound of the bucket
where the cumulative count crosses the rank), the same estimate
Prometheus' ``histogram_quantile`` makes; they are exact enough to read
"p99 latency" off a benchmark report.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Mapping, Sequence

#: Default buckets for second-valued latencies (log-spaced, 100 µs – 2.5 s).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Default buckets for ratios in [0, 1] (pruning ratio, hit rates).
RATIO_BUCKETS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Default buckets for small cardinalities (candidate-set sizes).
COUNT_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500,
)

#: Log-spaced buckets for the planner's abstract cost estimates (units
#: of one attribute compare; see :class:`repro.broker.planner.CostModel`).
COST_BUCKETS: tuple[float, ...] = (
    10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000,
)


class Counter:
    """A monotonically increasing counter.

    Thread-safe: each instrument carries its own lock, so handles
    obtained via :meth:`MetricsRegistry.counter` can be incremented from
    worker threads directly (the broker's ``query_many`` pool does).
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A value that goes up and down — the current state of something
    (a replica's replication lag, a queue depth), not an accumulation.

    Thread-safe like the other instruments: per-gauge lock.
    """

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram with running summary statistics.

    ``buckets`` are the inclusive upper bounds of each bin; observations
    above the last bound land in an implicit overflow bin whose quantile
    estimate is the observed maximum.

    Thread-safe: :meth:`observe` updates five running aggregates that
    must stay mutually consistent, so the instrument serializes them
    under its own lock (per-instrument, not per-registry — concurrent
    observations of *different* histograms do not contend).
    """

    __slots__ = ("name", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str,
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        self.name = name
        if not buckets:
            raise ValueError(f"histogram {name}: no buckets")
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def _bucket_index(self, value: float) -> int:
        # buckets are few (≤ ~15); linear scan beats bisect overhead
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        with self._lock:
            return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution estimate of the ``q``-quantile (0 < q ≤ 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        rank = q * self._count
        cumulative = 0
        for i, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if i == len(self.buckets):
                    return self._max
                # clamp the bucket upper bound to the observed extremes so
                # the estimate never lies outside the data range
                return min(max(self.buckets[i], self._min), self._max)
        return self._max  # pragma: no cover - rank <= count always

    def snapshot(self) -> dict:
        with self._lock:
            count = self._count
            return {
                "count": count,
                "sum": self._sum,
                "mean": self._sum / count if count else 0.0,
                "min": self._min if count else 0.0,
                "max": self._max if count else 0.0,
                "p50": self._quantile_locked(0.50),
                "p90": self._quantile_locked(0.90),
                "p99": self._quantile_locked(0.99),
                "buckets": dict(zip(self.buckets, self._counts)),
                "overflow": self._counts[-1],
            }


class MetricsRegistry:
    """A named collection of counters and histograms.

    Instruments are created on first use (``registry.inc("query.count")``)
    so call sites stay one-liners; names are free-form dotted strings.
    The registry lock guards instrument creation only: an instrument
    that already exists is found by a plain ``dict.get`` (atomic under
    the GIL), and creation checks again under the lock, so two threads
    never create one name twice.  The recorded values themselves are
    protected by each instrument's own lock, so threads recording into
    different instruments do not serialize against each other.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  buckets: Sequence[float] | None = None) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram(
                        name,
                        buckets if buckets is not None else LATENCY_BUCKETS,
                    )
        return histogram

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    gauge = self._gauges[name] = Gauge(name)
        return gauge

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] | None = None) -> None:
        self.histogram(name, buckets).observe(value)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- reading --------------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        with self._lock:
            counter = self._counters.get(name)
            return counter.value if counter is not None else 0

    def gauge_value(self, name: str) -> float:
        with self._lock:
            gauge = self._gauges.get(name)
            return gauge.value if gauge is not None else 0.0

    def snapshot(self) -> dict:
        """A plain-dict view of every instrument (JSON-serializable)."""
        with self._lock:
            snap = {
                "counters": {
                    name: c.value for name, c in sorted(self._counters.items())
                },
                "histograms": {
                    name: h.snapshot()
                    for name, h in sorted(self._histograms.items())
                },
            }
            if self._gauges:
                snap["gauges"] = {
                    name: g.value for name, g in sorted(self._gauges.items())
                }
            return snap

    def render_text(self) -> str:
        """Human-readable report: a counter table and a histogram table."""
        snap = self.snapshot()
        lines: list[str] = []
        if snap["counters"]:
            lines.append("counters")
            width = max(len(n) for n in snap["counters"])
            for name, value in snap["counters"].items():
                lines.append(f"  {name.ljust(width)}  {value}")
        if snap.get("gauges"):
            if lines:
                lines.append("")
            lines.append("gauges")
            width = max(len(n) for n in snap["gauges"])
            for name, value in snap["gauges"].items():
                lines.append(f"  {name.ljust(width)}  {_value(value)}")
        if snap["histograms"]:
            if lines:
                lines.append("")
            lines.append("histograms"
                         "  (count / mean / p50 / p90 / p99 / max)")
            width = max(len(n) for n in snap["histograms"])
            for name, h in snap["histograms"].items():
                lines.append(
                    f"  {name.ljust(width)}  {h['count']:>6}  "
                    f"{_value(h['mean'])}  {_value(h['p50'])}  "
                    f"{_value(h['p90'])}  {_value(h['p99'])}  "
                    f"{_value(h['max'])}"
                )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)


def _value(v: float) -> str:
    """Compact numeric cell: millisecond-style precision for small values."""
    if v == 0:
        return "0".rjust(9)
    if abs(v) < 10:
        return f"{v:9.4f}"
    return f"{v:9.1f}"
