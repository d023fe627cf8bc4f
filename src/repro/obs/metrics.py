"""Aggregate broker metrics: owners' counts and bucketed histograms.

The paper's runtime module "outputs statistics regarding their
evaluation" per query (§7.1); a serving broker additionally needs the
*aggregate* view over a whole workload — how often the compilation cache
hit, where the latency distribution sits, how hard the prefilter pruned.
This module is that aggregation layer: a tiny, dependency-free metrics
registry in the spirit of Prometheus client libraries, restricted to
exactly what the broker and the benchmark harness consume.

Design constraints:

* **counted where the fact lives** — the database, a fleet, the
  front-end, a shard server, a replica and the conformance runner keep
  their counts as plain integers under a lock they already hold, and
  :meth:`MetricsRegistry.register` themselves; every export calls each
  live owner's ``collect()`` (the custom-collector pattern) and sums
  same-named values.  Owners are held weakly: a dead one's counts leave;
* **thread-safe** — the concurrent writers are the shard server's
  ``ThreadingTCPServer`` handlers and callers' own threads sharing a
  database or a fleet; a histogram serializes under its own lock;
* **bounded** — histograms store fixed bucket counters (plus running
  count/sum/min/max), never the observations themselves, so memory does
  not grow with traffic.

Quantiles are estimated from the buckets (the upper bound of the bucket
where the cumulative count crosses the rank), the same estimate
Prometheus' ``histogram_quantile`` makes; they are exact enough to read
"p99 latency" off a benchmark report.
"""

from __future__ import annotations

import collections
import math
import threading
import weakref
from typing import Sequence

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


class Histogram:
    """A fixed-bucket histogram with running summary statistics.

    ``buckets`` are the inclusive upper bounds of each bin; observations
    above the last bound land in an implicit overflow bin whose quantile
    estimate is the observed maximum.

    Thread-safe: :meth:`observe` updates five running aggregates that
    must stay mutually consistent, so the histogram serializes them
    under its own lock (per-histogram, not per-registry — concurrent
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
    """The owners of a component's counts, and its histograms.

    Owners register once (:meth:`register`) and are read on every
    export; histograms are created on first use
    (``registry.observe("query.total_seconds", s)``) so call sites stay
    one-liners.  Names are free-form dotted strings.  The registry lock
    guards the owner set and histogram creation only: an existing
    histogram is found by a plain ``dict.get`` (atomic under the GIL),
    and creation checks again under the lock, so two threads never
    create one name twice.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._owners: weakref.WeakSet = weakref.WeakSet()
        self._histograms: dict[str, Histogram] = {}

    # -- recording ------------------------------------------------------------------

    def register(self, owner) -> None:
        """Read ``owner.collect()`` — ``{"counters": {name: int},
        "gauges": {name: value}}``, either key optional, taken under
        the owner's own lock — on every export, for as long as the
        owner lives (it is held by weak reference)."""
        with self._lock:
            self._owners.add(owner)

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

    def observe(self, name: str, value: float,
                buckets: Sequence[float] | None = None) -> None:
        self.histogram(name, buckets).observe(value)

    # -- reading --------------------------------------------------------------------

    def _collect(self) -> dict[str, collections.Counter]:
        """Every live owner's counts, summed by name."""
        with self._lock:
            owners = list(self._owners)
        totals = {"counters": collections.Counter(),
                  "gauges": collections.Counter()}
        for owner in owners:
            for kind, values in owner.collect().items():
                totals[kind].update(values)
        return totals

    def counter_value(self, name: str) -> int:
        return self._collect()["counters"].get(name, 0)

    def gauge_value(self, name: str) -> float:
        return float(self._collect()["gauges"].get(name, 0.0))

    def snapshot(self) -> dict:
        """A plain-dict view of every count and histogram
        (JSON-serializable)."""
        totals = self._collect()
        with self._lock:
            histograms = sorted(self._histograms.items())
        snap = {
            "counters": dict(sorted(totals["counters"].items())),
            "histograms": {name: h.snapshot() for name, h in histograms},
        }
        if totals["gauges"]:
            snap["gauges"] = {
                name: float(value)
                for name, value in sorted(totals["gauges"].items())
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
