"""Observability primitives (histograms and the owner-reading registry)."""

from .metrics import (  # noqa: F401
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    RATIO_BUCKETS,
    Histogram,
    MetricsRegistry,
)
