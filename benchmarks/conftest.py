"""Shared configuration for the benchmark suite.

Every benchmark writes the paper-style table/series it regenerates to
``benchmarks/results/`` (EXPERIMENTS.md indexes those files) and also
registers a representative timed callable with pytest-benchmark.

Scaling: the default configuration finishes the whole suite in minutes
on a laptop.  Two environment knobs rescale it:

* ``REPRO_BENCH_SCALE`` — float multiplier on database/workload sizes
  (e.g. ``2.0`` doubles every database);
* ``REPRO_BENCH_PAPER=1`` — use the paper's exact dataset parameters
  (20-event vocabulary, 5/6/7-pattern contracts; hours of runtime, as
  the original Java prototype also needed).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.workload.datasets import (
    PAPER_DATASETS,
    SCALED_DATASETS,
    DatasetConfig,
)

RESULTS_DIR = Path(__file__).parent / "results"


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _paper_mode() -> bool:
    return os.environ.get("REPRO_BENCH_PAPER", "") == "1"


def scaled(n: int, minimum: int = 1) -> int:
    """Apply the REPRO_BENCH_SCALE multiplier to a size."""
    return max(minimum, int(round(n * _scale())))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def datasets() -> dict[str, DatasetConfig]:
    """The active dataset family (scaled by default)."""
    return PAPER_DATASETS if _paper_mode() else SCALED_DATASETS


@pytest.fixture(scope="session")
def bench_sizes() -> dict:
    """Centralized experiment sizes, after scaling."""
    if _paper_mode():
        return {
            "figure5_db_sizes": [100, 500, 1000, 2000, 3000],
            "figure6_db_size": 1000,
            "queries_per_workload": 100,
            "table2_sample": None,
            "index_build_contracts": 3000,
        }
    return {
        "figure5_db_sizes": [scaled(25), scaled(50), scaled(100),
                             scaled(200), scaled(400)],
        # complex-contract BAs have a heavy transition-count tail (the
        # paper's Table 2 shows the same stddev effect), so the 3x3 grid
        # uses a smaller per-complexity database than the Figure 5 sweep
        "figure6_db_size": scaled(60),
        "queries_per_workload": scaled(10, minimum=4),
        # Table 2's simple < medium < complex ordering is a statement
        # about means of heavy-tailed transition counts (stddev > 200):
        # the first 10 seeded contracts per family invert medium and
        # complex (179 vs 169.6), every prefix tried from 15 to 80 does
        # not, so the scale multiplier never shrinks below 20
        "table2_sample": scaled(40, minimum=20),
        "index_build_contracts": scaled(120),
    }
