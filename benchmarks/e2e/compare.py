"""Compare two sets of benchmark runs, pair by pair.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py A1.json A2.json ... --against B1.json ...

Each file is one set written by ``run.py`` (``results/e2e-*.json``): one
run of every workload.  One row per (workload, end-to-end metric) and
per workload-specific metric (``WORKLOAD_METRICS`` below): the median of
each side, the relative difference, the metric's bound and a verdict.

* ``unchanged`` / ``better`` / ``WORSE``: the medians differ by less /
  more than the bound, in the metric's own direction.
* ``unresolved``: a side has enough runs (>= 4) to show a spread — the
  distance between its quartiles over its median — wider than the bound,
  so the difference cannot be read; never reported as unchanged, unless
  every run of one side beats every run of the other.

Exits non-zero when a pair differs by more than its bound (so two sets
of the *same* code must exit 0), when a run was incorrect, or when the
two sides' answers differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent.parent


class Bounded(NamedTuple):
    unit: str
    better: str
    bound: float


#: User-felt numbers that exist on one workload only (ISSUE.md's names).
#: ``BENCHMARK.json`` cannot hold them — the driver wants every
#: end-to-end metric on every workload — so their units, directions and
#: bounds live here; ``run.py`` reports them with every untraced run and
#: this tool gates them like the others.
WORKLOAD_METRICS = {
    # warm_repeat, sharded_fanout: queries / wall of one query_many
    "batch_queries_per_s": Bounded("1/s", "higher", 0.25),
    # bulk_load
    "save_s": Bounded("s", "lower", 0.25),
    "reopen_s": Bounded("s", "lower", 0.25),
    "churn_ops_per_s": Bounded("1/s", "higher", 0.25),
    "stored_bytes_per_contract": Bounded("B", "lower", 0.01),
}


def _load(paths: list[str]) -> dict[str, list[dict]]:
    """workload -> that workload's run in each file."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        for name, run in json.loads(Path(path).read_text())[
            "workloads"
        ].items():
            runs.setdefault(name, []).append(run)
    return runs


def _spread(values: list[float]) -> float | None:
    if len(values) < 4:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, relative change of B's median in the worse
    direction)``."""
    sign = 1.0 if better == "lower" else -1.0
    a_median, b_median = statistics.median(a), statistics.median(b)
    worse = sign * (b_median - a_median) / a_median
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        # in "how bad" terms, so that higher-is-better reads the same way
        bad_a, bad_b = [sign * v for v in a], [sign * v for v in b]
        if min(bad_b) > max(bad_a):
            return "WORSE", worse
        if max(bad_b) < min(bad_a):
            return "better", worse
        return "unresolved", worse
    if worse > bound:
        return "WORSE", worse
    if worse < -bound:
        return "better", worse
    return "unchanged", worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--against", nargs="+", default=None,
                        help="the other side (default: the last file)")
    args = parser.parse_args(argv)
    if args.against is None:
        if len(args.files) < 2:
            parser.error("need two sets to compare")
        args.files, args.against = args.files[:-1], args.files[-1:]
    side_a, side_b = _load(args.files), _load(args.against)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    status = 0
    print(f"{'workload':<16}{'metric':<26}{'A median':>12}{'B median':>12}"
          f"{'B vs A':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            print(f"{workload:<16}missing on one side")
            status = 1
            continue
        rows = [
            ("metrics", m["name"], m["better"], m["bound"])
            for m in spec["end_to_end"]
        ] + [
            ("workload_metrics", name, *WORKLOAD_METRICS[name][1:])
            for name in runs_a[0].get("workload_metrics", {})
        ]
        for group, name, better, bound in rows:
            a = [r[group][name]["value"] for r in runs_a]
            b = [r[group][name]["value"] for r in runs_b]
            word, worse = verdict(a, b, better, bound)
            if word in ("WORSE", "better"):
                # either direction breaks "same code, same numbers"
                status = 1
            print(f"{workload:<16}{name:<26}{statistics.median(a):>12.4f}"
                  f"{statistics.median(b):>12.4f}{worse:>+9.1%}"
                  f"{bound:>7.0%}  {word}")
        runs = runs_a + runs_b
        if not all(r["correct"] for r in runs):
            print(f"{workload:<16}INCORRECT: "
                  f"{sum(r['failed'] for r in runs)} operation(s) failed")
            status = 1
        digests = {r["answers_sha256"] for r in runs
                   if r["seed"] == runs[0]["seed"]}
        if len(digests) > 1:
            print(f"{workload:<16}ANSWERS DIFFER between runs of seed "
                  f"{runs[0]['seed']}")
            status = 1
    print("B vs A is the change of B's median in the metric's worse "
          "direction; a pair beyond its bound fails the comparison.")
    return status


if __name__ == "__main__":
    sys.exit(main())
