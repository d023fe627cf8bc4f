"""The repository's end-to-end benchmark.

One workload, as ``BENCHMARK.json``'s command runs it::

    python3 benchmarks/e2e/run.py --workload warm_repeat --seed 11 \\
        --seconds 10 --trace 0

prints every end-to-end metric by name with its unit, checks the
answers, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``.  ``--trace 1`` is the separate traced run that
yields the per-layer metrics instead.  Without ``--workload`` all five
run, each in a fresh subprocess, and the results land in
``benchmarks/e2e/results/``; ``--sets 2`` does that twice and compares
the sets (see ``compare.py``), ``--smoke`` divides every size by ten.

Load is a closed loop: one client thread in one process sends the next
operation when the previous one has answered.  GC stays on, with one
``gc.collect()`` before the measured phase.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: full set-ups per run; ``setup_s`` is the fastest
SETUP_REPEATS = 3
#: spans kept in ``results/trace-<workload>.json``
TRACE_FILE_SPANS = 5000
#: how far the traced passes' operation wall may exceed the untraced
#: passes' before the per-layer numbers are flagged (warm_repeat and
#: wide_distinct, three spans around a 25 us permission check, sit at
#: 16 % in a quiet hour and 19-20 % in a busy one)
TRACE_TOLERANCE = 0.25

UNITS = {"op_p50_ms": "ms", "op_p95_ms": "ms", "ops_per_s": "1/s",
         "setup_s": "s", "peak_rss_mb": "MiB"}


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names() -> list[str]:
    return [w["name"] for w in benchmark_json()["workloads"]]


class Recorder:
    """Times operations, pass by pass; an operation that raises is a
    failed one."""

    op = "op"

    def __init__(self):
        #: the latencies of each pass's operations, in the pass's order
        self.passes: list[list[float]] = []
        #: seconds of the timed work that is not an operation, by name
        self.asides: dict[str, list[float]] = defaultdict(list)
        self.raised = 0

    @property
    def latencies(self) -> list[float]:
        return [seconds for one in self.passes for seconds in one]

    def _timed(self, span: str, fn, *args):
        start = perf_counter()
        result = fn(*args)
        return result, perf_counter() - start

    def call(self, fn, *args):
        start = perf_counter()
        try:
            result, seconds = self._timed(self.op, fn, *args)
        except Exception:  # the boundary that counts a failure and goes on
            self.passes[-1].append(perf_counter() - start)
            if not self.raised:
                traceback.print_exc()
            self.raised += 1
            return None
        self.passes[-1].append(seconds)
        return result

    def aside(self, name: str, fn, *args):
        result, seconds = self._timed(f"aside.{name}", fn, *args)
        self.asides[name].append(seconds)
        return result


class TracingRecorder(Recorder):
    """The same, with each operation and aside under a root span."""

    def __init__(self, tracer, op: str):
        super().__init__()
        self.tracer = tracer
        self.op = op

    def _timed(self, span: str, fn, *args):
        return self.tracer.call(span, fn, *args)


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1,
                             int(len(sorted_values) * q))]


def _expected_digest(args) -> str | None:
    """The recorded answers digest: known for the reference seed at full
    size only (``expected.json``)."""
    if args.smoke:
        return None
    try:
        table = json.loads((HERE / "expected.json").read_text())
    except OSError:
        return None
    return table.get(str(args.seed), {}).get(args.workload)


def run_end_to_end(workload, seconds: float) -> dict:
    setups = []
    for repeat in range(SETUP_REPEATS):
        if repeat:
            workload.teardown()
        start = perf_counter()
        workload.setup()
        setups.append(perf_counter() - start)
    gc.collect()
    recorder = Recorder()
    start = perf_counter()
    while not recorder.passes or perf_counter() - start < seconds:
        recorder.passes.append([])
        workload.run_pass(recorder)
    measured_s = perf_counter() - start
    extras = workload.workload_metrics(recorder)
    # before the answer checks: they build databases of their own
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # a pass asks the same operations in the same order, so the k-th
    # latency of every pass is one operation's; the fastest of them is
    # what that operation takes when nothing disturbs it (README.md, "Why
    # the fastest of the passes", has the measurements behind this)
    by_operation = list(zip(*recorder.passes))
    fastest = sorted(map(min, by_operation))
    medians = sorted(map(statistics.median, by_operation))
    return {
        "recorder": recorder,
        "passes": len(recorder.passes),
        "metrics": {
            "op_p50_ms": _percentile(fastest, 0.50) * 1e3,
            "op_p95_ms": _percentile(fastest, 0.95) * 1e3,
            # the operations alone; what else a pass does (a batch, a
            # save) has metrics of its own in ``workload_metrics``
            "ops_per_s": len(fastest) / sum(fastest),
            # the fastest, like the operations: sharded_fanout's median
            # of three read 3.2 s in a quiet hour and 4.0 s in a busy
            # one, its fastest of three 3.4 s in the busy one
            "setup_s": min(setups),
            "peak_rss_mb": peak_rss,
        },
        "workload_metrics": extras,
        "notes": {
            "samples": len(recorder.latencies),
            "setup_runs_s": setups,
            "measured_s": measured_s,
            "median_p50_ms": _percentile(medians, 0.50) * 1e3,
            "median_p95_ms": _percentile(medians, 0.95) * 1e3,
        },
    }


def run_traced(workload, seconds: float) -> dict:
    """A traced set-up, then untraced and traced passes in turn."""
    from layers import LAYER_OF, LAYERS, WINDOWS, Context, per_layer_values
    from tracing import Aggregate, Tracer, write_spans

    tracer = Tracer(LAYERS)
    tracer.install()
    workload.setup()
    setup_spans = tracer.take()
    tracer.uninstall()
    for warning in tracer.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    gc.collect()
    # a tracer of its own: set-up may have imported what the first one
    # never saw
    tracer = Tracer(LAYERS)
    plain = Recorder()
    recorder = TracingRecorder(tracer, workload.op)
    workload.begin_traced()
    begin = perf_counter()
    while not recorder.passes or perf_counter() - begin < seconds:
        # an untraced pass, then a traced one: whatever the machine does
        # in these seconds, it does to both
        plain.passes.append([])
        workload.run_pass(plain)
        tracer.install()
        workload.tracing = True
        recorder.passes.append([])
        workload.run_pass(recorder)
        workload.tracing = False
        tracer.uninstall()
    passes = len(recorder.passes)
    spans = tracer.take()
    untraced = statistics.median(map(sum, plain.passes))

    measured = Aggregate(spans, tracer.missing, WINDOWS)
    traced = statistics.median(map(sum, recorder.passes))
    facts = workload.facts()
    facts.update(workload.trace_extras(perf_counter))
    facts["trace_overhead_ratio"] = traced / untraced - 1.0
    if "stats_stage_s" in facts:
        facts["stats_wall_s"] = sum(recorder.latencies)
    context = Context(
        measured, Aggregate(setup_spans, tracer.missing, WINDOWS),
        passes, facts)
    values = per_layer_values(context)

    # accounting: self times of all spans are the roots' wall plus the
    # time sibling spans overlapped, exactly
    roots_wall = sum(s.end - s.start for s in measured.roots())
    shares = measured.layer_shares(LAYER_OF)
    shares["(sibling spans side by side)"] = (
        roots_wall - sum(shares.values()))
    if facts["trace_overhead_ratio"] > TRACE_TOLERANCE:
        print(f"warning: traced operations took "
              f"{facts['trace_overhead_ratio']:.1%} longer than untraced "
              f"(tolerance {TRACE_TOLERANCE:.0%}); per-layer seconds "
              f"include that", file=sys.stderr)
    table = sorted(shares.items(), key=lambda item: -item[1])
    print(f"layer shares of the traced operation wall "
          f"({roots_wall / passes:.4f} s per pass, {passes} passes):")
    for layer, self_s in table:
        print(f"  {layer:<28} {self_s / passes:10.5f} s "
              f"{self_s / roots_wall:7.1%}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    write_spans(RESULTS / f"trace-{workload.name}.json", spans,
                TRACE_FILE_SPANS)
    return {
        "recorder": recorder,
        "extra_raised": plain.raised,
        "passes": passes,
        "metrics": values,
        "notes": {"layer_shares_s_per_pass": {
            layer: self_s / passes for layer, self_s in table
        }},
    }


def pin_hash_seed(seed: int) -> None:
    """Start over with ``PYTHONHASHSEED`` made from ``--seed``.

    Python salts ``hash(str)`` per process, and the order in which sets
    of event names iterate decides how much work a search does: six runs
    of one seed of ``sharded_fanout`` spread 5.6 % in ``ops_per_s`` with
    the salt left to chance and 2.0 % with it pinned.  The salt is an
    input like any other, so the seed makes it."""
    salt = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != salt:
        os.environ["PYTHONHASHSEED"] = salt
        os.execv(sys.executable, [sys.executable, *sys.argv])


def run_workload(args) -> int:
    pin_hash_seed(args.seed)
    try:
        sys.path.insert(0, str(ROOT / "src"))
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"error: the program is not here ({exc}); run from a "
              f"checkout that has src/repro", file=sys.stderr)
        return 2
    from layers import PER_LAYER
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
    try:
        workload.generate()
        start = perf_counter()
        workload.prepare()
        prep_s = perf_counter() - start
        if args.trace:
            run = run_traced(workload, args.seconds)
            units = {m.name: m.unit for m in PER_LAYER}
        else:
            run = run_end_to_end(workload, args.seconds)
            units = UNITS
        workload.verify()
        digest = workload.answers_digest()
        workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    recorder = run["recorder"]
    attempted = len(recorder.latencies)
    failed = min(attempted, workload.failed + recorder.raised
                 + run.get("extra_raised", 0))
    expected = _expected_digest(args)
    if expected is not None and digest != expected:
        print(f"answers digest {digest} is not the recorded {expected}",
              file=sys.stderr)
        failed = attempted
    metrics = run["metrics"]
    extras = run.get("workload_metrics", {})

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'end to end'}  "
          f"{run['passes']} passes, {attempted} {workload.op_unit}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    for name, value in extras.items():
        unit = compare.WORKLOAD_METRICS[name].unit
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  gen_s {workload.gen_s:.3f} s   prep_s {prep_s:.3f} s   "
          f"failed_share {failed / attempted:.4f}   "
          f"answers_sha256 {digest}")
    # one line for run_set/compare.py, then the driver's line, last
    print("detail " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "answers_sha256": digest,
        "gen_s": workload.gen_s,
        "prep_s": prep_s,
        "passes": run["passes"],
        "workload_metrics": {
            name: {"value": value,
                   "unit": compare.WORKLOAD_METRICS[name].unit}
            for name, value in extras.items()
        },
        "notes": run["notes"],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


# -- all five, each in a fresh subprocess ------------------------------------------------


def check_corpus() -> int:
    """Every hand-written domain question of ``repro.workload.corpus``
    must return exactly its expected contract names."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro import ContractDatabase
    from repro.workload.corpus import all_domains

    wrong = 0
    asked = 0
    for domain in all_domains():
        db = ContractDatabase()
        for spec in domain.contracts:
            db.register(spec)
        for question, (ltl, expected) in domain.questions.items():
            asked += 1
            got = frozenset(db.query(ltl).contract_names)
            if got != expected:
                wrong += 1
                print(f"corpus {domain.name}: {question!r} answered "
                      f"{sorted(got)}, expected {sorted(expected)}")
    print(f"corpus check: {asked - wrong}/{asked} questions right")
    return wrong


def run_set(args, trace: int, label: str) -> dict:
    results = {}
    for name in workload_names():
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode:
            print(done.stdout, end="")
            raise SystemExit(f"{name} exited with {done.returncode}")
        *report, detail, result = done.stdout.strip().split("\n")
        print("\n".join(report))
        results[name] = {
            **json.loads(result),
            **json.loads(detail.removeprefix("detail ")),
        }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{label}.json"
    path.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": trace,
         "smoke": args.smoke, "workloads": results}, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return results


def run_all(args) -> int:
    status = 0
    if args.check and check_corpus():
        status = 1
    suffix = "-smoke" if args.smoke else ""
    paths = []
    for index in range(args.sets):
        label = f"e2e-seed{args.seed}{suffix}-set{index + 1}"
        results = run_set(args, 0, label)
        paths.append(RESULTS / f"{label}.json")
        if not all(r["correct"] for r in results.values()):
            status = 1
    if args.trace:
        results = run_set(args, 1, f"trace-seed{args.seed}{suffix}")
        if not all(r["correct"] for r in results.values()):
            status = 1
    if args.sets > 1:
        status = compare.main([str(p) for p in paths]) or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="every size divided by ten")
    parser.add_argument("--sets", type=int, default=1,
                        help="with 'all': repeat the set and compare")
    parser.add_argument("--check", action="store_true",
                        help="with 'all': first ask the corpus questions")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 2.0 if args.smoke else float(benchmark_json()[
            "run_seconds"])
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workload_names():
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workload_names())}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
