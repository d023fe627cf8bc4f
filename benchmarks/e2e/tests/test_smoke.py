"""Self-tests of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q

Every workload runs once untraced and once traced at smoke size (sizes
divided by ten), the way the driver runs them; the rest checks the
contract of ``BENCHMARK.json``, the determinism of the inputs, the
tracer's behaviour when a layer entry point disappears, and the
comparison tool's verdicts.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_once(workload: str, trace: int, seed: int = 3) -> dict:
    """The driver's result line, plus the ``detail`` line's
    ``workload_metrics`` under that key."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    *_, detail, result = done.stdout.strip().splitlines()
    detail = json.loads(detail.removeprefix("detail "))
    return {**json.loads(result),
            "workload_metrics": detail["workload_metrics"]}


# -- BENCHMARK.json ---------------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]] + list(compare.WORKLOAD_METRICS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_list_is_the_layer_table():
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.PER_LAYER
    ]


# -- the five workloads, as the driver runs them -------------------------------------


#: the user-felt numbers only one or two workloads have
WORKLOAD_METRICS = {
    "warm_repeat": {"batch_queries_per_s"},
    "wide_distinct": set(),
    "bulk_load": {"save_s", "reopen_s", "churn_ops_per_s",
                  "stored_bytes_per_contract"},
    "sharded_fanout": {"batch_queries_per_s"},
    "stream_monitor": set(),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = run_once(workload, trace=0)
    extras = result.pop("workload_metrics")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(extras) == WORKLOAD_METRICS[workload]
    for name, metric in extras.items():
        assert metric["unit"] == compare.WORKLOAD_METRICS[name].unit
        assert metric["value"] > 0, name
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result = run_once(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert {
        name: m["unit"] for name, m in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # no layer entry point has gone missing
    assert layers.ABSENT not in values.values()
    assert values["trace.op_wall_s"] > 0
    home = {
        "warm_repeat": "core.permission.check_s",
        "wide_distinct": "automata.ltl2ba.translate_s",
        "bulk_load": "projection.build_s",
        "sharded_fanout": "dist.server.handle_s",
        "stream_monitor": "stream.advance_s",
    }[workload]
    assert values[home] > 0
    trace_file = HERE / "results" / f"trace-{workload}.json"
    spans = json.loads(trace_file.read_text())
    assert spans["fields"] == ["id", "name", "start", "end", "parent", "op"]
    assert spans["spans"]


def test_nothing_to_run_means_a_nonzero_exit(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark
    (no ``src/``), the command must fail without printing a result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".cache", ".work", "results",
                                      "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "warm_repeat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={"PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- inputs --------------------------------------------------------------------------------


def test_same_seed_same_bytes_other_seed_other_bytes():
    shapes = inputs.load_shapes()

    def everything(seed):
        made = inputs.instance(seed, shapes, smoke=True)
        log = inputs.event_log(seed, made["contracts"], 20, 0.3, 0.05)
        return json.dumps([made, log]).encode()

    assert everything(5) == everything(5)
    assert everything(5) != everything(6)


def test_the_shipped_dataset_is_what_the_generator_draws():
    assert inputs.make_shapes() == inputs.load_shapes()


def test_renaming_events_keeps_the_shape():
    import random

    mapping = inputs.event_permutation(random.Random(1), 12)
    assert sorted(mapping) == sorted(mapping.values())
    text = "G (p1 -> F p12) && !p2"
    renamed = inputs.rename_events(text, mapping)
    assert renamed == (
        f"G ({mapping['p1']} -> F {mapping['p12']}) && !{mapping['p2']}"
    )


# -- tracer ---------------------------------------------------------------------------------


def test_a_vanished_entry_point_is_a_warning_and_an_absent_metric():
    tracer = tracing.Tracer([
        tracing.Layer("ltl.parse", "repro.ltl.parser:no_such_function"),
        tracing.Layer("index.evaluate",
                      "repro.index.prefilter:PrefilterIndex.no_such_method"),
    ])
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"ltl.parse", "index.evaluate"}
    assert len(tracer.warnings) == 2
    empty = tracing.Aggregate([], tracer.missing)
    values = layers.per_layer_values(layers.Context(empty, empty, 1, {}))
    assert values["ltl.parse_s"] == layers.ABSENT
    assert values["index.evaluate_s"] == layers.ABSENT
    assert values["core.permission.check_s"] == 0.0


def test_spans_nest_and_self_times_add_up():
    from repro.ltl import parser

    tracer = tracing.Tracer([tracing.Layer("ltl.parse",
                                           "repro.ltl.parser:parse")])
    tracer.install()
    try:
        _, seconds = tracer.call(
            "op.test", lambda: [parser.parse("F a"), parser.parse("G b")])
    finally:
        tracer.uninstall()
    assert parser.parse.__module__ == "repro.ltl.parser"  # original is back
    spans = tracer.take()
    root = next(s for s in spans if s.name == "op.test")
    children = [s for s in spans if s.name == "ltl.parse"]
    assert len(children) == 2
    assert all(s.parent == root.id and s.op == root.op for s in children)
    total = tracing.Aggregate(spans)
    assert sum(total.self_seconds.values()) == pytest.approx(seconds)


def test_windows_are_transparent_and_overlap_is_a_union():
    Span = tracing.Span
    spans = [
        Span(0, "op.query", 0.0, 10.0, None, 0, None),
        Span(1, "dist.protocol.read", 1.0, 9.0, 0, 0, None),   # a window
        Span(2, "dist.protocol.decode", 8.0, 9.0, 1, 0, None),
        Span(3, "dist.server.handle", 2.0, 6.0, 0, 0, None),
        Span(4, "dist.server.handle", 4.0, 7.0, 0, 0, None),
    ]
    total = tracing.Aggregate(spans, windows={"dist.protocol.read"})
    assert total.self_seconds[1] == 0.0
    # root: 10 s minus the union of [2,7] and [8,9]
    assert total.self_seconds[0] == pytest.approx(4.0)
    assert total.union_s("dist.server.handle") == pytest.approx(5.0)


# -- compare --------------------------------------------------------------------------------


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "unchanged"
    assert compare.verdict(steady, [v * 1.3 for v in steady],
                           "lower", 0.1)[0] == "WORSE"
    assert compare.verdict(steady, [v * 1.3 for v in steady],
                           "higher", 0.1)[0] == "better"
    noisy = [6.0, 14.0, 9.0, 12.0, 10.0]
    # a spread wider than the bound is never "unchanged"
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert compare.verdict(noisy, [v / 3 for v in noisy],
                           "lower", 0.1)[0] == "better"
    # ... in the metric's own direction: a third of a throughput is worse
    assert compare.verdict(noisy, [v / 3 for v in noisy],
                           "higher", 0.1)[0] == "WORSE"
    assert compare.verdict(noisy, [13.0], "higher", 0.1)[0] == "unresolved"
    # one run a side: no spread to read, the difference decides
    assert compare.verdict([10.0], [10.5], "lower", 0.1)[0] == "unchanged"


def test_compare_gates_the_workload_metrics_too(tmp_path, capsys):
    def one_set(name, save_s):
        run = {
            "correct": True, "failed": 0, "seed": 1, "answers_sha256": "x",
            "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]}
                        for m in SPEC["end_to_end"]},
            "workload_metrics": {"save_s": {"value": save_s, "unit": "s"}},
        }
        path = tmp_path / name
        path.write_text(
            json.dumps({"workloads": dict.fromkeys(WORKLOADS, run)}))
        return str(path)

    a = one_set("a.json", 1.0)
    assert compare.main([a, one_set("same.json", 1.05)]) == 0
    assert compare.main([a, one_set("slower.json", 1.5)]) == 1
    assert "WORSE" in capsys.readouterr().out
