"""CI job ``bench_smoke``: the end-to-end yardstick and the paper-figure
scripts still run and still assert what they measure."""

import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
E2E = ("src/*", "benchmarks/e2e/*", "BENCHMARK.json")


@pytest.mark.guards(*E2E, budget=180)
def test_e2e_smoke(run):
    """BENCHMARK.json's five workloads at a tenth of their size, answers
    checked against the corpus: the yardstick keeps resolving every
    entry point it traces."""
    run("benchmarks/e2e/run.py", "--smoke", "--check")


@pytest.mark.guards(*E2E, budget=60)
def test_translator_still_produces_the_recorded_automata(run):
    """``--smoke`` skips expected.json; this one full-size run
    regenerates the event log — a seeded walk over translate()'s
    successor lists under seed 11's salt — and compares its digest with
    the recorded one, so a drifted state order fails here."""
    shutil.rmtree(ROOT / "benchmarks/e2e/.cache", ignore_errors=True)
    out = run("benchmarks/e2e/run.py", "--workload", "stream_monitor",
              "--seed", "11", "--seconds", "2", "--trace", "0").stdout
    assert json.loads(out.splitlines()[-1])["failed"] == 0


@pytest.mark.guards("src/*", "benchmarks/*", budget=400)
def test_paper_figures_and_ablations(run):
    """T1-T3, F5, F6, IDX, ABL2-ABL6, PLANNER, SEL and PSCALE at full
    scale on purpose: the in-test shape assertions and the planner's
    floors need real sweeps, and nothing else executes these scripts."""
    run("-m", "pytest", "benchmarks", "--ignore=benchmarks/e2e",
        "--benchmark-disable-gc", "-q")


@pytest.mark.guards(*E2E, budget=240)
def test_yardstick_self_tests(run):
    """Traced runs, inputs, tracer and compare; last, so a failing
    self-test does not hide the verdicts above."""
    run("-m", "pytest", "benchmarks/e2e/tests", "-q")
