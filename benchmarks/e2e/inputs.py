"""Seeded inputs for the end-to-end benchmark.

Two steps, kept apart on purpose.

*Shapes.*  ``shapes.json`` holds 100 contract specifications and 120
queries drawn once from the paper's §7.2 generator
(:class:`repro.workload.generator.WorkloadGenerator`, scaled-simple
class: 3 patterns over 12 events, at most 600 transitions; queries of 1,
2 and 3 patterns, at most 40 transitions) — the benchmark's dataset, as
Table 2's datasets are the paper's.  It is a file, not a call, so the
yardstick does not move when ``repro.workload`` is refactored, and
because the automata of random conjunctions are heavy-tailed (one
contract in twenty costs ten times the median to register): 100 fresh
draws move every mean and p95 by 10-30 % from one seed to the next,
which no run of a few seconds averages out.  :func:`make_shapes` is the
regenerator; a test pins that the file is its draw.

*Instance.*  ``--seed`` makes the inputs the program sees from the
shapes (:func:`instance`): the registration order and so the ids, the
routes, the query order, the event renamings ``wide_distinct`` and
``bulk_load`` apply pass after pass (:func:`event_permutation`), and
(:func:`event_log`) every random walk, violation and unknown event of
the stream.  Equal seeds give
byte-identical inputs; ``tests/test_smoke.py`` pins that.

Only translation-level pieces of the program are used to make inputs
(the satisfiability probe inside ``WorkloadGenerator`` and ``translate``
for the allowed walks) — nothing from ``repro.broker``,
``repro.stream`` or ``repro.dist``, so no layer under test shapes its
own inputs.  Generation time is reported as ``gen_s``, never as the
program's, and the event log is cached per seed under ``.cache/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from pathlib import Path

from repro.automata import graph
from repro.automata.ltl2ba import translate
from repro.ltl.ast import conj
from repro.ltl.parser import parse
from repro.ltl.printer import format_formula
from repro.workload.generator import WorkloadGenerator

HERE = Path(__file__).parent
CACHE_DIR = HERE / ".cache"
SHAPES_FILE = HERE / "shapes.json"
#: bump when a generator's output changes, so stale cache files are ignored
GENERATOR_VERSION = 2

#: the generator seed ``shapes.json`` was drawn with
SHAPES_SEED = 0
VOCABULARY = 12
CONTRACTS = 100
CONTRACT_PATTERNS = 3
CONTRACT_MAX_TRANSITIONS = 600
QUERIES_PER_COMPLEXITY = 40
#: Query automata are capped too: an uncapped 3-pattern query can reach
#: 400 transitions and cost 100x the median query.
QUERY_MAX_TRANSITIONS = 40

ROUTES = ("AMS-JFK", "SFO-NRT", "CDG-GRU", "SAN-NYC", "LHR-SIN")
#: an event no contract vocabulary holds (the vocabulary is p1..pN)
UNKNOWN_EVENT = "zz_unknown"
_EVENT = re.compile(r"\bp(\d+)\b")


def cached(kind: str, params: dict, make):
    """``make()``'s JSON-able result, memoised on disk per parameters.
    Returns ``(value, seconds spent generating or loading)``."""
    start = time.perf_counter()
    key = json.dumps(
        {"kind": kind, "version": GENERATOR_VERSION, **params},
        sort_keys=True,
    )
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    path = CACHE_DIR / f"{kind}-{digest}.json"
    try:
        value = json.loads(path.read_text())["value"]
    except (OSError, ValueError, KeyError):
        value = make()
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{time.monotonic_ns()}.tmp")
        tmp.write_text(json.dumps({"key": key, "value": value}))
        tmp.replace(path)
    return value, time.perf_counter() - start


# -- shapes ------------------------------------------------------------------------------


def make_shapes() -> dict:
    """Draw the dataset: ``{"contracts": [[clause, ...], ...],
    "queries": [text, ...]}``.  ``shapes.json`` is this draw."""
    contracts = WorkloadGenerator(
        vocabulary_size=VOCABULARY,
        seed=SHAPES_SEED,
        max_transitions=CONTRACT_MAX_TRANSITIONS,
    ).generate_specs(CONTRACTS, CONTRACT_PATTERNS)
    queries = WorkloadGenerator(
        vocabulary_size=VOCABULARY,
        seed=SHAPES_SEED + 7919,
        max_transitions=QUERY_MAX_TRANSITIONS,
    )
    return {
        "contracts": [
            [format_formula(clause) for clause in spec.clauses]
            for spec in contracts
        ],
        "queries": [
            format_formula(conj(spec.clauses))
            for patterns in (1, 2, 3)
            for spec in queries.generate_specs(
                QUERIES_PER_COMPLEXITY, patterns)
        ],
    }


def load_shapes() -> dict:
    """The shipped dataset."""
    return json.loads(SHAPES_FILE.read_text())


# -- instance ----------------------------------------------------------------------------


def instance(seed: int, shapes: dict, smoke: bool) -> dict:
    """What the program sees for ``seed``: ``{"contracts": [{"name",
    "shape", "clauses", "attributes"}], "queries": [text or QuerySpec
    document]}``.  ``shape`` is the contract's position in the dataset.

    Every fourth query shape is a ``QuerySpec`` document with a
    30 %-selective price filter and the planner on.  Which queries, and
    which contracts pass (a price per shape, spread evenly over
    [50, 1000]), belong to the dataset: a filtered query's cost is the
    cost of the contracts that pass, and letting the seed pick them
    moved ``warm_repeat``'s p95 by +-9 %.  So does a contract's name,
    which decides its shard: with names dealt out by the seed,
    ``sharded_fanout``'s p50 ranged over 17 % from seed to seed.  And so
    do the event names: which event sorts first decides the order a
    search explores in, and one permutation of them per seed put 9.8 %
    between the quartiles of ``warm_repeat``'s p95 over ten seeds (2.0 %
    without).  ``wide_distinct`` and ``bulk_load`` draw a fresh
    permutation every pass.

    ``smoke`` keeps every tenth shape, so all three query complexities
    stay represented.
    """
    rng = random.Random(f"instance-{seed}")
    step = 10 if smoke else 1
    contract_shapes = list(enumerate(shapes["contracts"]))[::step]
    query_shapes = list(enumerate(shapes["queries"]))[::step]
    rng.shuffle(contract_shapes)
    rng.shuffle(query_shapes)
    contracts = [
        {
            # named for the shape: which shard a shape lands on (a hash
            # of the name) belongs to the dataset, like its price
            "name": f"c{shape:04d}",
            "shape": shape,
            "clauses": clauses,
            "attributes": {
                # 37 is coprime to 96: consecutive shapes land far apart
                "price": 50 + 10 * (shape * 37 % 96),
                "route": rng.choice(ROUTES),
            },
        }
        for shape, clauses in contract_shapes
    ]
    queries = []
    for shape, text in query_shapes:
        if shape // step % 4 == 3:
            queries.append({
                "query": text,
                "filter": [["price", "<=", 330]],
                "options": {"use_planner": True},
            })
        else:
            queries.append(text)
    return {"contracts": contracts, "queries": queries}


def event_permutation(rng: random.Random, vocabulary: int) -> dict[str, str]:
    """A random renaming of the ``p1..pN`` vocabulary."""
    names = [f"p{i}" for i in range(1, vocabulary + 1)]
    shuffled = names[:]
    rng.shuffle(shuffled)
    return dict(zip(names, shuffled))


def rename_events(text: str, mapping: dict[str, str]) -> str:
    """``text`` with every event renamed — a structurally identical
    formula (same automaton size, same satisfiability) that no cache
    keyed on the text or the formula has seen."""
    return _EVENT.sub(lambda m: mapping[m.group(0)], text)


# -- the event log -------------------------------------------------------------------


def _live_states(ba) -> frozenset:
    reachable = graph.reachable_from(ba.initial, ba.successor_states)
    cores = graph.states_on_accepting_cycles(
        reachable, ba.successor_states, ba.is_final
    )
    return graph.backward_reachable(cores, reachable, ba.successor_states)


def _step(ba, live, frontier, snapshot):
    """Object-level frontier step: the reference semantics the streaming
    engine's packed-int step must agree with."""
    return {
        dst
        for state in frontier
        for label, dst in ba.successors(state)
        if dst in live and label.satisfied_by(snapshot)
    }


def event_log(seed: int, specs: list[dict], steps: int,
              violating_share: float, unknown_share: float) -> dict:
    """A JSONL event log over ``specs`` plus what it must produce.

    Per contract an *allowed* random walk of ``steps`` snapshots (so its
    monitor stays active), interleaved round-robin as a shared event bus
    would deliver them.  A seeded ``violating_share`` of the contracts
    get one snapshot, at a seeded position, that no transition out of
    their frontier accepts; ``unknown_share`` of the records also cite
    an event outside every vocabulary.  Every record is addressed: a
    broadcast's effect on a hundred frontiers cannot be predicted without
    running the monitor the benchmark is checking.

    Returns ``{"lines", "violations": {contract: per-contract index},
    "unknown": count the monitors must report}``.
    """
    rng = random.Random(f"events-{seed}")
    walks: dict[str, list[frozenset]] = {}
    violations: dict[str, int] = {}
    victims = set(rng.sample(
        [s["name"] for s in specs], round(len(specs) * violating_share)
    ))
    for spec in specs:
        ba = translate(conj([parse(clause) for clause in spec["clauses"]]))
        live = _live_states(ba)
        vocabulary = sorted(ba.events())
        state = ba.initial
        walk = []
        for _ in range(steps):
            label, state = rng.choice([
                (label, dst) for label, dst in ba.successors(state)
                if dst in live
            ])
            walk.append(frozenset(
                lit.event for lit in label.literals if lit.positive
            ))
        if spec["name"] in victims and vocabulary:
            position = rng.randrange(steps // 4, steps)
            frontier = {ba.initial}
            for snapshot in walk[:position]:
                frontier = _step(ba, live, frontier, snapshot)
            candidates = [frozenset(), frozenset(vocabulary)] + [
                frozenset(rng.sample(vocabulary,
                                     rng.randint(1, len(vocabulary))))
                for _ in range(8)
            ]
            for snapshot in candidates:
                if not _step(ba, live, frontier, snapshot):
                    walk[position] = snapshot
                    violations[spec["name"]] = position
                    break
        walks[spec["name"]] = walk

    lines = []
    unknown = 0
    for t in range(steps):
        for spec in specs:
            name = spec["name"]
            events = sorted(walks[name][t])
            if rng.random() < unknown_share:
                events.append(UNKNOWN_EVENT)
                # a violated monitor short-circuits: it stops counting
                if violations.get(name, steps) >= t:
                    unknown += 1
            lines.append(json.dumps(
                {"contract": name, "events": events},
                separators=(",", ":"),
            ))
    return {"lines": lines, "violations": violations, "unknown": unknown}


def digest(value) -> str:
    """SHA-256 of a JSON-able value (canonical key order)."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()
    ).hexdigest()


if __name__ == "__main__":
    # regenerate the shipped dataset (see the module docstring)
    SHAPES_FILE.write_text(json.dumps(make_shapes(), indent=0) + "\n")
