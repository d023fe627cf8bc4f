#!/usr/bin/env python3
"""Dump what registration derives from a contract, one JSON line each.

The registration-side twin of ``dump_answers.py``.  A change to the
translator, the reducer, the encoding or the projection store that
claims to be a pure speed-up must leave every derived artifact as it
was — not only the answers computed from them: block ids are bytes in
``projections.json``, state order is bytes in ``encoded.json``.  This
script registers two seeded batches through ``ContractDatabase.register``

* the contracts of the end-to-end benchmark's ``--seed`` instance
  (``benchmarks/e2e/shapes.json``, in the instance's registration order),
* a ``WorkloadGenerator(seed=--seed)`` batch of 3- and 4-pattern specs,

and writes per contract the flat encoding (``Contract.encoded.to_dict()``),
the projection store (``ProjectionStore.to_dict()`` without the one
field that is a clock, ``stats.build_seconds``) and a second store built
with ``max_subset_size=1`` plus two wider ``extra_subsets`` — the
workload-guided route, whose seeds are found by the scan fallback.  One
more line per query of the same instance holds
``automaton_to_dict(translate(query))``: query automata come out of the
same translator, and their state order decides how many steps a
permission search takes.  After each batch a seeded third of it is
deregistered and one ``index`` line holds ``db.index.to_dict()`` (again
without ``stats.build_seconds``) — ``index.json`` as a save would write
it, after inserts and removals.

    python3 scripts/dump_artifacts.py --out change.jsonl
    python3 scripts/dump_artifacts.py --src ../parent/src --out parent.jsonl
    cmp parent.jsonl change.jsonl

or, both sides in one process and a message that names what differs
(exit 1) instead of ``cmp``'s byte offset:

    python3 scripts/dump_artifacts.py --out change.jsonl --against ../parent/src

Seconds, not minutes.  The translator's state order depends on the hash
salt (ROADMAP items 2 and 7), so compare two dumps taken under the same
``PYTHONHASHSEED`` (``--against`` does: one process, one salt).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the generated batch: (count, patterns per spec)
GENERATED = ((30, 3), (10, 4))


def _load_e2e_inputs():
    """``benchmarks/e2e/inputs.py`` as a module (it is not a package)."""
    path = ROOT / "benchmarks" / "e2e" / "inputs.py"
    spec = importlib.util.spec_from_file_location("e2e_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _store_doc(store) -> dict:
    """``to_dict()`` of a projection store or the prefilter index
    without the one field that is a clock."""
    doc = store.to_dict()
    del doc["stats"]["build_seconds"]
    return doc


def _dump(src: Path, seed: int) -> list[dict]:
    """Every record of the dump, made by the ``repro`` under ``src``."""
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        from repro.automata.ltl2ba import translate
        from repro.automata.serialize import automaton_to_dict
        from repro.broker.contract import ContractSpec
        from repro.broker.database import ContractDatabase
        from repro.ltl.parser import parse
        from repro.ltl.printer import format_formula
        from repro.projection.store import ProjectionStore
        from repro.workload.generator import WorkloadGenerator

        inputs = _load_e2e_inputs()
    finally:
        sys.path.remove(str(src))
    instance = inputs.instance(seed, inputs.load_shapes(), smoke=False)
    generator = WorkloadGenerator(
        vocabulary_size=inputs.VOCABULARY,
        seed=seed,
        max_transitions=inputs.CONTRACT_MAX_TRANSITIONS,
    )
    batches = {
        "e2e": [
            {"name": c["name"], "clauses": c["clauses"]}
            for c in instance["contracts"]
        ],
        "generated": [
            {
                "name": f"g{patterns}-{i:03d}",
                "clauses": [format_formula(c) for c in spec.clauses],
            }
            for count, patterns in GENERATED
            for i, spec in enumerate(generator.generate_specs(count, patterns))
        ],
    }

    db = ContractDatabase()
    rng = random.Random(seed)
    records = []
    for batch, docs in batches.items():
        ids = []
        for doc in docs:
            contract = db.register(ContractSpec.from_doc(doc))
            ids.append(contract.contract_id)
            literals = sorted(contract.ba.literals())
            guided = ProjectionStore(
                contract.ba,
                max_subset_size=1,
                extra_subsets=[
                    frozenset(literals[:3]), frozenset(literals[-4:])
                ],
                vocabulary=contract.spec.vocabulary,
            )
            records.append({
                "name": doc["name"],
                "clauses": doc["clauses"],
                "encoded": contract.encoded.to_dict(),
                "projections": _store_doc(contract.projections),
                "guided": _store_doc(guided),
            })
        for contract_id in rng.sample(ids, len(ids) // 3):
            db.deregister(contract_id)
        records.append({
            "name": f"index after {batch}",
            "index": _store_doc(db.index),
        })
    for query in instance["queries"]:
        text = query if isinstance(query, str) else query["query"]
        records.append({
            "name": f"query {text}",
            "automaton": automaton_to_dict(translate(parse(text))),
        })
    return records


def _first_difference(ours: list[dict], theirs: list[dict]) -> str | None:
    """Which record and which artifact of it differ first, if any."""
    for mine, other in zip(ours, theirs):
        if mine["name"] != other["name"]:
            return f"record {mine['name']!r} against {other['name']!r}"
        for artifact in mine:
            if mine[artifact] != other.get(artifact):
                return f"{mine['name']}: {artifact} differs"
    if len(ours) != len(theirs):
        return f"{len(ours)} record(s) against {len(theirs)}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src/ directory to import repro from "
                             "(default: this checkout's)")
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="also dump with the repro under SRC, in this "
                             "process, and exit 1 naming the first record "
                             "and artifact that differ")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    records = _dump(args.src, args.seed)
    args.out.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    print(f"{len(records)} record(s) -> {args.out}")
    if args.against is not None:
        difference = _first_difference(records, _dump(args.against, args.seed))
        if difference is not None:
            print(f"differs from {args.against}: {difference}")
            return 1
        print(f"identical to {args.against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
