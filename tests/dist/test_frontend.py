"""The one cluster front-end: its merge against the recorded one, the
``register`` calling forms a single node takes, and the turn lock.

``merge_golden.json`` was written by ``Coordinator._merge`` at the
commit before the class was folded into :class:`DistributedDatabase`
(5f699a6): a five-contract, three-shard catalog, five tables of shard
outcome documents, every set of failed shards and the three
degradations — 120 merged answers with all 23 ``QueryStats`` fields.
The inputs are in the file, so it needs no generator to be re-checked.
"""

import dataclasses
import json
import threading
from pathlib import Path

import pytest

from repro.broker.contract import ContractSpec
from repro.broker.database import ContractDatabase
from repro.broker.options import Degradation, QueryOptions
from repro.dist import DistributedDatabase, LocalCluster, RoutedContract
from repro.ltl.parser import parse

GOLDEN = json.loads(
    (Path(__file__).parent / "merge_golden.json").read_text(encoding="utf-8")
)


@pytest.fixture(scope="module")
def front_end():
    # closed before use: _merge reads the catalog, never the loop
    with DistributedDatabase([("127.0.0.1", 1), ("127.0.0.1", 2),
                              ("127.0.0.1", 3)]) as db:
        for cid, name, shard in GOLDEN["catalog"]:
            db._catalog[cid] = RoutedContract(cid, name, shard)
            db._by_name[name] = cid
    return db


@pytest.mark.parametrize("scenario", sorted(GOLDEN["scenarios"]))
def test_merge_reproduces_the_recorded_answers(front_end, scenario):
    table = GOLDEN["scenarios"][scenario]
    entries = [e for e in GOLDEN["entries"] if e["scenario"] == scenario]
    assert len(entries) == 8 * len(Degradation)
    for entry in entries:
        options = QueryOptions(
            degradation=Degradation(entry["degradation"]), **table["options"]
        )
        outcome = front_end._merge("F a", [
            (shard, None if shard in entry["failed"] else doc)
            for shard, doc in enumerate(table["docs"])
        ], options)
        where = (scenario, entry["failed"], entry["degradation"])
        assert list(outcome.contract_ids) == entry["contract_ids"], where
        assert list(outcome.contract_names) == entry["contract_names"], where
        assert list(outcome.maybe_ids) == entry["maybe_ids"], where
        assert list(outcome.maybe_names) == entry["maybe_names"], where
        assert {
            str(cid): verdict.value
            for cid, verdict in outcome.verdicts.items()
        } == entry["verdicts"], where
        stats = dataclasses.asdict(outcome.stats)
        assert len(stats) == 23
        assert stats == entry["stats"], where


def test_register_takes_every_form_a_single_node_takes():
    """One text clause, one parsed clause, a list of each and a
    ``ContractSpec`` all register, and answer like a single node.  (A
    bare parsed clause used to be iterated: ``TypeError: 'Globally'
    object is not iterable``.)"""
    forms = [
        ("text", "G (a -> F b)", {"price": 1}),
        ("parsed", parse("G (a -> F b)"), None),
        ("texts", ["G !a", "F c"], {"price": 3}),
        ("parsed-list", [parse("G !a"), parse("F c")], {}),
    ]
    spec = ContractSpec("spec", (parse("G (a -> F b)"), parse("F c")),
                        {"price": 5})
    oracle = ContractDatabase()
    with LocalCluster(2) as cluster, cluster.database() as db:
        for name, clauses, attributes in forms:
            oracle.register(name, clauses, attributes)
            assert db.register(name, clauses, attributes).name == name
        oracle.register(spec)
        assert db.register(spec).name == "spec"
        assert len(db) == len(oracle) == 5
        for query in ("F a", "F c", "F (a & F b)", "G !a"):
            assert (
                db.query(query).contract_names
                == oracle.query(query).contract_names
            ), query


def test_two_threads_take_turns():
    """The turn lock's property: two threads driving one front-end —
    one registering, both asking — never interleave inside a call.  Ids
    come out dense and in catalog order, and every answer is the
    single-node oracle's for some prefix of the registrations."""
    oracle = ContractDatabase()
    prefixes = [()]
    for i in range(12):
        oracle.register(f"c{i}", ["G (a -> F b)"] if i % 2 else ["G !a"])
        prefixes.append(oracle.query("F a").contract_names)
    answers, errors = [], []

    with LocalCluster(3) as cluster, cluster.database() as db:
        def writer():
            try:
                for i in range(12):
                    db.register(
                        f"c{i}", ["G (a -> F b)"] if i % 2 else ["G !a"]
                    )
                    answers.append(db.query("F a").contract_names)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        def reader():
            try:
                for _ in range(12):
                    (outcome,) = db.query_many(["F a"])
                    answers.append(outcome.contract_names)
                    db.status()
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(db._catalog) == list(range(1, 13))
        final = db.query("F a").contract_names
    assert len(answers) == 24
    assert all(answer in prefixes for answer in answers)
    assert final == prefixes[-1]
