"""The one cluster front-end: its merge against the recorded one and
against the catalog walk it replaced, the ``register`` calling forms a
single node takes, a malformed query, and the turn lock.

``merge_golden.json`` was written by ``Coordinator._merge`` at the
commit before the class was folded into :class:`DistributedDatabase`
(5f699a6): a five-contract, three-shard catalog, five tables of shard
outcome documents, every set of failed shards and the three
degradations — 120 merged answers with all 23 ``QueryStats`` fields.
The inputs are in the file, so it needs no generator to be re-checked.
"""

import dataclasses
import itertools
import json
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.contract import ContractSpec
from repro.broker.database import ContractDatabase
from repro.broker.options import Degradation, QueryOptions
from repro.broker.query import QueryStats, Verdict, assemble_outcome
from repro.core import faults
from repro.dist import DistributedDatabase, LocalCluster, RoutedContract
from repro.dist import protocol
from repro.errors import LTLSyntaxError
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
        outcome = front_end._merge(parse("F a"), [
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


def _catalog_walk_merge(db, formula, per_shard, options):
    """The merge as it was before it read only the shards' answers: one
    pass over the whole catalog in global-id order."""
    answered = {shard: doc for shard, doc in per_shard if doc is not None}
    verdicts = {}
    for global_id in sorted(db._catalog):
        routed = db._catalog[global_id]
        doc = answered.get(routed.shard)
        if doc is None:
            verdicts[global_id] = Verdict.SKIPPED
            continue
        value = (doc.get("verdicts") or {}).get(routed.name)
        if value is not None:  # else: not a candidate on its shard
            verdicts[global_id] = Verdict(value)
    stats = QueryStats.combined(
        protocol.stats_from_doc(doc.get("stats") or {})
        for doc in answered.values()
    )
    stats.database_size = len(db._catalog)
    stats.deadline_seconds = options.deadline_seconds
    stats.step_budget = options.step_budget
    return assemble_outcome(formula, verdicts, db._catalog,
                            options.degradation, stats)


_STAT_VALUES = {
    "translation_seconds": st.floats(0, 1), "total_seconds": st.floats(0, 1),
    "permission_seconds": st.floats(0, 1), "candidates": st.integers(0, 9),
    "relational_matches": st.integers(0, 9), "checked": st.integers(0, 9),
    "prefilter_input": st.integers(0, 9), "prefilter_output": st.integers(0, 9),
    "degraded": st.booleans(), "used_prefilter": st.booleans(),
    "cache_hit": st.booleans(), "database_size": st.integers(0, 9),
    "stage_order": st.sampled_from(["attr_first", "prefilter_first", ""]),
    "plan_summary": st.sampled_from(["", "QueryPlan(a)", "QueryPlan(b)"]),
}


@st.composite
def _merge_inputs(draw):
    """A catalog with deregistration gaps (names ``c<id>``, on one of
    three shards) and one outcome document per shard whose verdicts may
    name its own contracts, other shards' and names nobody registered."""
    size = draw(st.integers(0, 12))
    kept = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    catalog = {
        cid: RoutedContract(cid, f"c{cid}", draw(st.integers(0, 2)))
        for cid, keep in enumerate(kept, start=1) if keep
    }
    names = [f"c{cid}" for cid in range(1, size + 1)] + ["ghost", "c99"]
    verdict = st.sampled_from([v.value for v in Verdict] + [None])
    docs = []
    for _ in range(3):
        doc = {"verdicts": draw(st.dictionaries(
            st.sampled_from(names), verdict, max_size=len(names)))}
        stats = draw(st.fixed_dictionaries({}, optional=_STAT_VALUES))
        if stats or draw(st.booleans()):
            doc["stats"] = stats
        docs.append(doc)
    return catalog, docs


@settings(max_examples=150, deadline=None)
@given(_merge_inputs(), st.sampled_from([None, 0.5]),
       st.sampled_from([None, 64]))
def test_merge_matches_the_catalog_walk(inputs, deadline, budget):
    """The merge reads only what the shards answered; it must be the
    catalog walk's answer, every field, for every failed-shard subset
    and every degradation — unknown names, names the catalog places on
    another shard and deregistered ids included."""
    catalog, docs = inputs
    with DistributedDatabase([("127.0.0.1", 1), ("127.0.0.1", 2),
                              ("127.0.0.1", 3)]) as db:
        for cid, routed in catalog.items():
            db._catalog[cid] = routed
            db._by_name[routed.name] = cid
    formula = parse("F a")
    for failed, degradation in itertools.product(
            itertools.chain.from_iterable(
                itertools.combinations(range(3), k) for k in range(4)),
            Degradation):
        options = QueryOptions(degradation=degradation,
                               deadline_seconds=deadline, step_budget=budget)
        per_shard = [(shard, None if shard in failed else doc)
                     for shard, doc in enumerate(docs)]
        got = db._merge(formula, per_shard, options)
        want = _catalog_walk_merge(db, formula, per_shard, options)
        assert got.formula is want.formula
        assert got.contract_ids == want.contract_ids
        assert got.contract_names == want.contract_names
        assert got.maybe_ids == want.maybe_ids
        assert got.maybe_names == want.maybe_names
        assert got.witnesses == want.witnesses == {}
        assert list(got.verdicts.items()) == list(want.verdicts.items())
        stats = dataclasses.asdict(got.stats)
        assert len(stats) == 23
        assert stats == dataclasses.asdict(want.stats)


@pytest.mark.parametrize("degradation", list(Degradation))
def test_a_malformed_query_is_refused_before_fan_out(degradation):
    """A single node raises ``LTLSyntaxError`` for ``G (p ->``; so does
    the front-end, under every degradation, before one frame goes out
    (it used to ask every shard, count each refusal as a skipped shard,
    and under ``Degradation.FAIL`` raise ``QueryBudgetError``)."""
    with pytest.raises(LTLSyntaxError):
        ContractDatabase().query("G (p ->")
    sent = []
    with LocalCluster(3) as cluster, cluster.database() as db:
        db.register("alpha", ["F p"])
        faults.fail_at("dist.send", nth=1, times=10 ** 6,
                       action=lambda **context: sent.append(context))
        options = QueryOptions(degradation=degradation)
        with pytest.raises(LTLSyntaxError):
            db.query("G (p ->", options)
        with pytest.raises(LTLSyntaxError):
            db.query_many(["F p", "G (p ->"], options)
        assert sent == []
        assert db.metrics.counter_value("dist.merge.skipped_shards") == 0
        assert db.metrics.counter_value("dist.queries") == 0
        faults.reset()
        assert db.query("F p", options).contract_names == ("alpha",)
