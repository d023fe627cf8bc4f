"""One event table per database: its history never leaks.

Every literal bit of a database — contract encodings, projection
quotients, set-trie nodes, monitor snapshots, query encodings — comes
from the database's append-only ``EventTable``, whose order is the order
events were first registered.  These tests pin that the order is only a
numbering: answers, search step counts and snapshot bytes are the same
whatever history built the table, and a query encoded before the table
learned one of its events is re-derived, never reused.
"""

import json
import random

import pytest

import repro.broker.database as database_module
from repro.automata.encode import bind_query
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.persist import save_database
from repro.core.permission import PermissionStats, permits_encoded
from repro.ltl.parser import parse
from repro.ltl.printer import format_formula
from repro.workload.airfare import all_ticket_specs
from repro.workload.generator import WorkloadGenerator

QUERIES = [
    "F refund", "F(missedFlight && F(refund || dateChange))",
    "G(purchase -> F use)", "F p1 && G !p2", "F(p3 && X p4)",
    "p0 U p5", "F zz", "F(p1 && F zz)", "G F p2",
]


def _specs():
    """The airfare tickets plus a seeded generated batch, as documents."""
    generator = WorkloadGenerator(vocabulary_size=8, seed=33)
    docs = [spec.to_doc() for spec in all_ticket_specs()]
    docs += [
        {"name": f"g{i}", "clauses": [format_formula(c) for c in spec.clauses]}
        for i, spec in enumerate(generator.generate_specs(10, 2))
    ]
    return docs


def _database(docs) -> ContractDatabase:
    db = ContractDatabase(BrokerConfig())
    for doc in docs:
        db.register(doc["name"], doc["clauses"], doc.get("attributes"))
    return db


def _checks(db, query, use_projections):
    """Per contract name: the verdict, the binding's tables and the
    search's counters of the check ``query`` runs on it."""
    compiled, _ = db.query_cache.compile(parse(query))
    result = {}
    for contract in db.contracts():
        encoded, seeds_mask, binding, encoded_query = compiled.prepared(
            contract, use_projections
        )
        stats = PermissionStats()
        verdict = permits_encoded(
            encoded, encoded_query, binding, seeds_mask=seeds_mask,
            stats=stats,
        )
        result[contract.name] = (
            verdict, binding.admissible, binding.compat, stats,
        )
    return result


class TestHistoryIndependence:
    def test_registration_order_changes_no_answer_or_step_count(self):
        docs = _specs()
        forward, backward = _database(docs), _database(docs[::-1])
        # the orders really differ: the same events, other positions
        assert sorted(forward.event_table) == sorted(backward.event_table)
        assert forward.event_table.events != backward.event_table.events
        for query in QUERIES:
            assert set(forward.query(query).contract_names) == set(
                backward.query(query).contract_names
            ), query
            for use_projections in (False, True):
                assert _checks(forward, query, use_projections) == _checks(
                    backward, query, use_projections
                ), (query, use_projections)

    def test_query_cached_before_its_event_arrives_is_re_derived(self):
        """``F q`` is asked while no contract knows ``q``, so its
        encoding gives ``q`` the bit past the table.  A contract then
        brings ``a`` (that very bit) and ``q`` (the next one): reusing
        the cached encoding would read the query as ``F a``."""
        db = ContractDatabase()
        db.register("first", ["G(p -> F r)"])
        assert db.query("F q").contract_names == ()
        db.register("second", ["F a", "G !q"])
        db.register("third", ["F q"])
        assert db.query("F q").stats.cache_hit
        fresh = ContractDatabase()
        for name, clauses in (("first", ["G(p -> F r)"]),
                              ("second", ["F a", "G !q"]),
                              ("third", ["F q"])):
            fresh.register(name, clauses)
        for query in ("F q", "F a", "F(a && F q)"):
            assert db.query(query).contract_names == \
                fresh.query(query).contract_names, query
        assert db.query("F q").contract_names == ("third",)

    def test_every_check_walks_the_encoding_its_binding_was_built_from(
        self, monkeypatch
    ):
        calls = []
        real = database_module.permits_encoded

        def recording(contract, query, binding, **kwargs):
            calls.append((contract, query, binding))
            return real(contract, query, binding, **kwargs)

        monkeypatch.setattr(database_module, "permits_encoded", recording)
        db = ContractDatabase()
        db.register("old", ["G(p -> F r)"])
        db.query("F(p && F s)")
        compiled, _ = db.query_cache.compile(parse("F(p && F s)"))
        stale = compiled.prepared(db.get(0), False)[3]
        assert stale.unknown_bit  # "s" was unknown
        db.register("new", ["F s", "G(p -> F s)"])
        assert db.query("F(p && F s)").contract_names == ("new",)
        # the old contract keeps its check, the new one got a re-derived
        # encoding — and every search ran with the encoding it was bound to
        assert compiled.prepared(db.get(0), False)[3] is stale
        assert compiled.prepared(db.get(1), False)[3] is not stale
        for contract, query, binding in calls:
            assert query.binds_to(contract)
            assert bind_query(contract, query) == binding


class TestSnapshotBytes:
    def test_deregistered_events_leave_no_trace(self, tmp_path):
        """A contract with events nobody else cites, registered and
        deregistered, shifts every later event's table position; the
        snapshot is the one a database without that history writes.
        (``index.json``'s ``labels_indexed`` / ``node_insertions`` are
        lifetime insert tallies — they count the departed contract's
        labels whatever the table — so they are left out.)"""
        docs = _specs()
        with_history = ContractDatabase(BrokerConfig())
        for i, doc in enumerate(docs):
            if i == 2:
                gone = with_history.register(
                    "gone", ["F(zz1 && F zz2)", "G(zz3 -> X !zz1)"]
                )
            with_history.register(doc["name"], doc["clauses"],
                                  doc.get("attributes"))
        with_history.deregister(gone.contract_id)
        without = _database(docs)
        assert any(  # the departed events moved a surviving one
            with_history.event_table[event] != position
            for event, position in without.event_table.items()
        )
        save_database(with_history, tmp_path / "history")
        save_database(without, tmp_path / "clean")
        assert (tmp_path / "history" / "encoded.json").read_bytes() == (
            tmp_path / "clean" / "encoded.json"
        ).read_bytes()
        indexes = []
        for side in ("history", "clean"):
            doc = json.loads((tmp_path / side / "index.json").read_text())
            del doc["stats"]["labels_indexed"], doc["stats"]["node_insertions"]
            indexes.append(doc)
        assert indexes[0] == indexes[1]


@pytest.mark.parametrize("seed", [0, 1])
def test_fleet_from_a_database_alerts_like_a_standalone_one(seed):
    """A database's fleet reads every snapshot through the database's
    table; a standalone fleet through one fresh table per contract.
    The alert transcripts are the same."""
    from repro.automata.encode import encode_automaton
    from repro.automata.ltl2ba import translate
    from repro.stream import FleetMonitor

    docs = _specs()
    db = _database(docs)
    watches = {"refund": "F refund", "p1": "G F p1", "alien": "F zz"}
    from_db = db.monitor_fleet(watches=watches)
    standalone = FleetMonitor()
    for contract in db.contracts():
        spec = contract.spec
        standalone.add_contract(
            contract.name,
            encode_automaton(translate(spec.formula), spec.vocabulary),
            contract_id=contract.contract_id,
        )
    for name, query in watches.items():
        standalone.register_watch(name, query)

    events = sorted(db.event_table) + ["zz"]
    rng = random.Random(seed)
    log = [
        {"events": rng.sample(events, rng.randint(0, 3))}
        for _ in range(40)
    ]
    names = [contract.name for contract in db.contracts()]
    log += [
        {"contract": rng.choice(names), "events": rng.sample(events, 2)}
        for _ in range(20)
    ]
    reports = [
        (report.events, report.deliveries, report.unknown_events)
        for report in (from_db.ingest(log), standalone.ingest(log))
    ]
    assert reports[0] == reports[1]
    assert [a.to_dict() for a in from_db.alerts] == [
        a.to_dict() for a in standalone.alerts
    ]
    assert from_db.alerts  # the log exercises something


def test_fleet_watch_is_re_derived_for_a_contract_registered_later():
    """A fleet-wide watch keeps one encoding for the monitors of one
    table; a contract registered after it that brings the watch's
    unknown event is watched through a re-derived one."""
    db = ContractDatabase()
    db.register("first", ["G(p -> F r)"])
    fleet = db.monitor_fleet(watches={"w": "F q"})
    assert not fleet.watch_satisfiable("first", "w")
    later = db.register("later", ["F a", "F q"])
    fleet.add_contract("later", later.encoded, contract_id=later.contract_id)
    assert fleet.watch_satisfiable("later", "w")
    assert not fleet.watch_satisfiable("first", "w")
