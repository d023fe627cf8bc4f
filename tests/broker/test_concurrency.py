"""Thread-safety of the database: the register/deregister/query hammer.

Invariant 11 (docs/DEVELOPMENT.md): any number of queries run
concurrently, mutations are exclusive, and no query ever observes a
half-applied mutation — a contract is in the answer set with its index
entry and artifacts complete, or not at all.
"""

import sys
import threading

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import QueryPlan
from repro.ltl.parser import parse


def _spec(name, i):
    from repro.broker.contract import ContractSpec

    # every contract permits "F common" plus a private eventuality
    return ContractSpec(
        name=name,
        clauses=(parse(f"G(p{i % 5} -> F common)"),),
        attributes={"slot": i},
    )


class TestHammer:
    def test_register_deregister_query_hammer(self):
        db = ContractDatabase(BrokerConfig())
        errors = []
        stop = threading.Event()
        registered_ids = []
        ids_lock = threading.Lock()

        # a stable population so queries always have work to do
        base = [db.register(_spec(f"base-{i}", i)) for i in range(4)]

        def registrar(thread_id):
            try:
                for i in range(12):
                    contract = db.register(_spec(f"t{thread_id}-{i}", i))
                    with ids_lock:
                        registered_ids.append(contract.contract_id)
            except Exception as exc:
                errors.append(exc)

        def deregistrar():
            try:
                removed = 0
                while removed < 8 and not stop.is_set():
                    with ids_lock:
                        victim = registered_ids.pop() if registered_ids else None
                    if victim is None:
                        continue
                    db.deregister(victim)
                    removed += 1
            except Exception as exc:
                errors.append(exc)

        def querier():
            try:
                while not stop.is_set():
                    outcome = db.query("F common")
                    # the stable population is always present: a query
                    # mid-mutation must never lose unrelated contracts
                    got = set(outcome.contract_ids)
                    assert {c.contract_id for c in base} <= got
            except Exception as exc:
                errors.append(exc)

        threads = (
            [threading.Thread(target=registrar, args=(t,)) for t in range(2)]
            + [threading.Thread(target=deregistrar)]
            + [threading.Thread(target=querier) for _ in range(3)]
        )
        for t in threads:
            t.start()
        for t in threads[:3]:  # both registrars + the deregistrar
            t.join(timeout=30)
        stop.set()
        for t in threads[3:]:
            t.join(timeout=30)

        assert errors == []
        assert not any(t.is_alive() for t in threads)
        # ledger consistency: 4 base + 24 registered - 8 deregistered
        assert len(db) == 4 + 2 * 12 - 8
        assert db.registration_stats.contracts == len(db)
        # index consistency: prefilter answers match a full scan
        with_pf = db.query(
            "F common", QueryOptions(plan=QueryPlan(True, True))
        )
        without_pf = db.query(
            "F common", QueryOptions(plan=QueryPlan(False, True))
        )
        assert set(with_pf.contract_ids) == set(without_pf.contract_ids)

    def test_parallel_queries_during_registration(self):
        """query_many's thread pool (read lock) interleaved with
        registration (write lock)."""
        db = ContractDatabase()
        for i in range(3):
            db.register(_spec(f"seed-{i}", i))
        errors = []

        def mutator():
            try:
                for i in range(10):
                    db.register(_spec(f"new-{i}", i))
            except Exception as exc:
                errors.append(exc)

        def batch_querier():
            try:
                for _ in range(10):
                    outcomes = db.query_many(["F common", "F nothing"])
                    assert len(outcomes[0].contract_ids) >= 3
                    assert outcomes[1].contract_ids == ()
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=mutator),
            threading.Thread(target=batch_querier),
            threading.Thread(target=batch_querier),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert len(db) == 13

    def test_save_during_mutation_burst_is_consistent(self, tmp_path):
        """save_database takes the write lock: the snapshot is a
        point-in-time image, never a half-applied one."""
        from repro.broker.journal import open_database
        from repro.broker.persist import load_database, save_database

        db = open_database(tmp_path / "db")
        errors = []

        def mutator():
            try:
                for i in range(10):
                    db.register(_spec(f"m-{i}", i))
            except Exception as exc:
                errors.append(exc)

        def saver():
            try:
                for _ in range(3):
                    save_database(db, tmp_path / "db")
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=mutator),
            threading.Thread(target=saver),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        # the directory recovers everything: snapshot + journal tail
        recovered = open_database(tmp_path / "db")
        assert len(recovered) == 10


class TestConcurrentFirstUse:
    """Queries run concurrently under the *read* lock, and a query's
    first use of a projection materializes its quotient: the store must
    publish a quotient's record whole.  (``_materialize`` once published
    the quotient before its seeds; a second reader then died with
    ``KeyError: (partition_id, subset)``.)  The same first checks race
    to fill one binding's successor table, whose entries are published
    whole too: every thread must run, check by check, the search a lone
    caller runs."""

    TRIALS = 30
    THREADS = 4

    def test_first_use_queries_race_on_a_fresh_database(self, monkeypatch):
        import repro.broker.database as database_module
        from repro.automata.ltl2ba import translate
        from repro.broker.contract import ContractSpec
        from repro.broker.options import PrebuiltArtifacts
        from repro.core.permission import PermissionStats
        from repro.ltl.ast import conj
        from repro.workload.generator import WorkloadGenerator

        searches = threading.local()
        real_permits = database_module.permits_encoded

        def recording_permits(*args, **kwargs):
            stats = kwargs["stats"] = PermissionStats()
            searches.of_this_thread.append(stats)
            return real_permits(*args, **kwargs)

        monkeypatch.setattr(
            database_module, "permits_encoded", recording_permits
        )

        specs = [
            ContractSpec(name=f"c{i}", clauses=tuple(spec.clauses))
            for i, spec in enumerate(WorkloadGenerator(
                vocabulary_size=6, seed=80).generate_specs(10, 2))
        ]
        automata = [translate(spec.formula) for spec in specs]
        queries = [
            conj(spec.clauses) for spec in WorkloadGenerator(
                vocabulary_size=6, seed=81).generate_specs(8, 1)
        ]

        def fresh_database():
            # translated once; stores (and so quotients) fresh per trial
            db = ContractDatabase()
            for spec, ba in zip(specs, automata):
                db.register(spec, prebuilt=PrebuiltArtifacts(ba=ba))
            return db

        def ask(db):
            """Every answer, and every check's counters in check order."""
            searches.of_this_thread = []
            answers = [
                outcome.contract_names for outcome in db.query_many(queries)
            ]
            return answers, searches.of_this_thread

        expected = ask(fresh_database())
        assert len(expected[1]) > len(queries)

        def trial():
            db = fresh_database()
            failures = []
            barrier = threading.Barrier(self.THREADS)

            def client():
                try:
                    barrier.wait(timeout=30)
                    answered = ask(db)
                    if answered != expected:
                        failures.append(answered)
                except Exception as exc:
                    failures.append(exc)

            threads = [
                threading.Thread(target=client) for _ in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            return failures

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            failed = [
                failures for failures in (
                    trial() for _ in range(self.TRIALS)
                ) if failures
            ]
        finally:
            sys.setswitchinterval(interval)
        assert failed == []
