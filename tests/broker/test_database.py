"""Unit tests for the contract database (registration + query pipeline)."""

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN, QueryPlan
from repro.broker.relational import AttributeFilter, eq, le
from repro.errors import BrokerError
from repro.ltl.parser import parse
from repro.workload.airfare import QUERIES, all_ticket_specs


class TestRegistration:
    def test_register_parses_strings(self):
        db = ContractDatabase()
        contract = db.register("t", ["G(a -> F b)"])
        assert contract.vocabulary == frozenset({"a", "b"})
        assert len(db) == 1

    def test_register_accepts_single_clause(self):
        db = ContractDatabase()
        contract = db.register("t", "G a")
        assert contract.spec.clauses == (parse("G a"),)

    def test_register_accepts_formula_objects(self):
        db = ContractDatabase()
        contract = db.register("t", [parse("G a"), "F b"])
        assert len(contract.spec.clauses) == 2

    def test_ids_are_sequential(self):
        db = ContractDatabase()
        c0 = db.register("a", "G a")
        c1 = db.register("b", "G b")
        assert (c0.contract_id, c1.contract_id) == (0, 1)

    def test_registration_stats_accumulate(self):
        db = ContractDatabase()
        db.register("a", "G(a -> F b)")
        stats = db.registration_stats
        assert stats.contracts == 1
        assert stats.translation_seconds > 0
        assert stats.total_seconds >= stats.translation_seconds

    def test_projections_skipped_when_disabled(self):
        db = ContractDatabase(BrokerConfig(use_projections=False))
        contract = db.register("a", "G a")
        assert contract.projections is None

    def test_deregister(self):
        db = ContractDatabase()
        contract = db.register("a", "F a")
        db.deregister(contract.contract_id)
        assert len(db) == 0
        assert db.query("F a").contract_ids == ()

    def test_deregister_unknown_raises(self):
        db = ContractDatabase()
        with pytest.raises(BrokerError):
            db.deregister(9)

    def test_deregister_decrements_registration_stats(self):
        # regression: register -> deregister used to leave the contracts
        # counter at 1 while len(db) was 0
        db = ContractDatabase()
        contract = db.register("a", "F a")
        assert db.registration_stats.contracts == 1
        db.deregister(contract.contract_id)
        assert db.registration_stats.contracts == 0
        assert len(db) == 0

    def test_deregister_reregister_query_lifecycle(self):
        db = ContractDatabase()
        first = db.register("a", "F a")
        db.deregister(first.contract_id)
        second = db.register("a", "F a")
        assert db.registration_stats.contracts == 1
        assert second.contract_id != first.contract_id
        result = db.query("F a")
        assert result.contract_ids == (second.contract_id,)
        assert result.stats.database_size == 1


class TestQueryPipeline:
    def test_paper_queries(self, airfare_db):
        for name, info in QUERIES.items():
            result = airfare_db.query(info["ltl"])
            assert set(result.contract_names) == info["expected"], name

    def test_optimizations_do_not_change_results(self, airfare_db):
        for info in QUERIES.values():
            baseline = set(
                airfare_db.query(
                    info["ltl"], QueryOptions(plan=SCAN_PLAN)
                ).contract_names
            )
            for pf in (False, True):
                for pj in (False, True):
                    got = set(
                        airfare_db.query(
                            info["ltl"],
                            QueryOptions(plan=QueryPlan(pf, pj)),
                        ).contract_names
                    )
                    assert got == baseline

    def test_attribute_filter_pre_selects(self, airfare_db):
        result = airfare_db.query(
            "F(missedFlight && F(refund || dateChange))",
            QueryOptions(
                attribute_filter=AttributeFilter.where(le("price", 700)),
            ),
        )
        # Ticket A costs 980 and is filtered out relationally.
        assert set(result.contract_names) == {"Ticket B"}
        assert result.stats.relational_matches == 2

    def test_attribute_filter_no_match(self, airfare_db):
        result = airfare_db.query(
            "F refund",
            QueryOptions(
                attribute_filter=AttributeFilter.where(
                    eq("airline", "NoSuch")
                ),
            ),
        )
        assert result.contract_ids == ()
        assert result.stats.candidates == 0

    def test_stats_phases(self, airfare_db):
        result = airfare_db.query(
            "F(missedFlight && F refund)",
            QueryOptions(plan=QueryPlan(True, True)),
        )
        s = result.stats
        assert s.database_size == 3
        assert s.translation_seconds > 0
        assert s.total_seconds >= s.permission_seconds
        assert s.checked == s.candidates
        assert s.used_prefilter and s.used_projections
        assert s.pruning_condition

    def test_pruning_ratio(self, airfare_db):
        # classUpgrade queries prune everything
        result = airfare_db.query("F classUpgrade")
        assert result.stats.candidates == 0
        assert result.stats.pruning_ratio == 1.0

    def test_query_accepts_formula(self, airfare_db):
        result = airfare_db.query(parse("F refund"))
        assert "Ticket B" in result.contract_names


def _check_one(db, contract_id, query, explain=False):
    """The single-contract check on the full BA, no index."""
    return db.query(query, QueryOptions(
        contract_ids=(contract_id,), plan=SCAN_PLAN, explain=explain,
    ))


class TestDirectChecks:
    def test_permits_contract(self, airfare_db, airfare_contracts):
        a = airfare_contracts["Ticket A"].contract_id
        assert a in _check_one(airfare_db, a, "F dateChange")
        assert a not in _check_one(airfare_db, a, "F classUpgrade")

    def test_explain_returns_witness(self, airfare_db, airfare_contracts):
        a = airfare_contracts["Ticket A"].contract_id
        witness = _check_one(
            airfare_db, a, "F(missedFlight && F dateChange)", explain=True
        ).witnesses.get(a)
        assert witness is not None
        run = witness.to_run()
        assert airfare_contracts["Ticket A"].ba.accepts(run)

    def test_explain_none_when_not_permitted(self, airfare_db,
                                             airfare_contracts):
        c = airfare_contracts["Ticket C"].contract_id
        outcome = _check_one(airfare_db, c, "F refund", explain=True)
        assert outcome.witnesses.get(c) is None

    def test_get_unknown_raises(self, airfare_db):
        with pytest.raises(BrokerError):
            airfare_db.get(999)

    def test_contains_and_iter(self, airfare_db):
        ids = [c.contract_id for c in airfare_db.contracts()]
        assert len(ids) == 3
        assert ids[0] in airfare_db
        assert 999 not in airfare_db


class TestConfig:
    def test_scc_algorithm_config(self):
        """4.0: nothing selects a decider.  The constructor rejects the
        knob; a stored configuration that still carries it (a 3.x
        manifest or journal record) loads as the one configuration
        there is and answers through the one decider."""
        with pytest.raises(TypeError):
            BrokerConfig(permission_algorithm="scc")
        stored = {"permission_algorithm": "scc", "use_seeds": False,
                  "plan_cache_capacity": 0}
        assert BrokerConfig.from_dict(stored) == BrokerConfig()
        db = ContractDatabase(BrokerConfig.from_dict(stored))
        for spec in all_ticket_specs():
            db.register(spec)
        result = db.query("F(missedFlight && F(refund || dateChange))")
        assert set(result.contract_names) == {"Ticket A", "Ticket B"}

    def test_database_stats(self, airfare_db):
        stats = airfare_db.database_stats()
        assert stats["contracts"] == 3
        assert stats["states_avg"] > 0
        assert stats["index_nodes"] > 0

    def test_empty_database_stats(self):
        assert ContractDatabase().database_stats() == {"contracts": 0}
