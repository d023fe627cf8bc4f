"""Registration-churn stability: repeated register/deregister cycles
must not leak index state or surface stale contracts in results."""

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.workload.airfare import TICKET_CLAUSES, ticket_spec

QUERY = "F(missedFlight && F(refund || dateChange))"


def _register_tickets(db):
    return {
        name: db.register(ticket_spec(name)) for name in TICKET_CLAUSES
    }


@pytest.fixture
def db():
    return ContractDatabase(BrokerConfig())


class TestChurnLoop:
    def test_index_returns_to_baseline(self, db):
        contracts = _register_tickets(db)
        baseline_nodes = db.index.num_nodes
        baseline_size = db.index.size_estimate()

        for _ in range(3):
            db.query(QUERY)
            for contract in contracts.values():
                db.deregister(contract.contract_id)
            contracts = _register_tickets(db)

        # pruning on deregister means the node count is churn-stable,
        # not monotonically growing
        assert db.index.num_nodes == baseline_nodes
        assert db.index.size_estimate() == baseline_size

    def test_empty_database_index_fully_pruned(self, db):
        contracts = _register_tickets(db)
        for contract in contracts.values():
            db.deregister(contract.contract_id)
        # only the root node survives a full drain
        assert db.index.num_nodes == 1
        assert db.index.size_estimate() == 0

    def test_deregistered_contracts_never_match(self, db):
        contracts = _register_tickets(db)
        assert "Ticket A" in db.query(QUERY).contract_names

        old_a = contracts["Ticket A"]
        db.deregister(old_a.contract_id)
        result = db.query(QUERY)
        assert "Ticket A" not in result.contract_names
        assert old_a.contract_id not in result.contract_ids

        new_a = db.register(ticket_spec("Ticket A"))
        result = db.query(QUERY)
        assert "Ticket A" in result.contract_names
        # the re-registration is a fresh contract, not the stale id
        assert new_a.contract_id != old_a.contract_id
        assert old_a.contract_id not in result.contract_ids

    def test_stats_stay_consistent(self, db):
        contracts = _register_tickets(db)
        expected = db.database_stats()

        for _ in range(2):
            for contract in contracts.values():
                db.deregister(contract.contract_id)
            assert db.registration_stats.contracts == 0
            assert db.database_stats() == {"contracts": 0}
            contracts = _register_tickets(db)

        stats = db.database_stats()
        assert db.registration_stats.contracts == len(contracts)
        assert stats["contracts"] == expected["contracts"]
        assert stats["index_nodes"] == expected["index_nodes"]
        assert stats["index_size"] == expected["index_size"]
        assert stats["states_avg"] == expected["states_avg"]
