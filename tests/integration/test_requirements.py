"""Integration tests for the paper's four design requirements (§1).

i.   Expressiveness: realistic temporal behavior is capturable.
ii.  Compact, stable interface: the vocabulary is small and governed.
iii. No forced revisions: publishing new contracts (or growing the
     vocabulary) never changes existing contracts' query behavior.
iv.  Declarative clauses close to natural language.
"""

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.vocabulary import EventVocabulary
from repro.workload.airfare import QUERIES, all_ticket_specs


class TestRequirementIII:
    """Published contracts need no revision when the world grows."""

    def test_new_contract_does_not_change_existing_answers(self):
        db = ContractDatabase()
        for spec in all_ticket_specs():
            db.register(spec)
        before = {
            name: set(db.query(info["ltl"]).contract_names)
            for name, info in QUERIES.items()
        }
        # a very permissive newcomer
        db.register("Ticket Z", ["F classUpgrade", "G(a -> F b)"])
        for name, info in QUERIES.items():
            after = set(db.query(info["ltl"]).contract_names)
            assert before[name] <= after
            assert after - before[name] <= {"Ticket Z"}

    def test_vocabulary_growth_keeps_contracts_valid(self):
        vocab = EventVocabulary.of(
            "purchase", "use", "missedFlight", "refund", "dateChange"
        )
        db = ContractDatabase(vocabulary=vocab)
        for spec in all_ticket_specs():
            db.register(spec)
        answers_before = set(
            db.query(QUERIES["refund_after_miss"]["ltl"]).contract_names
        )

        # grow the shared vocabulary (a new event appears in the market)
        db.vocabulary = db.vocabulary.extended(
            classUpgrade="cabin class upgraded"
        )
        db.register(
            "Upgrade-friendly",
            ["G(dateChange -> F classUpgrade)"],
        )
        # existing contracts were not revised, answers are unchanged
        answers_after = set(
            db.query(QUERIES["refund_after_miss"]["ltl"]).contract_names
        )
        assert answers_before == answers_after

    def test_deregistration_reverts_cleanly(self):
        db = ContractDatabase()
        for spec in all_ticket_specs():
            db.register(spec)
        query = QUERIES["refund_or_change_after_miss"]["ltl"]
        baseline = set(db.query(query).contract_names)
        extra = db.register("Temp", ["F(missedFlight && F refund)"])
        assert set(db.query(query).contract_names) == baseline | {"Temp"}
        db.deregister(extra.contract_id)
        assert set(db.query(query).contract_names) == baseline


class TestRequirementII:
    def test_interface_is_the_vocabulary(self):
        """Customers and providers share only event names — queries over
        the same five events reach every airfare regardless of how each
        airline phrased its clauses."""
        db = ContractDatabase()
        for spec in all_ticket_specs():
            db.register(spec)
        vocabularies = {c.vocabulary for c in db.contracts()}
        assert len(vocabularies) == 1  # one compact shared interface


class TestRequirementIV:
    def test_clause_counts_match_natural_language(self):
        """Example 2's natural-language policies map to at most a few
        declarative clauses each (beyond the shared domain axioms)."""
        from repro.workload.airfare import TICKET_CLAUSES

        assert len(TICKET_CLAUSES["Ticket A"]) == 1
        assert len(TICKET_CLAUSES["Ticket B"]) == 1
        assert len(TICKET_CLAUSES["Ticket C"]) == 3
