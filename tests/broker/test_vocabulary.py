"""Tests for the governed event vocabulary."""

import pytest

from repro.broker.database import ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.vocabulary import EventVocabulary
from repro.errors import BrokerError
from repro.ltl.parser import parse


@pytest.fixture
def airfare_vocab():
    return EventVocabulary.describe(
        purchase="the ticket is purchased",
        use="the ticket is used",
        missedFlight="the customer misses the flight",
        refund="the customer is refunded",
        dateChange="the flight is rescheduled",
    )


class TestCatalog:
    def test_membership_and_iteration(self, airfare_vocab):
        assert "refund" in airfare_vocab
        assert "classUpgrade" not in airfare_vocab
        assert list(airfare_vocab) == sorted(airfare_vocab.names())
        assert len(airfare_vocab) == 5

    def test_descriptions(self, airfare_vocab):
        assert airfare_vocab.description("refund") == (
            "the customer is refunded"
        )
        with pytest.raises(KeyError):
            airfare_vocab.description("nope")

    def test_of_constructor(self):
        vocab = EventVocabulary.of("a", "b")
        assert vocab.names() == frozenset({"a", "b"})
        assert vocab.description("a") == ""

    def test_unknown_events(self, airfare_vocab):
        formula = parse("G(purchase -> !clasUpgrade)")
        assert airfare_vocab.unknown_events(formula) == {"clasUpgrade"}

    def test_extended_keeps_old(self, airfare_vocab):
        grown = airfare_vocab.extended(classUpgrade="cabin upgraded")
        assert "classUpgrade" in grown
        assert "refund" in grown
        # the original is untouched (requirement iii: no revisions forced)
        assert "classUpgrade" not in airfare_vocab

    def test_str(self, airfare_vocab):
        assert "refund" in str(airfare_vocab)


class TestValidation:
    def test_validate_passes_conforming(self, airfare_vocab):
        airfare_vocab.validate_contract(
            "ok", [parse("G(dateChange -> !F refund)")]
        )

    def test_validate_rejects_unknown(self, airfare_vocab):
        with pytest.raises(BrokerError) as info:
            airfare_vocab.validate_contract(
                "bad", [parse("G(dateChang -> !F refund)")]
            )
        assert "dateChang" in str(info.value)


class TestBrokerEnforcement:
    def test_registration_guard(self, airfare_vocab):
        db = ContractDatabase(vocabulary=airfare_vocab)
        db.register("fine", "G(dateChange -> !F refund)")
        with pytest.raises(BrokerError):
            db.register("typo", "G(dateChage -> !F refund)")
        assert len(db) == 1

    def test_queries_not_rejected(self, airfare_vocab):
        """Queries may cite events no contract knows — Definition 1 makes
        them match nothing on those events, which is the point."""
        db = ContractDatabase(vocabulary=airfare_vocab)
        db.register("fine", "G(dateChange -> !F refund)")
        result = db.query("F classUpgrade")
        assert result.contract_ids == ()

    def test_no_vocabulary_means_no_guard(self):
        db = ContractDatabase()
        db.register("anything", "G someUnusualEvent")
        assert len(db) == 1


class TestExplainFlag:
    def test_witnesses_on_request(self, airfare_db):
        query = "F(missedFlight && F(refund || dateChange))"
        plain = airfare_db.query(query)
        assert plain.witnesses == {}
        explained = airfare_db.query(query, QueryOptions(explain=True))
        assert set(explained.witnesses) == set(explained.contract_ids)
        for contract_id in explained.contract_ids:
            witness = explained.witness_for(contract_id)
            run = witness.to_run()
            contract = airfare_db.get(contract_id)
            assert contract.ba.accepts(run)

    def test_witness_for_missing_raises(self, airfare_db):
        result = airfare_db.query("F refund")
        with pytest.raises(KeyError):
            result.witness_for(0)
