"""Tests for the curated contract corpus — every domain's expected
question/answer pairs hold end to end through the broker."""

import pytest

from repro.broker.database import ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN
from repro.workload.corpus import all_domains, domain


@pytest.fixture(scope="module", params=[d.name for d in all_domains()])
def built_domain(request):
    d = domain(request.param)
    db = ContractDatabase(vocabulary=d.vocabulary)
    for spec in d.contracts:
        db.register(spec)
    return d, db


class TestCorpusShape:
    def test_four_domains(self):
        assert len(all_domains()) == 4
        assert {d.name for d in all_domains()} == {
            "warranty", "saas", "gym", "resale"
        }

    def test_unknown_domain(self):
        with pytest.raises(KeyError):
            domain("nope")

    def test_each_domain_has_competition(self):
        for d in all_domains():
            assert len(d.contracts) >= 3
            assert len(d.questions) >= 3

    def test_contracts_conform_to_vocabulary(self):
        for d in all_domains():
            for spec in d.contracts:
                d.vocabulary.validate_contract(spec.name, spec.clauses)

    def test_contracts_are_satisfiable(self):
        """An unsatisfiable corpus contract would silently match nothing."""
        from repro.automata.equivalence import is_satisfiable

        for d in all_domains():
            for spec in d.contracts:
                assert is_satisfiable(spec.formula), (d.name, spec.name)


class TestCorpusAnswers:
    def test_expected_answers(self, built_domain):
        d, db = built_domain
        for question, (ltl, expected) in d.questions.items():
            result = db.query(ltl)
            assert set(result.contract_names) == set(expected), (
                d.name, question,
            )

    def test_answers_stable_without_optimizations(self, built_domain):
        d, db = built_domain
        for question, (ltl, expected) in d.questions.items():
            result = db.query(ltl, QueryOptions(plan=SCAN_PLAN))
            assert set(result.contract_names) == set(expected), (
                d.name, question,
            )

    def test_every_answer_explainable(self, built_domain):
        d, db = built_domain
        for question, (ltl, expected) in d.questions.items():
            result = db.query(ltl, QueryOptions(explain=True))
            for contract_id in result.contract_ids:
                run = result.witness_for(contract_id).to_run()
                assert db.get(contract_id).ba.accepts(run)
