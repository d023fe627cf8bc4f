"""Tests for simultaneous-lasso witness extraction."""

from hypothesis import given, settings

from repro.automata.ltl2ba import translate
from repro.core.permission import find_witness, permits
from repro.ltl.parser import parse
from repro.ltl.semantics import satisfies

from tests.strategies import formulas


class TestAirfareWitness:
    QUERY = "F(missedFlight && F(refund || dateChange))"

    def test_witness_exists_iff_permitted(self, airfare_contracts):
        q = translate(parse(self.QUERY))
        for name, contract in airfare_contracts.items():
            witness = find_witness(contract.ba, q, contract.vocabulary)
            permitted = permits(contract.ba, q, contract.vocabulary)
            assert (witness is not None) == permitted, name

    def test_witness_run_accepted_by_both(self, airfare_contracts):
        contract = airfare_contracts["Ticket A"]
        q = translate(parse(self.QUERY))
        witness = find_witness(contract.ba, q, contract.vocabulary)
        run = witness.to_run()
        assert contract.ba.accepts(run)
        assert q.accepts(run)

    def test_witness_run_within_vocabulary(self, airfare_contracts):
        """Definition 1(b): the witness uses only contract events."""
        contract = airfare_contracts["Ticket A"]
        q = translate(parse(self.QUERY))
        run = find_witness(contract.ba, q, contract.vocabulary).to_run()
        assert run.variables() <= contract.vocabulary

    def test_witness_satisfies_query_formula(self, airfare_contracts):
        contract = airfare_contracts["Ticket B"]
        q = translate(parse(self.QUERY))
        run = find_witness(contract.ba, q, contract.vocabulary).to_run()
        assert satisfies(run, parse(self.QUERY))

    def test_witness_printable(self, airfare_contracts):
        contract = airfare_contracts["Ticket A"]
        q = translate(parse(self.QUERY))
        witness = find_witness(contract.ba, q, contract.vocabulary)
        text = str(witness)
        assert "prefix[" in text and "cycle[" in text

    def test_combined_labels_satisfiable(self, airfare_contracts):
        contract = airfare_contracts["Ticket A"]
        q = translate(parse(self.QUERY))
        witness = find_witness(contract.ba, q, contract.vocabulary)
        for step in witness.prefix + witness.cycle:
            assert step.combined_label is not None

    def test_cycle_nonempty(self, airfare_contracts):
        contract = airfare_contracts["Ticket A"]
        q = translate(parse(self.QUERY))
        witness = find_witness(contract.ba, q, contract.vocabulary)
        assert len(witness.cycle) >= 1


class TestWitnessProperty:
    @given(formulas(max_depth=3), formulas(max_depth=3))
    @settings(max_examples=100, deadline=None)
    def test_witness_is_sound_evidence(self, contract_formula, query_formula):
        """Whenever a witness exists, its run really is (a) allowed by the
        contract, (b) over contract events only, (c) a query model —
        exactly clauses (a)-(c) of Definition 1."""
        contract = translate(contract_formula)
        q = translate(query_formula)
        vocabulary = contract_formula.variables()
        witness = find_witness(contract, q, vocabulary)
        assert (witness is not None) == permits(contract, q, vocabulary)
        if witness is not None:
            run = witness.to_run()
            assert contract.accepts(run)                  # (a)
            assert run.variables() <= vocabulary          # (b)
            assert q.accepts(run)                         # (c)
            assert satisfies(run, contract_formula)
            assert satisfies(run, query_formula)
