"""Unit tests for contract specifications."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.contract import ContractSpec
from repro.broker.database import ContractDatabase
from repro.broker.persist import load_database, save_database
from repro.errors import BrokerError, LTLSyntaxError, ReproError
from repro.ltl.ast import And
from repro.ltl.parser import parse

from tests.strategies import contract_specs


class TestContractSpec:
    def test_formula_is_conjunction(self):
        spec = ContractSpec(
            "t", (parse("G a"), parse("F b")), {}
        )
        assert spec.formula == And(parse("G a"), parse("F b"))

    def test_single_clause_formula(self):
        spec = ContractSpec("t", (parse("G a"),), {})
        assert spec.formula == parse("G a")

    def test_vocabulary_from_all_clauses(self):
        spec = ContractSpec(
            "t", (parse("G a"), parse("F(b && !c)")), {}
        )
        assert spec.vocabulary == frozenset({"a", "b", "c"})

    def test_attributes_default_empty(self):
        spec = ContractSpec("t", (parse("G a"),))
        assert dict(spec.attributes) == {}


#: what a hostile or hand-edited document may hold where a value belongs
_JUNK = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=8),
    st.lists(st.one_of(st.integers(), st.text(max_size=8)), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


@st.composite
def _mutated(draw, doc: dict) -> dict:
    """``doc`` with one key dropped or its value replaced by junk."""
    out = dict(doc)
    key = draw(st.sampled_from(sorted(out)))
    if draw(st.booleans()):
        del out[key]
    else:
        out[key] = draw(_JUNK)
    return out


class TestSpecDocument:
    """``to_doc`` / ``from_doc``: the one codec of the document the
    journal, the manifest, the wire, the pool and spec files carry."""

    def test_key_order_and_clause_text(self):
        spec = ContractSpec("t", (parse("G(a -> F b)"),), {"price": 3})
        assert json.dumps(spec.to_doc()) == (
            '{"name": "t", "clauses": ["G (a -> F b)"], '
            '"attributes": {"price": 3}}'
        )

    @pytest.mark.parametrize("doc", [
        {"name": "t", "clauses": ["G a"]},
        {"name": "t", "clauses": ["G a"], "attributes": None},
        {"name": "t", "clauses": "G a"},
        {"name": "t", "clauses": (parse("G a"),), "attributes": {}},
        {"op": "register", "name": "t", "clauses": ["G a"], "attributes": {}},
    ])
    def test_every_shape_a_writer_produces_loads(self, doc):
        assert ContractSpec.from_doc(doc) == ContractSpec("t", (parse("G a"),))

    def test_empty_clause_list_loads(self):
        assert ContractSpec.from_doc({"name": "t", "clauses": []}).clauses == ()

    @pytest.mark.parametrize("doc", [
        "t", None, ["t"],
        {"clauses": ["G a"]},
        {"name": 7, "clauses": ["G a"]},
        {"name": "t"},
        {"name": "t", "clauses": 7},
        {"name": "t", "clauses": {"G a": 1}},
        {"name": "t", "clauses": ["G a", 7]},
        {"name": "t", "clauses": ["G a"], "attributes": ["price"]},
    ])
    def test_any_other_shape_is_a_broker_error(self, doc):
        with pytest.raises(BrokerError):
            ContractSpec.from_doc(doc)

    def test_clause_parse_errors_stay_parse_errors(self):
        with pytest.raises(LTLSyntaxError):
            ContractSpec.from_doc({"name": "t", "clauses": ["G((("]})

    @given(contract_specs())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, spec):
        assert ContractSpec.from_doc(spec.to_doc()) == spec
        assert ContractSpec.from_doc(
            json.loads(json.dumps(spec.to_doc()))
        ) == spec

    @given(st.data(), contract_specs())
    @settings(max_examples=100, deadline=None)
    def test_mutated_document_loads_or_raises_a_repro_error(self, data, spec):
        doc = data.draw(_mutated(spec.to_doc()))
        try:
            ContractSpec.from_doc(doc)
        except ReproError:
            pass

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        db = ContractDatabase()
        db.register("a", ["G (x -> F y)"], {"price": 3})
        db.register("b", ["F x"])
        return save_database(db, tmp_path_factory.mktemp("saved"))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_mutated_manifest_loads_or_raises_a_repro_error(self, saved, data):
        """One member of the manifest, or of its first entry, dropped
        or replaced: ``load_database`` answers or raises a
        :class:`ReproError`, never anything else."""
        manifest = json.loads((saved / "contracts.json").read_text())
        if data.draw(st.booleans()):
            manifest = data.draw(_mutated(manifest))
        else:
            manifest["contracts"][0] = data.draw(
                _mutated(manifest["contracts"][0])
            )
        with tempfile.TemporaryDirectory(prefix="repro-manifest-") as scratch:
            Path(scratch, "contracts.json").write_text(json.dumps(manifest))
            try:
                load_database(scratch)
            except ReproError:
                pass


class TestContractObject:
    def test_accessors(self, airfare_contracts):
        c = airfare_contracts["Ticket A"]
        assert c.name == "Ticket A"
        assert c.vocabulary == frozenset(
            {"purchase", "use", "missedFlight", "refund", "dateChange"}
        )
        assert c.attributes["airline"] == "United"

    def test_str(self, airfare_contracts):
        text = str(airfare_contracts["Ticket A"])
        assert "Ticket A" in text and "states" in text
