"""The contract-database strategies of ``tests/strategies.py``."""

from hypothesis import given, settings

from repro.broker.contract import ContractSpec
from repro.broker.relational import AttributeFilter
from repro.check.cases import FilterSpec

from tests.strategies import (
    attribute_filters,
    attribute_maps,
    contract_specs,
    filter_specs,
)


@given(contract_specs())
@settings(max_examples=25, deadline=None)
def test_contract_specs_are_well_formed(spec):
    assert isinstance(spec, ContractSpec)
    assert spec.clauses
    assert set(spec.attributes) == {"price", "route", "tier"}
    # the conjunction must translate (this is what the harness registers)
    spec.formula


@given(filter_specs(max_conditions=3), attribute_maps())
@settings(max_examples=40, deadline=None)
def test_filter_specs_build_and_evaluate(spec, attributes):
    assert isinstance(spec, FilterSpec)
    built = spec.build()
    assert isinstance(built.matches(attributes), bool)
    # serialization round trip preserves semantics
    restored = FilterSpec.from_list(spec.to_list())
    assert restored.build().matches(attributes) == built.matches(attributes)


@given(attribute_filters(), attribute_maps())
@settings(max_examples=25, deadline=None)
def test_attribute_filters_are_built(built, attributes):
    assert isinstance(built, AttributeFilter)
    built.matches(attributes)
