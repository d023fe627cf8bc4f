"""Unit tests for the relational pre-selection substrate."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.relational import (
    MATCH_ALL,
    AttributeCondition,
    AttributeFilter,
    condition_from_doc,
    contains,
    eq,
    ge,
    gt,
    is_in,
    le,
    lt,
    ne,
)
from repro.errors import BrokerError

ATTRS = {
    "price": 420,
    "airline": "United",
    "stops": ["DEN"],
    "refundable": True,
}


class TestConditions:
    def test_eq(self):
        assert eq("airline", "United").matches(ATTRS)
        assert not eq("airline", "Delta").matches(ATTRS)

    def test_ne(self):
        assert ne("airline", "Delta").matches(ATTRS)
        assert not ne("airline", "United").matches(ATTRS)

    def test_ordering(self):
        assert lt("price", 500).matches(ATTRS)
        assert le("price", 420).matches(ATTRS)
        assert gt("price", 400).matches(ATTRS)
        assert ge("price", 420).matches(ATTRS)
        assert not lt("price", 420).matches(ATTRS)
        assert not gt("price", 420).matches(ATTRS)

    def test_is_in(self):
        assert is_in("airline", ["United", "AA"]).matches(ATTRS)
        assert not is_in("airline", ["Delta"]).matches(ATTRS)

    def test_contains(self):
        assert contains("stops", "DEN").matches(ATTRS)
        assert not contains("stops", "ORD").matches(ATTRS)

    def test_missing_attribute_never_matches(self):
        assert not eq("cabin", "economy").matches(ATTRS)
        assert not lt("weight", 5).matches(ATTRS)

    def test_type_error_is_no_match(self):
        assert not lt("airline", 5).matches(ATTRS)

    def test_str(self):
        assert "price" in str(le("price", 500))


class TestFilter:
    def test_match_all(self):
        assert MATCH_ALL.matches(ATTRS)
        assert MATCH_ALL.matches({})

    def test_conjunction(self):
        f = AttributeFilter.where(le("price", 500), eq("airline", "United"))
        assert f.matches(ATTRS)

    def test_conjunction_fails_on_any(self):
        f = AttributeFilter.where(le("price", 100), eq("airline", "United"))
        assert not f.matches(ATTRS)

    def test_str(self):
        assert str(MATCH_ALL) == "TRUE"
        f = AttributeFilter.where(le("price", 500))
        assert "AND" not in str(f)
        f2 = AttributeFilter.where(le("price", 500), eq("airline", "U"))
        assert "AND" in str(f2)


_scalars = st.one_of(
    st.integers(-10_000, 10_000),
    st.text(max_size=8),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.none(),
)

_conditions = st.one_of(
    st.builds(
        AttributeCondition,
        st.text(min_size=1, max_size=6),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "contains"]),
        _scalars,
    ),
    st.builds(
        is_in,
        st.text(min_size=1, max_size=6),
        st.lists(_scalars, min_size=1, max_size=4),
    ),
)


class TestConditionAST:
    def test_condition_is_data(self):
        c = le("price", 500)
        assert (c.attribute, c.op, c.value) == ("price", "<=", 500)

    def test_unknown_operator_rejected(self):
        with pytest.raises(BrokerError):
            AttributeCondition("price", "=~", 5)

    def test_in_rejects_scalar_string(self):
        with pytest.raises(BrokerError):
            AttributeCondition("route", "in", "SAN-NYC")

    def test_in_value_normalized(self):
        a = is_in("route", ["B", "A", "B"])
        b = is_in("route", ("A", "B"))
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_to_dict_from_dict_round_trip(self):
        c = is_in("route", ["SAN-NYC", "LAX-SEA"])
        doc = json.loads(json.dumps(c.to_dict()))
        assert AttributeCondition.from_dict(doc) == c

    def test_from_dict_missing_keys_rejected(self):
        with pytest.raises(BrokerError):
            AttributeCondition.from_dict({"attribute": "price"})

    def test_condition_from_doc_accepts_triple_and_mapping(self):
        triple = condition_from_doc(["price", "<=", 500])
        mapping = condition_from_doc(
            {"attribute": "price", "op": "<=", "value": 500}
        )
        assert triple == mapping == le("price", 500)
        with pytest.raises(BrokerError):
            condition_from_doc(["price", "<="])
        with pytest.raises(BrokerError):
            condition_from_doc(42)

    def test_equality_and_hash(self):
        assert le("price", 500) == le("price", 500)
        assert hash(le("price", 500)) == hash(le("price", 500))
        assert le("price", 500) != le("price", 501)
        assert le("price", 500) != lt("price", 500)

    @given(condition=_conditions)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_json(self, condition):
        doc = json.loads(json.dumps(condition.to_dict()))
        restored = AttributeCondition.from_dict(doc)
        assert restored == condition
        assert restored.cache_key() == condition.cache_key()


class TestLegacyShim:
    """The pre-1.8 ``(attribute, description, predicate)`` construction
    was removed in 2.0: a condition is data, never a closure."""

    def test_legacy_construction_rejected(self):
        with pytest.raises(BrokerError, match="unknown condition operator"):
            AttributeCondition("price", "<= 500", lambda price: price <= 500)

    def test_legacy_keyword_construction_rejected(self):
        with pytest.raises(TypeError):
            AttributeCondition(
                "price", description="cheap",
                predicate=lambda price: price < 100,
            )


class TestFilterSerialization:
    def test_to_list_from_list_round_trip(self):
        f = AttributeFilter.where(
            le("price", 500), is_in("route", ["A", "B"])
        )
        restored = AttributeFilter.from_list(
            json.loads(json.dumps(f.to_list()))
        )
        assert restored == f
        assert restored.cache_key() == f.cache_key()

    def test_distinct_filters_have_distinct_cache_keys(self):
        pairs = [
            AttributeFilter.where(le("price", 500)),
            AttributeFilter.where(le("price", 501)),
            AttributeFilter.where(lt("price", 500)),
            AttributeFilter.where(le("cost", 500)),
            AttributeFilter.where(le("price", 500), eq("route", "X")),
            MATCH_ALL,
        ]
        keys = [f.cache_key() for f in pairs]
        assert len(set(keys)) == len(keys)
