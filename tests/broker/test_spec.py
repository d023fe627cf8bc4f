"""The declarative query API: QuerySpec documents, validation, file
loading, and execution through ``db.query(spec)``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broker.database import ContractDatabase
from repro.broker.options import Degradation, QueryOptions
from repro.broker.relational import AttributeFilter, eq, is_in, le
from repro.broker.spec import QuerySpec
from repro.errors import BrokerError, ReproError


def _spec_bytes(options: str = "", extra: str = "") -> bytes:
    body = '{"query": "F a"' + extra
    if options:
        body += ', "options": {' + options + "}"
    return (body + "}").encode()


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


#: (id, file bytes, None when the file loads, else a pattern the
#: ReproError's message matches)
HOSTILE_FILES = [
    ("valid", _spec_bytes('"step_budget": 5, "explain": true'), None),
    ("valid-nulls", _spec_bytes(
        '"step_budget": null, "deadline_seconds": null'), None),
    ("valid-int-deadline", _spec_bytes('"deadline_seconds": 2'), None),
    ("deep-nesting", _nested(100_000).encode(), "malformed JSON"),
    ("deep-nesting-in-filter",
     _spec_bytes(extra=', "filter": ' + _nested(100_000)), "malformed JSON"),
    ("nesting-just-parsable-in-filter",
     _spec_bytes(extra=', "filter": [' + _nested(900) + "]"), "filter"),
    ("nesting-just-parsable-in-option",
     _spec_bytes('"explain": ' + _nested(900)), "'explain'"),
    ("huge-integer", _spec_bytes('"step_budget": 1' + "0" * 5_000),
     "malformed JSON"),
    ("invalid-utf8", b'{"query": "F \xff"}', "not UTF-8"),
    ("utf8-bom", b"\xef\xbb\xbf" + _spec_bytes(), "malformed JSON"),
    ("empty", b"", "malformed JSON"),
    ("json-null", b"null", "mapping"),
    ("filter-int", _spec_bytes(extra=', "filter": 5'), "'filter'"),
    ("filter-string", _spec_bytes(extra=', "filter": "price"'), "'filter'"),
    ("filter-object", _spec_bytes(extra=', "filter": {"a": 1}'),
     "'filter'"),
    ("options-list", _spec_bytes(extra=', "options": [1]'), "'options'"),
    ("explain-string", _spec_bytes('"explain": "yes"'), "'explain'"),
    ("explain-null", _spec_bytes('"explain": null'), "'explain'"),
    ("step-budget-bool", _spec_bytes('"step_budget": true'),
     "'step_budget'"),
    ("step-budget-float", _spec_bytes('"step_budget": 1.5'),
     "'step_budget'"),
    ("step-budget-zero", _spec_bytes('"step_budget": 0'), "step_budget"),
    ("deadline-nan", _spec_bytes('"deadline_seconds": NaN'),
     "'deadline_seconds'"),
    ("deadline-string", _spec_bytes('"deadline_seconds": "1"'),
     "'deadline_seconds'"),
    ("deadline-bool", _spec_bytes('"deadline_seconds": false'),
     "'deadline_seconds'"),
    ("deadline-negative", _spec_bytes('"deadline_seconds": -1'),
     "deadline_seconds"),
    ("degradation-list", _spec_bytes('"degradation": ["drop"]'),
     "degradation"),
    ("yaml-deep-nesting", _nested(100_000).encode(), "malformed YAML"),
    ("yaml-tab-indent", b"query: F a\noptions:\n\tstep_budget: 3\n",
     "malformed YAML"),
]


class TestFromDict:
    def test_minimal(self):
        spec = QuerySpec.from_dict({"query": "F refund"})
        assert spec.query == "F refund"
        assert not spec.filter.conditions
        assert spec.options == QueryOptions()

    def test_full_document(self):
        spec = QuerySpec.from_dict({
            "query": "F refund",
            "filter": [
                ["price", "<=", 500],
                {"attribute": "route", "op": "==", "value": "SAN-NYC"},
            ],
            "options": {"deadline_seconds": 0.5, "degradation": "drop"},
        })
        assert spec.filter == AttributeFilter.where(
            le("price", 500), eq("route", "SAN-NYC")
        )
        assert spec.options.deadline_seconds == 0.5
        assert spec.options.degradation is Degradation.DROP

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(BrokerError):
            QuerySpec.from_dict({"query": "F a", "fliter": []})

    def test_missing_or_empty_query_rejected(self):
        with pytest.raises(BrokerError):
            QuerySpec.from_dict({})
        with pytest.raises(BrokerError):
            QuerySpec.from_dict({"query": "   "})
        with pytest.raises(BrokerError):
            QuerySpec.from_dict(["F a"])

    def test_unknown_option_rejected(self):
        with pytest.raises(BrokerError):
            QuerySpec.from_dict(
                {"query": "F a", "options": {"use_plannner": True}}
            )

    def test_removed_use_encoded_option_rejected_by_name(self):
        with pytest.raises(BrokerError, match="use_encoded"):
            QuerySpec.from_dict(
                {"query": "F a", "options": {"use_encoded": False}}
            )

    def test_use_planner_true_is_accepted_and_dropped(self):
        """It names the only path there is: 2.x documents (and 2.x
        coordinators on the wire) carry it, 3.0 never writes it back."""
        doc = {"query": "F a", "options": {"use_planner": True,
                                           "step_budget": 9}}
        spec = QuerySpec.from_dict(doc)
        assert spec.options == QueryOptions(step_budget=9)
        assert spec.to_dict() == {"query": "F a",
                                  "options": {"step_budget": 9}}

    @pytest.mark.parametrize("key, value", [
        ("use_planner", False),
        ("use_planner", 1),
        ("use_prefilter", False),
        ("use_prefilter", True),
        ("use_projections", False),
        ("stage_order", "prefilter_first"),
        # removed in 4.0 — valid 3.x documents carrying these fail
        # loudly instead of silently running without the cap they set
        ("workers", 2),
        ("workers", 1),
        ("contract_deadline_seconds", 0.5),
        ("budget_check_interval", 16),
    ])
    def test_removed_pipeline_options_rejected_by_name(self, key, value):
        with pytest.raises(BrokerError, match=key) as excinfo:
            QuerySpec.from_dict({"query": "F a", "options": {key: value}})
        assert "CHANGELOG" in str(excinfo.value)

    def test_option_keys_are_pinned(self):
        from repro.broker.options import SPEC_OPTION_KEYS

        assert SPEC_OPTION_KEYS == {
            "explain", "deadline_seconds", "step_budget", "degradation",
        }

    def test_pinned_plan_has_no_document_form(self):
        from repro.broker.planner import SCAN_PLAN

        with pytest.raises(BrokerError, match="plan"):
            QuerySpec.from_dict({"query": "F a", "options": {"plan": None}})
        spec = QuerySpec(query="F a", options=QueryOptions(plan=SCAN_PLAN))
        assert spec.to_dict() == {"query": "F a"}

    def test_invalid_option_value_rejected(self):
        with pytest.raises(BrokerError):
            QuerySpec.from_dict(
                {"query": "F a", "options": {"step_budget": 0}}
            )
        with pytest.raises(BrokerError):
            QuerySpec.from_dict(
                {"query": "F a", "options": {"degradation": "explode"}}
            )

    def test_bad_filter_rejected(self):
        with pytest.raises(BrokerError):
            QuerySpec.from_dict(
                {"query": "F a", "filter": [["price", "=~", 5]]}
            )


class TestFiles:
    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "query": "F refund",
            "filter": [["price", "<=", 500]],
        }), encoding="utf-8")
        spec = QuerySpec.from_file(path)
        assert spec.query == "F refund"
        assert spec.filter == AttributeFilter.where(le("price", 500))

    def test_missing_file_raises_broker_error(self, tmp_path):
        with pytest.raises(BrokerError):
            QuerySpec.from_file(tmp_path / "nope.json")

    def test_malformed_json_raises_broker_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BrokerError):
            QuerySpec.from_file(path)

    @pytest.mark.parametrize("name, content, outcome", HOSTILE_FILES,
                             ids=[row[0] for row in HOSTILE_FILES])
    def test_hostile_bytes_load_or_raise_a_repro_error(
            self, tmp_path, name, content, outcome):
        """Every row loads (``outcome`` is ``None``) or raises a
        ``ReproError`` whose message holds ``outcome``; anything else
        escapes pytest.raises and fails the row."""
        path = tmp_path / "spec.json"
        if name.startswith("yaml"):
            pytest.importorskip("yaml")
            path = tmp_path / "spec.yaml"
        path.write_bytes(content)
        if outcome is None:
            assert isinstance(QuerySpec.from_file(path), QuerySpec)
        else:
            with pytest.raises(ReproError, match=outcome):
                QuerySpec.from_file(path)

    def test_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(
            yaml.safe_dump({"query": "F refund",
                            "filter": [["price", "<=", 500]]}),
            encoding="utf-8",
        )
        spec = QuerySpec.from_file(path)
        assert spec.filter == AttributeFilter.where(le("price", 500))


class TestExecution:
    @pytest.fixture()
    def db(self):
        db = ContractDatabase()
        db.register("cheap", ["G(a -> F b)"], attributes={"price": 100})
        db.register("pricey", ["G(a -> F b)"], attributes={"price": 900})
        return db

    def test_query_accepts_spec(self, db):
        spec = QuerySpec.from_dict({
            "query": "F a",
            "filter": [["price", "<=", 500]],
        })
        outcome = db.query(spec)
        assert outcome.contract_names == ("cheap",)

    def test_spec_equals_explicit_options(self, db):
        spec = QuerySpec.from_dict({
            "query": "F a",
            "filter": [["price", "<=", 500]],
            "options": {"use_planner": True},
        })
        explicit = db.query("F a", QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
        ))
        outcome = db.query(spec)
        assert outcome.contract_names == explicit.contract_names
        assert outcome.stats.plan_summary == explicit.stats.plan_summary

    def test_spec_with_extra_options_rejected(self, db):
        spec = QuerySpec.from_dict({"query": "F a"})
        with pytest.raises(TypeError):
            db.query(spec, QueryOptions())
        with pytest.raises(TypeError):
            db.plan_query(spec, QueryOptions())

    def test_plan_query_accepts_spec(self, db):
        spec = QuerySpec.from_dict({
            "query": "F a",
            "filter": [["price", "<=", 500]],
        })
        plan = db.plan_query(spec)
        assert plan.to_dict()["stages"]
        assert "attribute-filter" in plan.explain()


_scalars = st.one_of(
    st.integers(-1000, 1000),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
)

_filter_items = st.one_of(
    st.tuples(
        st.text(min_size=1, max_size=6),
        st.sampled_from(["==", "!=", "<", "<=", ">", ">=", "contains"]),
        _scalars,
    ).map(list),
    st.tuples(
        st.text(min_size=1, max_size=6),
        st.just("in"),
        st.lists(_scalars, min_size=1, max_size=3),
    ).map(list),
)

_option_docs = st.fixed_dictionaries({}, optional={
    "use_planner": st.just(True),
    "explain": st.booleans(),
    "deadline_seconds": st.floats(0.001, 10.0),
    "step_budget": st.integers(1, 10_000),
    "degradation": st.sampled_from([d.value for d in Degradation]),
})

_spec_docs = st.builds(
    lambda query, flt, options: {
        "query": query,
        **({"filter": flt} if flt else {}),
        **({"options": options} if options else {}),
    },
    query=st.text(min_size=1, max_size=20).filter(lambda s: s.strip()),
    flt=st.lists(_filter_items, max_size=3),
    options=_option_docs,
)


class TestRoundTrip:
    def test_to_dict_emits_only_non_defaults(self):
        spec = QuerySpec.from_dict({"query": "F a"})
        assert spec.to_dict() == {"query": "F a"}

    @given(doc=_spec_docs)
    @settings(max_examples=100, deadline=None)
    def test_spec_round_trips_through_json(self, doc):
        spec = QuerySpec.from_dict(doc)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert QuerySpec.from_dict(wire) == spec

    def test_round_trip_preserves_membership_filter(self):
        spec = QuerySpec(
            query="F a",
            filter=AttributeFilter.where(is_in("route", ["B", "A"])),
        )
        assert QuerySpec.from_dict(spec.to_dict()) == spec
