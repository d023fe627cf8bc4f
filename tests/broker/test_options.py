"""Tests for the unified QueryOptions surface.

Every entry point funnels into one options-driven path; the pre-1.3
spellings and the ``use_encoded`` knob were removed in 2.0, the
pipeline switches in 3.0, the decider/executor selectors (and the
options nothing set) in 4.0, and all must fail loudly, while their
documented replacements answer as the old spellings did.
"""

import warnings
from dataclasses import fields

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import (
    Degradation,
    PrebuiltArtifacts,
    QueryOptions,
    coerce_query_options,
)
from repro.broker.planner import SCAN_PLAN, QueryPlan
from repro.broker.query import QueryOutcome
from repro.broker.relational import MATCH_ALL, AttributeFilter, le
from repro.workload.airfare import QUERIES, all_ticket_specs

QUERY = "F(missedFlight && F(refund || dateChange))"


def _airfare_db() -> ContractDatabase:
    db = ContractDatabase(BrokerConfig())
    for spec in all_ticket_specs():
        db.register(spec)
    return db


class TestQueryOptions:
    def test_defaults_are_unbudgeted(self):
        options = QueryOptions()
        assert not options.budgeted
        assert options.degradation is Degradation.MAYBE

    @pytest.mark.parametrize("field, value", [
        ("deadline_seconds", -1.0),
        ("step_budget", 0),
        # removed in 4.0: no value is valid any more
        ("contract_deadline_seconds", -0.5),
        ("budget_check_interval", 0),
        ("workers", 0),
    ])
    def test_validation(self, field, value):
        removed = field not in {f.name for f in fields(QueryOptions)}
        with pytest.raises(TypeError if removed else ValueError):
            QueryOptions(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("deadline_seconds", 0.1),
        ("step_budget", 100),
    ])
    def test_any_budget_field_makes_it_budgeted(self, field, value):
        assert QueryOptions(**{field: value}).budgeted

    def test_evolve(self):
        options = QueryOptions(deadline_seconds=1.0)
        changed = options.evolve(step_budget=4)
        assert changed.step_budget == 4
        assert changed.deadline_seconds == 1.0
        assert options.step_budget is None  # frozen original untouched

    def test_field_sets_are_pinned(self):
        """A knob cannot come back unnoticed: the one pipeline knob left
        is ``QueryOptions.plan``, ``BrokerConfig.use_projections`` only
        decides what registration builds, and nothing selects a decider
        or an executor."""
        assert {f.name for f in fields(QueryOptions)} == {
            "attribute_filter", "contract_ids", "plan", "explain",
            "deadline_seconds", "step_budget", "degradation",
        }
        assert {f.name for f in fields(BrokerConfig)} == {
            "use_projections", "prefilter_depth", "projection_subset_cap",
            "state_budget", "query_cache_capacity",
        }

    def test_plan_order_is_validated(self):
        with pytest.raises(ValueError, match="order"):
            QueryPlan(True, True, order="sideways")


class TestCoercion:
    """``coerce_query_options`` and the entry points' argument contract:
    one ``QueryOptions`` or nothing — the pre-1.3 positional filter and
    per-call keyword toggles are ``TypeError``s since 2.0."""

    def test_none_gives_defaults(self):
        assert coerce_query_options("query", None) == QueryOptions()

    def test_options_passed_through(self):
        options = QueryOptions(step_budget=5)
        assert coerce_query_options("query", options) is options

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="expected QueryOptions"):
            coerce_query_options("query", 42)

    def test_positional_attribute_filter_rejected(self, airfare_db):
        f = AttributeFilter.where(le("price", 700))
        with pytest.raises(TypeError, match=r"query\(\) expected QueryOptions"):
            airfare_db.query(QUERY, f)
        with pytest.raises(TypeError, match=r"query_many\(\) expected"):
            airfare_db.query_many([QUERY], f)

    def test_legacy_kwargs_rejected(self, airfare_db):
        for kwargs in (
            {"use_prefilter": False},
            {"use_projections": False},
            {"explain": True},
            {"workers": 3},
        ):
            with pytest.raises(TypeError, match="unexpected keyword"):
                airfare_db.query(QUERY, **kwargs)

    def test_legacy_none_means_default(self, airfare_db):
        # an explicit None is the one "no options" spelling that survives
        explicit = airfare_db.query(QUERY, None)
        default = airfare_db.query(QUERY)
        assert explicit.contract_ids == default.contract_ids
        assert explicit.stats.plan_summary == default.stats.plan_summary

    def test_unknown_kwarg_rejected(self, airfare_db):
        with pytest.raises(TypeError, match="unexpected keyword"):
            airfare_db.query(QUERY, prefilter=True)

    def test_mixing_options_and_legacy_rejected(self, airfare_db):
        with pytest.raises(TypeError):
            airfare_db.query(QUERY, QueryOptions(), explain=True)

    def test_double_attribute_filter_rejected(self, airfare_db):
        f = MATCH_ALL
        with pytest.raises(TypeError):
            airfare_db.query(
                QUERY, QueryOptions(attribute_filter=f), attribute_filter=f
            )


class TestEncodedToggle:
    """The ``use_encoded`` toggle is gone (2.0): the flat-int search is
    the only decider, and the knob is rejected wherever it could still
    be typed."""

    def test_config_default_is_encoded(self, monkeypatch):
        import repro.broker.database as dbmod

        calls = []
        real = dbmod.permits_encoded

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dbmod, "permits_encoded", spy)
        db = _airfare_db()
        outcome = db.query(QUERY)
        assert outcome.stats.checked == len(calls) > 0

    def test_every_contract_carries_an_encoding(self, airfare_db):
        for contract in airfare_db.contracts():
            assert contract.encoded.num_states == contract.ba.num_states
            assert contract.encoded_seeds_mask == contract.encoded.state_mask(
                contract.seeds
            )

    def test_answers_identical_both_ways(self, airfare_db):
        """The database (registration-time encodings, projection
        quotients, prefilter) and the object-signature ``permits``
        (encodes on the fly, full automaton) agree contract by
        contract."""
        from repro.automata.ltl2ba import translate
        from repro.core.permission import permits
        from repro.ltl.parser import parse

        for info in QUERIES.values():
            query_ba = translate(parse(info["ltl"]))
            direct = tuple(
                c.name for c in airfare_db.contracts()
                if permits(c.ba, query_ba, c.vocabulary)
            )
            assert airfare_db.query(info["ltl"]).contract_names == direct

    def test_knob_rejected_by_options_and_config(self):
        with pytest.raises(TypeError):
            QueryOptions(use_encoded=False)
        with pytest.raises(TypeError):
            BrokerConfig(use_encoded=False)
        assert not hasattr(QueryOptions(), "use_encoded")


class TestOutcomeShape:
    def test_outcome_is_a_query_result(self, airfare_db):
        outcome = airfare_db.query(QUERY)
        assert isinstance(outcome, QueryOutcome)
        assert not outcome.degraded
        assert outcome.maybe_ids == ()

    def test_verdicts_cover_every_candidate(self, airfare_db):
        outcome = airfare_db.query(QUERY, QueryOptions(plan=SCAN_PLAN))
        assert set(outcome.verdicts) == {
            c.contract_id for c in airfare_db.contracts()
        }
        for cid in outcome.contract_ids:
            assert outcome.verdict_for(cid).conclusive

    def test_str_mentions_degradation_only_when_degraded(self, airfare_db):
        rendered = str(airfare_db.query(QUERY))
        assert "DEGRADED" not in rendered
        assert rendered.startswith("QueryOutcome(")


class TestDeprecatedShims:
    """The 1.x shims are gone (2.0.0), and so are the pipeline switches
    (3.0.0) and the decider/executor selectors (4.0.0).  Each test pins
    one row of the CHANGELOG's removed-API
    tables: the old spelling now fails loudly, and the replacement
    gives the answer the old spelling used to give."""

    def test_query_legacy_kwargs_identical(self):
        db = _airfare_db()
        with pytest.raises(TypeError):
            db.query(QUERY, use_prefilter=False, use_projections=False)
        scan = db.query(QUERY, QueryOptions(plan=SCAN_PLAN))
        indexed = db.query(QUERY)
        assert scan.contract_ids == indexed.contract_ids
        assert scan.contract_names == indexed.contract_names
        assert scan.stats.candidates == scan.stats.checked == len(db)
        assert not scan.stats.used_prefilter
        assert not scan.stats.used_projections

    def test_query_positional_filter_identical(self):
        db = _airfare_db()
        f = AttributeFilter.where(le("price", 700))
        with pytest.raises(TypeError):
            db.query(QUERY, f)
        filtered = db.query(QUERY, QueryOptions(attribute_filter=f))
        assert filtered.contract_ids == tuple(
            cid for cid in db.query(QUERY).contract_ids
            if f.matches(db.get(cid).attributes)
        )

    def test_query_planned_identical(self):
        db = _airfare_db()
        assert not hasattr(db, "query_planned")
        with pytest.raises(TypeError):
            QueryOptions(use_planner=True)
        planned = db.query(QUERY)
        assert planned.stats.plan_summary == str(db.plan_query(QUERY))
        assert not hasattr(planned.stats, "planned")
        assert planned.contract_ids == db.query(
            QUERY, QueryOptions(plan=SCAN_PLAN)
        ).contract_ids

    @pytest.mark.parametrize("old, pinned", [
        (dict(use_prefilter=False, use_projections=False), SCAN_PLAN),
        (dict(use_projections=False), QueryPlan(True, False)),
        (dict(use_prefilter=True, stage_order="prefilter_first"),
         QueryPlan(True, True, order="prefilter_first")),
    ])
    def test_pipeline_switches_became_one_pinned_plan(self, old, pinned):
        db = _airfare_db()
        with pytest.raises(TypeError):
            QueryOptions(**old)
        outcome = db.query(QUERY, QueryOptions(plan=pinned))
        assert outcome.contract_ids == db.query(QUERY).contract_ids
        assert outcome.stats.used_prefilter == pinned.use_prefilter
        assert outcome.stats.used_projections == pinned.use_projections
        assert outcome.stats.plan_summary == str(pinned)

    def test_planner_instance_option_removed(self):
        from repro.broker.planner import QueryPlanner

        with pytest.raises(TypeError):
            QueryOptions(planner=QueryPlanner())
        for gone in ("resolve", "apply", "_heuristic_plan"):
            assert not hasattr(QueryPlanner, gone)

    def test_config_prefilter_switch_removed(self):
        with pytest.raises(TypeError):
            BrokerConfig(use_prefilter=False)
        assert not hasattr(BrokerConfig, "unoptimized")

    def test_cli_pipeline_flags_removed(self, tmp_path, capsys):
        from repro.cli import main

        for flag in ("--no-prefilter", "--no-projections", "--planner"):
            with pytest.raises(SystemExit) as excinfo:
                main(["query", str(tmp_path / "specs.json"),
                      "--query", "F a", flag])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_permits_contract_identical(self):
        db = _airfare_db()
        assert not hasattr(db, "permits_contract")
        answer = db.query(QUERY).contract_ids
        for contract in db.contracts():
            cid = contract.contract_id
            single = db.query(QUERY, QueryOptions(
                contract_ids=(cid,), plan=SCAN_PLAN,
            ))
            assert single.stats.candidates == 1
            assert (cid in single.contract_ids) == (cid in answer)

    def test_permits_contract_unknown_id_raises(self):
        from repro.errors import BrokerError

        db = _airfare_db()
        # contract_ids *restricts*: an unknown id selects nothing; the
        # shim's BrokerError is db.get's
        outcome = db.query(QUERY, QueryOptions(contract_ids=(99,)))
        assert outcome.contract_ids == () and outcome.stats.candidates == 0
        with pytest.raises(BrokerError):
            db.get(99)

    def test_explain_identical(self):
        db = _airfare_db()
        assert not hasattr(db, "explain")
        options = QueryOptions(
            contract_ids=(0,), plan=SCAN_PLAN, explain=True,
        )
        witness = db.query(QUERY, options).witnesses.get(0)
        assert (witness is not None) == (0 in db.query(QUERY).contract_ids)
        assert db.get(0).ba.accepts(witness.to_run())

    def test_register_spec_identical(self):
        specs = all_ticket_specs()
        by_spec = ContractDatabase()
        prebuilt_db = ContractDatabase()
        assert not hasattr(by_spec, "register_spec")
        for spec in specs:
            original = by_spec.register(spec)
            prebuilt_db.register(
                spec,
                prebuilt=PrebuiltArtifacts(
                    ba=original.ba, seeds=original.seeds,
                ),
            )
        assert [c.name for c in prebuilt_db.contracts()] == [
            c.name for c in by_spec.contracts()
        ]
        assert prebuilt_db.query(QUERY).contract_ids == \
            by_spec.query(QUERY).contract_ids

    def test_query_many_legacy_workers_identical(self):
        db = _airfare_db()
        queries = [info["ltl"] for info in QUERIES.values()]
        with pytest.raises(TypeError):
            db.query_many(queries, workers=2)
        with pytest.raises(TypeError):
            QueryOptions(workers=2)
        with pytest.raises(ImportError):
            from repro.broker.parallel import query_many  # noqa: F401
        batch = db.query_many(queries)
        assert [r.contract_ids for r in batch] == [
            db.query(q).contract_ids for q in queries
        ]

    def test_decider_selectors_removed(self):
        for old in (
            dict(permission_algorithm="scc"),
            dict(use_seeds=False),
            dict(plan_cache_capacity=5),
        ):
            with pytest.raises(TypeError):
                BrokerConfig(**old)
        # QueryOptions' removed fields: TestQueryOptions::test_validation.
        # The whole budget surface is one deadline and one step cap:
        assert QueryOptions(deadline_seconds=0.1, step_budget=8).budgeted

    def test_new_style_calls_do_not_warn(self):
        db = _airfare_db()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            db.query(QUERY)
            db.query(QUERY, QueryOptions(explain=True))
            db.query_many([QUERY], QueryOptions(step_budget=10_000))
            db.register(all_ticket_specs()[0])


class TestRegisterUnification:
    def test_spec_with_clauses_rejected(self):
        db = ContractDatabase()
        spec = all_ticket_specs()[0]
        with pytest.raises(TypeError):
            db.register(spec, ["F refund"])

    def test_name_without_clauses_rejected(self):
        with pytest.raises(TypeError):
            ContractDatabase().register("nameless")

    def test_prebuilt_artifacts_skip_recomputation(self):
        spec = all_ticket_specs()[0]
        source = ContractDatabase()
        original = source.register(spec)
        target = ContractDatabase()
        contract = target.register(
            spec,
            prebuilt=PrebuiltArtifacts(
                ba=original.ba,
                seeds=original.seeds,
                projections=original.projections,
            ),
        )
        assert contract.ba is original.ba
        assert contract.seeds is original.seeds
        assert contract.projections is original.projections
        assert target.registration_stats.translation_seconds == \
            pytest.approx(0.0, abs=1e-3)
