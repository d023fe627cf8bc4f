"""Tests for the per-query planner and the one query pipeline it feeds:
every query runs a ``QueryPlan`` — the planner's, or a pinned one."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.ltl2ba import translate
from repro.broker.database import ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import (
    ATTR_FIRST,
    PREFILTER_FIRST,
    SCAN_PLAN,
    CostModel,
    QueryPlan,
    QueryPlanner,
)
from repro.broker.relational import AttributeFilter, eq, le
from repro.check.oracle import oracle_permits
from repro.ltl.parser import parse

from tests.strategies import formulas

from tests.strategies import contract_specs, filter_specs

#: Every pipeline a plan can pin, plus ``None`` = the planner chooses.
PINNED_PLANS = tuple(
    QueryPlan(use_prefilter, use_projections, order=order)
    for use_prefilter in (False, True)
    for use_projections in (False, True)
    for order in (ATTR_FIRST, PREFILTER_FIRST)
)
ALL_PLANS = PINNED_PLANS + (None,)

#: A free index probe: any condition that prunes at all is worth it.
FREE_PROBE = CostModel(prefilter_probe=0.0)


class TestPlanChoices:
    def test_selective_simple_query_uses_both(self, seeded_db):
        # half the contracts mention missedFlight, and every contract
        # has a stored quotient smaller than its automaton
        plan = QueryPlanner(cost_model=FREE_PROBE).plan(
            translate(parse("F(missedFlight && F refund)")),
            database=seeded_db,
        )
        assert plan.use_prefilter
        assert plan.use_projections

    def test_unprunable_query_skips_prefilter(self, seeded_db):
        # a query satisfied by unconstrained behavior cannot prune
        plan = QueryPlanner(cost_model=FREE_PROBE).plan(
            translate(parse("true")), database=seeded_db
        )
        assert not plan.use_prefilter

    def test_literal_heavy_query_skips_projections(self, seeded_db):
        query = translate(parse(
            "F(missedFlight && F(refund && F dateChange))"
        ))
        lavish = QueryPlanner(cost_model=FREE_PROBE)
        frugal = QueryPlanner(
            projection_literal_budget=2, cost_model=FREE_PROBE
        )
        assert lavish.plan(query, database=seeded_db).use_projections
        plan = frugal.plan(query, database=seeded_db)
        assert not plan.use_projections
        assert plan.use_prefilter

    def test_reason_is_informative(self, seeded_db):
        plan = seeded_db.plan_query("F missedFlight")
        assert "selectivity" in plan.reason
        assert "prefilter" in str(plan)

    def test_plan_is_value_object(self):
        assert QueryPlan(True, False, "x") == QueryPlan(True, False, "x")
        assert QueryPlan(False, False) == SCAN_PLAN
        assert "pinned" in str(SCAN_PLAN)


class TestPlannedQueries:
    def test_planned_results_match_default(self, airfare_db):
        from repro.workload.airfare import QUERIES

        for info in QUERIES.values():
            planned = airfare_db.query(info["ltl"])
            scan = airfare_db.query(
                info["ltl"], QueryOptions(plan=SCAN_PLAN)
            )
            assert planned.contract_ids == scan.contract_ids

    @given(query_formula=formulas(max_depth=3))
    @settings(max_examples=40, deadline=None)
    def test_plans_never_change_answers(self, airfare_db, query_formula):
        planned = airfare_db.query(query_formula)
        scan = airfare_db.query(query_formula, QueryOptions(plan=SCAN_PLAN))
        assert planned.contract_ids == scan.contract_ids

    def test_custom_planner_respected(self, airfare_db):
        # another planner's plan, pinned, is executed as written
        eager = QueryPlanner(projection_literal_budget=0)
        plan = eager.plan(translate(parse("F refund")), database=airfare_db)
        assert not plan.use_projections
        result = airfare_db.query("F refund", QueryOptions(plan=plan))
        assert not result.stats.used_projections
        assert result.stats.plan_summary == str(plan)


@st.composite
def _cases(draw):
    """A small database of random contracts, a random query and a random
    attribute filter — the conformance harness's case shape."""
    specs = draw(st.lists(
        contract_specs(max_clauses=2, max_depth=2),
        min_size=1, max_size=4, unique_by=lambda spec: spec.name,
    ))
    return (
        specs,
        draw(formulas(("a", "b", "c", "x"), max_depth=2)),
        draw(filter_specs()).build(),
    )


class TestEveryPlanGivesTheOracleAnswer:
    """Invariant 14: the planner's plan and every pinned plan give the
    oracle's answer."""

    @given(_cases())
    @settings(max_examples=25, deadline=None)
    def test_all_plans_match_the_oracle(self, case):
        specs, query, attribute_filter = case
        db = ContractDatabase()
        for spec in specs:
            db.register(spec)
        query_ba = translate(query)
        expected = tuple(
            c.name for c in db.contracts()
            if attribute_filter.matches(c.attributes)
            and oracle_permits(c.ba, query_ba, c.vocabulary)
        )
        for plan in ALL_PLANS:
            outcome = db.query(query, QueryOptions(
                attribute_filter=attribute_filter, plan=plan,
            ))
            assert outcome.contract_names == expected, plan
            assert outcome.maybe_names == ()


@pytest.fixture()
def seeded_db() -> ContractDatabase:
    """A database with enough contracts that the statistics are
    meaningful: prices 100..1200, routes cycling through three values."""
    db = ContractDatabase()
    routes = ("SAN-NYC", "LAX-SEA", "ORD-BOS")
    for i in range(12):
        db.register(
            f"T{i}",
            ["G(dateChange -> !F refund)"] if i % 2
            else ["G(missedFlight -> F(refund || dateChange))"],
            attributes={"price": 100 * (i + 1), "route": routes[i % 3]},
        )
    return db


QUERIES = (
    "F refund",
    "F(missedFlight && F(refund || dateChange))",
    "G !refund",
    "true",
)

FILTERS = (
    AttributeFilter(),
    AttributeFilter.where(le("price", 500)),
    AttributeFilter.where(le("price", 500), eq("route", "SAN-NYC")),
)


class TestCostBasedPlans:
    def test_plan_is_cost_based_on_a_populated_db(self, seeded_db):
        plan = seeded_db.plan_query("F refund")
        assert plan.stages
        assert plan.cost > 0
        assert plan.stages[-1].name == "permission-checks"
        assert "cost" in plan.explain()

    def test_empty_database_plans_a_scan(self):
        # nothing to prune and nothing to check: the index probe is the
        # only priced work, so the cost model itself declines it
        db = ContractDatabase()
        plan = db.plan_query("F refund")
        assert not plan.use_prefilter and not plan.use_projections
        assert plan.cost == 0.0
        assert plan.stages[-1].name == "permission-checks"
        assert db.query("F refund").contract_names == ()

    def test_unprunable_query_scans(self, seeded_db):
        plan = seeded_db.plan_query("true")
        assert not plan.use_prefilter
        assert plan.order == ATTR_FIRST

    def test_stage_cardinalities_chain(self, seeded_db):
        plan = seeded_db.plan_query(
            "F missedFlight",
            QueryOptions(
                attribute_filter=AttributeFilter.where(le("price", 500))
            ),
        )
        assert [stage.name for stage in plan.stages] == [
            "prefilter", "attribute-filter", "permission-checks",
        ]
        for prev, nxt in zip(plan.stages, plan.stages[1:]):
            assert nxt.input_size == prev.output_size

    def test_cost_model_steers_choice(self, seeded_db):
        # an absurdly expensive probe forces the index off; a free one
        # makes it attractive for any prunable query
        never = QueryPlanner(
            cost_model=CostModel(prefilter_probe=1e12)
        )
        always = QueryPlanner(cost_model=FREE_PROBE)
        # only half the contracts mention missedFlight, so with a free
        # probe the index prunes profitably
        query = translate(parse("F missedFlight"))
        assert not never.plan(query, database=seeded_db).use_prefilter
        assert always.plan(query, database=seeded_db).use_prefilter

    def test_pinned_plan_is_returned_by_plan_query(self, seeded_db):
        options = QueryOptions(plan=SCAN_PLAN)
        assert seeded_db.plan_query("F refund", options) is SCAN_PLAN


class TestForcedVersusChosen:
    """Invariant 14: whatever the planner picks, the answer equals every
    pinned pipeline's answer."""

    def test_planned_matches_every_forced_pipeline(self, seeded_db):
        for query in QUERIES:
            for attribute_filter in FILTERS:
                planned = seeded_db.query(
                    query, QueryOptions(attribute_filter=attribute_filter)
                )
                for plan in PINNED_PLANS:
                    forced = seeded_db.query(
                        query,
                        QueryOptions(
                            attribute_filter=attribute_filter, plan=plan
                        ),
                    )
                    assert forced.contract_ids == planned.contract_ids, (
                        query, str(attribute_filter), plan
                    )
                    assert forced.stats.plan_summary == str(plan)

    def test_prefilter_first_stats_are_consistent(self, seeded_db):
        options = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
            plan=QueryPlan(True, True, order=PREFILTER_FIRST),
        )
        outcome = seeded_db.query("F refund", options)
        s = outcome.stats
        assert s.stage_order == PREFILTER_FIRST
        # prefilter-first counts attribute matches among the pruned
        # survivors, so they coincide with the candidate set
        assert s.relational_matches == s.candidates

    def test_order_without_a_prefilter_is_attr_first(self, seeded_db):
        outcome = seeded_db.query("F refund", QueryOptions(
            plan=QueryPlan(False, True, order=PREFILTER_FIRST)
        ))
        assert outcome.stats.stage_order == ATTR_FIRST
        assert outcome.stats.pruning_condition == ""

    def test_pruning_ratio_means_the_same_in_both_orders(self, seeded_db):
        """``F missedFlight`` keeps 6 of the 12 contracts, ``price <=
        500`` keeps 5; 3 contracts pass both.  The ratio is the share
        of the prefilter stage's *input* the index removed — 2 of the 5
        attribute matches attr-first, 6 of all 12 prefilter-first (it
        used to read 0% there: candidates over relational matches,
        which that order makes equal by construction)."""
        attribute_filter = AttributeFilter.where(le("price", 500))
        by_order = {}
        for order in (ATTR_FIRST, PREFILTER_FIRST):
            outcome = seeded_db.query("F missedFlight", QueryOptions(
                attribute_filter=attribute_filter,
                plan=QueryPlan(True, True, order=order),
            ))
            by_order[order] = outcome.stats
        attr, pref = by_order[ATTR_FIRST], by_order[PREFILTER_FIRST]
        assert attr.candidates == pref.candidates == 3
        assert (attr.prefilter_input, attr.prefilter_output) == (5, 3)
        assert attr.relational_matches == 5
        assert attr.pruning_ratio == pytest.approx(0.4)
        assert (pref.prefilter_input, pref.prefilter_output) == (12, 6)
        assert pref.relational_matches == pref.candidates
        assert pref.pruning_ratio == pytest.approx(0.5)
        # and the histogram the metrics report prints is fed the same
        ratio = seeded_db.metrics.snapshot()["histograms"][
            "query.pruning_ratio"
        ]
        assert ratio["count"] == 2
        assert ratio["sum"] == pytest.approx(0.9)

    def test_plan_query_agrees_with_execution(self, seeded_db):
        options = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
        )
        plan = seeded_db.plan_query("F refund", options)
        outcome = seeded_db.query("F refund", options)
        assert outcome.stats.plan_summary == str(plan)


class TestPlanCache:
    def test_identical_queries_hit_the_plan_cache(self, seeded_db):
        options = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
        )
        seeded_db.query("F refund", options)
        misses = seeded_db.plan_cache.stats().misses
        seeded_db.query("F refund", options)
        stats = seeded_db.plan_cache.stats()
        assert stats.hits >= 1
        assert stats.misses == misses

    def test_distinct_filters_do_not_collide(self, seeded_db):
        f1 = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
        )
        f2 = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 900)),
        )
        a = seeded_db.query("F refund", f1)
        b = seeded_db.query("F refund", f2)
        # both planned fresh: same query, different filter identity
        assert len(seeded_db.plan_cache) == 2
        assert a.contract_names != b.contract_names

    def test_registration_invalidates_cached_plans(self, seeded_db):
        seeded_db.query("F refund")
        misses = seeded_db.plan_cache.stats().misses
        seeded_db.register("fresh", ["F refund"],
                           attributes={"price": 50})
        seeded_db.query("F refund")
        # the statistics version changed, so the old entry cannot be hit
        assert seeded_db.plan_cache.stats().misses == misses + 1

    def test_warm_query_is_one_hit_and_no_planning(self, seeded_db,
                                                   monkeypatch):
        seeded_db.query("F refund")
        calls = []
        real = QueryPlanner.plan
        monkeypatch.setattr(
            QueryPlanner, "plan",
            lambda self, *a, **k: calls.append(a) or real(self, *a, **k),
        )
        before = seeded_db.plan_cache.stats()
        seeded_db.query("F refund")
        after = seeded_db.plan_cache.stats()
        assert (after.hits - before.hits, after.misses - before.misses) \
            == (1, 0)
        assert calls == []
        # a cold one is one miss and exactly one planner call
        seeded_db.query("F dateChange")
        assert len(calls) == 1
        assert seeded_db.plan_cache.stats().misses == after.misses + 1

    def test_pinned_plan_bypasses_planner_and_cache(self, seeded_db,
                                                    monkeypatch):
        monkeypatch.setattr(
            QueryPlanner, "plan",
            lambda *a, **k: pytest.fail("a pinned plan must not plan"),
        )
        for plan in PINNED_PLANS:
            seeded_db.query("F refund", QueryOptions(plan=plan))
        stats = seeded_db.plan_cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 0, 0)
        snapshot = seeded_db.metrics.snapshot()
        assert snapshot["counters"]["query.count"] == len(PINNED_PLANS)
        for section in ("counters", "histograms"):
            assert not [
                name for name in snapshot[section]
                if name.startswith("planner.")
            ]
