"""Tests for the per-query optimization planner."""

import pytest
from hypothesis import given, settings

from repro.automata.ltl2ba import translate
from repro.broker.database import ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import (
    ATTR_FIRST,
    PREFILTER_FIRST,
    CostModel,
    QueryPlan,
    QueryPlanner,
)
from repro.broker.relational import AttributeFilter, eq, le
from repro.ltl.parser import parse

from ..strategies import formulas


class TestPlanChoices:
    def test_selective_simple_query_uses_both(self):
        plan = QueryPlanner().plan(translate(parse("F refund")))
        assert plan.use_prefilter
        assert plan.use_projections

    def test_unprunable_query_skips_prefilter(self):
        # a query satisfied by unconstrained behavior cannot prune
        plan = QueryPlanner().plan(translate(parse("true")))
        assert not plan.use_prefilter

    def test_literal_heavy_query_skips_projections(self):
        query = translate(parse(
            "F(a && F(b && F(c && F(d && F e))))"
        ))
        plan = QueryPlanner(projection_literal_budget=3).plan(query)
        assert not plan.use_projections
        assert plan.use_prefilter

    def test_reason_is_informative(self):
        plan = QueryPlanner().plan(translate(parse("F refund")))
        assert "literal" in plan.reason or "condition" in plan.reason
        assert "prefilter" in str(plan)

    def test_plan_is_value_object(self):
        assert QueryPlan(True, False, "x") == QueryPlan(True, False, "x")


class TestPlannedQueries:
    def test_planned_results_match_default(self, airfare_db):
        from repro.workload.airfare import QUERIES

        for info in QUERIES.values():
            planned = airfare_db.query(
                info["ltl"], QueryOptions(use_planner=True)
            )
            default = airfare_db.query(info["ltl"])
            assert planned.contract_ids == default.contract_ids

    @given(query_formula=formulas(max_depth=3))
    @settings(max_examples=40, deadline=None)
    def test_plans_never_change_answers(self, airfare_db, query_formula):
        planned = airfare_db.query(
            query_formula, QueryOptions(use_planner=True)
        )
        scan = airfare_db.query(
            query_formula,
            QueryOptions(use_prefilter=False, use_projections=False),
        )
        assert planned.contract_ids == scan.contract_ids

    def test_custom_planner_respected(self, airfare_db):
        eager = QueryPlanner(projection_literal_budget=0)
        result = airfare_db.query(
            "F refund", QueryOptions(use_planner=True, planner=eager)
        )
        assert not result.stats.used_projections


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
        assert plan.source == "cost"
        assert plan.stages
        assert plan.cost > 0
        assert plan.stages[-1].name == "permission-checks"
        assert "cost" in plan.explain()

    def test_plan_falls_back_without_database(self):
        plan = QueryPlanner().plan(translate(parse("F refund")))
        assert plan.source == "heuristic"
        assert not plan.stages

    def test_empty_database_uses_heuristic(self):
        db = ContractDatabase()
        assert db.plan_query("F refund").source == "heuristic"

    def test_unprunable_query_scans(self, seeded_db):
        plan = seeded_db.plan_query("true")
        assert not plan.use_prefilter
        assert plan.order == ATTR_FIRST

    def test_stage_cardinalities_chain(self, seeded_db):
        plan = seeded_db.plan_query(
            "F refund",
            QueryOptions(
                attribute_filter=AttributeFilter.where(le("price", 500))
            ),
        )
        for prev, nxt in zip(plan.stages, plan.stages[1:]):
            assert nxt.input_size == prev.output_size

    def test_cost_model_steers_choice(self, seeded_db):
        # an absurdly expensive probe forces the index off; a free one
        # makes it attractive for any prunable query
        never = QueryPlanner(
            cost_model=CostModel(prefilter_probe=1e12)
        )
        always = QueryPlanner(cost_model=CostModel(prefilter_probe=0.0))
        options = QueryOptions(planner=never)
        assert not seeded_db.plan_query("F refund", options).use_prefilter
        # only half the contracts mention missedFlight, so with a free
        # probe the index prunes profitably
        options = QueryOptions(planner=always)
        assert seeded_db.plan_query(
            "F missedFlight", options
        ).use_prefilter


class TestForcedVersusChosen:
    """Invariant 14: whatever the planner picks, the answer equals every
    forced static configuration's answer."""

    def test_planned_matches_every_forced_pipeline(self, seeded_db):
        for query in QUERIES:
            for attribute_filter in FILTERS:
                planned = seeded_db.query(
                    query,
                    QueryOptions(
                        attribute_filter=attribute_filter,
                        use_planner=True,
                    ),
                )
                assert planned.stats.planned
                for use_prefilter in (False, True):
                    for use_projections in (False, True):
                        for order in (None, ATTR_FIRST, PREFILTER_FIRST):
                            forced = seeded_db.query(
                                query,
                                QueryOptions(
                                    attribute_filter=attribute_filter,
                                    use_prefilter=use_prefilter,
                                    use_projections=use_projections,
                                    stage_order=order,
                                ),
                            )
                            assert (
                                forced.contract_ids
                                == planned.contract_ids
                            ), (query, str(attribute_filter),
                                use_prefilter, use_projections, order)

    def test_prefilter_first_stats_are_consistent(self, seeded_db):
        options = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
            stage_order=PREFILTER_FIRST,
        )
        outcome = seeded_db.query("F refund", options)
        s = outcome.stats
        assert s.stage_order == PREFILTER_FIRST
        # prefilter-first counts attribute matches among the pruned
        # survivors, so they coincide with the candidate set
        assert s.relational_matches == s.candidates

    def test_plan_query_agrees_with_execution(self, seeded_db):
        options = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
            use_planner=True,
        )
        plan = seeded_db.plan_query("F refund", options)
        outcome = seeded_db.query("F refund", options)
        assert outcome.stats.plan_summary == str(plan)


class TestPlanCache:
    def test_identical_queries_hit_the_plan_cache(self, seeded_db):
        options = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 500)),
            use_planner=True,
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
            use_planner=True,
        )
        f2 = QueryOptions(
            attribute_filter=AttributeFilter.where(le("price", 900)),
            use_planner=True,
        )
        a = seeded_db.query("F refund", f1)
        b = seeded_db.query("F refund", f2)
        # both planned fresh: same query, different filter identity
        assert len(seeded_db.plan_cache) == 2
        assert a.contract_names != b.contract_names

    def test_registration_invalidates_cached_plans(self, seeded_db):
        options = QueryOptions(use_planner=True)
        seeded_db.query("F refund", options)
        misses = seeded_db.plan_cache.stats().misses
        seeded_db.register("fresh", ["F refund"],
                           attributes={"price": 50})
        seeded_db.query("F refund", options)
        # the statistics version changed, so the old entry cannot be hit
        assert seeded_db.plan_cache.stats().misses == misses + 1
