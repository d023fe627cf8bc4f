"""Tests for the query compilation cache and its database integration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.encode import SUCCESSOR_TABLE_LIMIT
from repro.automata.serialize import automaton_to_dict
from repro.broker.cache import QueryCompilationCache, normalize
from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import QueryOptions
from repro.broker.planner import SCAN_PLAN, QueryPlan
from repro.errors import TranslationError
from repro.ltl.ast import Prop
from repro.ltl.parser import parse
from repro.ltl.semantics import satisfies
from repro.workload.airfare import all_ticket_specs

from tests.strategies import EVENTS, formulas, runs


def _db(**config_kwargs) -> ContractDatabase:
    db = ContractDatabase(BrokerConfig(**config_kwargs))
    for spec in all_ticket_specs():
        db.register(spec)
    return db


class TestCacheUnit:
    def test_miss_then_hit(self):
        cache = QueryCompilationCache(capacity=4)
        first, hit1 = cache.compile(parse("F a"))
        second, hit2 = cache.compile(parse("F a"))
        assert (hit1, hit2) == (False, True)
        assert second is first
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == pytest.approx(0.5)

    def test_normalization_equivalent_queries_share_an_entry(self):
        # F a rewrites to true U a; the two texts must share one entry
        assert normalize(parse("F a")) == normalize(parse("true U a"))
        cache = QueryCompilationCache(capacity=4)
        entry, _ = cache.compile(parse("F a"))
        other, hit = cache.compile(parse("true U a"))
        assert hit
        assert other is entry
        assert len(cache) == 1

    def test_eviction_at_capacity(self):
        cache = QueryCompilationCache(capacity=2)
        cache.compile(parse("F a"))
        cache.compile(parse("F b"))
        cache.compile(parse("F c"))  # evicts the LRU entry (F a)
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2
        assert parse("F a") not in cache
        assert parse("F b") in cache and parse("F c") in cache

    def test_lru_order_refreshed_by_hits(self):
        cache = QueryCompilationCache(capacity=2)
        cache.compile(parse("F a"))
        cache.compile(parse("F b"))
        cache.compile(parse("F a"))  # refresh: F b becomes the LRU entry
        cache.compile(parse("F c"))
        assert parse("F a") in cache
        assert parse("F b") not in cache

    def test_zero_capacity_disables_storage(self):
        cache = QueryCompilationCache(capacity=0)
        cache.compile(parse("F a"))
        _, hit = cache.compile(parse("F a"))
        assert not hit
        assert len(cache) == 0
        assert cache.stats().misses == 2

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryCompilationCache(capacity=-1)

    def test_condition_is_lazy_and_memoized(self):
        cache = QueryCompilationCache()
        entry, _ = cache.compile(parse("F a"))
        assert not entry.has_condition
        condition = entry.condition
        assert entry.has_condition
        assert entry.condition is condition

    def test_clear_keeps_lifetime_counters(self):
        cache = QueryCompilationCache()
        cache.compile(parse("F a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1


def _renamed(formula, mapping):
    """``formula`` with its events renamed through ``mapping``."""
    if isinstance(formula, Prop):
        return Prop(mapping[formula.name])
    children = formula.children()
    if not children:
        return formula
    return formula.with_children(
        tuple(_renamed(child, mapping) for child in children))


@pytest.fixture
def translations(monkeypatch):
    """Counts the translator calls the compile cache makes."""
    import repro.broker.cache as cache_module

    return _CallCounter(monkeypatch, cache_module, "translate")


class TestShapeMemo:
    """A miss translates the formula's event *shape* once and renames
    that automaton for every binding of the shape."""

    #: three patterns over four events, and two of its alpha-variants
    TEXT = "G(a -> F b) && (!c U a) && F(d && X c)"
    VARIANTS = ("G(d -> F c) && (!a U d) && F(b && X a)",
                "G(x -> F y) && (!z U x) && F(w && X z)")

    @given(formula=formulas(max_depth=3),
           targets=st.permutations(("a", "b", "c", "d", "e")),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_renamed_automaton_accepts_what_the_formula_does(
            self, formula, targets, data):
        renamed = _renamed(formula, dict(zip(EVENTS, targets)))
        cache = QueryCompilationCache()
        cache.compile(formula)
        entry, hit = cache.compile(renamed)
        # a renaming is never translated again: an equal key hits the
        # entry, any other key hits the shape
        assert cache.stats().shape_hits == (0 if hit else 1)
        for run in data.draw(st.lists(runs(tuple(targets[:3])),
                                      min_size=1, max_size=4)):
            assert entry.query_ba.accepts(run) == satisfies(run, renamed)

    @pytest.mark.parametrize("text", (TEXT,) + VARIANTS)
    def test_automaton_does_not_depend_on_history(self, text):
        cold, _ = QueryCompilationCache().compile(parse(text))
        cache = QueryCompilationCache()
        for other in (self.TEXT,) + self.VARIANTS:
            if other != text:
                cache.compile(parse(other))
        warm, hit = cache.compile(parse(text))
        assert not hit and cache.stats().shape_hits == 2
        assert (automaton_to_dict(warm.query_ba, canonicalize=False)
                == automaton_to_dict(cold.query_ba, canonicalize=False))

    def test_alpha_variants_translate_once(self, translations):
        cache = QueryCompilationCache()
        first, _ = cache.compile(parse(self.TEXT))
        second, hit = cache.compile(parse(self.VARIANTS[0]))
        assert not hit and second is not first
        assert translations.calls == 1
        stats = cache.stats()
        assert (stats.misses, stats.shape_hits, stats.size) == (2, 1, 2)
        assert second.query_ba.events() == {"a", "b", "c", "d"}

    def test_budget_error_is_raised_again_and_never_stored(
            self, translations):
        text = " && ".join(f"F p{i}" for i in range(8))
        cache = QueryCompilationCache(state_budget=3)
        for query in (text, text, text.replace("p", "q")):
            with pytest.raises(TranslationError):
                cache.compile(parse(query))
        assert translations.calls == 3
        assert len(cache) == 0 and len(cache._shapes) == 0
        assert cache.stats().shape_hits == 0

    def test_zero_capacity_stores_no_shape(self, translations):
        cache = QueryCompilationCache(capacity=0)
        for text in (self.TEXT,) + self.VARIANTS:
            cache.compile(parse(text))
        assert translations.calls == 3
        assert len(cache._shapes) == 0
        assert cache.stats().shape_hits == 0

    def test_shape_memo_is_bounded_by_capacity(self, translations):
        cache = QueryCompilationCache(capacity=2)
        shapes = ["F a", "G a", "a U b", "X a"]
        for text in shapes:
            cache.compile(parse(text))
            assert len(cache._shapes) <= 2
        # "F a" was the least recently used shape: its variant translates
        cache.compile(parse("F z"))
        assert translations.calls == 5
        cache.compile(parse("X z"))
        assert translations.calls == 5
        assert cache.stats().shape_hits == 1


class TestDatabaseIntegration:
    def test_repeated_query_hits_cache(self):
        db = _db()
        q = "F(missedFlight && F refund)"
        cold = db.query(q)
        assert not cold.stats.cache_hit
        for _ in range(3):
            assert db.query(q).stats.cache_hit
        stats = db.cache_stats()
        assert stats.misses == 1 and stats.hits == 3

    def test_warm_workload_compilation_collapses(self):
        """Acceptance: a warm repeated workload pays translation and
        pruning-condition extraction only on the first call."""
        db = _db()
        q = ("F(missedFlight && F(refund || dateChange)) && "
             "G(dateChange -> F confirmation)")
        cold = db.query(q)
        warm = [db.query(q) for _ in range(20)]
        assert db.cache_stats().hits == 20
        assert all(r.stats.cache_hit for r in warm)
        # identical answers, and the warm calls' compile-side cost
        # (cache lookup + index evaluation) stays below the cold compile
        assert all(r.contract_ids == cold.contract_ids for r in warm)
        cold_compile = (cold.stats.translation_seconds
                        + cold.stats.prefilter_seconds)
        warm_compile = sorted(
            r.stats.translation_seconds + r.stats.prefilter_seconds
            for r in warm
        )[len(warm) // 2]
        assert warm_compile < cold_compile

    def test_cache_shared_across_query_entry_points(self):
        db = _db()
        db.query("F refund")
        db.query("F refund", QueryOptions(contract_ids=(1,)))
        db.query("F refund", QueryOptions(plan=SCAN_PLAN))
        db.query_many(["F refund"], QueryOptions(explain=True))
        stats = db.cache_stats()
        assert stats.misses == 1
        assert stats.hits == 3

    def test_precompute_for_workload_warms_the_cache(self):
        db = _db()
        db.precompute_for_workload(["F refund"])
        result = db.query("F refund")
        assert result.stats.cache_hit

    def test_capacity_configured_on_broker_config(self):
        db = _db(query_cache_capacity=1)
        db.query("F refund")
        db.query("F dateChange")  # evicts F refund
        assert db.cache_stats().evictions == 1
        repeat = db.query("F refund")
        assert not repeat.stats.cache_hit

    def test_disabled_cache_still_answers_correctly(self):
        db = _db(query_cache_capacity=0)
        first = db.query("F refund")
        second = db.query("F refund")
        assert first.contract_ids == second.contract_ids
        assert not second.stats.cache_hit

    def test_cached_results_identical_across_modes(self):
        db = _db()
        q = "F(missedFlight && F(refund || dateChange))"
        baseline = db.query(q, QueryOptions(plan=SCAN_PLAN)).contract_ids
        for pf in (False, True):
            for pj in (False, True):
                assert db.query(
                    q, QueryOptions(plan=QueryPlan(pf, pj))
                ).contract_ids == baseline

    def test_metrics_track_cache_counters(self):
        db = _db()
        db.query("F refund")
        db.query("F refund")
        db.query("F dateChange")  # a miss the shape memo serves
        assert db.metrics.counter_value("query.cache.misses") == 2
        assert db.metrics.counter_value("query.cache.hits") == 1
        snapshot = db.metrics_snapshot()
        assert snapshot["cache"]["hit_rate"] == pytest.approx(1 / 3)
        assert snapshot["cache"]["shape_hits"] == 1
        report = db.metrics_report()
        assert "(33% hit rate), 1 shape hits," in report
        assert "query.total_seconds" in report

    def test_metrics_counters_agree_with_cache_stats_after_plan_query(self):
        """``plan_query`` compiles through the cache too: the counters
        the registry exports are the cache's own, so the two views of
        one cache never disagree."""
        db = _db()
        db.plan_query("F refund")  # the compile miss
        db.query("F refund")       # the compile hit
        snapshot = db.metrics_snapshot()
        assert (snapshot["cache"]["hits"], snapshot["cache"]["misses"]) \
            == (1, 1)
        assert snapshot["counters"]["query.cache.hits"] == 1
        assert snapshot["counters"]["query.cache.misses"] == 1
        assert snapshot["counters"]["planner.cache.misses"] == \
            snapshot["plan_cache"]["misses"] == 1
        assert snapshot["counters"]["planner.cache.hits"] == \
            snapshot["plan_cache"]["hits"] == 1
        assert "1 hits / 1 misses" in db.metrics_report()


class TestTupleFastPathRemoved:
    def test_query_rejects_formula_ba_tuples(self):
        """The undocumented ``(formula, query_ba)`` tuple fast-path is
        gone: ``query`` accepts exactly what its annotation says."""
        from repro.automata.ltl2ba import translate

        db = _db()
        formula = parse("F refund")
        with pytest.raises(TypeError):
            db.query((formula, translate(formula)))

    def test_query_planned_reuses_compilation(self):
        db = _db()
        result = db.query("F refund")
        assert "Ticket B" in result.contract_names
        assert db.cache_stats().misses == 1
        again = db.query("F refund")
        assert again.stats.cache_hit
        assert again.contract_ids == result.contract_ids


class TestCacheUnderDistinctOptions:
    """One compiled entry serves every QueryOptions combination.

    The cache key is the normalized formula alone — the attribute
    filter, budgets, degradation policy, and index toggles are all
    applied *after* compilation, so a warm entry must never leak one
    call's options into the next call's answer.
    """

    QUERY = "F(missedFlight && F(refund || dateChange))"

    def test_hit_across_distinct_filters_stays_filter_correct(self):
        from repro.broker.options import QueryOptions
        from repro.broker.relational import AttributeFilter, eq

        db = _db()
        reference = _db(query_cache_capacity=0)  # never caches
        filters = [
            AttributeFilter.where(eq("airline", "United")),
            AttributeFilter.where(eq("cabin", "economy")),
            AttributeFilter.where(eq("price", 980)),
        ]
        db.query(self.QUERY)  # warm the entry
        for attribute_filter in filters:
            options = QueryOptions(attribute_filter=attribute_filter)
            warm = db.query(self.QUERY, options)
            assert warm.stats.cache_hit
            assert warm.contract_names == reference.query(
                self.QUERY, options
            ).contract_names

    def test_hit_across_budget_and_degradation_policies(self):
        from repro.broker.options import Degradation, QueryOptions

        db = _db()
        exact = db.query(self.QUERY)
        exact_names = set(exact.contract_names)

        degraded = db.query(
            self.QUERY,
            QueryOptions(step_budget=1, degradation=Degradation.MAYBE),
        )
        assert degraded.stats.cache_hit
        got = set(degraded.contract_names)
        maybe = set(degraded.maybe_names)
        assert got <= exact_names <= got | maybe

        dropped = db.query(
            self.QUERY,
            QueryOptions(step_budget=1, degradation=Degradation.DROP),
        )
        assert dropped.stats.cache_hit
        assert set(dropped.contract_names) <= exact_names

    def test_degraded_call_does_not_poison_exact_answers(self):
        from repro.broker.options import Degradation, QueryOptions

        db = _db()
        reference = _db(query_cache_capacity=0)
        # the *cold* call is the degraded one: whatever it caches must
        # still serve exact queries exactly
        db.query(
            self.QUERY,
            QueryOptions(step_budget=1, degradation=Degradation.MAYBE),
        )
        warm_exact = db.query(self.QUERY)
        assert warm_exact.stats.cache_hit
        assert not warm_exact.maybe_names
        assert warm_exact.contract_names == reference.query(
            self.QUERY
        ).contract_names

    def test_hit_across_index_toggle_overrides(self):
        from repro.broker.options import QueryOptions

        db = _db()
        baseline = db.query(self.QUERY, QueryOptions(plan=SCAN_PLAN))
        for use_prefilter in (False, True):
            for use_projections in (False, True):
                outcome = db.query(
                    self.QUERY,
                    QueryOptions(
                        plan=QueryPlan(use_prefilter, use_projections)
                    ),
                )
                assert outcome.contract_ids == baseline.contract_ids
        # 4 toggle combinations after the cold compile = 4 hits
        assert db.cache_stats().misses == 1
        assert db.cache_stats().hits == 4


class _CallCounter:
    """Wrap one function, count its calls."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.fixture
def hoisted_calls(monkeypatch):
    """Counters on the three computations a prepared query hoists out
    of the warm path: the Definition-7 binding, projection selection and
    the LTL parser (patched where the broker binds them)."""
    import repro.broker.cache as cache_module
    from repro.projection.store import ProjectionStore

    return {
        "bind_query": _CallCounter(monkeypatch, cache_module, "bind_query"),
        "select_key": _CallCounter(
            monkeypatch, ProjectionStore, "_select_key"),
        "select_artifacts": _CallCounter(
            monkeypatch, ProjectionStore, "select_artifacts"),
        "parse": _CallCounter(monkeypatch, cache_module, "parse"),
    }


def _counts(counters):
    return {name: counter.calls for name, counter in counters.items()}


class TestPreparedQuery:
    """The compile-cache entry is a *prepared query*: it owns everything
    derivable from the query alone or from (query, contract) alone, so a
    warm check is one lookup plus the search."""

    QUERY = "F(missedFlight && F(refund || dateChange))"
    PROJECTED = QueryOptions(plan=QueryPlan(False, True))

    def test_second_ask_recomputes_nothing(self, monkeypatch, hoisted_calls):
        """The count-based guard (no timing floor): asking the same text
        twice costs N bindings, N selections, one parse and some product
        expansions the first time and none the second, and every check
        of the second ask does exactly the first's search."""
        import repro.broker.database as database_module
        import repro.core.permission as permission_module
        from repro.core.permission import PermissionStats

        expansions = _CallCounter(
            monkeypatch, permission_module, "_expand_pair")
        searches = []
        real_permits = database_module.permits_encoded

        def recording_permits(*args, **kwargs):
            stats = kwargs["stats"] = PermissionStats()
            searches.append(stats)
            return real_permits(*args, **kwargs)

        monkeypatch.setattr(
            database_module, "permits_encoded", recording_permits
        )
        db = _db()

        first = db.query(self.QUERY, self.PROJECTED)
        n = first.stats.candidates
        assert n == len(db) > 0
        assert _counts(hoisted_calls) == {
            "bind_query": n, "select_key": n, "select_artifacts": n,
            "parse": 1,
        }
        first_searches = list(searches)
        assert len(first_searches) == n
        expanded = expansions.calls
        assert expanded > 0

        second = db.query(self.QUERY, self.PROJECTED)
        assert second.stats.cache_hit
        assert expansions.calls == expanded
        assert _counts(hoisted_calls) == {
            "bind_query": n, "select_key": n, "select_artifacts": n,
            "parse": 1,
        }
        assert searches[n:] == first_searches  # dataclass equality
        assert second.verdicts == first.verdicts

    def test_rewrite_equivalent_text_parses_but_shares_the_entry(
        self, hoisted_calls
    ):
        db = _db()
        db.query("F refund")
        other = db.query("true U refund")
        assert other.stats.cache_hit
        assert hoisted_calls["parse"].calls == 2
        # a Formula input never touches the text memo
        db.query(parse("F refund"))
        assert hoisted_calls["parse"].calls == 2
        assert db.cache_stats().hits == 2

    def test_outcome_formula_is_the_asked_text_not_the_entrys(self):
        db = _db()
        db.query("F refund")
        for _ in range(2):  # cold text, then memoized text
            assert db.query("true U refund").formula == parse("true U refund")

    def test_workload_precomputation_invalidates(self, hoisted_calls):
        """(a) a smaller applicable quotient stored after a warm query
        is used by the next ask of the same text."""
        db = _db(projection_subset_cap=0)
        query = "F refund"
        warm = db.query(query, self.PROJECTED)
        compiled, _ = db.query_cache.compile(parse(query))
        contracts = list(db.contracts())
        # cap 0 stores nothing "F refund" can use: full automata
        assert all(
            compiled.prepared(c, True)[0] is c.encoded for c in contracts
        )
        generations = [c.projections.generation for c in contracts]
        bindings = [compiled.prepared(c, True)[2] for c in contracts]
        assert all(b.successors for b in bindings)

        assert db.precompute_for_workload([query]) > 0
        assert [c.projections.generation for c in contracts] == [
            g + 1 for g in generations
        ]
        selections = hoisted_calls["select_artifacts"].calls
        again = db.query(query, self.PROJECTED)
        assert again.stats.cache_hit
        assert again.contract_names == warm.contract_names
        assert hoisted_calls["select_artifacts"].calls == (
            selections + len(contracts)
        )
        sizes = [
            (compiled.prepared(c, True)[0].num_states, c.encoded.num_states)
            for c in contracts
        ]
        assert all(used <= full for used, full in sizes)
        assert any(used < full for used, full in sizes)
        # ... on a binding of its own: no successor table survives
        assert all(
            compiled.prepared(c, True)[2] is not stale
            for c, stale in zip(contracts, bindings)
        )

    def test_reregistered_name_is_checked_on_its_own_encoding(self):
        """(b) deregister + register of a different automaton under the
        same name: the memo of the old contract is never served."""
        import dataclasses

        db = ContractDatabase()
        old = db.register("X", ["G(!a)"])
        assert db.query("F a", self.PROJECTED).contract_names == ()
        compiled, _ = db.query_cache.compile(parse("F a"))
        stale = compiled.prepared(old, True)

        db.deregister(old.contract_id)
        new = db.register("X", ["G(a -> F b)"])
        assert db.query("F a", self.PROJECTED).contract_names == ("X",)
        # ... even if the new contract had been given the old id: a
        # read is validated against the Contract object itself
        twin = dataclasses.replace(new, contract_id=old.contract_id)
        compiled.prepared(old, True)
        fresh = compiled.prepared(twin, True)
        assert fresh is not stale and fresh[2] is not stale[2]
        assert fresh[0].events == ("a", "b")

    def test_deregister_releases_the_contract(self):
        import gc
        import weakref

        db = ContractDatabase()
        db.register("keep", ["G(a -> F b)"])
        gone = db.register("gone", ["G(a -> F c)"])
        db.query("F a")
        db.query("F a", self.PROJECTED)
        ref = weakref.ref(gone)
        db.deregister(gone.contract_id)
        del gone
        gc.collect()
        assert ref() is None  # the hot "F a" entry does not pin it

    def test_set_vocabulary_drops_the_prepared_entry(self):
        """(c) a store re-pointed at another vocabulary re-encodes; a
        prepared check made before is not served after."""
        db = ContractDatabase()
        contract = db.register("X", ["G(a -> F b)", "G(c -> F d)"])
        db.query("F b", self.PROJECTED)
        compiled, _ = db.query_cache.compile(parse("F b"))
        stale = compiled.prepared(contract, True)
        assert stale[0] is not contract.encoded  # a real quotient

        wider = contract.vocabulary | {"refund"}
        contract.projections.set_vocabulary(wider)
        fresh = compiled.prepared(contract, True)
        assert fresh is not stale and fresh[2] is not stale[2]
        assert fresh[0].events == tuple(sorted(wider))
        assert compiled.prepared(contract, True) is fresh

    def test_projected_and_unprojected_plans_do_not_share(self):
        """(d) a pinned plan without projections and a plan with them
        keep separate prepared checks for one (text, contract)."""
        db = _db()
        query = "F refund"
        unprojected = QueryOptions(plan=QueryPlan(False, False))
        answers = [
            db.query(query, options).contract_names
            for options in (unprojected, self.PROJECTED, unprojected, None)
        ]
        assert len(set(answers)) == 1
        compiled, _ = db.query_cache.compile(parse(query))
        contracts = list(db.contracts())
        full = [compiled.prepared(c, False)[0] for c in contracts]
        projected = [compiled.prepared(c, True)[0] for c in contracts]
        assert all(e is c.encoded for e, c in zip(full, contracts))
        assert any(e is not c.encoded for e, c in zip(projected, contracts))
        assert all(
            compiled.prepared(c, False)[2] is not compiled.prepared(c, True)[2]
            for c in contracts
        )

    def test_zero_capacity_retains_nothing(self, monkeypatch, hoisted_calls):
        """(e) with the cache off every ask prepares from scratch — on
        a binding of its own, with an empty successor table — and still
        answers."""
        import repro.broker.database as database_module

        bindings = []
        real_permits = database_module.permits_encoded

        def recording_permits(contract, query, binding, **kwargs):
            bindings.append((binding, len(binding.successors)))
            return real_permits(contract, query, binding, **kwargs)

        monkeypatch.setattr(
            database_module, "permits_encoded", recording_permits
        )
        expected = _db().query(self.QUERY, self.PROJECTED).contract_names
        del bindings[:]
        db = _db(query_cache_capacity=0)
        before = _counts(hoisted_calls)
        for _ in range(2):
            outcome = db.query(self.QUERY, self.PROJECTED)
            assert not outcome.stats.cache_hit
            assert outcome.contract_names == expected
        assert len(db.query_cache) == 0
        n = len(db)
        assert _counts(hoisted_calls) == {
            "bind_query": before["bind_query"] + 2 * n,
            "select_key": before["select_key"] + 2 * n,
            "select_artifacts": before["select_artifacts"] + 2 * n,
            "parse": before["parse"] + 2,
        }
        assert len({id(binding) for binding, _ in bindings}) == 2 * n
        assert {held for _, held in bindings} == {0}


class TestNoObjectAutomatonOnTheQueryPath:
    """A query's first use of a projection builds the quotient's
    encoding from the contract's encoding and the stored partition:
    no projected automaton, no object quotient, no ``BuchiAutomaton``
    at all between a compiled query and its answer."""

    QUERIES = (
        "F refund",
        "F(missedFlight && F(refund || dateChange))",
        "F(dateChange && X F dateChange)",
        "G !dateChange",
        "F(purchase && F use)",
    )
    UNPROJECTED = QueryOptions(
        plan=QueryPlan(use_prefilter=True, use_projections=False))

    def test_cold_projected_pass_builds_no_object_automaton(
        self, monkeypatch
    ):
        import importlib

        import repro.automata.bisim as bisim_module
        import repro.projection.store as store_module
        from repro.automata.buchi import BuchiAutomaton

        # the package's ``project`` attribute is the function
        project_module = importlib.import_module("repro.projection.project")

        db = _db()
        # compiles every text (the translator's automata are built here)
        # and materializes nothing
        expected = [
            db.query(q, self.UNPROJECTED).contract_names for q in self.QUERIES
        ]
        assert not any(c.projections._quotients for c in db.contracts())
        calls = {
            "project": [
                _CallCounter(monkeypatch, project_module, "project"),
                _CallCounter(monkeypatch, store_module, "project"),
            ],
            "quotient": [
                _CallCounter(monkeypatch, bisim_module, "quotient"),
                _CallCounter(monkeypatch, store_module, "quotient"),
            ],
            "BuchiAutomaton": [
                _CallCounter(monkeypatch, BuchiAutomaton, "__init__"),
            ],
        }
        for options in (QueryOptions(plan=QueryPlan(True, True)), None):
            assert [
                db.query(q, options).contract_names for q in self.QUERIES
            ] == expected
        assert {
            name: sum(counter.calls for counter in counters)
            for name, counters in calls.items()
        } == {"project": 0, "quotient": 0, "BuchiAutomaton": 0}
        # not vacuous: the pass did build quotients
        assert sum(len(c.projections._quotients) for c in db.contracts()) > 0


class TestPreparedQueryIsBounded:
    """The deterministic twin of ``wide_distinct``'s RSS check: what a
    never-repeating workload leaves behind is bounded by the compile
    cache, not by the number of queries asked."""

    CAPACITY = 4

    @staticmethod
    def _sizes(db):
        """``{(contract, owner, attribute): len}`` over every sized
        attribute of every contract and projection store, materialized
        quotients aside (those are the store's own lazily built
        artifacts, bounded by its stored subsets)."""
        sizes = {}
        for contract in db.contracts():
            for owner in (contract, contract.projections):
                for name, value in vars(owner).items():
                    if name == "_quotients" or not hasattr(value, "__len__"):
                        continue
                    sizes[contract.name, type(owner).__name__, name] = (
                        len(value)
                    )
        return sizes

    def test_distinct_queries_leave_nothing_behind(self, hoisted_calls):
        import gc
        import weakref

        db = ContractDatabase(
            BrokerConfig(query_cache_capacity=self.CAPACITY)
        )
        events = [f"p{i}" for i in range(7)]
        for i in range(4):
            a, b, c = events[i], events[i + 1], events[i + 2]
            db.register(f"c{i}", [f"G({a} -> F {b})", f"G({b} -> !{c})"])
        texts = [
            f"F({x} && F {y})" for x in events for y in events if x != y
        ][: 10 * self.CAPACITY]
        assert len(set(texts)) == 10 * self.CAPACITY
        options = QueryOptions(plan=QueryPlan(False, True))

        for text in texts[: self.CAPACITY]:
            assert db.query(text, options).stats.candidates > 0
        baseline = self._sizes(db)
        assert baseline
        first, _ = db.query_cache.compile(parse(texts[0]))
        evicted = weakref.ref(first)
        evicted_bindings = [
            weakref.ref(first.prepared(contract, True)[2])
            for contract in db.contracts()
        ]
        assert any(ref().successors for ref in evicted_bindings)
        del first

        for text in texts[self.CAPACITY:]:
            db.query(text, options)
        assert self._sizes(db) == baseline
        assert db.cache_stats().size == self.CAPACITY
        assert db.cache_stats().evictions == 9 * self.CAPACITY
        gc.collect()
        assert evicted() is None
        # ... and its bindings' successor tables went with it
        assert [ref() for ref in evicted_bindings] == [None] * len(db)
        # what the live entries hold is bounded per binding
        for text in texts[-self.CAPACITY:]:
            compiled, hit = db.query_cache.compile(parse(text))
            assert hit
            for contract in db.contracts():
                binding = compiled.prepared(contract, True)[2]
                assert len(binding.successors) <= SUCCESSOR_TABLE_LIMIT

        # the text memo holds exactly the last CAPACITY texts
        parses = hoisted_calls["parse"].calls
        for text in texts[-self.CAPACITY:]:
            db.query(text, options)
        assert hoisted_calls["parse"].calls == parses
        db.query(texts[-self.CAPACITY - 1], options)
        assert hoisted_calls["parse"].calls == parses + 1
