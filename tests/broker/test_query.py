"""Unit tests for query-result objects."""

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.broker.options import Degradation
from repro.broker.query import (
    QueryOutcome,
    QueryStats,
    Verdict,
    assemble_outcome,
)
from repro.ltl.parser import parse


def result(ids=(1, 3), names=("a", "b"), **stats_kwargs) -> QueryOutcome:
    return QueryOutcome(
        formula=parse("F p"),
        contract_ids=tuple(ids),
        contract_names=tuple(names),
        stats=QueryStats(**stats_kwargs),
    )


class TestQueryResult:
    def test_len_iter_contains(self):
        r = result()
        assert len(r) == 2
        assert list(r) == [1, 3]
        assert 3 in r
        assert 2 not in r

    def test_str_mentions_names(self):
        assert "a, b" in str(result())
        assert str(result()).startswith("QueryOutcome(2 contracts")

    def test_str_empty(self):
        assert "(none)" in str(result(ids=(), names=()))


class TestQueryStats:
    def test_pruning_ratio(self):
        stats = QueryStats(prefilter_input=10, prefilter_output=2)
        assert stats.pruning_ratio == 0.8

    def test_pruning_ratio_empty_database(self):
        assert QueryStats().pruning_ratio == 0.0

    def test_no_pruning(self):
        stats = QueryStats(prefilter_input=5, prefilter_output=5)
        assert stats.pruning_ratio == 0.0

    def test_prefilter_off_is_no_pruning(self):
        # the stage never ran: the counts it would have compared stay 0
        stats = QueryStats(relational_matches=10, candidates=10)
        assert stats.pruning_ratio == 0.0


class TestStatsAcrossShards:
    def test_each_field_reads_by_its_own_rule(self):
        merged = QueryStats.combined([
            QueryStats(permission_seconds=0.5, total_seconds=0.6,
                       candidates=2, checked=2, used_prefilter=True,
                       stage_order="prefilter_first", plan_summary="p",
                       prefilter_input=4, prefilter_output=1,
                       cache_hit=True, database_size=7),
            QueryStats(permission_seconds=0.2, total_seconds=0.9,
                       candidates=3, checked=1, timed_out=2, degraded=True,
                       plan_summary="q"),
        ])
        # the shards ran concurrently: the critical path, not the sum
        assert merged.permission_seconds == 0.5
        assert merged.total_seconds == 0.9
        assert (merged.candidates, merged.checked, merged.timed_out) == (5, 3, 2)
        assert merged.degraded and merged.used_prefilter
        assert not merged.used_projections
        assert merged.stage_order == "attr_first | prefilter_first"
        assert merged.plan_summary == "p | q"
        assert merged.pruning_ratio == 0.75
        # no cluster-wide reading: the defaults stand
        assert merged.cache_hit is False and merged.database_size == 0

    def test_no_shard_answered_is_the_defaults(self):
        assert QueryStats.combined([]) == QueryStats()

    def test_a_field_without_a_rule_is_a_decision(self):
        """Adding a QueryStats field means saying how it combines — or
        adding it here, as one the asker fills in or nobody can."""
        unruled = {
            f.name for f in dataclasses.fields(QueryStats)
            if "combine" not in f.metadata
        }
        assert unruled == {
            "database_size", "deadline_seconds", "step_budget",
            "cache_hit", "pruning_condition",
        }


class TestAssembleOutcome:
    """The catalog only has to carry a ``.name`` per id — a node hands
    in its contracts, the cluster front-end its routing catalog."""

    class Named:
        def __init__(self, name):
            self.name = name

    def test_partition_follows_the_degradation(self):
        catalog = {cid: self.Named(name) for cid, name in enumerate("abcd", 1)}
        for degradation in Degradation:
            verdicts = {1: Verdict.PERMITTED, 2: Verdict.TIMED_OUT,
                        3: Verdict.NOT_PERMITTED, 4: Verdict.SKIPPED}
            stats = QueryStats()
            outcome = assemble_outcome(
                parse("F p"), verdicts, catalog, degradation, stats
            )
            assert outcome.stats is stats
            assert outcome.verdicts is verdicts
            assert outcome.contract_names == ("a",)
            assert outcome.maybe_names == (
                ("b", "d") if degradation is Degradation.MAYBE else ()
            )
            assert (stats.candidates, stats.checked, stats.permitted,
                    stats.timed_out, stats.skipped) == (4, 2, 1, 1, 1)
            assert stats.degraded

    @given(
        stream=st.lists(st.sampled_from(list(Verdict)), max_size=30),
        degradation=st.sampled_from(list(Degradation)),
    )
    def test_the_ledger_always_balances(self, stream, degradation):
        verdicts = dict(enumerate(stream, start=1))
        catalog = {cid: self.Named(f"c{cid}") for cid in verdicts}
        outcome = assemble_outcome(
            parse("F p"), verdicts, catalog, degradation, QueryStats()
        )
        s = outcome.stats
        assert s.candidates == len(stream)
        assert s.candidates == s.checked + s.timed_out + s.skipped
        assert s.degraded == (s.checked < s.candidates)
        permitted = [c for c, v in verdicts.items() if v is Verdict.PERMITTED]
        inconclusive = [c for c, v in verdicts.items() if not v.conclusive]
        # answer order is the order the verdicts came in
        assert list(outcome.contract_ids) == permitted
        assert s.permitted == len(permitted)
        assert s.timed_out == stream.count(Verdict.TIMED_OUT)
        if degradation is Degradation.MAYBE:
            assert list(outcome.maybe_ids) == inconclusive
        else:
            assert outcome.maybe_ids == ()
        assert outcome.contract_names == tuple(
            f"c{cid}" for cid in outcome.contract_ids
        )
        assert outcome.maybe_names == tuple(
            f"c{cid}" for cid in outcome.maybe_ids
        )
