"""Unit tests for query-result objects."""

from repro.broker.query import QueryOutcome, QueryStats
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
