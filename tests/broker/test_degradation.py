"""End-to-end tests of budgeted query execution and graceful degradation.

The correctness contract of a degraded answer (QueryOutcome docstring):

    contract_ids  ⊆  exact_permitted  ⊆  contract_ids ∪ maybe_ids

Wall-clock tests use generous margins; the determinism-sensitive ones
drive a step budget instead, which trips at exactly the same point on
every run.
"""

import pytest

from repro.broker.database import BrokerConfig, ContractDatabase
from repro.broker.options import Degradation, QueryOptions
from repro.broker.planner import SCAN_PLAN
from repro.broker.query import Verdict
from repro.errors import QueryBudgetError
from repro.ltl.printer import format_formula
from repro.workload.generator import pathological_query, pathological_specs


@pytest.fixture(scope="module")
def adversarial_db() -> ContractDatabase:
    """A small pathological database: eventuality-conjunction contracts
    whose scan-mode checks against :func:`pathological_query` are all
    exhaustive (False) searches, led by one slow "monster" contract."""
    db = ContractDatabase(BrokerConfig(use_projections=False))
    for i, spec in enumerate(pathological_specs(10, monsters=1, seed=3)):
        db.register(f"c{i}", list(spec.clauses))
    return db


@pytest.fixture(scope="module")
def adversarial_query() -> str:
    return format_formula(pathological_query())


SCAN = dict(plan=SCAN_PLAN)


class TestDeadlineDegradation:
    def test_tight_deadline_degrades_promptly(
        self, adversarial_db, adversarial_query
    ):
        outcome = adversarial_db.query(
            adversarial_query,
            QueryOptions(deadline_seconds=0.05, **SCAN),
        )
        assert outcome.degraded
        assert outcome.stats.timed_out >= 1
        # the first (monster) check straddles the deadline: TIMED_OUT,
        # everything queued behind it is cancelled
        assert outcome.verdicts[0] is Verdict.TIMED_OUT
        assert outcome.stats.total_seconds < 1.0
        # wherever the clock cut the scan off, the answer stays sound
        exact = adversarial_db.query(adversarial_query, QueryOptions(**SCAN))
        assert set(outcome.contract_ids) <= set(exact.contract_ids)
        assert set(exact.contract_ids) <= (
            set(outcome.contract_ids) | set(outcome.maybe_ids)
        )

    def test_candidates_ledger_balances(
        self, adversarial_db, adversarial_query
    ):
        outcome = adversarial_db.query(
            adversarial_query,
            QueryOptions(deadline_seconds=0.05, **SCAN),
        )
        s = outcome.stats
        assert s.candidates == s.checked + s.timed_out + s.skipped
        assert s.deadline_seconds == 0.05

    def test_no_deadline_runs_to_exact_answer(
        self, adversarial_db, adversarial_query
    ):
        outcome = adversarial_db.query(
            adversarial_query, QueryOptions(**SCAN)
        )
        assert not outcome.degraded
        assert outcome.stats.checked == outcome.stats.candidates
        assert all(v.conclusive for v in outcome.verdicts.values())

    def test_skipped_checks_report_no_permission_time(
        self, adversarial_db, adversarial_query, monkeypatch
    ):
        checks = []
        check_candidate = adversarial_db._check_candidate

        def recording_check(*args):
            checks.append(check_candidate(*args))
            return checks[-1]

        monkeypatch.setattr(
            adversarial_db, "_check_candidate", recording_check
        )
        outcome = adversarial_db.query(
            adversarial_query,
            QueryOptions(deadline_seconds=0.05, **SCAN),
        )
        skipped = [
            (selection, permission)
            for verdict, selection, permission in checks
            if verdict is Verdict.SKIPPED
        ]
        assert skipped  # the monster burned the whole budget
        assert len(skipped) == outcome.stats.skipped
        assert set(skipped) == {(0.0, 0.0)}
        # ... so the query's permission time is the started checks' alone
        started = [
            permission for verdict, _, permission in checks
            if verdict is not Verdict.SKIPPED
        ]
        assert all(seconds > 0.0 for seconds in started)
        assert outcome.stats.permission_seconds == pytest.approx(sum(started))

    def test_monster_product_is_searched_again_on_every_ask(
        self, adversarial_db, adversarial_query
    ):
        """The successor table a check leaves on its binding is bounded:
        an *unbudgeted* check of the monster pair walks a product far
        larger than ``SUCCESSOR_TABLE_LIMIT`` and keeps none of it, so
        the next ask under a deadline degrades exactly like the first —
        a repeated adversarial query never gets cheaper by repetition."""
        from repro.automata.encode import SUCCESSOR_TABLE_LIMIT
        from repro.ltl.parser import parse

        exact = adversarial_db.query(adversarial_query, QueryOptions(**SCAN))
        assert not exact.degraded
        compiled, hit = adversarial_db.query_cache.compile(
            parse(adversarial_query)
        )
        assert hit
        for contract in adversarial_db.contracts():
            binding = compiled.prepared(contract, False)[2]
            assert len(binding.successors) <= SUCCESSOR_TABLE_LIMIT
        monster = compiled.prepared(adversarial_db.get(0), False)[2]
        assert monster.successors == {}

        again = adversarial_db.query(
            adversarial_query,
            QueryOptions(deadline_seconds=0.05, **SCAN),
        )
        assert again.verdicts[0] is Verdict.TIMED_OUT
        assert all(
            verdict is Verdict.SKIPPED
            for cid, verdict in again.verdicts.items() if cid != 0
        )
        assert len(monster.successors) <= SUCCESSOR_TABLE_LIMIT


class TestStepBudgetDegradation:
    def test_superset_consistency_deterministic(
        self, adversarial_db, adversarial_query
    ):
        exact = adversarial_db.query(adversarial_query, QueryOptions(**SCAN))
        degraded = adversarial_db.query(
            adversarial_query,
            QueryOptions(step_budget=50, **SCAN),
        )
        assert degraded.degraded
        assert set(degraded.contract_ids) <= set(exact.contract_ids)
        assert set(exact.contract_ids) <= (
            set(degraded.contract_ids) | set(degraded.maybe_ids)
        )

    def test_step_budget_reproducible(
        self, adversarial_db, adversarial_query
    ):
        options = QueryOptions(step_budget=50, **SCAN)
        first = adversarial_db.query(adversarial_query, options)
        second = adversarial_db.query(adversarial_query, options)
        assert first.verdicts == second.verdicts
        assert first.maybe_ids == second.maybe_ids

    def test_per_contract_budget_times_out_every_candidate(
        self, adversarial_db, adversarial_query
    ):
        outcome = adversarial_db.query(
            adversarial_query,
            QueryOptions(step_budget=10, **SCAN),
        )
        # a step budget is per candidate, so nothing is ever skipped
        assert outcome.stats.skipped == 0
        assert outcome.stats.timed_out == outcome.stats.candidates

    def test_generous_step_budget_is_exact(self, airfare_db):
        query = "F(missedFlight && F(refund || dateChange))"
        exact = airfare_db.query(query)
        budgeted = airfare_db.query(
            query, QueryOptions(step_budget=10_000_000)
        )
        assert budgeted.contract_ids == exact.contract_ids
        assert not budgeted.degraded


class TestDegradationPolicies:
    def test_maybe_is_default(self, adversarial_db, adversarial_query):
        outcome = adversarial_db.query(
            adversarial_query, QueryOptions(step_budget=10, **SCAN)
        )
        assert len(outcome.maybe_ids) == outcome.stats.candidates
        assert outcome.maybe_names == tuple(
            adversarial_db.get(cid).name for cid in outcome.maybe_ids
        )

    def test_drop_hides_maybe_but_keeps_verdicts(
        self, adversarial_db, adversarial_query
    ):
        outcome = adversarial_db.query(
            adversarial_query,
            QueryOptions(
                step_budget=10, degradation=Degradation.DROP, **SCAN
            ),
        )
        assert outcome.degraded
        assert outcome.maybe_ids == ()
        assert any(
            not v.conclusive for v in outcome.verdicts.values()
        )

    def test_fail_raises(self, adversarial_db, adversarial_query):
        with pytest.raises(QueryBudgetError, match="budget exhausted"):
            adversarial_db.query(
                adversarial_query,
                QueryOptions(
                    step_budget=10, degradation=Degradation.FAIL, **SCAN
                ),
            )

    def test_fail_without_exhaustion_answers_normally(self, airfare_db):
        outcome = airfare_db.query(
            "F refund",
            QueryOptions(
                step_budget=10_000_000, degradation=Degradation.FAIL
            ),
        )
        assert not outcome.degraded


class TestConsistencyAfterCancellation:
    def test_cache_and_metrics_stay_consistent(self, adversarial_query):
        db = ContractDatabase(BrokerConfig(use_projections=False))
        for i, spec in enumerate(pathological_specs(6, monsters=1, seed=4)):
            db.register(f"c{i}", list(spec.clauses))

        degraded = db.query(
            adversarial_query, QueryOptions(step_budget=10, **SCAN)
        )
        assert degraded.degraded
        assert db.metrics.counter_value("query.degraded") == 1
        assert db.metrics.counter_value("query.contracts_timed_out") == \
            degraded.stats.timed_out

        # the compiled query was cached despite the degraded first run,
        # and an unbudgeted re-run is exact
        exact = db.query(adversarial_query, QueryOptions(**SCAN))
        assert exact.stats.cache_hit
        assert not exact.degraded
        assert db.metrics.counter_value("query.degraded") == 1
        assert db.metrics.counter_value("query.count") == 2

    def test_failed_query_still_recorded(self, adversarial_query):
        db = ContractDatabase(BrokerConfig(use_projections=False))
        for i, spec in enumerate(pathological_specs(4, monsters=1, seed=5)):
            db.register(f"c{i}", list(spec.clauses))
        with pytest.raises(QueryBudgetError):
            db.query(
                adversarial_query,
                QueryOptions(
                    step_budget=10, degradation=Degradation.FAIL, **SCAN
                ),
            )
        assert db.metrics.counter_value("query.count") == 1
        assert db.metrics.counter_value("query.degraded") == 1


class TestBudgetedQueryMany:
    def test_each_query_gets_its_own_deadline(
        self, adversarial_db, adversarial_query
    ):
        outcomes = adversarial_db.query_many(
            [adversarial_query, "F ev0"],
            QueryOptions(deadline_seconds=0.05, **SCAN),
        )
        assert outcomes[0].degraded
        # the cheap query is not starved by the pathological one
        assert not outcomes[1].degraded
        assert outcomes[1].stats.checked == outcomes[1].stats.candidates

    def test_parallel_step_budget_matches_serial(
        self, adversarial_db, adversarial_query
    ):
        """A step budget trips at the same search step whoever else is
        querying: concurrent callers degrade exactly like a lone one."""
        from concurrent.futures import ThreadPoolExecutor

        options = QueryOptions(step_budget=50, **SCAN)
        serial = adversarial_db.query(adversarial_query, options)
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(
                    adversarial_db.query_many, [adversarial_query], options
                )
                for _ in range(4)
            ]
            for future in futures:
                (parallel,) = future.result(timeout=120)
                assert parallel.verdicts == serial.verdicts
                assert parallel.contract_ids == serial.contract_ids
                assert parallel.maybe_ids == serial.maybe_ids


class TestBudgetedWitnesses:
    def test_witnesses_still_extracted_when_time_remains(self, airfare_db):
        outcome = airfare_db.query(
            "F refund",
            QueryOptions(deadline_seconds=30.0, explain=True),
        )
        assert not outcome.degraded
        for cid in outcome.contract_ids:
            assert cid in outcome.witnesses
