"""Unit tests for execution budgets and their permission-search hooks.

A cut-short search must *raise* — never return a possibly-wrong boolean
(the budgeted analogue of Algorithm 2's soundness).
"""

import pytest

from repro.automata.ltl2ba import translate
from repro.core.budget import (
    DEFAULT_CHECK_INTERVAL,
    Deadline,
    ExecutionBudget,
    StepBudget,
)
from repro.core.permission import (
    PermissionStats,
    permits,
)
from repro.errors import BudgetExceededError
from repro.ltl.ast import conj
from repro.ltl.parser import parse


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestDeadline:
    def test_after_and_remaining(self):
        clock = FakeClock(10.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(5.0)
        clock.now = 15.0
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_zero_deadline_is_immediately_expired(self):
        clock = FakeClock(1.0)
        assert Deadline.after(0.0, clock=clock).expired()

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)


class TestStepBudget:
    def test_exceeded(self):
        budget = StepBudget(10)
        assert not budget.exceeded(10)
        assert budget.exceeded(11)

    def test_requires_positive_cap(self):
        with pytest.raises(ValueError):
            StepBudget(0)


class TestExecutionBudget:
    def test_unbounded_charge_is_free(self):
        budget = ExecutionBudget()
        assert not budget.bounded
        for steps in range(1, 1000):
            budget.charge(steps)
        assert not budget.exhausted()

    def test_step_cap_is_exact(self):
        budget = ExecutionBudget(steps=StepBudget(5))
        for steps in range(1, 6):
            budget.charge(steps)
        with pytest.raises(BudgetExceededError) as exc:
            budget.charge(6)
        assert exc.value.reason == "steps"
        assert budget.exhausted_reason == "steps"
        assert budget.exhausted()

    def test_expired_deadline_caught_at_first_charge(self):
        clock = FakeClock(0.0)
        deadline = Deadline.after(1.0, clock=clock)
        budget = ExecutionBudget(deadline=deadline)
        clock.now = 2.0
        with pytest.raises(BudgetExceededError) as exc:
            budget.charge(1)
        assert exc.value.reason == "deadline"
        assert budget.exhausted_reason == "deadline"

    def test_deadline_reads_spaced_by_interval(self):
        clock = FakeClock(0.0)
        deadline = Deadline.after(1.0, clock=clock)
        budget = ExecutionBudget(deadline=deadline)
        budget.charge(1)   # clock read: still before the deadline
        clock.now = 2.0    # expires between check points
        for steps in range(2, 1 + DEFAULT_CHECK_INTERVAL):
            budget.charge(steps)   # steps < 1 + interval: no clock read yet
        with pytest.raises(BudgetExceededError):
            budget.charge(1 + DEFAULT_CHECK_INTERVAL)

    def test_exhausted_precheck_does_not_raise(self):
        clock = FakeClock(0.0)
        budget = ExecutionBudget(deadline=Deadline.after(1.0, clock=clock))
        assert not budget.exhausted()
        clock.now = 5.0
        assert budget.exhausted()

    def test_default_check_interval(self):
        """The interval is a constant, not a constructor argument."""
        assert DEFAULT_CHECK_INTERVAL == 16
        with pytest.raises(TypeError):
            ExecutionBudget(check_interval=DEFAULT_CHECK_INTERVAL)


def _f_conjunction(k: int):
    """F ev0 && ... && F ev{k-1}: a 2^k-state BA — enough search space
    that a small step budget trips mid-search."""
    return translate(conj([parse(f"F ev{i}") for i in range(k)]))


class TestBudgetedPermission:
    @pytest.fixture(scope="class")
    def contract(self):
        return _f_conjunction(4)

    @pytest.fixture(scope="class")
    def query(self):
        # cites an event the contract never mentions: the search is
        # exhaustive and concludes False
        return translate(conj([parse(f"F ev{i}") for i in range(5)]))

    def test_unbudgeted_answer(self, contract, query):
        assert permits(contract, query) is False

    def test_ndfs_step_budget_raises_not_lies(self, contract, query):
        stats = PermissionStats()
        with pytest.raises(BudgetExceededError):
            permits(
                contract, query, stats=stats,
                budget=ExecutionBudget(steps=StepBudget(3)),
            )
        assert stats.budget_exhausted
        assert stats.search_steps >= 3

    def test_ndfs_deadline_raises_mid_search(self, contract, query):
        clock = FakeClock(0.0)
        deadline = Deadline.after(0.5, clock=clock)

        class AdvancingClock:
            def __call__(inner):
                clock.now += 0.1  # every read moves past the deadline fast
                return clock.now

        budget = ExecutionBudget(
            deadline=Deadline(at=deadline.at, clock=AdvancingClock()),
        )
        with pytest.raises(BudgetExceededError) as exc:
            permits(contract, query, budget=budget)
        assert exc.value.reason == "deadline"

    def test_generous_budget_changes_nothing(self, contract, query):
        stats = PermissionStats()
        outcome = permits(
            contract, query, stats=stats,
            budget=ExecutionBudget(steps=StepBudget(10_000_000)),
        )
        assert outcome is False
        assert not stats.budget_exhausted

    def test_budget_on_permitting_pair(self):
        contract = _f_conjunction(3)
        query = translate(parse("F ev0"))
        assert permits(
            contract, query,
            budget=ExecutionBudget(steps=StepBudget(10_000_000)),
        ) is True
