"""Bounded execution for the PSPACE-complete permission check.

Theorem 6 of the paper shows that deciding whether a contract permits a
query is PSPACE-complete in the formulas — a single adversarial query
can therefore pin a worker inside Algorithm 2 for an unbounded amount of
time.  Related systems bound their exploration explicitly (Huang &
Cleaveland's stream checking, Fortin et al.'s LTL query learning); this
module gives the broker the same discipline:

* :class:`Deadline` — an absolute wall-clock point (monotonic time)
  shared by every check a query performs;
* :class:`StepBudget` — a cap on the number of *search steps* (product
  pairs plus nested-cycle nodes, i.e. the existing
  :class:`~repro.core.permission.PermissionStats` counters) one
  permission check may spend;
* :class:`ExecutionBudget` — the combination threaded through
  :func:`~repro.core.permission.permits_encoded`; the search calls
  :meth:`ExecutionBudget.charge` with its step counter and the budget
  raises :class:`~repro.errors.BudgetExceededError` once a limit is hit.

Deadline checks cost a clock read, so they are only performed every
:data:`DEFAULT_CHECK_INTERVAL` steps; the step cap is an integer
comparison and is enforced exactly.  A search interrupted by the budget
never reports a boolean — it raises, and the broker maps that into the
``TIMED_OUT`` verdict of its graceful-degradation policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..errors import BudgetExceededError

#: How many search steps may pass between two wall-clock reads.  A step
#: costs a microsecond or two (less on a binding whose successor table
#: is warm), so sixteen of them overshoot a deadline by well under a
#: millisecond while the clock is read on one step in sixteen.
DEFAULT_CHECK_INTERVAL = 16


@dataclass(frozen=True)
class Deadline:
    """An absolute point in monotonic time.

    Immutable: one query creates a single deadline and every
    per-candidate check consults it.  ``clock`` is injectable for
    deterministic tests.
    """

    at: float
    clock: Callable[[], float] = time.monotonic

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """The deadline ``seconds`` from now."""
        if seconds < 0:
            raise ValueError(f"deadline must be >= 0 seconds, got {seconds}")
        return cls(at=clock() + seconds, clock=clock)

    def expired(self) -> bool:
        return self.clock() >= self.at

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.at - self.clock()


@dataclass(frozen=True)
class StepBudget:
    """A cap on the search steps one permission check may spend.

    Deterministic *within one process* — unlike a wall-clock deadline,
    the same query against the same contract exhausts a step budget at
    exactly the same point on every ask, whatever ran before or runs
    beside it, which is what the degradation tests rely on.  Across
    processes it holds only under one ``PYTHONHASHSEED``: the translator
    iterates sets, so ``encode_automaton(translate(f))`` lists the same
    states and transitions in a salt-dependent order and the search
    visits them in that order — a leader and its replica may degrade a
    step-budgeted query differently (ROADMAP item 7).
    """

    max_steps: int

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError(
                f"step budget must be >= 1, got {self.max_steps}"
            )

    def exceeded(self, steps: int) -> bool:
        return steps > self.max_steps


@dataclass
class ExecutionBudget:
    """The per-check budget threaded into the permission search.

    One instance per candidate check: the ``deadline`` may be shared
    across checks (it is immutable), but the charge bookkeeping is local,
    so budgets must not be reused across concurrent searches.

    The search charges its running step counter (the
    :class:`~repro.core.permission.PermissionStats` pair + cycle-node
    counts); :meth:`charge` raises :class:`BudgetExceededError` when the
    step cap is exceeded (exact) or the deadline has passed (checked
    every :data:`DEFAULT_CHECK_INTERVAL` steps).
    """

    deadline: Deadline | None = None
    steps: StepBudget | None = None
    #: set to ``"deadline"`` or ``"steps"`` when the budget trips.
    exhausted_reason: str | None = field(default=None, init=False)
    _next_deadline_check: int = field(default=0, init=False)

    @property
    def bounded(self) -> bool:
        """Whether this budget constrains anything at all."""
        return self.deadline is not None or self.steps is not None

    def charge(self, steps: int) -> None:
        """Account ``steps`` total search steps; raise when over budget."""
        if self.steps is not None and self.steps.exceeded(steps):
            self.exhausted_reason = "steps"
            raise BudgetExceededError(
                f"step budget of {self.steps.max_steps} exceeded "
                f"after {steps} search steps",
                reason="steps",
            )
        if self.deadline is not None and steps >= self._next_deadline_check:
            self._next_deadline_check = steps + DEFAULT_CHECK_INTERVAL
            if self.deadline.expired():
                self.exhausted_reason = "deadline"
                raise BudgetExceededError(
                    f"deadline exceeded after {steps} search steps",
                    reason="deadline",
                )

    def exhausted(self) -> bool:
        """Non-raising pre-check: is there any budget left to start work?

        Used for cancellation — a queued candidate whose query deadline
        has already passed is skipped without starting its search.
        """
        if self.exhausted_reason is not None:
            return True
        if self.deadline is not None and self.deadline.expired():
            self.exhausted_reason = "deadline"
            return True
        return False
