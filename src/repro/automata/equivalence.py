"""Decision procedures on LTL formulas via the automata pipeline.

Theorem 6 of the paper leans on the classical facts that LTL
satisfiability is PSPACE-complete and reduces to Büchi-automaton
emptiness; this module packages those reductions as a user-facing
toolbox:

* :func:`is_satisfiable` — ``BA(φ)`` non-empty;
* :func:`is_valid` — ``¬φ`` unsatisfiable;
* :func:`implies` — ``φ ∧ ¬ψ`` unsatisfiable;
* :func:`equivalent` — implication both ways;
* :func:`counterexample` — an ultimately-periodic run witnessing
  non-implication, for debugging contract clauses.

Contract authors use these to sanity-check specifications before
publishing (an unsatisfiable contract permits no query at all, §3.1),
and the test suite uses them to verify the textbook operator identities
(``p W q ≡ G p || (p U q)`` etc.) end to end.
"""

from __future__ import annotations

from ..ltl.ast import And, Formula, Not
from ..ltl.runs import Run
from .ltl2ba import DEFAULT_STATE_BUDGET, translate


def is_satisfiable(formula: Formula,
                   state_budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff some run satisfies ``formula``."""
    return not translate(formula, state_budget=state_budget).is_empty()


def is_valid(formula: Formula,
             state_budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff every run satisfies ``formula``."""
    return not is_satisfiable(Not(formula), state_budget=state_budget)


def implies(antecedent: Formula, consequent: Formula,
            state_budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff every run satisfying ``antecedent`` satisfies
    ``consequent``."""
    return not is_satisfiable(
        And(antecedent, Not(consequent)), state_budget=state_budget
    )


def equivalent(left: Formula, right: Formula,
               state_budget: int = DEFAULT_STATE_BUDGET) -> bool:
    """True iff the two formulas have the same models."""
    return implies(left, right, state_budget) and implies(
        right, left, state_budget
    )


def counterexample(antecedent: Formula, consequent: Formula,
                   state_budget: int = DEFAULT_STATE_BUDGET) -> Run | None:
    """A run satisfying ``antecedent`` but not ``consequent``, or ``None``
    when the implication holds."""
    gap = translate(And(antecedent, Not(consequent)),
                    state_budget=state_budget)
    return gap.find_accepted_run()
