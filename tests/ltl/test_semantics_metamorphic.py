"""Metamorphic properties of the LTL evaluator.

These tests exploit invariances that must hold for *any* correct
evaluator, independent of specific formulas: satisfaction is invariant
under loop unrolling, loop rotation is equivalent to dropping prefix
steps, and adding events outside the formula's vocabulary never changes
the verdict.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ltl.runs import Run
from repro.ltl.semantics import evaluate_positions, satisfies

from tests.strategies import formulas, runs


def unroll_once(run: Run) -> Run:
    """The same infinite run, with one loop iteration moved into the
    prefix."""
    return Run(run.prefix + run.loop, run.loop)


def double_loop(run: Run) -> Run:
    """The same infinite run, with the loop doubled."""
    return Run(run.prefix, run.loop + run.loop)


class TestRepresentationInvariance:
    @given(formulas(max_depth=4), runs())
    @settings(max_examples=300, deadline=None)
    def test_unrolling_invariant(self, formula, run):
        assert satisfies(run, formula) == satisfies(unroll_once(run), formula)

    @given(formulas(max_depth=4), runs())
    @settings(max_examples=300, deadline=None)
    def test_loop_doubling_invariant(self, formula, run):
        assert satisfies(run, formula) == satisfies(double_loop(run), formula)

    @given(formulas(max_depth=3), runs(), st.integers(min_value=1,
                                                      max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_suffix_table_consistency(self, formula, run, steps):
        """The evaluator's per-position table must agree with evaluating
        the suffix run directly."""
        steps = min(steps, run.num_positions - 1) if run.num_positions > 1 else 0
        table = evaluate_positions(run, formula)
        suffix = run
        for _ in range(steps):
            # drop one instant: move it out of the prefix (or rotate loop)
            if suffix.prefix:
                suffix = Run(suffix.prefix[1:], suffix.loop)
            else:
                suffix = Run((), suffix.loop[1:] + suffix.loop[:1])
        assert satisfies(suffix, formula) == table[_position_after(run, steps)]


def _position_after(run: Run, steps: int) -> int:
    position = 0
    for _ in range(steps):
        position = run.successor(position)
    return position


class TestVocabularyInvariance:
    @given(formulas(max_depth=4), runs())
    @settings(max_examples=200, deadline=None)
    def test_alien_events_irrelevant(self, formula, run):
        """Adding an event the formula never mentions to every snapshot
        does not change satisfaction."""
        noisy = Run(
            tuple(s | {"alienEvent"} for s in run.prefix),
            tuple(s | {"alienEvent"} for s in run.loop),
        )
        assert satisfies(run, formula) == satisfies(noisy, formula)

    @given(formulas(max_depth=4), runs())
    @settings(max_examples=200, deadline=None)
    def test_projection_onto_vocabulary_sufficient(self, formula, run):
        """Definition 3 in action: the V-projection of a run determines
        satisfaction of any formula over V."""
        projected = run.project(formula.variables())
        assert satisfies(run, formula) == satisfies(projected, formula)
