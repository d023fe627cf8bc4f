"""LTL to Büchi automaton translation.

The paper's prototype uses the LTL2BA tool of Gastin & Oddoux [12] as a
black box; this module is our from-scratch substitute, implementing the
same algorithmic idea ("Fast LTL to Büchi automata translation", CAV
2001):

1. rewrite the formula into simplified negation normal form
   (:func:`repro.ltl.rewrite.nnf`);
2. compute, per subformula and with memoization, its **covers** — the
   transition function of the implicit very weak alternating automaton.
   A cover is a triple ``(label, obligations, fulfilled)``: under a
   snapshot satisfying *label*, the formula holds now provided the
   *obligations* (a set of subformulas) all hold from the next instant;
   *fulfilled* records the Until subformulas discharged through their
   right-hand side, which drives acceptance.  Covers of conjunctions are
   pairwise products with eager deduplication and absorption — this is
   what keeps conjunctions of many contract clauses tractable where the
   naive GPVW tableau explodes;
3. build a transition-based generalized Büchi automaton whose states are
   obligation sets (one acceptance set per Until subformula: a transition
   is accepting for ``f`` iff ``f`` is not among the successor's
   obligations or was fulfilled on the step);
4. degeneralize with a max-advance counter and structurally reduce
   (:mod:`repro.automata.reduce`).

Transition labels come out as conjunctions of literals — exactly the
alphabet Σ the paper's machinery assumes (§6.2.1).  The construction is
verified differentially against the ground-truth LTL evaluator on random
ultimately-periodic runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TranslationError
from ..ltl import ast as A
from ..ltl.ast import Formula
from ..ltl.rewrite import nnf
from .buchi import BuchiAutomaton, Transition
from .labels import TRUE_LABEL, Label, neg, pos

#: Default cap on generated states; the worst case is exponential in the
#: formula (§3.1), so we fail fast with a clear error instead of
#: thrashing.
DEFAULT_STATE_BUDGET = 60_000

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class _Cover:
    """One way to satisfy a formula at the current instant.

    ``label`` constrains the current snapshot; ``obligations`` must hold
    from the next instant on; ``fulfilled`` lists the Until subformulas
    discharged via their right operand on this step.
    """

    label: Label
    obligations: frozenset
    fulfilled: frozenset

    def combine(self, other: "_Cover") -> "_Cover | None":
        """Conjunction of two covers (``None`` if the labels conflict)."""
        label = self.label.conjoin(other.label)
        if label is None:
            return None
        return _Cover(
            label,
            self.obligations | other.obligations,
            self.fulfilled | other.fulfilled,
        )


def _prune(covers: list[_Cover]) -> tuple[_Cover, ...]:
    """Deduplicate and absorb dominated covers.

    A cover ``c1`` is dominated by ``c2`` when ``c2`` is at least as easy
    to take (its label's literals are a subset), leaves at most the same
    obligations, and fulfills at least the same Untils; every accepting
    continuation through ``c1`` then exists through ``c2``, so ``c1``
    can be dropped (the transition-implication simplification of [12]).
    """
    unique = list(dict.fromkeys(covers))
    keep: list[_Cover] = []
    for i, c1 in enumerate(unique):
        dominated = False
        for j, c2 in enumerate(unique):
            if i == j:
                continue
            if (
                c2.label.literals <= c1.label.literals
                and c2.obligations <= c1.obligations
                and c2.fulfilled >= c1.fulfilled
            ):
                # Break ties deterministically so mutual dominators
                # (identical triples are already deduped) keep exactly one.
                if (
                    c2.label.literals == c1.label.literals
                    and c2.obligations == c1.obligations
                    and c2.fulfilled == c1.fulfilled
                ):
                    dominated = j < i
                else:
                    dominated = True
                if dominated:
                    break
        if not dominated:
            keep.append(c1)
    return tuple(keep)


def _product(left: tuple[_Cover, ...], right: tuple[_Cover, ...]) -> tuple[_Cover, ...]:
    out: list[_Cover] = []
    for c1 in left:
        for c2 in right:
            combined = c1.combine(c2)
            if combined is not None:
                out.append(combined)
    return _prune(out)


def _configurations(formula: Formula) -> tuple[frozenset, ...]:
    """The alternative obligation sets denoted by a formula (the ``bar``
    operator of [12]): disjunctions offer alternatives, conjunctions
    merge, anything else is an atomic obligation."""
    if isinstance(formula, A.TrueConst):
        return (_EMPTY,)
    if isinstance(formula, A.FalseConst):
        return ()
    if isinstance(formula, A.Or):
        return _configurations(formula.left) + _configurations(formula.right)
    if isinstance(formula, A.And):
        out = []
        for e1 in _configurations(formula.left):
            for e2 in _configurations(formula.right):
                out.append(e1 | e2)
        return tuple(dict.fromkeys(out))
    return (frozenset((formula,)),)


class _Translator:
    """Holds the per-translation memo tables."""

    def __init__(self, budget: int):
        self.budget = budget
        self._covers_memo: dict[Formula, tuple[_Cover, ...]] = {}
        self._state_memo: dict[frozenset, tuple[_Cover, ...]] = {}
        #: obligation -> its text, the order :meth:`state_covers`
        #: conjoins a state's members in
        self._text_memo: dict[Formula, str] = {}

    # -- the VWAA transition function ------------------------------------------

    def covers(self, formula: Formula) -> tuple[_Cover, ...]:
        cached = self._covers_memo.get(formula)
        if cached is not None:
            return cached
        result = self._compute_covers(formula)
        self._covers_memo[formula] = result
        return result

    def _compute_covers(self, formula: Formula) -> tuple[_Cover, ...]:
        if isinstance(formula, A.TrueConst):
            return (_Cover(TRUE_LABEL, _EMPTY, _EMPTY),)
        if isinstance(formula, A.FalseConst):
            return ()
        if isinstance(formula, A.Prop):
            return (_Cover(Label.of([pos(formula.name)]), _EMPTY, _EMPTY),)
        if isinstance(formula, A.Not):
            if not isinstance(formula.operand, A.Prop):  # pragma: no cover
                raise TranslationError("negation above a non-atom after NNF")
            return (_Cover(Label.of([neg(formula.operand.name)]), _EMPTY, _EMPTY),)
        if isinstance(formula, A.And):
            return _product(self.covers(formula.left), self.covers(formula.right))
        if isinstance(formula, A.Or):
            return _prune(
                list(self.covers(formula.left)) + list(self.covers(formula.right))
            )
        if isinstance(formula, A.Next):
            return tuple(
                _Cover(TRUE_LABEL, config, _EMPTY)
                for config in _configurations(formula.operand)
            )
        if isinstance(formula, A.Until):
            # Either the right side holds now (the until is *fulfilled*) or
            # the left side holds now and the until is postponed.
            now = [
                _Cover(c.label, c.obligations, c.fulfilled | {formula})
                for c in self.covers(formula.right)
            ]
            postpone = _Cover(TRUE_LABEL, frozenset((formula,)), _EMPTY)
            later = [
                combined
                for c in self.covers(formula.left)
                if (combined := c.combine(postpone)) is not None
            ]
            return _prune(now + later)
        if isinstance(formula, A.Release):
            # The right side holds now, and either the left side also holds
            # (release discharged) or the release is postponed.
            postpone = _Cover(TRUE_LABEL, frozenset((formula,)), _EMPTY)
            choice = _prune(list(self.covers(formula.left)) + [postpone])
            return _product(self.covers(formula.right), choice)
        raise TranslationError(
            f"non-core formula reached the translator: {type(formula).__name__}"
        )

    def _text(self, formula: Formula) -> str:
        text = self._text_memo.get(formula)
        if text is None:
            text = self._text_memo[formula] = str(formula)
        return text

    def state_covers(self, state: frozenset) -> tuple[_Cover, ...]:
        """Covers of an obligation set (the conjunction of its members)."""
        cached = self._state_memo.get(state)
        if cached is not None:
            return cached
        result: tuple[_Cover, ...] = (_Cover(TRUE_LABEL, _EMPTY, _EMPTY),)
        for member in sorted(state, key=self._text):
            result = _product(result, self.covers(member))
            if not result:
                break
        self._state_memo[state] = result
        return result


@dataclass(frozen=True)
class _TgbaTransition:
    src: object
    label: Label
    dst: frozenset
    fulfilled: frozenset


#: Sentinel initial state of the generalized automaton.
_IOTA = "iota"


def _build_tgba(
    core: Formula, budget: int
) -> tuple[list[_TgbaTransition], list[frozenset], tuple[Formula, ...]]:
    """Explore obligation sets reachable from the formula and emit the
    transition-based generalized automaton."""
    translator = _Translator(budget)
    transitions: list[_TgbaTransition] = []
    states: list[frozenset] = []
    seen: set[frozenset] = set()
    frontier: list[frozenset] = []

    for cover in translator.covers(core):
        transitions.append(
            _TgbaTransition(_IOTA, cover.label, cover.obligations, cover.fulfilled)
        )
        if cover.obligations not in seen:
            seen.add(cover.obligations)
            frontier.append(cover.obligations)

    while frontier:
        state = frontier.pop()
        states.append(state)
        if len(states) > budget:
            raise TranslationError(
                f"translation exceeded the state budget of {budget} states"
            )
        for cover in translator.state_covers(state):
            transitions.append(
                _TgbaTransition(state, cover.label, cover.obligations,
                                cover.fulfilled)
            )
            if cover.obligations not in seen:
                seen.add(cover.obligations)
                frontier.append(cover.obligations)

    untils = tuple(
        dict.fromkeys(f for f in core.walk() if isinstance(f, A.Until))
    )
    return transitions, states, untils


def translate(
    formula: Formula,
    state_budget: int = DEFAULT_STATE_BUDGET,
    reduce: bool = True,
) -> BuchiAutomaton:
    """Translate an LTL formula into a Büchi automaton accepting exactly
    the runs that satisfy it (the ``BA(phi)`` of §6.2.1).

    This is the registration-time and query-time entry point of the
    broker pipeline (§3).  With ``reduce`` (the default) the automaton is
    trimmed to its live part, merged by bisimulation and canonically
    renumbered.
    """
    from .reduce import reduce_automaton

    core = nnf(formula)
    transitions, _, untils = _build_tgba(core, state_budget)

    # A transition is accepting for Until f iff f is not pending afterwards
    # or was fulfilled on the step.  Sets that accept every transition are
    # dropped: they never constrain acceptance.
    def accepts(transition: _TgbaTransition, until: Formula) -> bool:
        return until not in transition.dst or until in transition.fulfilled

    acceptance = [
        f for f in untils
        if not all(accepts(t, f) for t in transitions)
    ]
    n = len(acceptance)

    ba_transitions: list[Transition] = []
    ba_states: set = set()
    ba_final: set = set()

    if n == 0:
        for t in transitions:
            ba_transitions.append(Transition((t.src, 0), t.label, (t.dst, 0)))
            ba_states.add((t.src, 0))
            ba_states.add((t.dst, 0))
        ba_states.add((_IOTA, 0))
        ba_final = set(ba_states)
        initial = (_IOTA, 0)
    else:
        # Max-advance degeneralization over levels 0..n; level n marks a
        # completed counter cycle and is the accepting level.
        by_src: dict[object, list[_TgbaTransition]] = {}
        for t in transitions:
            by_src.setdefault(t.src, []).append(t)
        initial = (_IOTA, 0)
        ba_states.add(initial)
        frontier = [initial]
        seen_states = {initial}
        while frontier:
            state = frontier.pop()
            src, level = state
            effective = 0 if level == n else level
            for t in by_src.get(src, ()):
                advanced = effective
                while advanced < n and accepts(t, acceptance[advanced]):
                    advanced += 1
                dst = (t.dst, advanced)
                ba_transitions.append(Transition(state, t.label, dst))
                if dst not in seen_states:
                    seen_states.add(dst)
                    frontier.append(dst)
            ba_states.add(state)
        ba_states |= seen_states
        ba_final = {s for s in ba_states if s[1] == n}

    ba = BuchiAutomaton(ba_states, initial, ba_transitions, ba_final)
    if reduce:
        ba = reduce_automaton(ba)
    return ba.canonical()
