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
   right-hand side, which drives acceptance.  All three are small sets
   over a vocabulary that is fixed once the formula is, so each is one
   integer: two bits per event (positive literal on the even bit,
   negative on the odd one above it — a conjunction is contradictory
   iff ``m & (m >> 1)`` has an even bit) and one bit per obligation
   formula, handed out on first sight.  Covers of conjunctions are
   pairwise products with eager deduplication and absorption, decided on
   the masks — this is what keeps conjunctions of many contract clauses
   tractable where the naive GPVW tableau explodes.  The obligation
   *set* rides along, built only for the covers that survive, because it
   is the state's name downstream (see docs/DEVELOPMENT.md, "The
   translator on bitmasks");
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

from typing import Iterable

from ..errors import TranslationError
from ..ltl import ast as A
from ..ltl.ast import Formula
from ..ltl.rewrite import nnf
from .buchi import BuchiAutomaton, Transition
from .labels import TRUE_LABEL, Label, Literal

#: Default cap on generated states; the worst case is exponential in the
#: formula (§3.1), so we fail fast with a clear error instead of
#: thrashing.
DEFAULT_STATE_BUDGET = 60_000

_EMPTY: frozenset = frozenset()

#: One way to satisfy a formula at the current instant: ``(label,
#: obligations, fulfilled, pending)``.  The first three are masks — the
#: literals constraining the current snapshot, the formulas that must
#: hold from the next instant on, the Until subformulas discharged via
#: their right operand on this step — and ``pending`` is the obligation
#: mask as the set of formulas it stands for.
_MaskCover = tuple[int, int, int, frozenset]


def _undominated(triples: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """The distinct mask triples that no other one dominates.

    A cover ``c1`` is dominated by ``c2`` when ``c2`` is at least as easy
    to take (its label's literals are a subset), leaves at most the same
    obligations, and fulfills at least the same Untils; every accepting
    continuation through ``c1`` then exists through ``c2``, so ``c1``
    can be dropped (the transition-implication simplification of [12]).
    A dominator of a distinct triple weighs strictly less — label bits
    plus obligation bits minus fulfilled bits — and dominance is
    transitive, so taken by rising weight each triple need only be
    compared with the survivors so far.  The result keeps the order of
    ``triples``.
    """
    weights = [l.bit_count() + o.bit_count() - f.bit_count() for l, o, f in triples]
    survivors: list[tuple[int, int, int]] = []
    survives = [False] * len(triples)
    for i in sorted(range(len(triples)), key=weights.__getitem__):
        l1, o1, f1 = triples[i]
        for l2, o2, f2 in survivors:
            if l2 & l1 == l2 and o2 & o1 == o2 and f1 & f2 == f1:
                break
        else:
            survivors.append(triples[i])
            survives[i] = True
    return [triple for triple, kept in zip(triples, survives) if kept]


def _prune(covers: Iterable[_MaskCover]) -> tuple[_MaskCover, ...]:
    """Deduplicate (the first cover of equal masks wins) and absorb
    dominated covers."""
    unique: dict[tuple[int, int, int], _MaskCover] = {}
    for cover in covers:
        unique.setdefault(cover[:3], cover)
    return tuple(unique[triple] for triple in _undominated(list(unique)))


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
    """Holds the per-translation memo tables and bit assignments."""

    def __init__(self) -> None:
        self._covers_memo: dict[Formula, tuple[_MaskCover, ...]] = {}
        #: event -> the bit of its positive literal (the negative one is
        #: the next bit up), and the literal of every bit handed out
        self._event_bits: dict[str, int] = {}
        self._literals: list[Literal] = []
        #: the positive-literal bits in use: ``m & (m >> 1) & even`` is
        #: non-zero iff the literal mask ``m`` holds a complementary pair
        self.even = 0
        self._obligation_bits: dict[Formula, int] = {}
        self._labels: dict[int, Label] = {0: TRUE_LABEL}

    # -- the bit vocabulary ------------------------------------------------------

    def literal(self, event: str, positive: bool) -> int:
        """The label mask of one literal."""
        bit = self._event_bits.get(event)
        if bit is None:
            bit = self._event_bits[event] = 1 << len(self._literals)
            self._literals += (Literal(event, True), Literal(event, False))
            self.even |= bit
        return bit if positive else bit << 1

    def obligation(self, formula: Formula) -> int:
        """The bit of an obligation formula (an Until's is also its bit
        in a fulfilled mask)."""
        bit = self._obligation_bits.get(formula)
        if bit is None:
            bit = self._obligation_bits[formula] = 1 << len(self._obligation_bits)
        return bit

    def obligations(self, formulas: Iterable[Formula]) -> int:
        """The mask of an obligation set."""
        mask = 0
        for formula in formulas:
            mask |= self.obligation(formula)
        return mask

    def label(self, mask: int) -> Label:
        """The :class:`Label` of a label mask, built once per mask."""
        label = self._labels.get(mask)
        if label is None:
            label = self._labels[mask] = Label(frozenset(
                literal for i, literal in enumerate(self._literals)
                if mask >> i & 1
            ))
        return label

    # -- the VWAA transition function ------------------------------------------

    def covers(self, formula: Formula) -> tuple[_MaskCover, ...]:
        cached = self._covers_memo.get(formula)
        if cached is not None:
            return cached
        result = self._compute_covers(formula)
        self._covers_memo[formula] = result
        return result

    def _compute_covers(self, formula: Formula) -> tuple[_MaskCover, ...]:
        if isinstance(formula, A.TrueConst):
            return ((0, 0, 0, _EMPTY),)
        if isinstance(formula, A.FalseConst):
            return ()
        if isinstance(formula, A.Prop):
            return ((self.literal(formula.name, True), 0, 0, _EMPTY),)
        if isinstance(formula, A.Not):
            if not isinstance(formula.operand, A.Prop):  # pragma: no cover
                raise TranslationError("negation above a non-atom after NNF")
            return ((self.literal(formula.operand.name, False), 0, 0, _EMPTY),)
        if isinstance(formula, A.And):
            return self.product(self.covers(formula.left), self.covers(formula.right))
        if isinstance(formula, A.Or):
            return _prune(self.covers(formula.left) + self.covers(formula.right))
        if isinstance(formula, A.Next):
            return tuple(
                (0, self.obligations(config), 0, config)
                for config in _configurations(formula.operand)
            )
        if isinstance(formula, A.Until):
            # Either the right side holds now (the until is *fulfilled*) or
            # the left side holds now and the until is postponed.
            bit = self.obligation(formula)
            postponed = frozenset((formula,))
            now = [
                (label, obligations, fulfilled | bit, pending)
                for label, obligations, fulfilled, pending in self.covers(formula.right)
            ]
            later = [
                (label, obligations | bit, fulfilled, pending | postponed)
                for label, obligations, fulfilled, pending in self.covers(formula.left)
            ]
            return _prune(now + later)
        if isinstance(formula, A.Release):
            # The right side holds now, and either the left side also holds
            # (release discharged) or the release is postponed.
            postpone = (0, self.obligation(formula), 0, frozenset((formula,)))
            choice = _prune(self.covers(formula.left) + (postpone,))
            return self.product(self.covers(formula.right), choice)
        raise TranslationError(
            f"non-core formula reached the translator: {type(formula).__name__}"
        )

    def product(
        self, left: tuple[_MaskCover, ...], right: tuple[_MaskCover, ...]
    ) -> tuple[_MaskCover, ...]:
        """Pairwise conjunctions of two cover lists, pruned.  Only the
        masks are combined pair by pair; a survivor's obligation set is
        the union of its two parents', taken after pruning."""
        even = self.even
        parents: dict[tuple[int, int, int], tuple[frozenset, frozenset]] = {}
        for l1, o1, f1, p1 in left:
            for l2, o2, f2, p2 in right:
                label = l1 | l2
                if label & (label >> 1) & even:
                    continue
                triple = (label, o1 | o2, f1 | f2)
                if triple not in parents:
                    parents[triple] = (p1, p2)
        out = []
        for triple in _undominated(list(parents)):
            p1, p2 = parents[triple]
            out.append(triple + (p1 | p2,))
        return tuple(out)

    def state_covers(self, state: frozenset) -> tuple[_MaskCover, ...]:
        """Covers of an obligation set (the conjunction of its members).
        Not memoized: :func:`_build_tgba` asks once per state, because it
        already keys states by obligation mask."""
        result: tuple[_MaskCover, ...] = ((0, 0, 0, _EMPTY),)
        for member in sorted(state, key=str):
            result = self.product(result, self.covers(member))
            if not result:
                break
        return result


#: Sentinel initial state of the generalized automaton.
_IOTA = "iota"

#: ``(src, label mask, dst, accepted mask)``: a transition is accepting
#: for Until f iff f is not pending afterwards or was fulfilled on the
#: step — bit f of ``fulfilled | ~obligations``.
_Edge = tuple[object, int, frozenset, int]


def _build_tgba(
    core: Formula, budget: int
) -> tuple[list[_Edge], _Translator]:
    """Explore obligation sets reachable from the formula and emit the
    transition-based generalized automaton."""
    translator = _Translator()
    transitions: list[_Edge] = []
    states: list[frozenset] = []
    seen: set[int] = set()
    frontier: list[frozenset] = []

    def emit(src: object, covers: tuple[_MaskCover, ...]) -> None:
        for label, obligations, fulfilled, pending in covers:
            transitions.append((src, label, pending, fulfilled | ~obligations))
            if obligations not in seen:
                seen.add(obligations)
                frontier.append(pending)

    emit(_IOTA, translator.covers(core))
    while frontier:
        state = frontier.pop()
        states.append(state)
        if len(states) > budget:
            raise TranslationError(
                f"translation exceeded the state budget of {budget} states"
            )
        emit(state, translator.state_covers(state))
    return transitions, translator


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
    transitions, translator = _build_tgba(core, state_budget)

    # Acceptance sets that accept every transition are dropped: they
    # never constrain acceptance.
    accepted_by_all = -1
    for _, _, _, accepted in transitions:
        accepted_by_all &= accepted
    acceptance = [
        bit
        for f in dict.fromkeys(f for f in core.walk() if isinstance(f, A.Until))
        if not accepted_by_all & (bit := translator.obligation(f))
    ]
    n = len(acceptance)

    ba_transitions: list[Transition] = []
    ba_states: set = set()
    ba_final: set = set()

    if n == 0:
        for src, label, dst, _ in transitions:
            ba_transitions.append(
                Transition((src, 0), translator.label(label), (dst, 0)))
            ba_states.add((src, 0))
            ba_states.add((dst, 0))
        ba_states.add((_IOTA, 0))
        ba_final = set(ba_states)
        initial = (_IOTA, 0)
    else:
        # Max-advance degeneralization over levels 0..n; level n marks a
        # completed counter cycle and is the accepting level.
        by_src: dict[object, list[_Edge]] = {}
        for t in transitions:
            by_src.setdefault(t[0], []).append(t)
        initial = (_IOTA, 0)
        ba_states.add(initial)
        frontier = [initial]
        seen_states = {initial}
        while frontier:
            state = frontier.pop()
            src, level = state
            effective = 0 if level == n else level
            for _, label, pending, accepted in by_src.get(src, ()):
                advanced = effective
                while advanced < n and accepted & acceptance[advanced]:
                    advanced += 1
                dst = (pending, advanced)
                ba_transitions.append(
                    Transition(state, translator.label(label), dst))
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
