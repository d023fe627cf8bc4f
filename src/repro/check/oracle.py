"""An explicit-model permission oracle, independent of Algorithm 2.

:func:`repro.core.permission.permits` decides Definition 7 symbolically:
it walks the contract×query product over *label* pairs, using literal
compatibility, seed pruning and (in the broker) projection quotients.
This module re-decides the same question by brute force on the **concrete
snapshot alphabet**: every letter is an explicit subset of the relevant
events, every transition is expanded to the letters that satisfy its
label, and a simultaneous lasso is found by plain pairwise-reachability
enumeration.  None of the production machinery (compatibility contexts,
seeds, set-tries, projections, budgets) is involved, so an agreement
between the two is strong evidence and a disagreement is always a bug in
one of them.

Soundness of the formulation: a contract permits a query iff the
compatibility product has a reachable cycle visiting both a
contract-final and a query-final pair (§6.2.2).  Two label transitions
can be taken simultaneously iff some concrete snapshot satisfies both
labels and the query label cites only contract-vocabulary events
(Definition 7, condition 3); enumerating all snapshots over the union of
the vocabulary and the contract's label events makes that exact, since
events outside this set are constrained by no label the product can see.
The enumeration is *bounded* only by the explicit guards below — a lasso
exists iff one of length ≤ |product| does, so within the guards the
oracle is a complete decider, not an approximation.

Exponential in the alphabet by construction (2^|events| letters), hence
the ``max_events`` guard: the oracle is for conformance checking on
small vocabularies, never for serving.

The streaming monitor (:mod:`repro.stream`) takes its reference from the
same decider (:func:`oracle_monitor`): a history spelled out as a
formula is conjoined with the contract, and every per-prefix verdict is
a batch permission question.  Only the translator is shared with the
code under test — not ``repro.stream``, ``repro.core``,
``repro.automata.encode`` or ``repro.automata.graph``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Hashable, Iterable, Sequence

from ..automata.buchi import BuchiAutomaton
from ..automata.ltl2ba import translate
from ..errors import ReproError
from ..ltl.ast import TRUE, And, Formula, Next, Not, Prop, conj

Pair = tuple[Hashable, Hashable]

#: Largest event set the oracle will expand into an explicit alphabet.
DEFAULT_MAX_EVENTS = 10
#: Largest explicit product (pairs) the oracle will enumerate.
DEFAULT_MAX_PAIRS = 50_000


class OracleLimitError(ReproError):
    """Raised when a case exceeds the oracle's explicit-model bounds
    (too many events or too many reachable product pairs)."""


def _snapshots(events: frozenset[str]) -> list[frozenset[str]]:
    """Every concrete snapshot over ``events`` (the explicit alphabet)."""
    ordered = sorted(events)
    return [
        frozenset(combo)
        for combo in chain.from_iterable(
            combinations(ordered, size) for size in range(len(ordered) + 1)
        )
    ]


def oracle_permits(
    contract: BuchiAutomaton,
    query: BuchiAutomaton,
    vocabulary: frozenset[str] | None = None,
    *,
    max_events: int = DEFAULT_MAX_EVENTS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> bool:
    """Decide permission by explicit lasso enumeration.

    Args mirror :func:`repro.core.permission.permits`: ``vocabulary`` is
    the contract's event vocabulary (defaulting to the events on its
    labels).  Raises :class:`OracleLimitError` when the instance exceeds
    the explicit-model bounds instead of silently guessing.
    """
    if vocabulary is None:
        vocabulary = contract.events()
    # Events outside the vocabulary can still appear on contract labels
    # when the caller passes a narrower vocabulary than the automaton
    # uses (arbitrary test automata); they must be part of the alphabet
    # for the contract's own transitions to be expandable.
    alphabet_events = frozenset(vocabulary) | contract.events()
    if len(alphabet_events) > max_events:
        raise OracleLimitError(
            f"{len(alphabet_events)} events exceed the oracle's explicit "
            f"alphabet bound of {max_events}"
        )
    letters = _snapshots(alphabet_events)

    # Letter-level transition tables: state -> snapshot-indexed successor
    # sets.  A query transition additionally needs its label to cite only
    # vocabulary events (Definition 7, condition 3-i).
    def expand(ba: BuchiAutomaton, admissible_only: bool) -> dict:
        table: dict[Hashable, list[set[Hashable]]] = {}
        for state in ba.states:
            per_letter: list[set[Hashable]] = [set() for _ in letters]
            for label, dst in ba.successors(state):
                if admissible_only and not label.events() <= vocabulary:
                    continue
                for i, snap in enumerate(letters):
                    if label.satisfied_by(snap):
                        per_letter[i].add(dst)
            table[state] = per_letter
        return table

    contract_table = expand(contract, admissible_only=False)
    query_table = expand(query, admissible_only=True)

    # Reachable product pairs under simultaneous letters.
    start: Pair = (contract.initial, query.initial)
    successors: dict[Pair, frozenset[Pair]] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        pair = frontier.pop()
        c_state, q_state = pair
        succ: set[Pair] = set()
        c_row = contract_table[c_state]
        q_row = query_table[q_state]
        for i in range(len(letters)):
            for c_dst in c_row[i]:
                for q_dst in q_row[i]:
                    succ.add((c_dst, q_dst))
        successors[pair] = frozenset(succ)
        if len(successors) > max_pairs:
            raise OracleLimitError(
                f"reachable product exceeds the oracle's bound of "
                f"{max_pairs} pairs"
            )
        for nxt in succ:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)

    # Lasso enumeration: a simultaneous accepting lasso exists iff some
    # reachable contract-final pair x and query-final pair y lie on a
    # common cycle, i.e. x reaches y and y reaches x over non-empty
    # paths (x == y degenerates to a non-empty cycle through x).
    contract_finals = [p for p in successors if p[0] in contract.final]
    query_finals = {p for p in successors if p[1] in query.final}
    if not contract_finals or not query_finals:
        return False

    reach_plus_cache: dict[Pair, frozenset[Pair]] = {}

    def reach_plus(node: Pair) -> frozenset[Pair]:
        cached = reach_plus_cache.get(node)
        if cached is not None:
            return cached
        out: set[Pair] = set()
        stack = list(successors[node])
        while stack:
            cursor = stack.pop()
            if cursor in out:
                continue
            out.add(cursor)
            stack.extend(successors[cursor])
        result = frozenset(out)
        reach_plus_cache[node] = result
        return result

    for x in contract_finals:
        forward = reach_plus(x)
        for y in query_finals & forward:
            if x in reach_plus(y):
                return True
    return False


# -- the streaming monitor's reference ---------------------------------------------


@dataclass(frozen=True)
class MonitorVerdicts:
    """What the batch decider says about every prefix of one history:
    index ``n`` of ``active`` / ``can_still`` is the verdict after the
    first ``n`` snapshots (``0`` = before any event)."""

    active: tuple[bool, ...]
    can_still: tuple[bool, ...]
    #: the snapshot that completed the first inactive prefix; ``-1`` for
    #: a contract unsatisfiable before any event; ``None`` if none did
    violation_index: int | None
    #: events outside the vocabulary in the snapshots up to and including
    #: the violating one (a violated monitor consumes nothing further)
    unknown_events: int


def _next_n(formula: Formula, n: int) -> Formula:
    for _ in range(n):
        formula = Next(formula)
    return formula


def history_formula(
    history: Sequence[Iterable[str]], vocabulary: frozenset[str]
) -> Formula:
    """``χ_h = ⋀_i X^i(⋀_{e ∈ s_i∩V} e ∧ ⋀_{e ∈ V∖s_i} ¬e)``: its models are
    the runs that begin with ``history`` as far as ``vocabulary`` can
    tell.  Other events stay unconstrained — no contract label cites
    them."""
    ordered = sorted(vocabulary)
    return conj(
        _next_n(
            conj(
                Prop(event) if event in snapshot else Not(Prop(event))
                for event in ordered
            ),
            position,
        )
        for position, snapshot in enumerate(history)
    )


def oracle_monitor(
    contract: Formula,
    vocabulary: frozenset[str],
    history: Sequence[Iterable[str]],
    query: Formula,
) -> MonitorVerdicts:
    """Re-derive a monitor's verdicts on every prefix of ``history`` from
    Definition 1 alone.

    After ``h = s_0 … s_{n-1}`` the contract still in force is
    ``χ_h ∧ φ``, the allowed sequences that begin with ``h``.  The
    monitor is ACTIVE iff that contract is satisfiable (permits
    ``true``), and the future can still satisfy ``query`` iff it permits
    ``X^n query`` under the contract vocabulary: a run of ``χ_h ∧ φ``
    satisfies ``X^n q`` exactly when its suffix after ``h`` satisfies
    ``q``, and the first ``n`` steps of ``X^n q`` cite no event, so
    Definition 7's vocabulary condition binds on that suffix only.  No
    frontier, live-state set or winning mask exists on this side.

    ``χ_{h·s} ∧ φ`` implies ``χ_h ∧ φ``, so an inactive prefix has no
    active extension and enumeration stops at the first one."""
    vocabulary = frozenset(vocabulary)
    snapshots = [frozenset(snapshot) for snapshot in history]
    anything = translate(TRUE)
    active: list[bool] = []
    can_still: list[bool] = []
    for n in range(len(snapshots) + 1):
        in_force = translate(
            And(history_formula(snapshots[:n], vocabulary), contract)
        )
        active.append(oracle_permits(in_force, anything, vocabulary))
        can_still.append(oracle_permits(
            in_force, translate(_next_n(query, n)), vocabulary
        ))
        if not active[-1]:
            break
    violation_index = None if active[-1] else len(active) - 2
    consumed = snapshots[:len(active) - 1]
    padding = (False,) * (len(snapshots) + 1 - len(active))
    return MonitorVerdicts(
        active=tuple(active) + padding,
        can_still=tuple(can_still) + padding,
        violation_index=violation_index,
        unknown_events=sum(len(s - vocabulary) for s in consumed),
    )
