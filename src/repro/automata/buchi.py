"""Büchi automata over snapshot alphabets.

A Büchi automaton (BA) is the tuple ``{Q, I, δ, F}`` of §6.2.1, with the
transition relation ``δ ⊆ Q × Σ × Q`` where Σ is the set of conjunctions
of literals (:class:`repro.automata.labels.Label`).  A run of snapshots is
accepted iff it satisfies some *lasso path* — a simple prefix to a final
state plus a cycle back to it, iterated forever.

The class is immutable once built (use :class:`BuchiBuilder` or the
``make`` classmethod); states are arbitrary hashable values, typically
``int`` after canonicalization.  All algorithmic heavy lifting (SCCs,
reachability) is delegated to :mod:`repro.automata.graph`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from ..errors import AutomatonError
from ..ltl.runs import Run, Snapshot
from . import graph
from .labels import TRUE_LABEL, Label, Literal

State = Hashable


@dataclass(frozen=True)
class Transition:
    """One labeled transition ``src --label--> dst``."""

    src: State
    label: Label
    dst: State

    def __str__(self) -> str:
        return f"{self.src} --[{self.label}]--> {self.dst}"


class BuchiAutomaton:
    """An immutable Büchi automaton with a single initial state.

    The paper assumes w.l.o.g. a single initial state (Algorithm 2); the
    LTL translation introduces a fresh one when needed.

    Attributes:
        states: frozenset of states.
        initial: the initial state.
        final: frozenset of accepting states.
    """

    __slots__ = ("states", "initial", "final", "_transitions", "_stats_cache")

    def __init__(
        self,
        states: Iterable[State],
        initial: State,
        transitions: Iterable[Transition],
        final: Iterable[State],
    ):
        self.states = frozenset(states)
        self.initial = initial
        self.final = frozenset(final)
        table: dict[State, list[tuple[Label, State]]] = {s: [] for s in self.states}
        for t in transitions:
            if t.src not in self.states or t.dst not in self.states:
                raise AutomatonError(f"transition {t} uses unknown state")
            table[t.src].append((t.label, t.dst))
        if self.initial not in self.states:
            raise AutomatonError(f"initial state {self.initial!r} not a state")
        if not self.final <= self.states:
            raise AutomatonError("final states must be a subset of the states")
        self._freeze(table)

    def _freeze(self, table: Mapping[State, list[tuple[Label, State]]]) -> None:
        # Freeze per-state transition lists, deterministically ordered.
        # A state's key is taken once, not once per incoming transition:
        # formatting a formula-valued translator state is the expensive
        # part of the sort.
        keys = {s: _state_key(s) for s in self.states}
        self._transitions: dict[State, tuple[tuple[Label, State], ...]] = {
            s: tuple(sorted(table[s], key=lambda lt: (lt[0].sort_key(), keys[lt[1]])))
            for s in self.states
        }
        self._stats_cache: dict | None = None

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def _of(cls, states, initial, table, final) -> "BuchiAutomaton":
        """From the ``state -> [(label, dst)]`` table of a valid one."""
        ba = cls.__new__(cls)
        ba.states, ba.initial, ba.final = frozenset(states), initial, frozenset(final)
        ba._freeze(table)
        return ba

    @classmethod
    def make(
        cls,
        initial: State,
        transitions: Iterable[tuple[State, str | Label, State]],
        final: Iterable[State],
        states: Iterable[State] = (),
    ) -> "BuchiAutomaton":
        """Compact constructor for tests and examples.

        ``transitions`` entries are ``(src, label, dst)`` where the label
        can be a :class:`Label` or a string like ``"a & !b"`` / ``"true"``.
        States are inferred from the transitions (plus ``states``).
        """
        trans = []
        all_states: set[State] = {initial} | set(states) | set(final)
        for src, lab, dst in transitions:
            label = lab if isinstance(lab, Label) else Label.parse(lab)
            trans.append(Transition(src, label, dst))
            all_states.add(src)
            all_states.add(dst)
        return cls(all_states, initial, trans, final)

    # -- basic queries ------------------------------------------------------------

    def successors(self, state: State) -> tuple[tuple[Label, State], ...]:
        """The outgoing ``(label, dst)`` pairs of ``state``."""
        return self._transitions[state]

    def successor_states(self, state: State) -> Iterator[State]:
        """Destination states only (labels ignored)."""
        for _, dst in self._transitions[state]:
            yield dst

    def transitions(self) -> Iterator[Transition]:
        """Iterate over every transition."""
        for src in self.states:
            for label, dst in self._transitions[src]:
                yield Transition(src, label, dst)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_transitions(self) -> int:
        return sum(len(v) for v in self._transitions.values())

    def labels(self) -> Iterator[Label]:
        """Every transition label (with repetition)."""
        for src in self.states:
            for label, _ in self._transitions[src]:
                yield label

    def events(self) -> frozenset[str]:
        """All events mentioned on any transition label."""
        out: set[str] = set()
        for label in self.labels():
            out |= label.events()
        return frozenset(out)

    def literals(self) -> frozenset[Literal]:
        """All literals appearing on any transition label — the contract's
        *cited literals* used to key the projection store (§5.2)."""
        out: set[Literal] = set()
        for label in self.labels():
            out |= label.literals
        return frozenset(out)

    def is_final(self, state: State) -> bool:
        return state in self.final

    # -- language-level operations ---------------------------------------------------

    def accepts(self, run: Run) -> bool:
        """Decide whether the automaton accepts an ultimately-periodic run.

        The product of run positions and automaton states is itself a
        finite graph; the run is accepted iff that product, restricted to
        edges whose label is satisfied by the current snapshot, has a
        reachable cycle through a pair with a final state.  Cycles can
        only close inside the loop portion, so this captures exactly the
        lasso-path acceptance condition of §2.3.
        """
        start = (0, self.initial)

        def successors(pair: tuple[int, State]) -> Iterator[tuple[int, State]]:
            position, state = pair
            snap = run.at(position)
            nxt = run.successor(position)
            for label, dst in self._transitions[state]:
                if label.satisfied_by(snap):
                    yield (nxt, dst)

        reachable = graph.reachable_from(start, successors)
        for component in graph.strongly_connected_components(reachable, successors):
            if not any(state in self.final for _, state in component):
                continue
            if graph.is_cyclic_component(component, successors):
                return True
        return False

    def is_empty(self) -> bool:
        """True iff the automaton accepts no run (no reachable accepting
        lasso)."""
        reachable = graph.reachable_from(self.initial, self.successor_states)
        for component in graph.strongly_connected_components(
            reachable, self.successor_states
        ):
            if not any(s in self.final for s in component):
                continue
            if graph.is_cyclic_component(component, self.successor_states):
                return False
        return True

    def find_accepted_run(self) -> Run | None:
        """A concrete ultimately-periodic run accepted by the automaton, or
        ``None`` if the language is empty.

        Unconstrained events are set to false in every snapshot.  Used by
        examples and tests to produce human-readable evidence.
        """
        reachable = graph.reachable_from(self.initial, self.successor_states)
        accepting = graph.states_on_accepting_cycles(
            reachable, self.successor_states, self.is_final
        )
        targets = accepting & self.final
        if not targets:
            return None
        knot = min(targets, key=_state_key)
        prefix = graph.shortest_path(self.initial, {knot}, self.successor_states)
        cycle = graph.shortest_path(
            knot, {knot}, self.successor_states, require_step=True
        )

        def snapshots(path: list[State]) -> tuple[Snapshot, ...]:
            return tuple(
                next(lab for lab, dst in self._transitions[src] if dst == nxt)
                .pick_snapshot()
                for src, nxt in zip(path, path[1:])
            )

        return Run(snapshots(prefix), snapshots(cycle))

    # -- structural transforms ---------------------------------------------------------

    def map_states(self, mapper: Callable[[State], State]) -> "BuchiAutomaton":
        """Rename states through ``mapper`` (must be injective)."""
        mapped = {s: mapper(s) for s in self.states}
        if len(set(mapped.values())) != len(mapped):
            raise AutomatonError("state mapper is not injective")
        return BuchiAutomaton._of(mapped.values(), mapped[self.initial], {
            mapped[src]: [(label, mapped[dst]) for label, dst in row]
            for src, row in self._transitions.items()
        }, [mapped[s] for s in self.final])

    def rename_events(self, mapping: Mapping[str, str]) -> "BuchiAutomaton":
        """Rename label events through an injective ``mapping``, each
        label once; :meth:`canonical` then renumbers by the new labels."""
        relabeled = {label: Label(frozenset(
            Literal(mapping[lit.event], lit.positive) for lit in label.literals
        )) for label in set(self.labels())}
        return BuchiAutomaton._of(self.states, self.initial, {
            src: [(relabeled[label], dst) for label, dst in row]
            for src, row in self._transitions.items()
        }, self.final)

    def canonical_numbering(self) -> dict[State, int]:
        """The state -> 0..n-1 renumbering :meth:`canonical` applies: BFS
        order from the initial state, unreachable states appended in
        sorted order.  Exposed so persisted artifacts that reference
        states (seed sets, bisimulation partitions) can be expressed in
        the same numbering as the serialized automaton."""
        order: list[State] = [self.initial]
        seen = {self.initial}
        cursor = 0
        while cursor < len(order):
            state = order[cursor]
            cursor += 1
            for _, dst in self._transitions[state]:
                if dst not in seen:
                    seen.add(dst)
                    order.append(dst)
        rest = sorted(self.states - seen, key=_state_key)
        order.extend(rest)
        return {state: i for i, state in enumerate(order)}

    def canonical(self) -> "BuchiAutomaton":
        """Renumber states 0..n-1 in BFS order from the initial state
        (unreachable states are appended in sorted order); gives a stable
        form for serialization and equality-by-structure tests."""
        numbering = self.canonical_numbering()
        return self.map_states(lambda s: numbering[s])

    # -- stats & display ---------------------------------------------------------------

    def stats(self) -> dict:
        """Size statistics used in Table 2 style reporting."""
        if self._stats_cache is None:
            self._stats_cache = {
                "states": self.num_states,
                "transitions": self.num_transitions,
                "final": len(self.final),
                "events": len(self.events()),
            }
        return dict(self._stats_cache)

    def __str__(self) -> str:
        lines = [
            f"BuchiAutomaton(states={self.num_states}, "
            f"transitions={self.num_transitions}, "
            f"initial={self.initial}, final={sorted(self.final, key=_state_key)})"
        ]
        for src in sorted(self.states, key=_state_key):
            for label, dst in self._transitions[src]:
                lines.append(f"  {src} --[{label}]--> {dst}")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BuchiAutomaton):
            return NotImplemented
        return (
            self.states == other.states
            and self.initial == other.initial
            and self.final == other.final
            and self._transitions == other._transitions
        )

    def __hash__(self) -> int:
        return hash((self.states, self.initial, self.final))


def _state_key(state: State) -> tuple:
    """Total order over heterogeneous state values (ints before strings
    before tuples), for deterministic iteration."""
    return (str(type(state).__name__), str(state))


class BuchiBuilder:
    """Mutable accumulator for constructing a :class:`BuchiAutomaton`."""

    def __init__(self) -> None:
        self._states: set[State] = set()
        self._initial: State | None = None
        self._final: set[State] = set()
        self._transitions: list[Transition] = []
        self._seen_transitions: set[tuple[State, Label, State]] = set()

    def add_state(self, state: State, *, initial: bool = False,
                  final: bool = False) -> "BuchiBuilder":
        self._states.add(state)
        if initial:
            if self._initial is not None and self._initial != state:
                raise AutomatonError("initial state already set")
            self._initial = state
        if final:
            self._final.add(state)
        return self

    def add_transition(self, src: State, label: Label | str, dst: State) -> "BuchiBuilder":
        """Add a transition; duplicates (same src/label/dst) are ignored."""
        if not isinstance(label, Label):
            label = Label.parse(label)
        key = (src, label, dst)
        if key in self._seen_transitions:
            return self
        self._seen_transitions.add(key)
        self._states.add(src)
        self._states.add(dst)
        self._transitions.append(Transition(src, label, dst))
        return self

    def build(self) -> BuchiAutomaton:
        if self._initial is None:
            raise AutomatonError("no initial state set")
        return BuchiAutomaton(
            self._states, self._initial, self._transitions, self._final
        )
