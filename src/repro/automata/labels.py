"""Transition labels: conjunctions of event literals.

The alphabet of the paper's Büchi automata (§2.3, §6.2.1) is the set of
*disjunction-free propositional formulas* over the event vocabulary, i.e.
conjunctions of literals.  A transition labeled ``purchase && !use`` is
enabled in a snapshot where ``purchase`` happens and ``use`` does not;
events the label does not mention are unconstrained.

Two label-level notions drive the whole system:

* **compatibility** (Definition 7, condition 3): a query label ``t`` is
  compatible with a contract label ``c`` iff (i) every event of ``t``
  belongs to the contract's vocabulary and (ii) ``c && t`` is satisfiable
  (no complementary pair of literals);
* **expansion** ``E(c)`` (§4.2): the literals of ``c`` plus *both*
  literals of every contract-vocabulary event not mentioned by ``c``.
  Expansion reduces compatibility checking to set containment, which is
  what the prefilter index exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Iterator, Optional

from ..ltl import ast as A
from ..ltl.runs import Snapshot


@total_ordering
@dataclass(frozen=True)
class Literal:
    """A single event literal: the event occurs (positive) or does not.

    Literals order by ``(event, positive)`` so label renderings and index
    keys are deterministic.
    """

    event: str
    positive: bool = True

    def negate(self) -> "Literal":
        """The complementary literal."""
        return Literal(self.event, not self.positive)

    def holds_in(self, snap: Snapshot) -> bool:
        """Truth value of the literal in a snapshot."""
        return (self.event in snap) == self.positive

    def __lt__(self, other: "Literal") -> bool:
        return (self.event, self.positive) < (other.event, other.positive)

    def __str__(self) -> str:
        return self.event if self.positive else f"!{self.event}"


def pos(event: str) -> Literal:
    """Positive literal shorthand."""
    return Literal(event, True)


def neg(event: str) -> Literal:
    """Negative literal shorthand."""
    return Literal(event, False)


def parse_literal(text: str) -> Literal:
    """Inverse of ``str(literal)``: ``"a"`` -> positive, ``"!a"`` ->
    negative (``~`` also accepted, matching :meth:`Label.parse`).
    Anything but literal text is a ``ValueError``, like malformed text."""
    if not isinstance(text, str):
        raise ValueError(f"malformed literal: {text!r}")
    text = text.strip()
    if text.startswith(("!", "~")):
        event = text[1:].strip()
        if not event:
            raise ValueError(f"malformed literal: {text!r}")
        return Literal(event, False)
    if not text:
        raise ValueError("malformed literal: empty string")
    return Literal(text, True)


@dataclass(frozen=True)
class Label:
    """A satisfiable conjunction of literals over distinct events.

    The empty conjunction is the label ``true`` (:data:`TRUE_LABEL`).
    Construction through :meth:`of` / :meth:`conjoin` guarantees the
    no-complementary-pair invariant; the raw constructor trusts its input.
    """

    literals: frozenset[Literal]

    def __hash__(self) -> int:
        """Structural hash, cached — labels are hashed constantly by the
        compatibility caches and the set-trie."""
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash(self.literals)
            object.__setattr__(self, "_hash", cached)
        return cached

    # -- constructors -----------------------------------------------------------

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> "Label":
        """Build a label, raising ``ValueError`` if contradictory."""
        label = cls.try_of(literals)
        if label is None:
            raise ValueError("contradictory conjunction of literals")
        return label

    @classmethod
    def try_of(cls, literals: Iterable[Literal]) -> Optional["Label"]:
        """Build a label, returning ``None`` if contradictory."""
        items = frozenset(literals)
        by_event: dict[str, bool] = {}
        for lit in items:
            seen = by_event.get(lit.event)
            if seen is not None and seen != lit.positive:
                return None
            by_event[lit.event] = lit.positive
        return cls(items)

    @classmethod
    def parse(cls, text: str) -> "Label":
        """Parse ``"a & !b"`` / ``"a && !b"`` / ``"true"`` into a label.

        Raises ``ValueError`` on malformed conjunctions — a dangling
        operator (``"a &"``), an empty conjunct (``"a & & b"``), or a
        bare negation (``"!"``) — instead of silently building literals
        with empty event names — and on anything that is not text.
        """
        if not isinstance(text, str):
            raise ValueError(f"malformed label: {text!r}")
        text = text.strip()
        if text in ("true", "1", ""):
            return TRUE_LABEL
        return cls.of(
            parse_literal(part)
            for part in text.replace("&&", "&").split("&")
        )

    # -- basic queries ------------------------------------------------------------

    @property
    def is_true(self) -> bool:
        """True for the unconstrained label (empty conjunction)."""
        return not self.literals

    def events(self) -> frozenset[str]:
        """The events the label mentions (either polarity)."""
        return frozenset(lit.event for lit in self.literals)

    def polarity(self, event: str) -> Optional[bool]:
        """The constrained polarity of ``event``, or ``None`` if free."""
        for lit in self.literals:
            if lit.event == event:
                return lit.positive
        return None

    def satisfied_by(self, snap: Snapshot) -> bool:
        """True iff every literal holds in the snapshot."""
        return all(lit.holds_in(snap) for lit in self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(sorted(self.literals))

    def __len__(self) -> int:
        return len(self.literals)

    # -- algebra --------------------------------------------------------------------

    def conjoin(self, other: "Label") -> Optional["Label"]:
        """The conjunction ``self && other``, or ``None`` if unsatisfiable."""
        return Label.try_of(self.literals | other.literals)

    def conflicts(self, other: "Label") -> bool:
        """True iff the conjunction of the two labels is unsatisfiable."""
        return self.conjoin(other) is None

    def restrict(self, keep: Iterable[Literal]) -> "Label":
        """Projection: keep only literals in ``keep`` (Definition 8).

        The result of dropping literals from a satisfiable conjunction is
        always satisfiable.
        """
        keep_set = frozenset(keep)
        return Label(self.literals & keep_set)

    def expansion(self, vocabulary: Iterable[str]) -> frozenset[Literal]:
        """The expansion ``E(self)`` w.r.t. a contract vocabulary (§4.2):
        the label's own literals plus *both* literals of every vocabulary
        event the label leaves unconstrained.

        >>> sorted(map(str, Label.parse("p & c").expansion(["p", "c", "m"])))
        ['!m', 'c', 'm', 'p']
        """
        out = set(self.literals)
        mentioned = self.events()
        for event in vocabulary:
            if event not in mentioned:
                out.add(pos(event))
                out.add(neg(event))
        return frozenset(out)

    def implies(self, other: "Label") -> bool:
        """True iff every snapshot satisfying ``self`` satisfies ``other``
        (i.e. ``other``'s literals are a subset of ``self``'s)."""
        return other.literals <= self.literals

    def pick_snapshot(self) -> Snapshot:
        """A concrete snapshot satisfying the label: positively
        constrained events happen, every other event — negatively
        constrained or unmentioned — does not."""
        return frozenset(l.event for l in self.literals if l.positive)

    def __str__(self) -> str:
        if self.is_true:
            return "true"
        return " & ".join(str(lit) for lit in sorted(self.literals))

    def sort_key(self) -> tuple:
        """Deterministic ordering key for rendering and canonicalization
        (computed once per label — automaton constructors sort by it)."""
        cached = getattr(self, "_sort_key", None)
        if cached is None:
            cached = tuple(
                sorted((l.event, l.positive) for l in self.literals)
            )
            object.__setattr__(self, "_sort_key", cached)
        return cached


#: The unconstrained label (``true``).
TRUE_LABEL = Label(frozenset())


def compatible(contract_label: Label, query_label: Label,
               contract_vocabulary: frozenset[str]) -> bool:
    """Condition 3 of Definition 7: the query label refers only to events
    of the contract, and the two labels do not conflict.

    Note that the check is asymmetric — the *contract* label may mention
    events outside the query — and that it depends on the contract's full
    vocabulary, not just the events of ``contract_label``; this is what
    makes the permission semantics robust to underspecified contracts
    (§2.1).
    """
    if not query_label.events() <= contract_vocabulary:
        return False
    return not contract_label.conflicts(query_label)


def label_from_formula(formula: A.Formula) -> Label:
    """Convert a disjunction-free propositional formula (the paper's Σ)
    into a :class:`Label`; raises ``ValueError`` on anything else or on a
    contradictory conjunction."""
    literals: list[Literal] = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, A.TrueConst):
            continue
        if isinstance(node, A.And):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, A.Prop):
            literals.append(pos(node.name))
        elif isinstance(node, A.Not) and isinstance(node.operand, A.Prop):
            literals.append(neg(node.operand.name))
        else:
            raise ValueError(f"not a conjunction of literals: {formula}")
    return Label.of(literals)
