"""Abstract syntax trees for Linear Temporal Logic (LTL) formulas.

The paper (§2.2, §6.1) uses LTL as the declarative clause language for both
contract specifications and queries.  The operators supported here are the
ones the paper lists:

* boolean: ``true``, ``false``, ``!`` (not), ``&&`` (and), ``||`` (or),
  ``->`` (implies), ``<->`` (iff);
* temporal: ``X`` (next), ``F`` (eventually), ``G`` (globally),
  ``U`` (until), ``W`` (weak until), ``B`` (before), ``R`` (release).

``R`` (release) is not in the paper's surface syntax but is the dual of
``U`` and is required internally to put formulas in negation normal form
for the tableau translation; we expose it for completeness.

Formula objects are immutable, hashable and interned per constructor
arguments where cheap, so they can be used as dictionary keys by the
translator and the semantic evaluator.

Construction helpers (:func:`conj`, :func:`disj`, ...) perform the obvious
constant folding (``p && true == p``) so that generated workloads do not
carry dead weight into the translator.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Formula:
    """Base class of all LTL formula nodes.

    Subclasses are immutable; equality and hashing are structural.  The
    class also implements operator overloading so tests and examples can
    build formulas compactly::

        f = G(Prop("purchase").implies(~F(Prop("refund"))))
    """

    __slots__ = ("_hash", "_text")

    # -- structural protocol -------------------------------------------------

    def children(self) -> tuple["Formula", ...]:
        """Return the direct subformulas (empty for atoms)."""
        raise NotImplementedError

    def with_children(self, children: tuple["Formula", ...]) -> "Formula":
        """Rebuild this node with replacement children (same arity)."""
        raise NotImplementedError

    # -- convenience constructors --------------------------------------------

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def implies(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def iff(self, other: "Formula") -> "Formula":
        return Iff(self, other)

    def until(self, other: "Formula") -> "Formula":
        return Until(self, other)

    def weak_until(self, other: "Formula") -> "Formula":
        return WeakUntil(self, other)

    def before(self, other: "Formula") -> "Formula":
        return Before(self, other)

    def release(self, other: "Formula") -> "Formula":
        return Release(self, other)

    # -- queries --------------------------------------------------------------

    def variables(self) -> frozenset[str]:
        """The set of event-variable names mentioned anywhere in the formula.

        This is the contract's *vocabulary* when the formula is a contract
        specification (Definition 4 of the paper).
        """
        out: set[str] = set()
        for node in self.walk():
            if isinstance(node, Prop):
                out.add(node.name)
        return frozenset(out)

    def walk(self) -> Iterator["Formula"]:
        """Yield every node of the tree, root first (pre-order)."""
        stack: list[Formula] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def size(self) -> int:
        """Number of AST nodes; a crude complexity measure used in stats."""
        return sum(1 for _ in self.walk())

    def temporal_depth(self) -> int:
        """Maximum nesting depth of temporal operators."""
        bump = 1 if isinstance(self, (Next, Finally, Globally, Until,
                                      WeakUntil, Before, Release)) else 0
        kids = self.children()
        if not kids:
            return bump
        return bump + max(child.temporal_depth() for child in kids)

    # -- dunder plumbing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return False
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((type(self).__name__, self._key()))
            object.__setattr__(self, "_hash", cached)
        return cached

    def _key(self) -> tuple:
        raise NotImplementedError

    def __str__(self) -> str:
        # Formatted once per node: automaton constructors sort
        # formula-valued states by their text.
        cached = getattr(self, "_text", None)
        if cached is None:
            from .printer import format_formula

            cached = format_formula(self)
            object.__setattr__(self, "_text", cached)
        return cached

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class TrueConst(Formula):
    """The constant ``true``."""

    __slots__ = ()

    def children(self) -> tuple[Formula, ...]:
        return ()

    def with_children(self, children: tuple[Formula, ...]) -> Formula:
        return self

    def _key(self) -> tuple:
        return ()


class FalseConst(Formula):
    """The constant ``false``."""

    __slots__ = ()

    def children(self) -> tuple[Formula, ...]:
        return ()

    def with_children(self, children: tuple[Formula, ...]) -> Formula:
        return self

    def _key(self) -> tuple:
        return ()


#: Singleton instances; prefer these over constructing new ones.
TRUE = TrueConst()
FALSE = FalseConst()


class Prop(Formula):
    """A propositional event variable from the common vocabulary.

    The paper associates one variable per domain event (``purchase``,
    ``refund``, ``dateChange``, ...); a variable is true in a snapshot in
    which the event happens (§2.2).
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not name[0].isalpha() and name[0] != "_":
            raise ValueError(f"invalid proposition name: {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Formula objects are immutable")

    def children(self) -> tuple[Formula, ...]:
        return ()

    def with_children(self, children: tuple[Formula, ...]) -> Formula:
        return self

    def _key(self) -> tuple:
        return (self.name,)


class _Unary(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand: Formula):
        if not isinstance(operand, Formula):
            raise TypeError(f"expected Formula, got {type(operand).__name__}")
        object.__setattr__(self, "operand", operand)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Formula objects are immutable")

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def with_children(self, children: tuple[Formula, ...]) -> Formula:
        (child,) = children
        return type(self)(child)

    def _key(self) -> tuple:
        return (self.operand,)


class _Binary(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        if not isinstance(left, Formula) or not isinstance(right, Formula):
            raise TypeError("expected Formula operands")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Formula objects are immutable")

    def children(self) -> tuple[Formula, ...]:
        return (self.left, self.right)

    def with_children(self, children: tuple[Formula, ...]) -> Formula:
        left, right = children
        return type(self)(left, right)

    def _key(self) -> tuple:
        return (self.left, self.right)


class Not(_Unary):
    """Logical negation ``!p``."""

    __slots__ = ()


class And(_Binary):
    """Conjunction ``p && q``."""

    __slots__ = ()


class Or(_Binary):
    """Disjunction ``p || q``."""

    __slots__ = ()


class Implies(_Binary):
    """Implication ``p -> q`` (sugar for ``!p || q``)."""

    __slots__ = ()


class Iff(_Binary):
    """Biconditional ``p <-> q``."""

    __slots__ = ()


class Next(_Unary):
    """``X p``: ``p`` holds in the next instant."""

    __slots__ = ()


class Finally(_Unary):
    """``F p``: eventually ``p`` holds (``true U p``)."""

    __slots__ = ()


class Globally(_Unary):
    """``G p``: ``p`` holds in every instant (``!F !p``)."""

    __slots__ = ()


class Until(_Binary):
    """``p U q``: ``q`` eventually holds and ``p`` holds until then."""

    __slots__ = ()


class WeakUntil(_Binary):
    """``p W q``: ``G p || (p U q)`` — 'weak until' (§2.2)."""

    __slots__ = ()


class Before(_Binary):
    """``p B q``: ``p`` is true before ``q`` is, i.e. ``!(!p U q)`` (§6.1)."""

    __slots__ = ()


class Release(_Binary):
    """``p R q``: the dual of until, ``!(!p U !q)``.

    Needed internally for negation normal form; equivalently, ``q`` holds
    up to and including the first instant where ``p`` holds (or forever).
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# n-ary constant-folding helpers
# ---------------------------------------------------------------------------


def conj(formulas: Iterable[Formula]) -> Formula:
    """Right-associated conjunction of ``formulas`` with constant folding.

    An empty iterable yields ``TRUE``; any ``FALSE`` operand collapses the
    whole conjunction; duplicate adjacent operands are kept (full
    deduplication happens in :mod:`repro.ltl.rewrite`).
    """
    items = [f for f in formulas if not isinstance(f, TrueConst)]
    if any(isinstance(f, FalseConst) for f in items):
        return FALSE
    if not items:
        return TRUE
    result = items[-1]
    for f in reversed(items[:-1]):
        result = And(f, result)
    return result


def disj(formulas: Iterable[Formula]) -> Formula:
    """Right-associated disjunction with constant folding (dual of
    :func:`conj`)."""
    items = [f for f in formulas if not isinstance(f, FalseConst)]
    if any(isinstance(f, TrueConst) for f in items):
        return TRUE
    if not items:
        return FALSE
    result = items[-1]
    for f in reversed(items[:-1]):
        result = Or(f, result)
    return result


def is_literal(formula: Formula) -> bool:
    """True iff ``formula`` is a proposition or a negated proposition."""
    if isinstance(formula, Prop):
        return True
    return isinstance(formula, Not) and isinstance(formula.operand, Prop)


def is_temporal(formula: Formula) -> bool:
    """True iff the root operator is temporal."""
    return isinstance(
        formula, (Next, Finally, Globally, Until, WeakUntil, Before, Release)
    )
