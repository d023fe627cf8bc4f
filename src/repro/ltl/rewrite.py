"""Normalization and simplification of LTL formulas.

The tableau translation (:mod:`repro.automata.ltl2ba`) operates on the
*core* fragment in negation normal form (NNF):

* atoms: ``true``, ``false``, literals (``p`` / ``!p``);
* connectives: ``&&``, ``||``;
* temporal: ``X``, ``U``, ``R``.

:func:`nnf` eliminates the derived operators with the standard identities
(which the paper lists in §6.1)::

    F p      ==  true U p
    G p      ==  false R p          (== !F !p)
    p W q    ==  q R (q || p)       (== G p || (p U q))
    p B q    ==  !(!p U q)
    p -> q   ==  !p || q
    p <-> q  ==  (p && q) || (!p && !q)

and pushes negations down to the atoms using the usual dualities
(``!(p U q) == !p R !q`` etc.).

All constructors here are *smart*: they constant-fold and apply cheap,
sound local simplifications so that the generated automata stay small.
Every rewrite preserves LTL equivalence; the property-based tests check
this against the ground-truth evaluator on random ultimately-periodic
runs.
"""

from __future__ import annotations

from . import ast as A
from .ast import (
    FALSE,
    TRUE,
    And,
    Before,
    FalseConst,
    Finally,
    Formula,
    Globally,
    Iff,
    Implies,
    Next,
    Not,
    Or,
    Prop,
    Release,
    TrueConst,
    Until,
    WeakUntil,
)

# ---------------------------------------------------------------------------
# smart constructors (operate on NNF-core operands)
# ---------------------------------------------------------------------------


def negate_literal(formula: Formula) -> Formula:
    """Negate an atom (constant or literal); error on anything else."""
    if isinstance(formula, TrueConst):
        return FALSE
    if isinstance(formula, FalseConst):
        return TRUE
    if isinstance(formula, Prop):
        return Not(formula)
    if isinstance(formula, Not) and isinstance(formula.operand, Prop):
        return formula.operand
    raise ValueError(f"not an atom: {formula}")


def _flatten(formula: Formula, cls: type) -> list[Formula]:
    """Collect the operands of a nested binary connective of type ``cls``."""
    out: list[Formula] = []
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, cls):
            stack.append(node.right)  # type: ignore[attr-defined]
            stack.append(node.left)  # type: ignore[attr-defined]
        else:
            out.append(node)
    return out


def _complementary(items: list[Formula]) -> bool:
    """True if the list contains both ``l`` and ``!l`` for some literal."""
    positive: set[str] = set()
    negative: set[str] = set()
    for item in items:
        if isinstance(item, Prop):
            positive.add(item.name)
        elif isinstance(item, Not) and isinstance(item.operand, Prop):
            negative.add(item.operand.name)
    return bool(positive & negative)


def mk_and(left: Formula, right: Formula) -> Formula:
    """Conjunction with flattening, deduplication and contradiction
    detection."""
    items: list[Formula] = []
    seen: set[Formula] = set()
    for operand in _flatten(left, And) + _flatten(right, And):
        if isinstance(operand, FalseConst):
            return FALSE
        if isinstance(operand, TrueConst) or operand in seen:
            continue
        seen.add(operand)
        items.append(operand)
    if _complementary(items):
        return FALSE
    return A.conj(items)


def mk_or(left: Formula, right: Formula) -> Formula:
    """Disjunction with flattening, deduplication and tautology detection."""
    items: list[Formula] = []
    seen: set[Formula] = set()
    for operand in _flatten(left, Or) + _flatten(right, Or):
        if isinstance(operand, TrueConst):
            return TRUE
        if isinstance(operand, FalseConst) or operand in seen:
            continue
        seen.add(operand)
        items.append(operand)
    if _complementary(items):
        return TRUE
    return A.disj(items)


def mk_next(operand: Formula) -> Formula:
    """``X`` with constant folding (runs are infinite, so ``X true == true``)."""
    if isinstance(operand, (TrueConst, FalseConst)):
        return operand
    return Next(operand)


def mk_until(left: Formula, right: Formula) -> Formula:
    """``U`` with the standard local simplifications."""
    if isinstance(right, (TrueConst, FalseConst)):
        return right
    if isinstance(left, FalseConst):
        return right
    if left == right:
        return right
    # p U (p U q)  ==  p U q
    if isinstance(right, Until) and right.left == left:
        return right
    return Until(left, right)


def mk_release(left: Formula, right: Formula) -> Formula:
    """``R`` with the dual simplifications of :func:`mk_until`."""
    if isinstance(right, (TrueConst, FalseConst)):
        return right
    if isinstance(left, TrueConst):
        return right
    if left == right:
        return right
    # p R (p R q)  ==  p R q
    if isinstance(right, Release) and right.left == left:
        return right
    return Release(left, right)


# ---------------------------------------------------------------------------
# negation normal form
# ---------------------------------------------------------------------------


def nnf(formula: Formula, negated: bool = False) -> Formula:
    """Rewrite ``formula`` into the simplified NNF core fragment.

    ``negated`` tracks the parity of enclosing negations while the
    recursion walks the tree, so the whole transformation is one pass.
    """
    if isinstance(formula, TrueConst):
        return FALSE if negated else TRUE
    if isinstance(formula, FalseConst):
        return TRUE if negated else FALSE
    if isinstance(formula, Prop):
        return Not(formula) if negated else formula
    if isinstance(formula, Not):
        return nnf(formula.operand, not negated)
    if isinstance(formula, And):
        left = nnf(formula.left, negated)
        right = nnf(formula.right, negated)
        return mk_or(left, right) if negated else mk_and(left, right)
    if isinstance(formula, Or):
        left = nnf(formula.left, negated)
        right = nnf(formula.right, negated)
        return mk_and(left, right) if negated else mk_or(left, right)
    if isinstance(formula, Implies):
        # p -> q == !p || q
        return nnf(Or(Not(formula.left), formula.right), negated)
    if isinstance(formula, Iff):
        # p <-> q == (p && q) || (!p && !q)
        expanded = Or(
            And(formula.left, formula.right),
            And(Not(formula.left), Not(formula.right)),
        )
        return nnf(expanded, negated)
    if isinstance(formula, Next):
        return mk_next(nnf(formula.operand, negated))
    if isinstance(formula, Finally):
        # F p == true U p ; !F p == false R !p
        if negated:
            return mk_release(FALSE, nnf(formula.operand, True))
        return mk_until(TRUE, nnf(formula.operand, False))
    if isinstance(formula, Globally):
        # G p == false R p ; !G p == true U !p
        if negated:
            return mk_until(TRUE, nnf(formula.operand, True))
        return mk_release(FALSE, nnf(formula.operand, False))
    if isinstance(formula, Until):
        left = nnf(formula.left, negated)
        right = nnf(formula.right, negated)
        if negated:
            return mk_release(left, right)
        return mk_until(left, right)
    if isinstance(formula, Release):
        left = nnf(formula.left, negated)
        right = nnf(formula.right, negated)
        if negated:
            return mk_until(left, right)
        return mk_release(left, right)
    if isinstance(formula, WeakUntil):
        # p W q == q R (q || p)
        return nnf(Release(formula.right, Or(formula.right, formula.left)), negated)
    if isinstance(formula, Before):
        # p B q == !(!p U q)
        return nnf(Until(Not(formula.left), formula.right), not negated)
    raise TypeError(f"unknown formula node: {type(formula).__name__}")


def simplify(formula: Formula) -> Formula:
    """Public entry point: the simplified NNF of ``formula``."""
    return nnf(formula)


def event_shape(formula: Formula) -> tuple[Formula, dict[str, str]]:
    """``formula`` with each event renamed ``_0``, ``_1``, … in the order
    :meth:`~repro.ltl.ast.Formula.walk` first meets it, and the binding
    placeholder -> event.  ``F(a && F b)`` and ``F(c && F a)`` have one
    shape, so one automaton serves both, relabeled (``rename_events``)."""
    placeholders: dict[str, Prop] = {}

    def rename(node: Formula) -> Formula:
        # pre-order, left operand first: walk()'s order of first sight
        if isinstance(node, Prop):
            if node.name not in placeholders:
                placeholders[node.name] = Prop(f"_{len(placeholders)}")
            return placeholders[node.name]
        kids = node.children()
        return node.with_children(tuple(map(rename, kids))) if kids else node

    shape = rename(formula)
    return shape, {p.name: event for event, p in placeholders.items()}


def is_nnf_core(formula: Formula) -> bool:
    """True iff ``formula`` is already in the NNF core fragment."""
    for node in formula.walk():
        if isinstance(node, (Implies, Iff, Finally, Globally, WeakUntil, Before)):
            return False
        if isinstance(node, Not) and not isinstance(node.operand, Prop):
            return False
    return True
