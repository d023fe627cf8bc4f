"""Linear Temporal Logic: AST, parser, printer, rewriting, semantics,
and the Dwyer property-specification pattern library.

Quick tour::

    from repro.ltl import parse, satisfies, Run

    ticket_a = parse("G(dateChange -> !F refund)")
    run = Run.from_events([["purchase"], ["dateChange"], ["use"]])
    assert satisfies(run, ticket_a)
"""

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
    conj,
    disj,
    is_literal,
    is_temporal,
)
from .parser import parse
from .printer import format_formula
from .rewrite import is_nnf_core, nnf, simplify
from .runs import EMPTY_SNAPSHOT, Run, Snapshot, snapshot
from .semantics import evaluate_positions, satisfies

__all__ = [
    "FALSE",
    "TRUE",
    "And",
    "Before",
    "FalseConst",
    "Finally",
    "Formula",
    "Globally",
    "Iff",
    "Implies",
    "Next",
    "Not",
    "Or",
    "Prop",
    "Release",
    "TrueConst",
    "Until",
    "WeakUntil",
    "conj",
    "disj",
    "is_literal",
    "is_temporal",
    "parse",
    "format_formula",
    "is_nnf_core",
    "nnf",
    "simplify",
    "EMPTY_SNAPSHOT",
    "Run",
    "Snapshot",
    "snapshot",
    "evaluate_positions",
    "satisfies",
]
