"""Recursive-descent parser for the LTL surface syntax.

Grammar (loosest to tightest precedence)::

    iff      := implies ( '<->' implies )*
    implies  := or ( '->' implies )?          # right associative
    or       := and ( ('||' | '|') and )*
    and      := temporal ( ('&&' | '&') temporal )*
    temporal := unary ( ('U'|'W'|'B'|'R') unary )*   # left associative
    unary    := ('!'|'~'|'X'|'F'|'G') unary | atom
    atom     := 'true' | 'false' | IDENT | '(' iff ')'

``X``, ``F``, ``G``, ``U``, ``W``, ``B``, ``R``, ``true`` and ``false`` are
reserved words; every other identifier (``[A-Za-z_][A-Za-z0-9_]*``) is an
event variable.  This mirrors the paper's notation, e.g.::

    parse("G(dateChange -> !F refund)")          # Ticket A, §2.2
    parse("G(missedFlight -> !F dateChange)")    # Ticket B / C
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LTLSyntaxError
from . import ast as A

_RESERVED_UNARY = {"X": A.Next, "F": A.Finally, "G": A.Globally}
_RESERVED_BINARY = {"U": A.Until, "W": A.WeakUntil, "B": A.Before, "R": A.Release}
_RESERVED_CONST = {"true": A.TRUE, "false": A.FALSE}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iff><->)
  | (?P<arrow>->)
  | (?P<and>&&|&)
  | (?P<or>\|\||\|)
  | (?P<not>!|~)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


def tokenize(text: str) -> list[_Token]:
    """Split ``text`` into tokens; raises :class:`LTLSyntaxError` on any
    character outside the grammar."""
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise LTLSyntaxError(
                f"unexpected character {text[pos]!r}", text=text, position=pos
            )
        kind = match.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    """Single-use recursive-descent parser over a token list."""

    def __init__(self, text: str):
        self._text = text
        self._tokens = tokenize(text)
        self._index = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> _Token:
        token = self._peek()
        if token is None:
            raise LTLSyntaxError(
                "unexpected end of input", text=self._text, position=len(self._text)
            )
        self._index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._peek()
        if token is None or token.kind != kind:
            found = token.text if token else "end of input"
            position = token.position if token else len(self._text)
            raise LTLSyntaxError(
                f"expected {kind}, found {found!r}", text=self._text, position=position
            )
        return self._advance()

    # -- grammar ------------------------------------------------------------

    def parse(self) -> A.Formula:
        formula = self._iff()
        trailing = self._peek()
        if trailing is not None:
            raise LTLSyntaxError(
                f"unexpected trailing input {trailing.text!r}",
                text=self._text,
                position=trailing.position,
            )
        return formula

    def _iff(self) -> A.Formula:
        left = self._implies()
        while self._peek_kind() == "iff":
            self._advance()
            right = self._implies()
            left = A.Iff(left, right)
        return left

    def _implies(self) -> A.Formula:
        left = self._or()
        if self._peek_kind() == "arrow":
            self._advance()
            right = self._implies()  # right associative
            return A.Implies(left, right)
        return left

    def _or(self) -> A.Formula:
        left = self._and()
        while self._peek_kind() == "or":
            self._advance()
            left = A.Or(left, self._and())
        return left

    def _and(self) -> A.Formula:
        left = self._temporal()
        while self._peek_kind() == "and":
            self._advance()
            left = A.And(left, self._temporal())
        return left

    def _temporal(self) -> A.Formula:
        left = self._unary()
        while True:
            token = self._peek()
            if token is None or token.kind != "ident":
                return left
            ctor = _RESERVED_BINARY.get(token.text)
            if ctor is None:
                raise LTLSyntaxError(
                    f"unexpected identifier {token.text!r} "
                    "(missing operator before it?)",
                    text=self._text,
                    position=token.position,
                )
            self._advance()
            left = ctor(left, self._unary())

    def _unary(self) -> A.Formula:
        token = self._peek()
        if token is None:
            raise LTLSyntaxError(
                "unexpected end of input", text=self._text, position=len(self._text)
            )
        if token.kind == "not":
            self._advance()
            return A.Not(self._unary())
        if token.kind == "ident" and token.text in _RESERVED_UNARY:
            self._advance()
            return _RESERVED_UNARY[token.text](self._unary())
        return self._atom()

    def _atom(self) -> A.Formula:
        token = self._advance()
        if token.kind == "lparen":
            inner = self._iff()
            self._expect("rparen")
            return inner
        if token.kind == "ident":
            if token.text in _RESERVED_CONST:
                return _RESERVED_CONST[token.text]
            if token.text in _RESERVED_BINARY or token.text in _RESERVED_UNARY:
                raise LTLSyntaxError(
                    f"reserved word {token.text!r} used as a proposition",
                    text=self._text,
                    position=token.position,
                )
            return A.Prop(token.text)
        raise LTLSyntaxError(
            f"unexpected token {token.text!r}", text=self._text, position=token.position
        )

    def _peek_kind(self) -> str | None:
        token = self._peek()
        return token.kind if token else None


def parse(text: str) -> A.Formula:
    """Parse an LTL formula from its textual form.

    >>> parse("G(dateChange -> !F refund)")
    Globally('G (dateChange -> !F refund)')
    """
    return _Parser(text).parse()
