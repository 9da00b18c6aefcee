"""Recursive-descent parsers for series literals and observable expressions.

Series literal grammar (used by the CLI and by state/matrix files):

    series  := term { ("+"|"-") term }
    term    := coeff [ "*" mono ] | mono
    mono    := "h" [ "^" rational ]
    coeff   := rational
    rational:= integer [ "/" positive-integer ] | "(" integer "/" positive-integer ")"

Observable expression grammar:

    obs     := sum
    sum     := prod { ("+"|"-") prod }
    prod    := pow { "*" pow }
    pow     := atom [ "^" positive-integer ]
    atom    := "q" index | "p" index | "i" | "h" | rational | "(" sum ")"
             | "-" pow                     (a "-" not followed by a digit)

A "-" followed by a digit starts a signed rational, so ``-2^2`` is 4, while
``-q1^2`` is -(q1^2).

Both parsers report failures as :class:`ExprSyntaxError` carrying the
offending position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .errors import ExprSyntaxError, IndexOutOfRange
from .observables import Observable, constant, coordinate
from .series import ComplexSeries, HBAR, I_UNIT, Series, series

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<qp>[qp]\d+)|(?P<name>[hi])|(?P<op>[-+*/^()]))"
)


class _Token(NamedTuple):
    kind: str  # num | qp | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", text, at)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, text: str) -> bool:
        if self.cur.kind == "op" and self.cur.text == text:
            self.i += 1
            return True
        return False

    def fail(self, message: str):
        raise ExprSyntaxError(message, self.text, self.cur.pos)

    def done(self, value):
        """``value``, once every token is read."""
        if self.cur.kind != "end":
            self.fail(f"unexpected {self.cur.text!r}")
        return value


def _parse_unsigned_int(c: _Cursor) -> int:
    if c.cur.kind != "num":
        c.fail("expected an integer")
    return int(c.advance().text)


def _parse_integer(c: _Cursor) -> int:
    neg = c.accept("-")
    return -_parse_unsigned_int(c) if neg else _parse_unsigned_int(c)


def _parse_rational(c: _Cursor) -> Fraction:
    if c.accept("("):
        num = _parse_integer(c)
        if not c.accept("/"):
            c.fail("expected '/' in parenthesized rational")
        den = _parse_unsigned_int(c)
        if den == 0:
            c.fail("zero denominator")
        if not c.accept(")"):
            c.fail("expected ')'")
        return Fraction(num, den)
    num = _parse_integer(c)
    if c.accept("/"):
        den = _parse_unsigned_int(c)
        if den == 0:
            c.fail("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


# ---------------------------------------------------------------------------
# series literals


def _parse_mono(c: _Cursor) -> Fraction:
    tok = c.advance()  # caller guarantees this is "h"
    assert tok.text == "h"
    if c.accept("^"):
        return _parse_rational(c)
    return Fraction(1)


def _parse_series_term(c: _Cursor) -> tuple[Fraction, Fraction]:
    """One term as (exponent, coefficient)."""
    if c.cur.kind == "name" and c.cur.text == "h":
        return _parse_mono(c), Fraction(1)
    if c.cur.kind == "num" or (c.cur.kind == "op" and c.cur.text in "-("):
        coeff = _parse_rational(c)
        if c.accept("*"):
            if not (c.cur.kind == "name" and c.cur.text == "h"):
                c.fail("expected 'h' after '*'")
            return _parse_mono(c), coeff
        return Fraction(0), coeff
    c.fail("expected a coefficient or 'h'")


def parse_series(text: str) -> Series:
    """Parse a series literal into an exact series."""
    c = _Cursor(text)
    pairs = [_parse_series_term(c)]
    while True:
        if c.accept("+"):
            e, coeff = _parse_series_term(c)
            pairs.append((e, coeff))
        elif c.accept("-"):
            e, coeff = _parse_series_term(c)
            pairs.append((e, -coeff))
        else:
            break
    return series(c.done(pairs))


# ---------------------------------------------------------------------------
# observable expressions


def _parse_atom(c: _Cursor, d: int) -> Observable:
    tok = c.cur
    if tok.kind == "qp":
        c.advance()
        kind, index = tok.text[0], int(tok.text[1:])
        if not 1 <= index <= d:
            raise IndexOutOfRange(
                f"{tok.text!r} at column {tok.pos + 1}: index exceeds d={d}"
            )
        return coordinate(d, kind, index)
    if tok.kind == "name":
        c.advance()
        if tok.text == "i":
            return constant(d, I_UNIT)
        return constant(d, ComplexSeries(HBAR))
    if tok.kind == "op" and tok.text == "-" and c.tokens[c.i + 1].kind != "num":
        c.advance()
        return -_parse_pow(c, d)
    if tok.kind == "num" or (tok.kind == "op" and tok.text == "-"):
        return constant(d, _parse_rational(c))
    if c.accept("("):  # a group; (3/2) is the rational 3/2 in one
        inner = _parse_sum(c, d)
        if not c.accept(")"):
            c.fail("expected ')'")
        return inner
    c.fail("expected q<i>, p<i>, 'i', 'h', a rational, '-' or '('")


def _parse_pow(c: _Cursor, d: int) -> Observable:
    base = _parse_atom(c, d)
    if c.accept("^"):
        if c.cur.kind != "num":
            c.fail("expected a positive integer exponent")
        k = int(c.advance().text)
        if k < 1:
            c.fail("expected a positive integer exponent")
        return base ** k
    return base


def _parse_prod(c: _Cursor, d: int) -> Observable:
    out = _parse_pow(c, d)
    while c.accept("*"):
        out = out * _parse_pow(c, d)
    return out


def _parse_sum(c: _Cursor, d: int) -> Observable:
    out = _parse_prod(c, d)
    while True:
        if c.accept("+"):
            out = out + _parse_prod(c, d)
        elif c.accept("-"):
            out = out - _parse_prod(c, d)
        else:
            return out


def parse_observables(texts, d: int | None = None) -> list[Observable]:
    """Parse phase-space polynomials on ``d`` degrees of freedom, by default
    the largest coordinate index in any of them (at least 1).  Each text is
    tokenized once; without ``d`` all are tokenized before any is parsed."""
    cursors = map(_Cursor, texts)
    if d is None:
        cursors = list(cursors)
        d = max([1] + [int(t.text[1:]) for c in cursors for t in c.tokens if t.kind == "qp"])
    return [c.done(_parse_sum(c, d)) for c in cursors]


def parse_observable(text: str, d: int | None = None) -> Observable:
    """Parse a phase-space polynomial; ``d`` defaults to the largest index."""
    return parse_observables([text], d)[0]
