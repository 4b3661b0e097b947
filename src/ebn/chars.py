"""Normalization for the free-monoid string language, with two
interchangeable semantic domains: character lists, and functions over the
syntax itself (difference lists, so concatenation is constant-time).

Canonical forms are right-nested combs ending in the empty string; the
back-end, `print_chars`, only accepts those.  `format_chars` writes any term
as an s-expression, through the writer that prints terms (`syntax._write`).
"""

from __future__ import annotations

import sys
from operator import attrgetter
from typing import Callable, TextIO

from .syntax import _LINKS, Record, TokenStream, _set, _write


class CharsTerm(Record):
    pass


class Eps(CharsTerm):
    pass


class Chr(CharsTerm):
    def __init__(self, char: str):
        if len(char) != 1:
            raise ValueError(f"Chr takes exactly one character, got {char!r}")
        _set(self, "char", char)


class Append(CharsTerm):
    def __init__(self, left: CharsTerm, right: CharsTerm):
        _set(self, "left", left)
        _set(self, "right", right)


class NotCanonical(Exception):
    pass


# ---------------------------------------------------------------------------
# The two semantic domains


def eval_list(t: CharsTerm) -> str:
    """List-of-characters semantics (here: a host string)."""
    match t:
        case Eps():
            return ""
        case Chr(char=c):
            return c
        case Append(left=l, right=r):
            return eval_list(l) + eval_list(r)
    raise TypeError(f"not a chars term: {t!r}")


def reify_list(chars: str) -> CharsTerm:
    """Right-nested comb ending in the empty string."""
    out: CharsTerm = Eps()
    for c in reversed(chars):
        out = Append(Chr(c), out)
    return out


def eval_fun(t: CharsTerm) -> Callable[[CharsTerm], CharsTerm]:
    """Difference-list semantics: terms denote prepend functions."""
    match t:
        case Eps():
            return lambda rest: rest
        case Chr(char=c):
            return lambda rest: Append(Chr(c), rest)
        case Append(left=l, right=r):
            f, g = eval_fun(l), eval_fun(r)
            return lambda rest: f(g(rest))
    raise TypeError(f"not a chars term: {t!r}")


def reify_fun(f: Callable[[CharsTerm], CharsTerm]) -> CharsTerm:
    return f(Eps())


def norm_chars(t: CharsTerm, domain: str = "list") -> CharsTerm:
    if domain == "list":
        return reify_list(eval_list(t))
    if domain == "function":
        return reify_fun(eval_fun(t))
    raise ValueError(f"unknown semantic domain {domain!r}")


def is_canonical(t: CharsTerm) -> bool:
    while True:
        match t:
            case Eps():
                return True
            case Append(left=Chr(), right=rest):
                t = rest
            case _:
                return False


def print_chars(t: CharsTerm, out: TextIO | None = None) -> None:
    """Back-end: emit the string denoted by a canonical term."""
    if not is_canonical(t):
        raise NotCanonical(f"not in canonical form: {format_chars(t)}")
    out = sys.stdout if out is None else out
    while isinstance(t, Append):
        out.write(t.left.char)
        t = t.right


# ---------------------------------------------------------------------------
# S-expression round trip: eps | (chr "c") | (cat t t)


_LINKS[Append] = attrgetter("left", "right")
_FORMAT = {
    Eps: lambda t: ("eps",),
    Chr: lambda t: (f'(chr "{t.char}")',),
    Append: lambda t: (")", t.right, " ", t.left, "(cat "),
}


def format_chars(t: CharsTerm) -> str:
    return _write(t, _FORMAT)


def _parse(ts: TokenStream) -> CharsTerm:
    tok = ts.next("a chars term")
    if tok == "eps":
        return Eps()
    if tok != "(":
        raise ts.error(f"expected a chars term, found {tok!r}")
    head = ts.atom("'chr' or 'cat'")
    if head == "chr":
        s = ts.next("a one-character string")
        if s[0] != '"' or len(s) != 3:
            raise ts.error("chr takes a one-character string")
        ts.close()
        return Chr(s[1])
    if head == "cat":
        l = _parse(ts)
        r = _parse(ts)
        ts.close()
        return Append(l, r)
    raise ts.error(f"unknown chars form {head!r}")


def parse_chars(text: str) -> CharsTerm:
    return TokenStream(text).read(_parse)
