"""Normalization for the free-monoid string language, with two
interchangeable semantic domains: character lists, and functions over the
syntax itself (difference lists, so concatenation is constant-time).

Canonical forms are right-nested combs ending in the empty string; the
back-end, `print_chars`, only accepts those.  `format_chars` writes any term
as an s-expression, through the writer that prints terms (`writer.write`).
"""

from __future__ import annotations

import sys
from typing import Callable, Iterator, TextIO

from .reader import ATOM, SORT, add_forms, form, read
from .records import Record, itself
from .writer import write


class CharsTerm(Record):
    __deepcopy__ = itself


class Eps(CharsTerm):
    pass


class Chr(CharsTerm):
    def __init__(self, char: str):
        if len(char) != 1:
            raise ValueError(f"Chr takes exactly one character, got {char!r}")
        Chr._setters[0](self, char)


class Append(CharsTerm):
    def __init__(self, left: CharsTerm, right: CharsTerm):
        set_left, set_right = Append._setters
        set_left(self, left)
        set_right(self, right)


class NotCanonical(Exception):
    pass


# ---------------------------------------------------------------------------
# The two semantic domains


def _leaves(t: CharsTerm, last_first: bool) -> Iterator[Chr]:
    """The `Chr` leaves of `t` in order, or last first, off an explicit stack."""
    stack = [t]
    while stack:
        u = stack.pop()
        if type(u) is Append:
            stack += (u.left, u.right) if last_first else (u.right, u.left)
        elif type(u) is Chr:
            yield u
        elif type(u) is not Eps:
            raise TypeError(f"not a chars term: {u!r}")


def eval_list(t: CharsTerm) -> str:
    """List-of-characters semantics (here: a host string), joined once."""
    return "".join([leaf.char for leaf in _leaves(t, False)])


def reify_list(chars: str) -> CharsTerm:
    """Right-nested comb ending in the empty string."""
    out: CharsTerm = Eps()
    for c in reversed(chars):
        out = Append(Chr(c), out)
    return out


def eval_fun(t: CharsTerm) -> Callable[[CharsTerm], CharsTerm]:
    """Difference-list semantics: a term denotes the function that prepends
    its characters, and `cat` denotes composition.  Applying it threads
    `rest` through the leaves, last first, in one loop."""

    def prepend(rest: CharsTerm) -> CharsTerm:
        for leaf in _leaves(t, True):
            rest = Append(leaf, rest)
        return rest

    return prepend


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


_FORMAT = {
    Eps: lambda t: "eps",
    Chr: lambda t: f'(chr "{t.char}")',
    Append: lambda t: (")", t.right, " ", t.left, "(cat "),
}


def format_chars(t: CharsTerm) -> str:
    return write(t, _FORMAT)


def _chars_atom(tok: str, what: str) -> CharsTerm:
    if tok == "eps":
        return Eps()
    raise ValueError(f"expected {what}, found {tok!r}")


def _one_char(tok: str, what: str) -> str:
    if tok[0] != '"' or len(tok) != 3:
        raise ValueError("chr takes a one-character string")
    return tok[1]


# The reader's sort of chars terms (see `reader.read`).
_CHARS = (SORT, "a chars term", _chars_atom, {}, "'chr' or 'cat'", "chars", {})
add_forms(
    _CHARS,
    chr=form(Chr, (ATOM, "a one-character string", _one_char)),
    cat=form(Append, _CHARS, _CHARS),
)


def parse_chars(text: str) -> CharsTerm:
    return read(text, _CHARS)
