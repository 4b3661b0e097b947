"""The one s-expression reader behind every parser: a sort (terms and types
in `syntax.py`, chars terms in `chars.py`) is a table of forms, and one loop
reads any of them.

The reader keeps a table of the leaf forms it has read, `(lit 4/5 Q)`,
`(var x)` and `(chr "a")`, by their operand tokens, so it converts each
distinct leaf once and every read of it returns the one node: reads share
leaf nodes as normal forms share subterms.  The table holds at most 4,096
nodes and is emptied when full; a leaf whose operand is malformed is never
stored.
"""

from __future__ import annotations

import re
from typing import Any, Callable


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.message, self.line, self.col = message, line, col
        super().__init__(f"{line}:{col}: {message}")


class AnnotationMissing(ParseError):
    """A lam/inl/inr form is missing its type annotation."""


# A token is a parenthesis, a string (quotes kept), an atom, a line comment,
# or a lone quote: the start of a string that its line does not close.
# Whitespace matches nothing, so `findall` skips it.
_TOKEN_RE = re.compile(r'[()]|"[^"\n]*"|"|[^\s();"]+|;[^\n]*')


def tokenize(text: str) -> list[str]:
    """Split s-expression source into tokens; `;` starts a line comment,
    double quotes delimit single-character strings for the chars language.
    A token's first character gives its kind: `(`, `)`, `"` or an atom.
    A text with neither (every term and type text) is split by `str.split`
    once its parentheses are spaced out: that gives `_TOKEN_RE`'s tokens,
    since `str.split` and `re` take the same 29 code points for whitespace,
    in about half the time."""
    if '"' not in text and ";" not in text:
        return text.replace("(", " ( ").replace(")", " ) ").split()
    tokens = _TOKEN_RE.findall(text)
    if ";" in text:
        tokens = [t for t in tokens if t[0] != ";"]
    if '"' in text and '"' in tokens:
        raise ParseError("unterminated string", *_position(text, tokens.index('"')))
    return tokens


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of token `index` of `text`, or of the end of the last
    token when there are not that many.  Only errors pay for this."""
    pos = 0
    tokens = (m for m in _TOKEN_RE.finditer(text) if m.group()[0] != ";")
    for i, m in enumerate(tokens):
        if i == index:
            pos = m.start()
            break
        pos = m.end()
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


# The reader's slots.  Each is a tuple: its kind, what it expects (for
# "unexpected end of input, expected ..."), and its data:
#   (SORT, what, atom, forms, head_what, name, leaves) reads one value of a
#       sort: a bare atom as `atom(token, what)`, or a form `(head ...)`
#       through the slots `forms[head]` (see `form`); `leaves` holds the
#       sort's leaf forms (see `add_forms`);
#   (ATOM, what, convert) reads one token as `convert(token, what)`;
#   (PAREN, what, paren) reads the token `paren`, and (_CLOSE, "')'", ")",
#       make) the `)` that ends a form: its value is `make` of its values;
#   (ANNOT, message, sort, at_head) reads `sort` unless `)` comes next:
#       that raises AnnotationMissing with `message.format(last value)` at
#       the last token or, with `at_head`, at the form's head;
#   (REST, what, sort) reads values of `sort` until `)` comes next.
# `atom` and `convert` raise ValueError for a ParseError at their token.
SORT, ATOM, _CLOSE, PAREN, ANNOT, REST = range(6)


def form(make: Callable, *operands: tuple) -> tuple:
    """A form's slots, last first as the reader pushes them."""
    return ((_CLOSE, "')'", ")", make), *operands[::-1])


def add_forms(sort: tuple, **forms: tuple) -> None:
    """Add `forms` to the form table of `sort`.  A leaf form, one whose
    operands are all `ATOM` slots, also goes into the sort's leaf table as
    `(make, its operand slots in order)`, for `read` to take in one step."""
    sort[3].update(forms)
    for head, form in forms.items():
        if all(slot[0] == ATOM for slot in form[1:]):
            sort[6][head] = form[0][3], form[:0:-1]


# `read`'s leaf nodes by `(make, operand tokens)`: `(lit 4/5 Q)` is keyed
# `(Lit, "4/5", "Q")`, so no two leaf forms may share a `make`.
_LEAVES: dict[tuple, Any] = {}
_LEAF_BOUND = 4096


def read(text: str, sort: tuple) -> Any:
    """The value of `sort` that `text` spells, with no input left over.  One
    loop pops slots off an explicit stack, so nesting costs no Python stack.
    An open form's values wait on a second stack from its `(head` onwards.

    A leaf form whose operand tokens are followed by `)` is read in one step:
    its node comes from the table `_LEAVES`, so every read of `(var x)`
    returns one shared node until the table is next emptied, which happens
    when it holds `_LEAF_BOUND` (4,096) nodes.  On a miss each operand goes
    through its slot's converter, one token at a time, so an error is
    reported at the token the slot walk would report it at; a node is
    stored only once every operand converted."""
    tokens = tokenize(text)
    n, i = len(tokens), 0
    stack, values, heads = [sort], [], []  # heads: (token index, values start)
    pop, push, append = stack.pop, stack.append, values.append
    try:  # IndexError: `tokens[i]` past the last token
        while stack:
            slot = pop()
            kind = slot[0]
            if kind >= ANNOT:  # these look at the next token before they read
                if i == n or tokens[i] != ")":
                    if kind == REST:
                        push(slot)
                    push(slot[2])
                elif kind == ANNOT:
                    at = heads[-1][0] if slot[3] else i - 1
                    raise AnnotationMissing(slot[1].format(values[-1]), *_position(text, at))
                continue
            tok = tokens[i]
            i += 1
            if kind == SORT:
                if tok != "(":
                    append(slot[2](tok, slot[1]))
                    continue
                if i == n:
                    raise ParseError(f"unexpected end of input, expected {slot[4]}", *_position(text, i))
                head = tokens[i]
                i += 1
                leaf = slot[6].get(head)
                if leaf is not None:
                    make, operands = leaf
                    j = i + len(operands)  # the `)` that ends the form
                    if j < n and tokens[j] == ")":
                        key = (make, *tokens[i:j])
                        node = _LEAVES.get(key)
                        if node is None:
                            args = []
                            for operand in operands:  # an error is at its token
                                i += 1
                                args.append(operand[2](tokens[i - 1], operand[1]))
                            i += 1
                            node = make(*args)
                            if len(_LEAVES) >= _LEAF_BOUND:
                                _LEAVES.clear()
                            _LEAVES[key] = node
                        else:
                            i = j + 1
                        append(node)
                        continue
                form = slot[3].get(head)
                if form is None:
                    raise ValueError(f"unknown {slot[5]} form {bare_atom(head, slot[4])!r}")
                heads.append((i - 1, len(values)))
                stack += form
            elif kind == ATOM:
                append(slot[2](tok, slot[1]))
            elif tok != slot[2]:
                raise ValueError(f"expected {slot[1]}, found {tok!r}")
            elif kind == _CLOSE:
                start = heads.pop()[1]
                args = values[start:]
                del values[start:]
                append(slot[3](*args))
    except ValueError as e:
        raise ParseError(str(e), *_position(text, i - 1)) from None
    except IndexError:
        raise ParseError(f"unexpected end of input, expected {slot[1]}", *_position(text, i)) from None
    if i < n:
        raise ParseError(f"trailing input {tokens[i]!r}", *_position(text, i))
    return values[0]


def bare_atom(tok: str, what: str) -> str:
    """`tok`, unless it is a parenthesis or a string."""
    if tok[0] in '()"':
        raise ValueError(f"expected {what}, found {tok!r}")
    return tok
