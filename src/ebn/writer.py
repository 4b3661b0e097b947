"""The one writer behind every printer: terms and types as s-expressions or
surface syntax, a record's repr, chars terms and concrete values.

The writer prints in one pass.  It keeps the span of text that each node's
first occurrence wrote, and a node met again writes that span, joined once,
so a normal form that shares subterms makes the pieces of each distinct
node at most once, and its text is that of the tree it stands for.
"""

from __future__ import annotations

from typing import Any, Callable


def write(root: Any, parts: dict[type, Callable]) -> str:
    """The text of `root`, in one pass.  `parts[cls](u)` gives a node `u` of
    class `cls` either as its whole text, a string, or as its pieces last
    first: strings, and nodes written in turn.  A parent puts any
    parentheses around a child, so a node's text is the same wherever it
    occurs, and a normal form may share a node among many parents.  Pieces
    pop off one stack onto one list, joined once at the end, so time is
    linear in the bytes written and Python stack use is constant.

    `known` keeps, by id, the text of each leaf met so far, and the span of
    `out` that each other node's first occurrence wrote, as the one int
    `start * _SPAN + end`: it holds `start` until the node's id, pushed
    under its pieces, marks the end.  A node met a second time joins its
    span once into its text, and every later occurrence writes that text,
    so each node's parts are made at most once per call.  A parent may
    write a child's pieces among its own, as a case writes its branch
    lambdas in `syntax._PRINT`; such a child is no node of the pass there,
    and its own children are."""
    out: list[str] = []
    known: dict[int, Any] = {}
    stack = [root]
    pop, write = stack.pop, out.append
    try:  # KeyError: `u` has no parts, or is an int
        while stack:
            u = pop()
            cls = type(u)
            if cls is str:
                write(u)
            elif cls is int:  # the end of the first text of the node with id `u`
                known[u] = known[u] * _SPAN + len(out)
            else:
                k = id(u)
                text = known.get(k)
                if text is None:
                    pieces = parts[cls](u)
                    if type(pieces) is str:
                        known[k] = pieces
                        write(pieces)
                    else:
                        known[k] = len(out)
                        stack.append(k)
                        stack += pieces
                else:
                    if type(text) is int:
                        start, end = divmod(text, _SPAN)
                        known[k] = text = "".join(out[start:end])
                    write(text)
    except KeyError:
        raise TypeError(f"cannot write {u!r}") from None
    del known  # before the join allocates: it lowers the peak
    return "".join(out)


# `write` packs a span of its list of pieces into one int, smaller than a
# pair of them; the list is far shorter than `_SPAN`.
_SPAN = 1 << 40
