"""The immutable record base of every value class in the package: types,
terms, semantic values, concrete values, primitive tables and chars terms."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable

from .writer import write


class RecordType(type):
    """The class of record classes.  The parameters of a record class's own
    `__init__` are its fields: they become its `__slots__` and its
    `__match_args__`, which equality, hashing, repr and pickling read.  A
    class without an `__init__` of its own adds no slots.

    Each slot's `__set__`, bound once, goes into the class's `_setters`, in
    `__match_args__` order.  The `__init__` stores each field with its
    setter, `Cls._setters[i](self, value)`, past the `__setattr__` that makes
    records immutable: a bound setter writes the slot at once, where
    `object.__setattr__` looks the name up on every call."""

    def __new__(mcls, name: str, bases: tuple, ns: dict):
        init = ns.get("__init__")
        fields = init.__code__.co_varnames[1 : init.__code__.co_argcount] if init else ()
        ns.setdefault("__slots__", fields)
        if init is not None:
            ns["__match_args__"] = fields
        cls = super().__new__(mcls, name, bases, ns)
        if init is not None:
            cls._setters = tuple([vars(cls)[f].__set__ for f in fields])
        return cls


class Record(metaclass=RecordType):
    """An immutable record.  A subclass names its fields once, as the
    parameters of its `__init__`; they become its slots, and the `__init__`,
    which may validate them, stores each through its class's `_setters`.
    Two records are equal when they are of one class and their fields are
    equal, and then they hash alike; `repr` spells the class and its fields
    by keyword, through the writer; deepcopy rebuilds each distinct node
    once; pickle writes its `table` of nodes.
    Hash, deepcopy and pickle share one `fold`; `==` walks its own stack of
    pairs and `repr` the writer's.  Each goes into tuple fields and into
    fields whose class keeps its method, and takes any other field as a
    plain value, so a record may nest past the recursion limit; each visits
    a node that many parents share once (`==` each pair of nodes), so a
    shared normal form costs its DAG, not the tree it stands for.  `copy`
    copies fields.  Types override equality and hashing: they are interned
    (see `syntax.ObjType`), so they compare and hash by identity.
    Assigning or deleting an attribute raises AttributeError, so a node that
    a normal form shares among many parents cannot be changed through one of
    them.  No code is generated per class, which keeps `import ebn` cheap:
    every `__init__` is written by hand, and `RecordType` only binds setters."""

    __match_args__: tuple[str, ...] = ()
    _setters: tuple[Callable[[Any, Any], None], ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        eq, stack, seen = Record.__eq__, [(self, other)], set()
        while stack:
            a, b = stack.pop()
            cls = type(a)
            if cls.__eq__ is not eq:  # an element of a tuple field
                if a is not b and a != b:
                    return False
            elif cls is not type(b):
                return False
            elif (pair := (id(a), id(b))) not in seen:  # each pair once
                seen.add(pair)
                for f in cls.__match_args__:
                    x, y = getattr(a, f), getattr(b, f)
                    if x is not y:
                        t = type(x)
                        if t.__eq__ is eq:
                            stack.append((x, y))
                        elif t is tuple and type(y) is tuple and len(x) == len(y):
                            stack += zip(x, y)
                        elif x != y:
                            return False
        return True

    def __hash__(self) -> int:
        # its class and its parts' hashes, so equal records hash alike
        return fold(self, "__hash__", hash, lambda u, hs: hash((type(u), *hs)), {})

    def __repr__(self) -> str:
        return write(self, _REPR)

    def __reduce__(self):
        return untable, (table(self),)

    def __copy__(self):
        return type(self)(*[getattr(self, f) for f in self.__match_args__])

    def __deepcopy__(self, memo: dict):
        # each distinct node is rebuilt once into `memo`, by the original's
        # id, where `deepcopy` of a part, or a later call, finds it
        from copy import deepcopy  # imported by whoever calls this
        kept = memo.setdefault(id(memo), [])

        def rebuild(u, parts):
            kept.append(u)  # as `deepcopy` keeps each node it copies alive
            return tuple(parts) if type(u) is tuple else type(u)(*parts)

        return fold(self, "__deepcopy__", lambda v: deepcopy(v, memo), rebuild, memo)


_POST = object()  # on `fold`'s stack, over a node that waits for its parts


def fold(root: Any, method: str, leaf: Callable, node: Callable, done: dict) -> Any:
    """`root` folded in post-order, each distinct value once: a node `u`, a
    tuple or a record whose class keeps Record's own `method`, gives
    `node(u, [its parts' results])`, any other value `v` gives `leaf(v)`.
    Each result goes into `done` by the value's id, and a value already
    there is not folded again.  One loop, so a record may nest past the
    recursion limit."""
    own, stack = getattr(Record, method), [root]
    while stack:
        u = stack.pop()
        if u is _POST:  # a node and its parts, each of which is folded
            parts, u = stack.pop(), stack.pop()
            done[id(u)] = node(u, [done[id(v)] for v in parts])
        elif id(u) not in done:
            cls = type(u)
            if cls is tuple or getattr(cls, method, None) is own:
                parts = u if cls is tuple else [getattr(u, f) for f in cls.__match_args__]
                stack += (u, parts, _POST)
                stack += parts
            else:
                done[id(u)] = leaf(u)
    return done[id(root)]


def table(root: Record) -> list[tuple]:
    """The distinct values in `root` as rows in post-order, for pickle: a
    record or tuple is `(its class, *row numbers of its parts)`, any other
    value `v` is `(None, v)`; a node met again is one row, so a DAG stays one."""
    rows: list[tuple] = []
    add = lambda row: rows.append(row) or len(rows) - 1  # its row number
    fold(root, "__reduce__", lambda v: add((None, v)), lambda u, parts: add((type(u), *parts)), {})
    return rows


def untable(rows: list[tuple]) -> Record:
    """The record whose `table` is `rows`, rebuilt row by row through each
    class in one loop, so a type comes back as its interned node."""
    nodes: list = []
    for cls, *args in rows:
        if cls is None:
            nodes.append(args[0])
        else:
            parts = [nodes[i] for i in args]
            nodes.append(tuple(parts) if cls is tuple else cls(*parts))
    return nodes[-1]


def itself(node: Record, memo: dict) -> Record:
    """`__deepcopy__` of a type, a term or a chars term: the node itself,
    without a walk into its fields, so at any depth.  It assumes that their
    fields are immutable all the way down: names, `Fraction` literals, tuples
    of nodes and interned types."""
    return node


def _spell(u: Record) -> Any:
    """`Cls(field=value, ...)` last first, or its whole text when no field
    holds a record: a record, alone or in a tuple field, is written in turn;
    any other value's repr joins the piece beside it."""
    pieces, text = [], f"{type(u).__qualname__}("
    for i, f in enumerate(u.__match_args__):
        v = getattr(u, f)
        text += f", {f}=" if i else f"{f}="
        if isinstance(v, Record):
            pieces += (text, v)
            text = ""
        elif type(v) is tuple:
            text += "("
            for j, x in enumerate(v):
                if j:
                    text += ", "
                if isinstance(x, Record):
                    pieces += (text, x)
                    text = ""
                else:
                    text += repr(x)
            text += ",)" if len(v) == 1 else ")"
        else:
            text += repr(v)
    if not pieces:
        return text + ")"
    pieces.append(text + ")")
    return pieces[::-1]


# Every record as its constructor call, by keyword.
_REPR: dict[type, Callable] = defaultdict(lambda: _spell)
