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
    class without an `__init__` of its own adds no slots."""

    def __new__(mcls, name: str, bases: tuple, ns: dict):
        init = ns.get("__init__")
        fields = init.__code__.co_varnames[1 : init.__code__.co_argcount] if init else ()
        ns.setdefault("__slots__", fields)
        if init is not None:
            ns["__match_args__"] = fields
        return super().__new__(mcls, name, bases, ns)


# A record's `__init__` writes each field with `_set(self, name, value)`, past
# the `__setattr__` that makes records immutable.
_set = object.__setattr__


class Record(metaclass=RecordType):
    """An immutable record.  A subclass names its fields once, as the
    parameters of its `__init__`; they become its slots, and the `__init__`
    stores each with `_set`.  Two records are equal when they are of one
    class and their fields are equal, and then they hash alike; `repr` spells
    the class and its fields by keyword, through the writer; pickle writes
    its table of nodes (`tables.py`); deepcopy rebuilds each distinct node
    once.  All five walk an explicit stack into tuple fields and into fields
    whose class keeps them, so a record may nest past the recursion limit,
    and visit a node that many parents share once (`==` each pair of
    nodes), so a shared normal form costs its DAG, not the tree it stands
    for; any other field (a Closure or a type, say) is a plain value, and
    `copy` copies fields.  Types override equality and hashing: they are
    interned (see `syntax.ObjType`), so they compare and hash by identity.
    Assigning or deleting an attribute raises AttributeError, so a node that
    a normal form shares among many parents cannot be changed through one of
    them.  No code is generated per class, which keeps `import ebn` cheap."""

    __match_args__: tuple[str, ...] = ()

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
        # Each distinct record or tuple once, after those in its fields: it
        # hashes as its class and its fields, where each of those counts as
        # its hash, so records that are equal hash alike whatever they share.
        own, hashes, stack = Record.__hash__, {}, [self]
        while stack:
            u = stack.pop()
            if type(u) is list:  # [node, its fields], whose nodes are hashed
                u, fields = u
                hashes[id(u)] = hash((type(u), *[hashes.get(id(v), v) for v in fields]))
            elif id(u) not in hashes:
                fields = u if type(u) is tuple else [getattr(u, f) for f in type(u).__match_args__]
                stack.append([u, fields])
                stack += [v for v in fields if type(v).__hash__ is own or type(v) is tuple]
        return hashes[id(self)]

    def __repr__(self) -> str:
        return write(self, _REPR)

    def __reduce__(self):
        from .tables import table, untable  # compiled on the first pickle only
        return untable, (table(self),)

    def __copy__(self):
        return type(self)(*[getattr(self, f) for f in self.__match_args__])

    def __deepcopy__(self, memo: dict):
        # Each distinct record whose class keeps this method, alone or in a
        # tuple field, is rebuilt once, after those in its fields, into `memo`,
        # where `deepcopy` of a field finds it; it takes any other field whole.
        from copy import deepcopy  # imported by whoever calls this
        own, kept, stack = Record.__deepcopy__, memo.setdefault(id(memo), []), [self]
        while stack:
            u = stack.pop()
            if type(u) is list:  # [node, its fields], whose nodes are copied
                u, fields = u
                memo[id(u)] = type(u)(*[deepcopy(v, memo) for v in fields])
                kept.append(u)  # as `deepcopy` keeps each node it copies alive
            elif id(u) not in memo:
                fields = [getattr(u, f) for f in type(u).__match_args__]
                stack.append([u, fields])
                parts = [x for v in fields for x in (v if type(v) is tuple else (v,))]
                stack += [x for x in parts if getattr(type(x), "__deepcopy__", None) is own]
        return memo[id(self)]


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
