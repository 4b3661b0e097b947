"""The residualizing semantic domain.

Semantic values mirror the type structure: sums become tagged values, and a
base-type value carries a Term: a `Lit` is a known literal, which the smart
primitives fold, and any other term is residual code.  Reflection and
reification at a base type are the identity on that term, so a source
literal reifies to its own node.
Functions are records the normalizer's machine (`nbe.py`) applies: a Closure
of a lambda over its environment, or Reflected code of arrow type.  A client
may also build an SFun around a host function from value to value, which the
machine calls in place and whose result it returns to the current frame.

Semantic values are records (`records.Record`), immutable like terms:
assigning or deleting any attribute raises AttributeError.  A Closure
compares by identity.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Union

from .records import Record, _set
from .syntax import Lit, ObjType, Term


# ---------------------------------------------------------------------------
# Semantic values


class SemValue(Record):
    pass


class SUnit(SemValue):
    pass


class SFun(SemValue):
    """A host function from a value to a value.  It cannot capture the
    continuation: applying it is one call, however deeply applications nest."""

    def __init__(self, apply: Callable[[SemValue], Any]):
        _set(self, "apply", apply)


class Closure(SemValue):
    """The value of `Lam(binder, _, body)` in `env`.  It keeps the primitive
    environment it was made with, so that a closure returned by `eval_term`
    can still be applied by a later `reify`.  It equals only itself."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, binder: str, body: Term, env: dict[str, SemValue], prims: PrimEnv):
        _set(self, "binder", binder)
        _set(self, "body", body)
        _set(self, "env", env)
        _set(self, "prims", prims)


class Reflected(SemValue):
    """Code of type `dom -> cod` as a function: applying it reifies the
    argument at `dom` and reflects the application at `cod`."""

    def __init__(self, code: Term, dom: ObjType, cod: ObjType):
        _set(self, "code", code)
        _set(self, "dom", dom)
        _set(self, "cod", cod)


class SPair(SemValue):
    def __init__(self, first: SemValue, second: SemValue):
        _set(self, "first", first)
        _set(self, "second", second)


class SInl(SemValue):
    def __init__(self, value: SemValue):
        _set(self, "value", value)


class SInr(SemValue):
    def __init__(self, value: SemValue):
        _set(self, "value", value)


class SBase(SemValue):
    def __init__(self, base: str, payload: Term):
        _set(self, "base", base)
        _set(self, "payload", payload)


ValueEnv = Mapping[str, SemValue]

# A primitive's semantic implementation: it takes the tuple of forced
# argument values and the name supply of the enclosing normalization, and
# returns either a value or a request `(type, code)` to reflect residual code
# at its result type (so a residual `==` branches through a case).
PrimImpl = Callable[..., Union[SemValue, tuple[ObjType, Term]]]
PrimEnv = Mapping[str, PrimImpl]


Val = Lit  # the class of a known literal's payload, by its earlier name
