"""The residualizing semantic domain.

Semantic values mirror the type structure: sums become tagged values, and
base-type values carry either residual code, the Term itself, or a literal
(Val): reflection at a base type is the identity on code.
Functions are records the normalizer's machine (`nbe.py`) applies: a Closure
of a lambda over its environment, or Reflected code of arrow type.  A client
may also build an SFun around a host function from value to value, which the
machine calls in place and whose result it returns to the current frame.

Semantic values are records (`syntax.Record`), immutable like terms:
assigning or deleting any attribute raises AttributeError.  A Closure
compares by identity; a Val's source `term` takes no part in equality.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Union

from .syntax import Lit, ObjType, Record, ShapeMismatch, Term, _set


# ---------------------------------------------------------------------------
# Semantic values


class Val(Record):
    """An actual literal of the base type's carrier.  `term` is the source
    `Lit` it was read from, if any: reification hands that node back, so every
    copy of a literal in a normal form is the one source node.  It takes no
    part in equality, hashing or repr."""

    _fields = ("literal",)

    def __init__(self, literal: Any, term: Lit | None = None):
        _set(self, "literal", literal)
        _set(self, "term", term)


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
    def __init__(self, base: str, payload: Term | Val):
        _set(self, "base", base)
        _set(self, "payload", payload)


ValueEnv = Mapping[str, SemValue]

# A primitive's semantic implementation: it takes the tuple of forced
# argument values and the name supply of the enclosing normalization, and
# returns either a value or a request `(type, code)` to reflect residual code
# at its result type (so a residual `==` branches through a case).
PrimImpl = Callable[..., Union[SemValue, tuple[ObjType, Term]]]
PrimEnv = Mapping[str, PrimImpl]


def base_code(base: str, payload: Term | Val) -> Term:
    """Read the payload of a base value back as code: residual code is
    itself, a literal read from the source is its source `Lit`, and any other
    literal (a folded one) becomes a new `Lit`."""
    if type(payload) is Val:
        return payload.term or Lit(payload.literal, base)
    return payload


def reify_base(base: str, value: SemValue) -> Term:
    """Read a value of a base type back as code, after checking its shape."""
    if type(value) is SBase and value.base == base:
        return base_code(base, value.payload)
    raise ShapeMismatch(f"expected a {base} value, found {type(value).__name__}")
