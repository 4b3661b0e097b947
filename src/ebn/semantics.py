"""The residualizing semantic domain.

Semantic values mirror the type structure: sums become tagged values, and
base-type values are either residual code (Exp) or an actual literal (Val).
Functions are records the normalizer's machine (`nbe.py`) applies: a Closure
of a lambda over its environment, or Reflected code of arrow type.  A client
may also build an SFun around a host function that returns a computation in
the `Residual` monad; the machine hands it the continuation as a host
function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Union

from .control import Residual
from .syntax import Lit, ObjType, ShapeMismatch, Term


# ---------------------------------------------------------------------------
# Semantic values


class BaseValue:
    __slots__ = ()


@dataclass(frozen=True)
class Exp(BaseValue):
    """A residual: uninterpreted code of base type."""

    code: Term


@dataclass(frozen=True)
class Val(BaseValue):
    """An actual literal of the base type's carrier.  `term` is the source
    `Lit` it was read from, if any: reification hands that node back, so every
    copy of a literal in a normal form is the one source node.  It takes no
    part in equality."""

    literal: Any
    term: Lit | None = field(default=None, compare=False, repr=False)


class SemValue:
    __slots__ = ()


@dataclass(frozen=True)
class SUnit(SemValue):
    pass


@dataclass(frozen=True)
class SFun(SemValue):
    """A host function from a value to a computation."""

    apply: Callable[[SemValue], Residual[SemValue]]


@dataclass(frozen=True, eq=False)
class Closure(SemValue):
    """The value of `Lam(binder, _, body)` in `env`.  It keeps the primitive
    environment it was made with, so that a closure returned by `eval_term`
    can still be applied by a later `reify`."""

    binder: str
    body: Term
    env: dict[str, SemValue]
    prims: PrimEnv


@dataclass(frozen=True)
class Reflected(SemValue):
    """Code of type `dom -> cod` as a function: applying it reifies the
    argument at `dom` and reflects the application at `cod`."""

    code: Term
    dom: ObjType
    cod: ObjType


@dataclass(frozen=True)
class SPair(SemValue):
    first: SemValue
    second: SemValue


@dataclass(frozen=True)
class SInl(SemValue):
    value: SemValue


@dataclass(frozen=True)
class SInr(SemValue):
    value: SemValue


@dataclass(frozen=True)
class SBase(SemValue):
    base: str
    payload: BaseValue


ValueEnv = Mapping[str, SemValue]

# A primitive's semantic implementation: it takes the tuple of forced
# argument values and the name supply of the enclosing normalization, and
# returns either a value or a request `(type, code)` to reflect residual code
# at its result type (so a residual `==` branches through a case).
PrimImpl = Callable[..., Union[SemValue, tuple[ObjType, Term]]]
PrimEnv = Mapping[str, PrimImpl]


def reify_base(base: str, value: SemValue) -> Term:
    """Read a value of a base type back as code: a residual is its code, a
    literal read from the source is its source `Lit`, and any other literal
    (a folded one) becomes a new `Lit`."""
    if type(value) is SBase and value.base == base:
        payload = value.payload
        if type(payload) is Exp:
            return payload.code
        return payload.term or Lit(payload.literal, base)
    raise ShapeMismatch(f"expected a {base} value, found {type(value).__name__}")
