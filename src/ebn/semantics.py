"""The residualizing semantic domain.

Semantic values mirror the type structure: sums become tagged values, and a
base-type value carries a Term: a `Lit` is a known literal, which the smart
primitives fold, and any other term is residual code.  Reflection and
reification at a base type are the identity on that term, so a source
literal reifies to its own node.
Functions are records the normalizer's machine (`nbe.py`) applies: a Closure,
a lambda and its environment, or Reflected code of arrow type.

Semantic values are records (`records.Record`), immutable like terms:
assigning or deleting any attribute raises AttributeError.  A Closure
compares by identity.
"""

from __future__ import annotations

from typing import Callable, Mapping, Union

from .records import Record
from .syntax import Lam, Lit, ObjType, Term


# ---------------------------------------------------------------------------
# Semantic values


class SemValue(Record):
    pass


class SUnit(SemValue):
    pass


class Closure(SemValue):
    """A `Lam` and the environment it was evaluated in (Landin, 1964), which
    binds the primitives too, so the body calls those the closure was made
    with, even in a later `reify`.  It equals only itself."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, lam: Lam, env: dict):
        set_lam, set_env = Closure._setters
        set_lam(self, lam)
        set_env(self, env)


class Reflected(SemValue):
    """Code of type `dom -> cod` as a function: applying it reifies the
    argument at `dom` and reflects the application at `cod`."""

    def __init__(self, code: Term, dom: ObjType, cod: ObjType):
        set_code, set_dom, set_cod = Reflected._setters
        set_code(self, code)
        set_dom(self, dom)
        set_cod(self, cod)


class SPair(SemValue):
    def __init__(self, first: SemValue, second: SemValue):
        set_first, set_second = SPair._setters
        set_first(self, first)
        set_second(self, second)


class SInl(SemValue):
    def __init__(self, value: SemValue):
        SInl._setters[0](self, value)


class SInr(SemValue):
    def __init__(self, value: SemValue):
        SInr._setters[0](self, value)


class SBase(SemValue):
    def __init__(self, base: str, payload: Term):
        set_base, set_payload = SBase._setters
        set_base(self, base)
        set_payload(self, payload)


# Shared values tagged over unit: a shift's unit-side payload, a folded `==`.
UNIT = SUnit()
INL_UNIT = SInl(UNIT)
INR_UNIT = SInr(UNIT)

# A primitive's semantic implementation, an entry of a `PrimEnv`, which the
# normalizer binds in its environment: it takes the tuple of forced argument
# values and the name supply of the enclosing normalization, and returns
# either a value or a request `(type, code)`, which the normalizer reflects
# at that type.  The table's entries (`primitives.py`) return a residual `*`
# or `/` as its `SBase`, and a residual `==` as a request at Bool, so it
# branches through a case; any entry may return a request at any type.
PrimImpl = Callable[..., Union[SemValue, tuple[ObjType, Term]]]
PrimEnv = Mapping[str, PrimImpl]


Val = Lit  # the class of a known literal's payload, by its earlier name
