"""Type-directed reification and reflection, plus the top-level normalizer.

Reification turns a semantic value back into syntax, eta-expanding at
function types; reflection turns code (typically a fresh variable) into a
semantic value.  At sum types reflection captures the continuation with
`shift` and materializes it in both branches of a residual case, so code
consuming a residual sum is branched over once, at the point the sum is
destructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .control import Residual, reset, ret, shift
from .semantics import (
    Exp,
    SBase,
    SemValue,
    SFun,
    ShapeMismatch,
    SInl,
    SInr,
    SPair,
    SUnit,
    Val,
    eval_term,
)
from .syntax import (
    App,
    Arrow,
    Base,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Lit,
    ObjType,
    Pair,
    Prod,
    Snd,
    Sum,
    Term,
    Unit,
    UnitVal,
    Var,
    infer,
)


@dataclass
class NameSupply:
    """Issues x0, x1, ... deterministically; one per normalization call."""

    counter: int = 0
    prefix: str = "x"

    def fresh(self) -> str:
        name = f"{self.prefix}{self.counter}"
        self.counter += 1
        return name


def reify(ty: ObjType, value: SemValue, names: NameSupply) -> Term:
    """Map a semantic value of type ty back to a term."""
    match ty:
        case Base(name=b):
            if isinstance(value, SBase) and value.base == b:
                payload = value.payload
                if isinstance(payload, Exp):
                    return payload.code
                assert isinstance(payload, Val)
                return Lit(payload.literal, b)
            raise ShapeMismatch(f"expected a {b} value, found {type(value).__name__}")
        case Unit():
            if isinstance(value, SUnit):
                return UnitVal()
            raise ShapeMismatch(f"expected a unit value, found {type(value).__name__}")
        case Arrow(dom=a, cod=b):
            if not isinstance(value, SFun):
                raise ShapeMismatch(f"expected a function value, found {type(value).__name__}")
            x = names.fresh()
            body = reset(
                reflect(a, Var(x), names)
                .bind(value.apply)
                .map(lambda w: reify(b, w, names))
            )
            return Lam(x, a, body)
        case Prod(left=a, right=b):
            if not isinstance(value, SPair):
                raise ShapeMismatch(f"expected a pair value, found {type(value).__name__}")
            return Pair(reify(a, value.first, names), reify(b, value.second, names))
        case Sum(left=a, right=b):
            if isinstance(value, SInl):
                return Inl(reify(a, value.value, names), ty)
            if isinstance(value, SInr):
                return Inr(reify(b, value.value, names), ty)
            raise ShapeMismatch(f"expected a tagged value, found {type(value).__name__}")
    raise TypeError(f"not a type: {ty!r}")


def reflect(ty: ObjType, code: Term, names: NameSupply) -> Residual[SemValue]:
    """Map a term of type ty into the semantic domain.  At sum type this asks
    for the continuation and duplicates it into both branches of a residual
    case on `code`."""
    match ty:
        case Base(name=b):
            return ret(SBase(b, Exp(code)))
        case Unit():
            return ret(SUnit())
        case Arrow(dom=a, cod=b):
            def applied(arg: SemValue) -> Residual[SemValue]:
                return reflect(b, App(code, reify(a, arg, names)), names)

            return ret(SFun(applied))
        case Prod(left=a, right=b):
            return reflect(a, Fst(code), names).bind(
                lambda l: reflect(b, Snd(code), names).map(lambda r: SPair(l, r))
            )
        case Sum(left=a, right=b):
            def split(k: Callable[[SemValue], Term]) -> Term:
                xl = names.fresh()
                left_body = reset(reflect(a, Var(xl), names).map(lambda v: k(SInl(v))))
                xr = names.fresh()
                right_body = reset(reflect(b, Var(xr), names).map(lambda v: k(SInr(v))))
                return Case(code, Lam(xl, a, left_body), Lam(xr, b, right_body))

            return shift(split)
    raise TypeError(f"not a type: {ty!r}")


def norm(t: Term, sig, prims) -> Term:
    """Normalize a closed well-typed term: evaluate it, then reify the result
    at its inferred type.  Output is closed, beta-normal, type-preserving,
    and deterministic (fresh names start at x0)."""
    ty = infer({}, sig, t)
    names = NameSupply()
    comp = eval_term(t, prims, {}, names)
    return reset(comp.map(lambda v: reify(ty, v, names)))
