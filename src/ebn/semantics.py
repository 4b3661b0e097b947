"""The residualizing semantic domain and the monadic evaluator.

Semantic values mirror the type structure: functions become host closures
returning computations, sums become tagged values, and base-type values are
either residual code (Exp) or an actual literal (Val).  Evaluation maps
well-typed terms into this domain; all control effects live in the Residual
monad.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .control import Residual, ret
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
    PrimApp,
    Prod,
    ShapeMismatch,
    Snd,
    Sum,
    Term,
    Unit,
    UnboundVariable,
    UnitVal,
    UnknownPrimitive,
    Var,
)


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
    """An actual literal of the base type's carrier."""

    literal: Any


class SemValue:
    __slots__ = ()


@dataclass(frozen=True)
class SUnit(SemValue):
    pass


@dataclass(frozen=True)
class SFun(SemValue):
    apply: Callable[[SemValue], Residual[SemValue]]


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


ValueEnv = Mapping[str, Residual[SemValue]]

# A primitive's semantic implementation; the name supply is the one threaded
# through the enclosing normalization, so residual branching can draw fresh
# binders without capture.
PrimImpl = Callable[..., Residual[SemValue]]
PrimEnv = Mapping[str, PrimImpl]


def apply_fun(f: SemValue, arg: SemValue) -> Residual[SemValue]:
    if not isinstance(f, SFun):
        raise ShapeMismatch(f"expected a function value, found {type(f).__name__}")
    return f.apply(arg)


def shape_matches(v: SemValue, ty: ObjType) -> bool:
    """Debug-mode auditor: does the value's shape agree with the type?
    Function bodies are opaque and vacuously pass."""
    match ty:
        case Base(name=n):
            return isinstance(v, SBase) and v.base == n
        case Unit():
            return isinstance(v, SUnit)
        case Arrow():
            return isinstance(v, SFun)
        case Prod(left=a, right=b):
            return (
                isinstance(v, SPair)
                and shape_matches(v.first, a)
                and shape_matches(v.second, b)
            )
        case Sum(left=a, right=b):
            if isinstance(v, SInl):
                return shape_matches(v.value, a)
            if isinstance(v, SInr):
                return shape_matches(v.value, b)
            return False
    raise TypeError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Evaluation


def eval_term(t: Term, prims: PrimEnv, env: ValueEnv, names) -> Residual[SemValue]:
    """Evaluate a well-typed term clause by clause.  Literals become Val
    payloads, primitive arguments are forced left to right before dispatch,
    lambdas close over an environment of computations, and case evaluates
    only the branch selected by the scrutinee's tag."""
    match t:
        case Lit(value=v, base=b):
            return ret(SBase(b, Val(v)))
        case PrimApp(name=c, args=args):
            if c not in prims:
                raise UnknownPrimitive(f"no semantic entry for primitive {c!r}")
            impl = prims[c]

            def force(i: int, acc: tuple[SemValue, ...]) -> Residual[SemValue]:
                if i == len(args):
                    return impl(acc, names)
                return eval_term(args[i], prims, env, names).bind(
                    lambda v, i=i, acc=acc: force(i + 1, acc + (v,))
                )

            return force(0, ())
        case UnitVal():
            return ret(SUnit())
        case Var(name=x):
            if x not in env:
                raise UnboundVariable(f"variable {x!r} missing from the value environment")
            return env[x]
        case Lam(binder=x, body=n):
            def closure(y: SemValue) -> Residual[SemValue]:
                inner = dict(env)
                inner[x] = ret(y)
                return eval_term(n, prims, inner, names)

            return ret(SFun(closure))
        case App(fun=l, arg=m):
            return eval_term(l, prims, env, names).bind(
                lambda f: eval_term(m, prims, env, names).bind(
                    lambda a: apply_fun(f, a)
                )
            )
        case Pair(first=m, second=n):
            return eval_term(m, prims, env, names).bind(
                lambda a: eval_term(n, prims, env, names).map(
                    lambda b: SPair(a, b)
                )
            )
        case Fst(arg=l):
            return eval_term(l, prims, env, names).map(_first)
        case Snd(arg=l):
            return eval_term(l, prims, env, names).map(_second)
        case Inl(arg=m):
            return eval_term(m, prims, env, names).map(SInl)
        case Inr(arg=m):
            return eval_term(m, prims, env, names).map(SInr)
        case Case(scrutinee=l, left=m, right=n):
            def dispatch(s: SemValue) -> Residual[SemValue]:
                match s:
                    case SInl(value=v):
                        branch = m
                    case SInr(value=v):
                        branch = n
                    case _:
                        raise ShapeMismatch(
                            f"case scrutinee is not a tagged value: {type(s).__name__}"
                        )
                return eval_term(branch, prims, env, names).bind(
                    lambda f: apply_fun(f, v)
                )

            return eval_term(l, prims, env, names).bind(dispatch)
    raise TypeError(f"not a term: {t!r}")


def _first(v: SemValue) -> SemValue:
    if not isinstance(v, SPair):
        raise ShapeMismatch(f"expected a pair value, found {type(v).__name__}")
    return v.first


def _second(v: SemValue) -> SemValue:
    if not isinstance(v, SPair):
        raise ShapeMismatch(f"expected a pair value, found {type(v).__name__}")
    return v.second
