"""Reference big-step interpreter with concrete carriers.

This is the independent oracle for semantic-preservation testing: it depends
on the term syntax only, never on the semantic domain or the normalizer.
Evaluation is call-by-value; primitive meanings are exact rational
arithmetic, with == yielding the sum-encoded Bool (inr unit for true).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .syntax import (
    App,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Lit,
    Pair,
    PrimApp,
    Record,
    ShapeMismatch,
    Snd,
    Term,
    UnitVal,
    Var,
    format_rational,
    _set,
)


class RuntimeDivisionByZero(Exception):
    pass


class ConcreteValue(Record):
    pass


class CUnit(ConcreteValue):
    pass


class CRat(ConcreteValue):
    def __init__(self, value: Fraction):
        _set(self, "value", value)


class CPair(ConcreteValue):
    def __init__(self, first: ConcreteValue, second: ConcreteValue):
        _set(self, "first", first)
        _set(self, "second", second)


class CInl(ConcreteValue):
    def __init__(self, value: ConcreteValue):
        _set(self, "value", value)


class CInr(ConcreteValue):
    def __init__(self, value: ConcreteValue):
        _set(self, "value", value)


class CFun(ConcreteValue):
    def __init__(self, apply: Callable[[ConcreteValue], ConcreteValue]):
        _set(self, "apply", apply)


def _rat(v: ConcreteValue) -> Fraction:
    if not isinstance(v, CRat):
        raise ShapeMismatch(f"expected a rational, found {type(v).__name__}")
    return v.value


def run(t: Term, env: Mapping[str, ConcreteValue] | None = None) -> ConcreteValue:
    """Call-by-value evaluation; env must cover the free variables."""
    env = {} if env is None else env
    match t:
        case Lit(value=v, base=b):
            if b != "Q":
                raise ShapeMismatch(f"no concrete carrier for base {b!r}")
            return CRat(v)
        case PrimApp(name=c, args=args):
            vals = [run(a, env) for a in args]
            match c:
                case "==":
                    x, y = _rat(vals[0]), _rat(vals[1])
                    return CInr(CUnit()) if x == y else CInl(CUnit())
                case "*":
                    return CRat(_rat(vals[0]) * _rat(vals[1]))
                case "/":
                    x, y = _rat(vals[0]), _rat(vals[1])
                    if y == 0:
                        raise RuntimeDivisionByZero(f"{x} / 0")
                    return CRat(x / y)
            raise ShapeMismatch(f"no concrete meaning for primitive {c!r}")
        case UnitVal():
            return CUnit()
        case Var(name=x):
            if x not in env:
                raise ShapeMismatch(f"unbound variable {x!r}")
            return env[x]
        case Lam(binder=x, body=n):
            def closure(v: ConcreteValue, _env=dict(env)) -> ConcreteValue:
                inner = dict(_env)
                inner[x] = v
                return run(n, inner)

            return CFun(closure)
        case App(fun=l, arg=m):
            f = run(l, env)
            a = run(m, env)
            if not isinstance(f, CFun):
                raise ShapeMismatch(f"applied a non-function {type(f).__name__}")
            return f.apply(a)
        case Pair(first=m, second=n):
            return CPair(run(m, env), run(n, env))
        case Fst(arg=l):
            v = run(l, env)
            if not isinstance(v, CPair):
                raise ShapeMismatch(f"projected a non-pair {type(v).__name__}")
            return v.first
        case Snd(arg=l):
            v = run(l, env)
            if not isinstance(v, CPair):
                raise ShapeMismatch(f"projected a non-pair {type(v).__name__}")
            return v.second
        case Inl(arg=m):
            return CInl(run(m, env))
        case Inr(arg=m):
            return CInr(run(m, env))
        case Case(scrutinee=l, left=m, right=n):
            s = run(l, env)
            match s:
                case CInl(value=v):
                    branch = m
                case CInr(value=v):
                    branch = n
                case _:
                    raise ShapeMismatch(f"cased a non-sum {type(s).__name__}")
            f = run(branch, env)
            if not isinstance(f, CFun):
                raise ShapeMismatch("case branch is not a function")
            return f.apply(v)
    raise TypeError(f"not a term: {t!r}")


def format_value(v: ConcreteValue) -> str:
    match v:
        case CUnit():
            return "unit"
        case CRat(value=q):
            return format_rational(q)
        case CPair(first=a, second=b):
            return f"<{format_value(a)}, {format_value(b)}>"
        case CInl(value=a):
            return f"inl {format_value(a)}"
        case CInr(value=a):
            return f"inr {format_value(a)}"
        case CFun():
            return "<fun>"
    raise TypeError(f"not a value: {v!r}")
