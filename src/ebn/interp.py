"""Reference big-step interpreter with concrete carriers.

This is the independent oracle for semantic-preservation testing: it depends
on the term syntax only, never on the semantic domain or the normalizer.
Evaluation is call-by-value; primitive meanings are exact rational
arithmetic, with == yielding the sum-encoded Bool (inr unit for true).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .records import Record, _set
from .syntax import (
    App,
    Case,
    Fst,
    Inl,
    Lam,
    Lit,
    Pair,
    PrimApp,
    ShapeMismatch,
    Snd,
    Term,
    UnitVal,
    Var,
    children,
    format_rational,
)
from .writer import write


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
    """The value of `lam` in `env`.  It keeps `env` itself, not a copy: `run`
    never changes an env dict once made.  It equals only itself."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, lam: Lam, env: dict[str, ConcreteValue]):
        _set(self, "lam", lam)
        _set(self, "env", env)


def _rat(v: ConcreteValue) -> Fraction:
    if not isinstance(v, CRat):
        raise ShapeMismatch(f"expected a rational, found {type(v).__name__}")
    return v.value


def run(t: Term, env: Mapping[str, ConcreteValue] | None = None) -> ConcreteValue:
    """Call-by-value evaluation; env must cover the free variables.  One loop
    over a stack of frames `(term, operand values so far, env)`.  A frame
    evaluates its operands left to right, then makes its value, or applies a
    closure by running the closure's body in its place.  A case's operands
    are its scrutinee and then the branch that the scrutinee picks."""
    stack = [(t, [], {} if env is None else dict(env))]
    while True:
        t, vals, env = stack[-1]
        cls = type(t)
        if cls is Var:
            x = t.name
            if x not in env:
                raise ShapeMismatch(f"unbound variable {x!r}")
            v = env[x]
        elif cls is Lit:
            if t.base != "Q":
                raise ShapeMismatch(f"no concrete carrier for base {t.base!r}")
            v = CRat(t.value)
        elif cls is Lam:
            v = CFun(t, env)
        elif cls is UnitVal:
            v = CUnit()
        else:
            if cls is Case and vals:
                s = vals[0]
                if not isinstance(s, (CInl, CInr)):
                    raise ShapeMismatch(f"cased a non-sum {type(s).__name__}")
                ops = (t.scrutinee, t.left if type(s) is CInl else t.right)
            else:
                ops = (t.scrutinee,) if cls is Case else children(t)
            if len(vals) < len(ops):
                stack.append((ops[len(vals)], [], env))
                continue
            if cls is App or cls is Case:
                f, a = vals if cls is App else (vals[1], vals[0].value)
                if not isinstance(f, CFun):
                    what = f"applied a non-function {type(f).__name__}"
                    raise ShapeMismatch(what if cls is App else "case branch is not a function")
                stack[-1] = (f.lam.body, [], {**f.env, f.lam.binder: a})
                continue
            if cls is PrimApp:
                c = t.name
                if c not in ("==", "*", "/"):
                    raise ShapeMismatch(f"no concrete meaning for primitive {c!r}")
                x, y = _rat(vals[0]), _rat(vals[1])
                if c == "/" and y == 0:
                    raise RuntimeDivisionByZero(f"{x} / 0")
                if c == "==":
                    v = CInr(CUnit()) if x == y else CInl(CUnit())
                else:
                    v = CRat(x * y if c == "*" else x / y)
            elif cls is Pair:
                v = CPair(*vals)
            elif cls is Fst or cls is Snd:
                if not isinstance(vals[0], CPair):
                    raise ShapeMismatch(f"projected a non-pair {type(vals[0]).__name__}")
                v = vals[0].first if cls is Fst else vals[0].second
            else:
                v = (CInl if cls is Inl else CInr)(vals[0])
        stack.pop()
        if not stack:
            return v
        stack[-1][1].append(v)


# Each value's pieces for `writer.write`, last first, or a leaf's text.
_FORMAT = {
    CUnit: lambda v: "unit",
    CRat: lambda v: format_rational(v.value),
    CPair: lambda v: (">", v.second, ", ", v.first, "<"),
    CInl: lambda v: (v.value, "inl "),
    CInr: lambda v: (v.value, "inr "),
    CFun: lambda v: "<fun>",
}


def format_value(v: ConcreteValue) -> str:
    return write(v, _FORMAT)
