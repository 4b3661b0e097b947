"""The rational primitives, defined once in the rule table `RULES`, and
everything read from it: the signature and the two semantic environments.

Each row gives an op's type, its fold on two literals and its left and right
unit.  The smart environment folds literal pairs and drops units online; the
naive one residualizes every application unchanged.  A residual `*` or `/`
is a Q value at once; a residual `==` goes back to the normalizer as code
to reflect at Bool, so it branches through a `case`.

Rationals are exact `fractions.Fraction` values: always in lowest terms with
a positive denominator, so structural equality is value equality.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Mapping

from .records import Record
from .semantics import (
    PrimEnv,
    SBase,
    SemValue,
    SInl,
    SInr,
    SUnit,
)
from .syntax import (
    Base,
    Case,
    Inl,
    Inr,
    Lam,
    Lit,
    ObjType,
    PrimApp,
    ShapeMismatch,
    Sum,
    Term,
    Unit,
    UnitVal,
    free_vars,
    validate_type,
)

Rational = Fraction

RAT = Base("Q")
BOOL: ObjType = Sum(Unit(), Unit())


class DivisionByZero(Exception):
    """A literal-by-literal division folded onto a zero divisor."""


def lit(value) -> Lit:
    """A rational literal term; accepts ints and Fractions."""
    return Lit(Fraction(value), "Q")


# ---------------------------------------------------------------------------
# Signatures


class PrimType(Record):
    def __init__(self, args: tuple[ObjType, ...], result: ObjType):
        set_args, set_result = PrimType._setters
        set_args(self, args)
        set_result(self, result)


class PrimSignature(Record):
    """Registered base types (name -> carrier membership predicate) and
    primitive operations (name -> argument/result types)."""

    def __init__(
        self, bases: Mapping[str, Callable[[object], bool]], prims: Mapping[str, PrimType]
    ):
        set_bases, set_prims = PrimSignature._setters
        set_bases(self, bases)
        set_prims(self, prims)
        for name, decl in prims.items():
            for ty in (*decl.args, decl.result):
                validate_type(ty, self)


def _is_rational(v: object) -> bool:
    return isinstance(v, Fraction)


def _div(v: Fraction, w: Fraction) -> Fraction:
    if w == 0:
        raise DivisionByZero(f"{v} / 0")
    return v / w


class PrimRule(Record):
    """One rational primitive: its type, its fold on two literals, and the
    literal its left or right argument may be dropped at (None: no unit
    law).  A unit is an int, so that comparing a literal's Fraction with it
    takes the int fast path of `Fraction.__eq__`."""

    def __init__(
        self,
        type: PrimType,
        fold: Callable[[Fraction, Fraction], object],
        left_unit: int | None,
        right_unit: int | None,
    ):
        set_type, set_fold, set_left_unit, set_right_unit = PrimRule._setters
        set_type(self, type)
        set_fold(self, fold)
        set_left_unit(self, left_unit)
        set_right_unit(self, right_unit)


# No zero-annihilation rule for *: folding 0 * m would drop m's code.
RULES: Mapping[str, PrimRule] = {
    "==": PrimRule(PrimType((RAT, RAT), BOOL), operator.eq, None, None),
    "*": PrimRule(PrimType((RAT, RAT), RAT), operator.mul, 1, 1),
    "/": PrimRule(PrimType((RAT, RAT), RAT), _div, None, 1),
}


def rational_signature() -> PrimSignature:
    """Base Q with the ops of RULES: ==, *, and / (== yields the sum-encoded
    Bool)."""
    return PrimSignature(
        bases={"Q": _is_rational},
        prims={op: rule.type for op, rule in RULES.items()},
    )


# ---------------------------------------------------------------------------
# Semantic environments


def _not_rational(args: tuple[SemValue, ...]) -> ShapeMismatch:
    """The error for the first of `args` that is not a Q value."""
    v = next(v for v in args if type(v) is not SBase or v.base != "Q")
    return ShapeMismatch(f"expected a Q value, found {type(v).__name__}")


def _embed(ty: ObjType, host: object) -> SemValue:
    """A folded host result as a semantic value of the result type: a
    literal at a base type, a tag at Bool."""
    if isinstance(ty, Base):
        return SBase(ty.name, Lit(host, ty.name))
    return SInr(SUnit()) if host else SInl(SUnit())


def _entry(op: str, smart: bool):
    """The semantic entry `(args, names)` of a table primitive.  Smart: two
    literals fold, and a unit literal on its side is dropped.  Otherwise the
    application is residual code.  At a base result type the entry reflects
    it itself, as the `SBase` of that code; at any other (Bool, for ==) it
    returns the request `(result type, code)`, which the normalizer reflects
    with a shift, so a residual == branches through a case.  That request is
    built once per call per pair of operand objects, in the table
    `names.tests`, so the test a shift's continuation meets on both paths is
    one node; a residual `*` or `/` is built anew each time."""
    rule = RULES[op]
    fold, left_unit, right_unit = rule.fold, rule.left_unit, rule.right_unit
    result = rule.type.result
    base = result.name if type(result) is Base else None

    def apply(args: tuple[SemValue, ...], names) -> SemValue | tuple[ObjType, Term]:
        a, b = args
        if type(a) is not SBase or type(b) is not SBase or a.base != "Q" or b.base != "Q":
            raise _not_rational(args)
        pa, pb = a.payload, b.payload
        if smart:
            if type(pa) is Lit:
                if type(pb) is Lit:
                    return _embed(result, fold(pa.value, pb.value))
                if left_unit is not None and pa.value == left_unit:
                    return b
            if right_unit is not None and type(pb) is Lit and pb.value == right_unit:
                return a
        if base is None:  # one request per call and pair of operands
            key = (op, id(pa), id(pb))
            request = names.tests.get(key)
            if request is None:
                request = names.tests[key] = result, PrimApp(op, (pa, pb))
            return request
        return SBase(base, PrimApp(op, (pa, pb)))

    return apply


def smart_prim_env() -> PrimEnv:
    return {op: _entry(op, True) for op in RULES}


def naive_prim_env() -> PrimEnv:
    """No simplification: every application residualizes as code; == still
    reflects at Bool since the branching is structural, not an
    optimization."""
    return {op: _entry(op, False) for op in RULES}


# ---------------------------------------------------------------------------
# Bool helpers (false = inl unit, true = inr unit)


def mk_false() -> Term:
    return Inl(UnitVal(), BOOL)


def mk_true() -> Term:
    return Inr(UnitVal(), BOOL)


def fresh_binder(stem: str, avoid: frozenset[str]) -> str:
    if stem not in avoid:
        return stem
    i = 0
    while f"{stem}{i}" in avoid:
        i += 1
    return f"{stem}{i}"


def mk_if(cond: Term, then_term: Term, else_term: Term) -> Term:
    """Conditionals as case on the Bool sum: the left (false) branch carries
    the else term, the right (true) branch the then term."""
    u = fresh_binder("u", free_vars(else_term))
    w = fresh_binder("w", free_vars(then_term))
    return Case(cond, Lam(u, Unit(), else_term), Lam(w, Unit(), then_term))
