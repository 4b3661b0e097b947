"""The rational primitives, defined once in the rule table `RULES`, and
everything read from it: the signature and the two semantic environments.

Each row gives an op's type, its fold on two literals and its left and right
unit.  The smart environment folds literal pairs and drops units online; the
naive one residualizes every application unchanged.  Both reflect residual
code at the op's result type, so a residual `==` branches through a `case`.

Rationals are exact `fractions.Fraction` values: always in lowest terms with
a positive denominator, so structural equality is value equality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping

from .control import Residual, ret
from .nbe import NameSupply, reflect, reify
from .semantics import (
    BaseValue,
    PrimEnv,
    SBase,
    SemValue,
    SInl,
    SInr,
    SUnit,
    Val,
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

_ONE = Fraction(1)


class DivisionByZero(Exception):
    """A literal-by-literal division folded onto a zero divisor."""


def lit(value) -> Lit:
    """A rational literal term; accepts ints and Fractions."""
    return Lit(Fraction(value), "Q")


# ---------------------------------------------------------------------------
# Signatures


@dataclass(frozen=True)
class PrimType:
    args: tuple[ObjType, ...]
    result: ObjType


@dataclass(frozen=True)
class PrimSignature:
    """Registered base types (name -> carrier membership predicate) and
    primitive operations (name -> argument/result types)."""

    bases: Mapping[str, Callable[[object], bool]]
    prims: Mapping[str, PrimType]

    def __post_init__(self):
        for name, decl in self.prims.items():
            for ty in (*decl.args, decl.result):
                validate_type(ty, self)

    def arity(self, name: str) -> int:
        return len(self.prims[name].args)


def _is_rational(v: object) -> bool:
    return isinstance(v, Fraction)


def _div(v: Fraction, w: Fraction) -> Fraction:
    if w == 0:
        raise DivisionByZero(f"{v} / 0")
    return v / w


@dataclass(frozen=True)
class PrimRule:
    """One rational primitive: its type, its fold on two literals, and the
    literal its left or right argument may be dropped at (None: no unit
    law)."""

    type: PrimType
    fold: Callable[[Fraction, Fraction], object]
    left_unit: Fraction | None
    right_unit: Fraction | None


# No zero-annihilation rule for *: folding 0 * m would drop m's code.
RULES: Mapping[str, PrimRule] = {
    "==": PrimRule(PrimType((RAT, RAT), BOOL), operator.eq, None, None),
    "*": PrimRule(PrimType((RAT, RAT), RAT), operator.mul, _ONE, _ONE),
    "/": PrimRule(PrimType((RAT, RAT), RAT), _div, None, _ONE),
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


def _rat_payload(v: SemValue) -> BaseValue:
    if isinstance(v, SBase) and v.base == "Q":
        return v.payload
    raise ShapeMismatch(f"expected a Q value, found {type(v).__name__}")


def _embed(ty: ObjType, host: object) -> SemValue:
    """A folded host result as a semantic value of the result type: a
    literal at a base type, a tag at Bool."""
    if isinstance(ty, Base):
        return SBase(ty.name, Val(host))
    return SInr(SUnit()) if host else SInl(SUnit())


def _apply(
    op: str, smart: bool, args: tuple[SemValue, ...], names: NameSupply
) -> Residual[SemValue]:
    """Apply a table primitive.  Smart: two literals fold, and a unit literal
    on its side is dropped.  Otherwise the application is residual code,
    reflected at the result type, so a residual == branches through a case."""
    rule = RULES[op]
    a, b = args
    pa, pb = _rat_payload(a), _rat_payload(b)
    if smart:
        if isinstance(pa, Val) and isinstance(pb, Val):
            return ret(_embed(rule.type.result, rule.fold(pa.literal, pb.literal)))
        if isinstance(pa, Val) and pa.literal == rule.left_unit:
            return ret(b)
        if isinstance(pb, Val) and pb.literal == rule.right_unit:
            return ret(a)
    code = PrimApp(op, (reify(RAT, a, names), reify(RAT, b, names)))
    return reflect(rule.type.result, code, names)


def smart_mul(a: SemValue, b: SemValue) -> Residual[SemValue]:
    """Multiplication that folds literal pairs and drops unit factors."""
    return _apply("*", True, (a, b), NameSupply())


def smart_div(a: SemValue, b: SemValue) -> Residual[SemValue]:
    """Division that folds literal pairs and drops a unit divisor; folding
    onto a zero divisor raises DivisionByZero."""
    return _apply("/", True, (a, b), NameSupply())


def smart_eq(a: SemValue, b: SemValue, names: NameSupply) -> Residual[SemValue]:
    """Equality test: two literals decide the Bool immediately; any residual
    argument reflects the comparison at Bool, which is where residual
    branching enters the output."""
    return _apply("==", True, (a, b), names)


def smart_prim_env() -> PrimEnv:
    return {op: partial(_apply, op, True) for op in RULES}


def naive_prim_env() -> PrimEnv:
    """No simplification: every application residualizes as code; == still
    reflects at Bool since the branching is structural, not an
    optimization."""
    return {op: partial(_apply, op, False) for op in RULES}


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
