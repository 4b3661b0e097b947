"""Staged program generators: the power function in three styles, plus the
Maybe-of-rationals encoding used to abstract its corner case.

These are meta-functions: given a host integer they build object code.  All
the host-level conditionals run at generation time; only the residual test
against zero survives into the generated term.
"""

from __future__ import annotations

from typing import Iterator

from .primitives import RAT, fresh_binder, lit
from .syntax import (
    App,
    Case,
    Inl,
    Inr,
    Lam,
    PrimApp,
    Sum,
    Term,
    Unit,
    UnitVal,
    Var,
    free_vars,
)

MAYBE_RAT = Sum(RAT, Unit())


def mk_just(t: Term) -> Term:
    return Inl(t, MAYBE_RAT)


def mk_nothing() -> Term:
    return Inr(UnitVal(), MAYBE_RAT)


def mk_maybe(on_just: Term, on_nothing: Term, scrutinee: Term) -> Term:
    """Eliminator: `on_just` is a function over the payload, `on_nothing` a
    plain result term."""
    x = fresh_binder("mx", free_vars(on_just))
    y = fresh_binder("my", free_vars(on_nothing))
    return Case(
        scrutinee,
        Lam(x, RAT, App(on_just, Var(x))),
        Lam(y, Unit(), on_nothing),
    )


def mk_fmap(f: Term, m: Term) -> Term:
    """Functorial map over the Maybe encoding."""
    x = fresh_binder("fx", free_vars(f))
    return mk_maybe(Lam(x, RAT, mk_just(App(f, Var(x)))), mk_nothing(), m)


def _unless_zero(x: Var, on_zero: Term, otherwise: Term) -> Term:
    """`mk_if(x == 0, on_zero, otherwise)` for branches whose only free name
    is `x`, as every generated term's is: its binders are `u` and `w`, the
    names `mk_if` would pick, without a walk over the branches."""
    return Case(PrimApp("==", (x, lit(0))), Lam("u", Unit(), otherwise), Lam("w", Unit(), on_zero))


def _steps(n: int) -> Iterator[bool]:
    """The steps that take x^0 to x^n, n >= 0, over the bits of n from the
    most significant: False squares x^e into x^(2e), True multiplies it into
    x^(e+1).  They build the terms that recursion on n would, as a loop."""
    for i, bit in enumerate(bin(n)[2:]):
        if i:
            yield False
        if bit == "1":
            yield True


def power(n: int) -> Term:
    """x^n as generated code of type Q -> Q; negative exponents guard the
    zero input and produce -1 divided by the positive power.  Every step
    shares one `x` and one squaring function."""
    x = Var("x")
    # Host-level sharing of the half power: squaring goes through an
    # object-level redex, which normalization inlines (and duplicates).
    square = Lam("y", RAT, PrimApp("*", (Var("y"), Var("y"))))
    t = Lam("x", RAT, lit(1))
    for times in _steps(abs(n)):
        if times:
            t = Lam("x", RAT, PrimApp("*", (x, App(t, x))))
        else:
            t = Lam("x", RAT, App(square, App(t, x)))
    if n < 0:
        t = Lam("x", RAT, _unless_zero(x, lit(0), PrimApp("/", (lit(-1), App(t, x)))))
    return t


def power_prime(n: int) -> Term:
    """Variant of type Q -> Maybe Q: the division-by-zero corner case
    returns nothing instead of a sentinel."""
    x = Var("x")
    square = Lam("y", RAT, PrimApp("*", (Var("y"), Var("y"))))
    scale = Lam("y", RAT, PrimApp("*", (x, Var("y"))))
    t = Lam("x", RAT, mk_just(lit(1)))
    for times in _steps(abs(n)):
        t = Lam("x", RAT, mk_fmap(scale if times else square, App(t, x)))
    if n < 0:
        recip = Lam("y", RAT, PrimApp("/", (lit(-1), Var("y"))))
        t = Lam("x", RAT, _unless_zero(x, mk_nothing(), mk_fmap(recip, App(t, x))))
    return t


def power_dprime(n: int) -> Term:
    """Q -> Q again: runs power_prime and replaces nothing by 0.
    Normalization erases the whole Maybe layer."""
    ident = Lam("z", RAT, Var("z"))
    return Lam(
        "x", RAT, mk_maybe(ident, lit(0), App(power_prime(n), Var("x")))
    )
