"""Shared test machinery: seeded type-directed term generation, probe-set
observation through the reference interpreter, and the normalized corpus
reused by the acceptance suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ebn.chars import Append, Chr, Eps
from ebn.examples import MAYBE_RAT
from ebn.interp import (
    CFun,
    CInl,
    CInr,
    CPair,
    CRat,
    CUnit,
    RuntimeDivisionByZero,
    run,
)
from ebn.nbe import norm
from ebn.primitives import (
    BOOL,
    RAT,
    DivisionByZero,
    lit,
    mk_if,
    rational_signature,
    smart_prim_env,
)
from ebn.syntax import (
    App,
    Arrow,
    Base,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Pair,
    PrimApp,
    Prod,
    Snd,
    Sum,
    Term,
    Unit,
    UnitVal,
    Var,
    children,
)

PROBES = [
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 3),
    Fraction(1),
    Fraction(2),
    Fraction(7),
]

ACCEPT_TYPES = [
    RAT,
    BOOL,
    Arrow(RAT, RAT),
    Prod(RAT, RAT),
    MAYBE_RAT,
    Arrow(Sum(RAT, RAT), RAT),
]

_SMALL_TYPES = [RAT, Unit(), BOOL]


def gen_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 9))


def min_depth(ty) -> int:
    """Depth of the smallest term inhabiting `ty` (in any environment)."""
    match ty:
        case Base() | Unit():
            return 0
        case Arrow(cod=b):
            return 1 + min_depth(b)
        case Prod(left=a, right=b):
            return 1 + max(min_depth(a), min_depth(b))
        case Sum(left=a, right=b):
            return 1 + min(min_depth(a), min_depth(b))
    raise TypeError(f"not a type: {ty!r}")


class TermGen:
    """Type-directed generator of well-typed terms; `fuel` is a hard depth
    budget, so generated terms never exceed it."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._counter = 0

    def _fresh(self) -> str:
        self._counter += 1
        return f"v{self._counter}"

    def gen(self, ty, env: dict, fuel: int) -> Term:
        rng = self.rng
        assert fuel >= min_depth(ty)
        options = []

        in_scope = [x for x, t in env.items() if t == ty]
        if in_scope:
            options += [lambda: Var(rng.choice(in_scope))] * 3

        # introduction forms
        match ty:
            case Base():
                options += [lambda: lit(gen_rational(rng))] * 3
                if fuel >= 1:
                    options += [
                        lambda: PrimApp(
                            "*",
                            (self.gen(RAT, env, fuel - 1), self.gen(RAT, env, fuel - 1)),
                        )
                    ] * 2
                    options += [
                        lambda: PrimApp(
                            "/",
                            (self.gen(RAT, env, fuel - 1), self.gen(RAT, env, fuel - 1)),
                        )
                    ]
            case Unit():
                options += [lambda: UnitVal()] * 3
            case Arrow(dom=a, cod=b):
                def intro_lam(a=a, b=b):
                    x = self._fresh()
                    return Lam(x, a, self.gen(b, {**env, x: a}, fuel - 1))

                options += [intro_lam] * 3
            case Prod(left=a, right=b):
                options += [
                    lambda a=a, b=b: Pair(
                        self.gen(a, env, fuel - 1), self.gen(b, env, fuel - 1)
                    )
                ] * 3
            case Sum(left=a, right=b):
                if fuel - 1 >= min_depth(a):
                    options += [lambda a=a: Inl(self.gen(a, env, fuel - 1), ty)]
                if fuel - 1 >= min_depth(b):
                    options += [lambda b=b: Inr(self.gen(b, env, fuel - 1), ty)]
                if ty == BOOL and fuel >= 1:
                    options += [
                        lambda: PrimApp(
                            "==",
                            (self.gen(RAT, env, fuel - 1), self.gen(RAT, env, fuel - 1)),
                        )
                    ] * 2

        # elimination forms: the eliminated subterm's type is one node
        # bigger, so they need slack over the target's minimum, and the
        # partner type must fit the remaining budget too
        if fuel >= min_depth(ty) + 2:
            sides = [d for d in _SMALL_TYPES if min_depth(d) <= fuel - 2]

            def elim_app():
                d = rng.choice(sides)
                return App(
                    self.gen(Arrow(d, ty), env, fuel - 1), self.gen(d, env, fuel - 1)
                )

            def elim_fst():
                d = rng.choice(sides)
                return Fst(self.gen(Prod(ty, d), env, fuel - 1))

            def elim_snd():
                d = rng.choice(sides)
                return Snd(self.gen(Prod(d, ty), env, fuel - 1))

            def elim_case():
                d1, d2 = rng.choice(sides), rng.choice(sides)
                return Case(
                    self.gen(Sum(d1, d2), env, fuel - 1),
                    self.gen(Arrow(d1, ty), env, fuel - 1),
                    self.gen(Arrow(d2, ty), env, fuel - 1),
                )

            options += [elim_app, elim_fst, elim_snd, elim_case]

        return rng.choice(options)()


def term_depth(t: Term) -> int:
    kids = children(t)
    if not kids:
        return 0
    return 1 + max(term_depth(c) for c in kids)


# ---------------------------------------------------------------------------
# Observation through the reference interpreter


def value_key(v):
    match v:
        case CUnit():
            return ("unit",)
        case CRat(value=q):
            return ("rat", q)
        case CPair(first=a, second=b):
            return ("pair", value_key(a), value_key(b))
        case CInl(value=a):
            return ("inl", value_key(a))
        case CInr(value=a):
            return ("inr", value_key(a))
        case CFun():
            raise AssertionError("functions are compared through probes")
    raise TypeError(f"not a value: {v!r}")


def _probe_terms(dom):
    if dom == RAT:
        return [(str(p), lit(p)) for p in PROBES]
    if dom == Sum(RAT, RAT):
        out = []
        for p in PROBES:
            out.append((f"inl {p}", Inl(lit(p), dom)))
            out.append((f"inr {p}", Inr(lit(p), dom)))
        return out
    raise AssertionError(f"no probe set for domain {dom!r}")


def observe(term: Term, ty) -> list[tuple[str, tuple]]:
    """Interpret `term` at every probe; outcomes are comparable keys or a
    division-by-zero marker."""

    def outcome(t: Term) -> tuple:
        try:
            return ("ok", value_key(run(t)))
        except RuntimeDivisionByZero:
            return ("divzero",)

    if isinstance(ty, Arrow):
        return [(label, outcome(App(term, arg))) for label, arg in _probe_terms(ty.dom)]
    return [("value", outcome(term))]


def agree_on_probes(t1: Term, t2: Term, ty) -> bool:
    """Equal outcomes wherever neither side hits division by zero."""
    for (label1, o1), (label2, o2) in zip(observe(t1, ty), observe(t2, ty)):
        assert label1 == label2
        if o1[0] == "ok" and o2[0] == "ok" and o1 != o2:
            return False
    return True


# ---------------------------------------------------------------------------
# Shared corpora


def bool_chain(k: int):
    """k residual tests in sequence: `shift` puts the rest of the chain in
    both branches of each, as one shared object."""
    x = Var("x")
    body = Var(f"a{k}")
    for i in range(k, 0, -1):
        prev = Var(f"a{i - 1}") if i > 1 else x
        test = mk_if(
            PrimApp("==", (x, lit(i))),
            PrimApp("*", (prev, lit(2))),
            PrimApp("/", (prev, lit(3))),
        )
        body = App(Lam(f"a{i}", RAT, body), test)
    return Lam("x", RAT, body)


@pytest.fixture(scope="session")
def oracle_corpus():
    """300 closed well-typed terms (50 per acceptance type) with their smart
    normal forms; terms whose normalization folds onto a zero divisor are
    resampled."""
    rng = random.Random(7451)
    gen = TermGen(rng)
    sig = rational_signature()
    corpus = []
    for ty in ACCEPT_TYPES:
        produced = 0
        while produced < 50:
            t = gen.gen(ty, {}, rng.randint(max(1, min_depth(ty)), 6))
            try:
                nt = norm(t, sig, smart_prim_env())
            except DivisionByZero:
                continue
            corpus.append((t, ty, nt))
            produced += 1
    return corpus


def gen_chars(rng: random.Random, fuel: int):
    """A random chars term of depth at most `fuel`."""
    if fuel <= 0 or rng.random() < 0.3:
        return rng.choice([Eps(), Chr(rng.choice("NBEabcxyz"))])
    return Append(gen_chars(rng, fuel - 1), gen_chars(rng, fuel - 1))
