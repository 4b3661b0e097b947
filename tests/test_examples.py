import sys
from fractions import Fraction

import pytest

from ebn.examples import (
    MAYBE_RAT,
    mk_fmap,
    mk_just,
    mk_maybe,
    mk_nothing,
    power,
    power_dprime,
    power_prime,
)
from ebn.interp import CRat, run
from ebn.nbe import norm
from ebn.primitives import RAT, lit, mk_if, naive_prim_env, rational_signature, smart_prim_env
from ebn.syntax import (
    App,
    Arrow,
    Case,
    Inl,
    Inr,
    Lam,
    Lit,
    PrimApp,
    Sum,
    Unit,
    UnitVal,
    Var,
    alpha_eq,
    infer,
    print_term,
)

from conftest import PROBES

SIG = rational_signature()


def test_maybe_encoding_shapes():
    assert MAYBE_RAT == Sum(RAT, Unit())
    assert mk_just(lit(1)) == Inl(lit(1), MAYBE_RAT)
    assert mk_nothing() == Inr(UnitVal(), MAYBE_RAT)
    assert infer({}, SIG, mk_maybe(Lam("z", RAT, Var("z")), lit(0), mk_just(lit(2)))) == RAT
    assert infer({}, SIG, mk_fmap(Lam("z", RAT, Var("z")), mk_nothing())) == MAYBE_RAT


def test_power_types():
    assert infer({}, SIG, power(-6)) == Arrow(RAT, RAT)
    assert infer({}, SIG, power_prime(-6)) == Arrow(RAT, MAYBE_RAT)
    assert infer({}, SIG, power_dprime(-6)) == Arrow(RAT, RAT)


def test_power_zero_body_is_the_literal_one():
    assert power(0) == Lam("x", RAT, lit(1))


def test_power_prime_zero_normal_form():
    got = norm(power_prime(0), SIG, smart_prim_env())
    assert got == Lam("x0", RAT, Inl(lit(1), MAYBE_RAT))


def test_power_dprime_runs_like_power():
    assert run(App(power_dprime(3), lit(2))) == CRat(Fraction(8))


def test_power_meaning_by_repeated_multiplication():
    for n in range(-8, 9):
        t = power(n)
        for x in PROBES:
            acc = Fraction(1)
            for _ in range(abs(n)):
                acc *= x
            if n >= 0:
                expected = acc
            elif x == 0:
                expected = Fraction(0)  # the generated guard returns 0
            else:
                expected = Fraction(-1) / acc
            assert run(App(t, lit(x))) == CRat(expected)


def test_power_prime_golden_normal_form():
    # sums survive into the output here: the Maybe layer is reified inside
    # the residual branches
    got = norm(power_prime(-6), SIG, smart_prim_env())
    x0 = Var("x0")
    cube = PrimApp("*", (x0, PrimApp("*", (x0, x0))))
    payload = PrimApp("/", (lit(-1), PrimApp("*", (cube, cube))))
    expected = Lam(
        "x0",
        RAT,
        Case(
            PrimApp("==", (x0, lit(0))),
            Lam("x1", Unit(), Inl(payload, MAYBE_RAT)),
            Lam("x2", Unit(), Inr(UnitVal(), MAYBE_RAT)),
        ),
    )
    assert got == expected


def test_power_dprime_equals_power_after_norm():
    env = smart_prim_env()
    for n in range(-8, 9):
        assert alpha_eq(norm(power_dprime(n), SIG, env), norm(power(n), SIG, env))


def test_naive_power_contains_unit_multiplications():
    got = norm(power(-6), SIG, naive_prim_env())
    # the un-simplified output keeps (x0 * 1) subterms
    from ebn.syntax import PrimApp, print_term

    assert "(prim * (var x0) (lit 1 Q))" in print_term(got)


def test_generators_are_pure():
    assert power(-6) == power(-6)
    assert power_prime(5) == power_prime(5)


# The recursive generators that the loops replace, kept only as the reference
# that the loops must agree with.
def _power_by_recursion(n):
    x = Var("x")
    if n < 0:
        body = mk_if(
            PrimApp("==", (x, lit(0))),
            lit(0),
            PrimApp("/", (lit(-1), App(_power_by_recursion(-n), x))),
        )
    elif n == 0:
        body = lit(1)
    elif n % 2 == 0:
        square = Lam("y", RAT, PrimApp("*", (Var("y"), Var("y"))))
        body = App(square, App(_power_by_recursion(n // 2), x))
    else:
        body = PrimApp("*", (x, App(_power_by_recursion(n - 1), x)))
    return Lam("x", RAT, body)


def _power_prime_by_recursion(n):
    x = Var("x")
    if n < 0:
        recip = Lam("y", RAT, PrimApp("/", (lit(-1), Var("y"))))
        body = mk_if(
            PrimApp("==", (x, lit(0))),
            mk_nothing(),
            mk_fmap(recip, App(_power_prime_by_recursion(-n), x)),
        )
    elif n == 0:
        body = mk_just(lit(1))
    elif n % 2 == 0:
        square = Lam("y", RAT, PrimApp("*", (Var("y"), Var("y"))))
        body = mk_fmap(square, App(_power_prime_by_recursion(n // 2), x))
    else:
        scale = Lam("y", RAT, PrimApp("*", (x, Var("y"))))
        body = mk_fmap(scale, App(_power_prime_by_recursion(n - 1), x))
    return Lam("x", RAT, body)


def _power_dprime_by_recursion(n):
    ident = Lam("z", RAT, Var("z"))
    return Lam("x", RAT, mk_maybe(ident, lit(0), App(_power_prime_by_recursion(n), Var("x"))))


LADDER = sorted({s * (2**k - 1) for k in range(65) for s in (1, -1)} | {2**k for k in range(65)})


@pytest.mark.parametrize("n", LADDER)
def test_loops_build_the_terms_of_the_recursive_generators(n):
    assert power(n) == _power_by_recursion(n)
    assert power_prime(n) == _power_prime_by_recursion(n)
    assert power_dprime(n) == _power_dprime_by_recursion(n)


def test_generators_take_a_500_bit_exponent_at_recursion_limit_150():
    # x^0, then 499 squarings and 500 multiplications: one `(lam (x Q)` each
    n = 2**500 - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        for make, want in ((power, RAT), (power_prime, MAYBE_RAT), (power_dprime, RAT)):
            for m, lams in ((n, 1000), (-n, 1001)):
                t = make(m)
                assert infer({}, SIG, t) == Arrow(RAT, want)
                assert print_term(t).count("(lam (x Q) ") == lams + (make is power_dprime)
    finally:
        sys.setrecursionlimit(limit)
