"""Monad and delimited-control laws, checked observationally: both sides of
each law are run with every continuation in a fixed set and must produce
alpha-equal terms."""

from ebn.control import Residual, reset, ret, shift
from ebn.primitives import RAT, lit
from ebn.syntax import App, Fst, Lam, Pair, Snd, UnitVal, Var, alpha_eq

# Continuations Term -> Term used to observe computations.
KONTS = [
    lambda t: t,
    lambda t: Pair(t, UnitVal()),
    lambda t: App(Lam("k0", RAT, Var("k0")), t),
]

# Kleisli arrows Term -> Residual[Term] for the identity/associativity laws.
ARROWS = [
    lambda t: ret(t),
    lambda t: ret(Pair(t, t)),
    lambda t: shift(lambda k: k(Fst(Pair(t, UnitVal())))),
    lambda t: ret(Snd(Pair(UnitVal(), t))),
]

LEAVES = [lit(i) for i in range(6)] + [
    UnitVal(),
    Var("a"),
    Var("b"),
    Pair(Var("a"), lit(9)),
]


def battery() -> list[Residual]:
    """Twenty fixed computations with Term leaves."""
    L = LEAVES
    return [
        ret(L[0]),
        ret(L[6]),
        ret(L[7]),
        ret(L[9]),
        shift(lambda k: k(L[1])),
        shift(lambda k: L[2]),  # discards its continuation
        shift(lambda k: Pair(k(L[3]), k(L[4]))),  # duplicates it
        shift(lambda k: k(k(L[5]))),
        ret(L[0]).map(lambda t: Pair(t, t)),
        ret(L[1]).map(lambda t: Fst(Pair(t, UnitVal()))),
        ret(L[2]).bind(lambda t: ret(Pair(t, L[3]))),
        shift(lambda k: k(L[4])).bind(lambda t: ret(Pair(t, t))),
        ret(L[5]).bind(lambda t: shift(lambda k: k(Snd(Pair(t, t))))),
        ret(ret(L[6])).bind(lambda m: m),
        ret(shift(lambda k: k(L[7]))).bind(lambda m: m),
        ret(reset(shift(lambda k: L[8]))),
        ret(reset(ret(L[9]))),
        ret(L[0]).bind(lambda t: ret(Pair(t, L[1]))).bind(lambda t: ret(Fst(t))),
        shift(lambda k: App(Lam("h", RAT, Var("h")), k(L[2]))),
        shift(lambda k: k(L[3])).bind(lambda t: shift(lambda k: k(Pair(t, t)))),
    ]


def observationally_equal(m1: Residual, m2: Residual) -> bool:
    return all(alpha_eq(m1.run(k), m2.run(k)) for k in KONTS)


def test_battery_is_twenty():
    assert len(battery()) == 20


def test_ret_examples():
    assert reset(ret(lit(1))) == lit(1)
    assert observationally_equal(ret(UnitVal()).map(lambda v: v), ret(UnitVal()))


def test_left_identity():
    for leaf in LEAVES:
        for f in ARROWS:
            assert observationally_equal(ret(leaf).bind(f), f(leaf))


def test_right_identity():
    for m in battery():
        assert observationally_equal(m.bind(ret), m)


def test_associativity():
    for m in battery():
        for f in ARROWS[:2]:
            for g in ARROWS[2:]:
                lhs = m.bind(f).bind(g)
                rhs = m.bind(lambda x, f=f, g=g: f(x).bind(g))
                assert observationally_equal(lhs, rhs)


def test_join_of_double_ret():
    for leaf in LEAVES:
        assert observationally_equal(ret(ret(leaf)).bind(lambda m: m), ret(leaf))


def test_reset_of_ret_is_exact():
    for leaf in LEAVES:
        assert reset(ret(leaf)) == leaf


def test_shift_passthrough_behaves_as_ret():
    for leaf in LEAVES:
        assert observationally_equal(shift(lambda k, leaf=leaf: k(leaf)), ret(leaf))


def test_shift_discards_continuation():
    assert reset(shift(lambda k: lit(7))) == lit(7)


def test_shift_then_bind():
    m = shift(lambda k: k(lit(1))).bind(lambda v: ret(v))
    assert reset(m) == lit(1)


def test_nested_reset_isolates_capture():
    inner = reset(shift(lambda k: lit(2)))
    m = ret(inner).bind(lambda _: ret(lit(3)))
    assert reset(m) == lit(3)
