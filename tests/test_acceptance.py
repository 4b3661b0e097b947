"""Acceptance suite: one test per criterion, each printing a PASS line once
its assertions hold (run with -s to see them)."""

import random
from fractions import Fraction

from ebn.chars import Append, Chr, Eps, is_canonical, norm_chars
from ebn.control import reset, ret
from ebn.examples import power, power_dprime
from ebn.interp import CUnit, run
from ebn.nbe import norm
from ebn.primitives import (
    BOOL,
    RAT,
    lit,
    naive_prim_env,
    rational_signature,
    smart_prim_env,
)
from ebn.semantics import SBase, SInl, SInr, SUnit
from ebn.syntax import (
    App,
    Arrow,
    Case,
    Inl,
    Inr,
    Lam,
    PrimApp,
    Sum,
    Unit,
    UnitVal,
    Var,
    alpha_eq,
    beta_normal,
    infer,
)

from conftest import agree_on_probes, gen_rational, term_depth, ACCEPT_TYPES
from test_chars import gen_chars
from test_control import ARROWS, KONTS, LEAVES, battery, observationally_equal
from test_primitives import branching_of, exp, payload_of, prim, val

SIG = rational_signature()


def _passed(n: int, label: str) -> None:
    print(f"[acceptance] criterion {n} ({label}): PASS")


def _golden_power_smart():
    x0 = Var("x0")
    cube = PrimApp("*", (x0, PrimApp("*", (x0, x0))))
    return Lam(
        "x0",
        RAT,
        Case(
            PrimApp("==", (x0, lit(0))),
            Lam("x1", Unit(), PrimApp("/", (lit(-1), PrimApp("*", (cube, cube))))),
            Lam("x2", Unit(), lit(0)),
        ),
    )


def _golden_power_naive():
    x0 = Var("x0")
    x_times_1 = PrimApp("*", (x0, lit(1)))
    half = PrimApp("*", (x0, PrimApp("*", (x_times_1, x_times_1))))
    return Lam(
        "x0",
        RAT,
        Case(
            PrimApp("==", (x0, lit(0))),
            Lam("x1", Unit(), PrimApp("/", (lit(-1), PrimApp("*", (half, half))))),
            Lam("x2", Unit(), lit(0)),
        ),
    )


def test_criterion_1_golden_power_smart():
    got = norm(power(-6), SIG, smart_prim_env())
    expected = _golden_power_smart()
    assert got == expected  # canonical name supply, exact structure
    assert alpha_eq(got, expected)
    _passed(1, "golden power, smart primitives")


def test_criterion_2_golden_power_naive():
    got = norm(power(-6), SIG, naive_prim_env())
    assert got == _golden_power_naive()
    _passed(2, "golden power, naive primitives")


def test_criterion_3_abstraction_without_guilt():
    env = smart_prim_env()
    for n in range(-8, 9):
        assert alpha_eq(norm(power_dprime(n), SIG, env), norm(power(n), SIG, env))
    _passed(3, "power'' normalizes to power for n in [-8..8]")


def test_criterion_4_golden_chars():
    canonical = Append(Chr("N"), Append(Chr("B"), Append(Chr("E"), Eps())))
    flat = Append(Chr("N"), Append(Chr("B"), Chr("E")))
    padded = Append(
        Append(Chr("N"), Eps()),
        Append(Append(Chr("B"), Eps()), Append(Chr("E"), Eps())),
    )
    for t in (flat, padded):
        for domain in ("list", "function"):
            assert norm_chars(t, domain) == canonical

    rng = random.Random(2016)
    for _ in range(200):
        t = gen_chars(rng, 5)
        assert norm_chars(t, "list") == norm_chars(t, "function")
    for _ in range(200):
        l, m, n = (gen_chars(rng, 4) for _ in range(3))
        assert norm_chars(Append(Eps(), m)) == norm_chars(m)
        assert norm_chars(Append(m, Eps())) == norm_chars(m)
        assert norm_chars(Append(Append(l, m), n)) == norm_chars(
            Append(l, Append(m, n))
        )
    _passed(4, "chars golden forms, domain agreement, monoid laws")


def test_criterion_5_oracle_equivalence(oracle_corpus):
    assert len(oracle_corpus) == 300
    for t, ty, nt in oracle_corpus:
        assert term_depth(t) <= 6
        assert ty in ACCEPT_TYPES
        assert infer({}, SIG, t) == ty
        assert agree_on_probes(t, nt, ty)
    _passed(5, "interpreter agrees on t and norm(t) across 300 terms")


def test_criterion_6_normal_form_properties(oracle_corpus):
    env = smart_prim_env()
    for t, ty, nt in oracle_corpus:
        assert beta_normal(nt)
        assert infer({}, SIG, nt) == ty
        assert alpha_eq(norm(nt, SIG, env), nt)
        assert norm(t, SIG, env) == nt  # two runs, structurally identical
    _passed(6, "beta-normality, type preservation, idempotence, determinism")


def test_criterion_7_control_laws():
    comps = battery()
    assert len(comps) == 20
    for m in comps:
        assert observationally_equal(m.bind(ret), m)
        for f in ARROWS[:2]:
            for g in ARROWS[2:]:
                lhs = m.bind(f).bind(g)
                rhs = m.bind(lambda x, f=f, g=g: f(x).bind(g))
                assert observationally_equal(lhs, rhs)
    for leaf in LEAVES:
        for f in ARROWS:
            assert observationally_equal(ret(leaf).bind(f), f(leaf))
        assert reset(ret(leaf)) == leaf
    from ebn.control import shift

    inner = reset(shift(lambda k: lit(2)))
    assert reset(ret(inner).bind(lambda _: ret(lit(3)))) == lit(3)
    _passed(7, "monad laws, reset/ret, nested-reset isolation")


def test_criterion_8_smart_table_exactness():
    M, N = Var("m"), Var("n")

    def case_on(code):
        return Case(
            code,
            Lam("x0", Unit(), Inl(UnitVal(), BOOL)),
            Lam("x1", Unit(), Inr(UnitVal(), BOOL)),
        )

    # ==, 4 rows
    assert payload_of(prim("==", val(2), val(2))) == SInr(SUnit())
    assert payload_of(prim("==", val(2), val(3))) == SInl(SUnit())
    assert branching_of("==", val(2), exp(N)) == case_on(
        PrimApp("==", (lit(2), N))
    )
    assert branching_of("==", exp(M), val(3)) == case_on(
        PrimApp("==", (M, lit(3)))
    )
    assert branching_of("==", exp(M), exp(N)) == case_on(
        PrimApp("==", (M, N))
    )
    # *, 6 rows
    assert payload_of(prim("*", val(2), val(3))) == val(6)
    assert payload_of(prim("*", val(1), exp(N))) == exp(N)
    assert payload_of(prim("*", val(5), exp(N))) == exp(PrimApp("*", (lit(5), N)))
    assert payload_of(prim("*", exp(M), val(1))) == exp(M)
    assert payload_of(prim("*", exp(M), val(7))) == exp(PrimApp("*", (M, lit(7))))
    assert payload_of(prim("*", exp(M), exp(N))) == exp(PrimApp("*", (M, N)))
    # /, 5 rows
    assert payload_of(prim("/", val(1), val(2))) == val(Fraction(1, 2))
    assert payload_of(prim("/", val(3), exp(N))) == exp(PrimApp("/", (lit(3), N)))
    assert payload_of(prim("/", exp(M), val(1))) == exp(M)
    assert payload_of(prim("/", exp(M), val(4))) == exp(PrimApp("/", (M, lit(4))))
    assert payload_of(prim("/", exp(M), exp(N))) == exp(PrimApp("/", (M, N)))

    rng = random.Random(64123)
    for _ in range(100):
        a, b = gen_rational(rng), gen_rational(rng)
        assert payload_of(prim("*", val(a), val(b))) == SBase("Q", lit(a * b))
        if b != 0:
            assert payload_of(prim("/", val(a), val(b))) == SBase("Q", lit(a / b))
        expected = SInr(SUnit()) if a == b else SInl(SUnit())
        assert payload_of(prim("==", val(a), val(b))) == expected
    _passed(8, "all 15 table rows plus 100 literal folds")


def test_criterion_9_sum_reification_shape():
    ty = Arrow(Sum(Unit(), Unit()), Unit())
    got = norm(Lam("b", Sum(Unit(), Unit()), UnitVal()), SIG, smart_prim_env())
    assert got == Lam(
        "x0",
        Sum(Unit(), Unit()),
        Case(
            Var("x0"),
            Lam("x1", Unit(), UnitVal()),
            Lam("x2", Unit(), UnitVal()),
        ),
    )
    assert beta_normal(got)
    assert infer({}, SIG, got) == ty
    for arg in (Inl(UnitVal(), Sum(Unit(), Unit())), Inr(UnitVal(), Sum(Unit(), Unit()))):
        assert run(App(got, arg)) == CUnit()
    _passed(9, "reified sum-consumer is a case with unit branches")
