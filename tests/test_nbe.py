import random

import pytest

from ebn.control import reset, ret
from ebn.interp import run
from ebn.nbe import (
    NameSupply,
    norm,
    reflect,
    reify,
)
from ebn.primitives import (
    BOOL,
    RAT,
    lit,
    naive_prim_env,
    rational_signature,
    smart_prim_env,
)
from ebn.semantics import (
    Exp,
    SBase,
    SemValue,
    SFun,
    ShapeMismatch,
    SInl,
    SInr,
    SPair,
    SUnit,
    Val,
)
from ebn.syntax import (
    App,
    Arrow,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Pair,
    Prod,
    Snd,
    Sum,
    Unit,
    UnitVal,
    Var,
    alpha_eq,
    beta_normal,
    infer,
    parse_term,
    print_term,
)

from conftest import TermGen, agree_on_probes

SIG = rational_signature()


def test_name_supply_is_deterministic():
    ns = NameSupply()
    assert [ns.fresh() for _ in range(3)] == ["x0", "x1", "x2"]
    assert NameSupply(prefix="y").fresh() == "y0"


# ---------------------------------------------------------------------------
# reify


def test_reify_semantic_identity():
    v = SFun(lambda arg: ret(arg))
    t = reify(Arrow(RAT, RAT), v, NameSupply())
    assert t == Lam("x0", RAT, Var("x0"))


def test_reify_constant_unit_function_over_sum():
    ty = Arrow(Sum(Unit(), Unit()), Unit())
    t = reify(ty, SFun(lambda v: ret(SUnit())), NameSupply())
    assert t == Lam(
        "x0",
        Sum(Unit(), Unit()),
        Case(
            Var("x0"),
            Lam("x1", Unit(), UnitVal()),
            Lam("x2", Unit(), UnitVal()),
        ),
    )
    assert beta_normal(t)


def test_reify_base_val_emits_literal():
    assert reify(RAT, SBase("Q", Val(3)), NameSupply()) == lit(3)


def test_reify_base_exp_emits_code():
    assert reify(RAT, SBase("Q", Exp(Var("m"))), NameSupply()) == Var("m")


def test_reify_pair_and_sum():
    v = SPair(SBase("Q", Val(1)), SInr(SUnit()))
    ty = Prod(RAT, Sum(RAT, Unit()))
    got = reify(ty, v, NameSupply())
    assert got == Pair(lit(1), Inr(UnitVal(), Sum(RAT, Unit())))


def test_reify_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        reify(RAT, SUnit(), NameSupply())
    with pytest.raises(ShapeMismatch):
        reify(Arrow(RAT, RAT), SUnit(), NameSupply())


# ---------------------------------------------------------------------------
# reflect


def test_reflect_base_is_residual_code():
    out = []
    reflect(RAT, Var("y"), NameSupply()).run(lambda v: (out.append(v), UnitVal())[1])
    assert out == [SBase("Q", Exp(Var("y")))]


def test_reflect_eta_expands_functions():
    names = NameSupply()
    comp = reflect(Arrow(RAT, RAT), Var("f"), names)
    got = reset(comp.map(lambda v: reify(Arrow(RAT, RAT), v, names)))
    assert got == Lam("x0", RAT, App(Var("f"), Var("x0")))


def test_reflect_bool_materializes_branching():
    names = NameSupply()
    comp = reflect(BOOL, Var("b"), names)

    def consume(v: SemValue):
        return lit(0) if isinstance(v, SInl) else lit(1)

    got = reset(comp.map(consume))
    assert got == Case(
        Var("b"),
        Lam("x0", Unit(), lit(0)),
        Lam("x1", Unit(), lit(1)),
    )


def test_reflect_product_splits_projections():
    names = NameSupply()
    comp = reflect(Prod(RAT, RAT), Var("p"), names)
    got = reset(comp.map(lambda v: reify(Prod(RAT, RAT), v, names)))
    assert got == Pair(Fst(Var("p")), Snd(Var("p")))


# ---------------------------------------------------------------------------
# norm


def test_norm_identity():
    assert norm(Lam("x", RAT, Var("x")), SIG, smart_prim_env()) == Lam(
        "x0", RAT, Var("x0")
    )


def test_norm_eta_expands_sum_free_programs():
    # sum-free, smart-free programs behave like plain two-level
    # eta-expansion
    t = Lam("f", Arrow(RAT, RAT), Var("f"))
    got = norm(t, SIG, smart_prim_env())
    assert got == Lam(
        "x0", Arrow(RAT, RAT), Lam("x1", RAT, App(Var("x0"), Var("x1")))
    )


def test_norm_product_of_sums_golden():
    # reflect at Prod splits fst before snd; each residual sum names its
    # left binder before its right one and duplicates the continuation
    # into both branches
    t = parse_term("(lam (p (prod (sum unit unit) (sum Q unit))) (var p))")
    assert print_term(norm(t, SIG, smart_prim_env())) == (
        "(lam (x0 (prod (sum unit unit) (sum Q unit))) "
        "(case (fst (var x0)) "
        "(lam (x1 unit) (case (snd (var x0)) "
        "(lam (x2 Q) (pair (inl unit (sum unit unit)) (inl (var x2) (sum Q unit)))) "
        "(lam (x3 unit) (pair (inl unit (sum unit unit)) (inr unit (sum Q unit)))))) "
        "(lam (x4 unit) (case (snd (var x0)) "
        "(lam (x5 Q) (pair (inr unit (sum unit unit)) (inl (var x5) (sum Q unit)))) "
        "(lam (x6 unit) (pair (inr unit (sum unit unit)) (inr unit (sum Q unit))))))))"
    )


def test_norm_properties_on_generated_terms(oracle_corpus):
    env = smart_prim_env()
    for t, ty, nt in oracle_corpus[::7]:
        assert beta_normal(nt)
        assert infer({}, SIG, nt) == ty
        again = norm(t, SIG, env)
        assert again == nt  # determinism, structural
        renorm = norm(nt, SIG, env)
        assert alpha_eq(renorm, nt)  # idempotence


def test_norm_preserves_meaning_on_probes(oracle_corpus):
    for t, ty, nt in oracle_corpus[::7]:
        assert agree_on_probes(t, nt, ty)


def test_norm_nested_sum_domain():
    # reflecting at (Bool + unit) fires a second shift inside the first
    # case's left branch
    dom = Sum(BOOL, Unit())
    t = Lam(
        "x",
        dom,
        Case(
            Var("x"),
            Lam("b", BOOL, Case(Var("b"), Lam("u", Unit(), lit(2)), Lam("w", Unit(), lit(1)))),
            Lam("u", Unit(), lit(3)),
        ),
    )
    got = norm(t, SIG, smart_prim_env())
    expected = Lam(
        "x0",
        dom,
        Case(
            Var("x0"),
            Lam(
                "x1",
                BOOL,
                Case(Var("x1"), Lam("x2", Unit(), lit(2)), Lam("x3", Unit(), lit(1))),
            ),
            Lam("x4", Unit(), lit(3)),
        ),
    )
    assert got == expected
    assert infer({}, SIG, got) == Arrow(dom, RAT)
    for arg in (
        Inl(Inl(UnitVal(), BOOL), dom),
        Inl(Inr(UnitVal(), BOOL), dom),
        Inr(UnitVal(), dom),
    ):
        assert run(App(t, arg)) == run(App(got, arg))


def test_norm_eta_expands_sum_domain_functions():
    # eta-expanding a Bool-consuming function rebranches on its argument
    fn_ty = Arrow(BOOL, RAT)
    t = Lam("f", fn_ty, Lam("b", BOOL, App(Var("f"), Var("b"))))
    got = norm(t, SIG, smart_prim_env())
    expected = Lam(
        "x0",
        fn_ty,
        Lam(
            "x1",
            BOOL,
            Case(
                Var("x1"),
                Lam("x2", Unit(), App(Var("x0"), Inl(UnitVal(), BOOL))),
                Lam("x3", Unit(), App(Var("x0"), Inr(UnitVal(), BOOL))),
            ),
        ),
    )
    assert got == expected
    assert beta_normal(got)
    assert infer({}, SIG, got) == Arrow(fn_ty, fn_ty)


def test_norm_power_reference_values():
    from ebn.examples import power
    from ebn.interp import CRat
    from fractions import Fraction

    nt = norm(power(-6), SIG, smart_prim_env())
    assert run(App(nt, lit(2))) == CRat(Fraction(-1, 64))


def test_norm_propagates_typing_errors():
    from ebn.syntax import TypeMismatch, UnboundVariable

    with pytest.raises(UnboundVariable):
        norm(Var("ghost"), SIG, smart_prim_env())
    with pytest.raises(TypeMismatch):
        norm(App(lit(1), lit(2)), SIG, smart_prim_env())
