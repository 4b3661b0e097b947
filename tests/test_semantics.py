import random

import pytest

import spec_nbe
from ebn.control import reset
from ebn.nbe import _PRIMS, NameSupply, norm, reify
from ebn.primitives import (
    BOOL,
    RAT,
    DivisionByZero,
    lit,
    mk_if,
    rational_signature,
    smart_prim_env,
)
from ebn.semantics import (
    Closure,
    SBase,
    SInl,
    SPair,
    SUnit,
)
from ebn.syntax import (
    App,
    Arrow,
    Case,
    Fst,
    Inl,
    Lam,
    Pair,
    PrimApp,
    Prod,
    ShapeMismatch,
    Sum,
    Unit,
    UnitVal,
    UnknownPrimitive,
    Var,
    alpha_eq,
    infer,
    parse_term,
)

from conftest import TermGen, ACCEPT_TYPES, run_in_machine

SIG = rational_signature()


def force_value(comp):
    """Extract the value of an effect-free computation."""
    out = []

    def k(v):
        out.append(v)
        return UnitVal()

    comp.run(k)
    assert len(out) == 1
    return out[0]


def eval_closed(t):
    """The value of a closed term, evaluated by the reference normaliser."""
    return force_value(spec_nbe.eval(t, {_PRIMS: smart_prim_env()}, NameSupply()))


def test_eval_literal_reifies_to_itself():
    names = NameSupply()
    comp = spec_nbe.eval(lit(3), {_PRIMS: smart_prim_env()}, names)
    out = reset(comp.map(lambda v: reify(RAT, v, names)))
    assert out == lit(3)
    assert run_in_machine(lit(3)) == lit(3)


def test_eval_literal_payload_is_the_source_lit():
    # a known literal is its Lit: the source node itself, not a copy
    t = parse_term("(lit 5 Q)")
    value = eval_closed(t)
    assert value == SBase("Q", t) and value.payload is t
    assert run_in_machine(t) is t and norm(t, SIG, smart_prim_env()) is t


def test_eval_beta_at_semantic_level():
    t = App(Lam("x", RAT, Var("x")), lit(3))
    assert eval_closed(t) == eval_closed(lit(3)) == SBase("Q", lit(3))
    assert run_in_machine(t) == lit(3)


def test_eval_case_dispatches_left():
    t = Case(
        Inl(lit(1), Sum(RAT, Unit())),
        Lam("a", RAT, Var("a")),
        Lam("b", Unit(), lit(0)),
    )
    assert eval_closed(t) == SBase("Q", lit(1))
    assert run_in_machine(t) == lit(1)


def test_eval_case_only_runs_chosen_branch():
    # the unchosen branch contains a division by zero; dispatch-then-evaluate
    # never touches it
    t = Case(
        Inl(lit(1), Sum(RAT, Unit())),
        Lam("a", RAT, Var("a")),
        Lam("b", Unit(), PrimApp("/", (lit(1), lit(0)))),
    )
    assert eval_closed(t) == SBase("Q", lit(1))
    assert run_in_machine(t) == lit(1)


def test_eval_structural_values():
    assert eval_closed(UnitVal()) == SUnit()
    assert eval_closed(Pair(lit(1), UnitVal())) == SPair(SBase("Q", lit(1)), SUnit())
    assert isinstance(eval_closed(Lam("x", RAT, Var("x"))), Closure)
    assert run_in_machine(UnitVal(), ty=Unit()) == UnitVal()
    assert run_in_machine(Pair(lit(1), UnitVal()), ty=Prod(RAT, Unit())) == Pair(lit(1), UnitVal())
    assert run_in_machine(Lam("x", RAT, Var("x")), ty=Arrow(RAT, RAT)) == Lam("x1", RAT, Var("x1"))


def test_eval_unknown_primitive():
    with pytest.raises(UnknownPrimitive):
        eval_closed(PrimApp("+", (lit(1), lit(1))))
    with pytest.raises(UnknownPrimitive):
        run_in_machine(PrimApp("+", (lit(1), lit(1))))


def test_eval_left_to_right_argument_order():
    # both arguments branch residually; the first argument's case must come
    # out on top
    t = Lam(
        "a",
        RAT,
        Lam(
            "b",
            RAT,
            PrimApp(
                "*",
                (
                    mk_if(PrimApp("==", (Var("a"), lit(0))), lit(1), lit(2)),
                    mk_if(PrimApp("==", (Var("b"), lit(0))), lit(3), lit(4)),
                ),
            ),
        ),
    )
    got = norm(t, SIG, smart_prim_env())
    x0, x1 = Var("x0"), Var("x1")
    inner = lambda v_a: Case(  # noqa: E731
        PrimApp("==", (x1, lit(0))),
        Lam("x3" if v_a == 2 else "x6", Unit(), lit(v_a * 4)),
        Lam("x4" if v_a == 2 else "x7", Unit(), lit(v_a * 3)),
    )
    expected = Lam(
        "x0",
        RAT,
        Lam(
            "x1",
            RAT,
            Case(
                PrimApp("==", (x0, lit(0))),
                Lam("x2", Unit(), inner(2)),
                Lam("x5", Unit(), inner(1)),
            ),
        ),
    )
    assert got == expected


def test_semantic_beta_laws_on_generated_terms():
    # App(Lam(x,N),M), Fst(Pair(M,N)), Case(Inl M, L, R) normalize like
    # their contracted forms
    rng = random.Random(424)
    gen = TermGen(rng)
    env = smart_prim_env()
    for _ in range(25):
        m = gen.gen(RAT, {}, 2)
        n = gen.gen(RAT, {}, 2)
        f = gen.gen(Arrow(RAT, RAT), {}, 2)
        try:
            lhs = [
                norm(App(Lam("q", RAT, PrimApp("*", (Var("q"), Var("q")))), m), SIG, env),
                norm(Fst(Pair(m, n)), SIG, env),
                norm(Case(Inl(m, Sum(RAT, RAT)), f, f), SIG, env),
            ]
            rhs = [
                norm(PrimApp("*", (m, m)), SIG, env),
                norm(m, SIG, env),
                norm(App(f, m), SIG, env),
            ]
        except DivisionByZero:
            continue  # zero-divisor folds; covered by the corpus policy
        for a, b in zip(lhs, rhs):
            assert alpha_eq(a, b)


def shape_matches(value, ty):
    """`reify` is the shape check: it reads a value back at a type and raises
    `ShapeMismatch` at the first node where the two disagree."""
    try:
        reify(ty, value, NameSupply())
    except ShapeMismatch:
        return False
    return True


def test_shape_matches():
    assert shape_matches(SBase("Q", lit(1)), RAT)
    assert not shape_matches(SBase("Q", lit(1)), Unit())
    assert shape_matches(SUnit(), Unit())
    assert shape_matches(SPair(SUnit(), SBase("Q", lit(2))), Prod(Unit(), RAT))
    assert shape_matches(SInl(SUnit()), BOOL)
    assert not shape_matches(SInl(SUnit()), Sum(RAT, Unit()))
    assert shape_matches(Closure(Lam("x", RAT, Var("x")), {}), Arrow(RAT, RAT))


def test_eval_results_match_type_shapes():
    # reify checks the value's shape at every node of the type, function
    # bodies included
    rng = random.Random(99)
    gen = TermGen(rng)
    for ty in ACCEPT_TYPES:
        for _ in range(10):
            t = gen.gen(ty, {}, 2)
            try:
                v = eval_closed(t)
                code = reify(ty, v, NameSupply())
            except DivisionByZero:
                continue
            assert infer({}, SIG, code) == ty


def test_apply_non_function_is_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        eval_closed(App(UnitVal(), UnitVal()))
    with pytest.raises(ShapeMismatch):
        run_in_machine(App(UnitVal(), UnitVal()), ty=Unit())
