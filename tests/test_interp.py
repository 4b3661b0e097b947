import sys
from fractions import Fraction

import pytest

from ebn.examples import power
from ebn.interp import (
    CFun,
    CInl,
    CInr,
    CPair,
    CRat,
    CUnit,
    RuntimeDivisionByZero,
    ShapeMismatch,
    format_value,
    run,
)
from ebn.nbe import norm
from ebn.primitives import (
    RAT,
    lit,
    mk_false,
    mk_if,
    mk_true,
    rational_signature,
    smart_prim_env,
)
from ebn.syntax import (
    App,
    Case,
    Fst,
    Inl,
    Lam,
    Pair,
    PrimApp,
    Snd,
    Sum,
    UnitVal,
    Var,
)


def test_run_normalized_power():
    nt = norm(power(-6), rational_signature(), smart_prim_env())
    assert run(App(nt, lit(2))) == CRat(Fraction(-1, 64))


def test_run_power_zero():
    assert run(App(power(0), lit(5))) == CRat(Fraction(1))


def test_run_if():
    assert run(mk_if(mk_true(), lit(1), lit(0))) == CRat(Fraction(1))
    assert run(mk_if(mk_false(), lit(1), lit(0))) == CRat(Fraction(0))


def test_run_structural_forms():
    assert run(UnitVal()) == CUnit()
    assert run(Pair(lit(1), lit(2))) == CPair(CRat(Fraction(1)), CRat(Fraction(2)))
    assert run(Fst(Pair(lit(1), lit(2)))) == CRat(Fraction(1))
    assert run(Snd(Pair(lit(1), lit(2)))) == CRat(Fraction(2))
    assert run(Inl(lit(1), Sum(RAT, RAT))) == CInl(CRat(Fraction(1)))
    assert isinstance(run(Lam("x", RAT, Var("x"))), CFun)


def test_run_primitives():
    assert run(PrimApp("*", (lit(Fraction(1, 2)), lit(4)))) == CRat(Fraction(2))
    assert run(PrimApp("/", (lit(1), lit(3)))) == CRat(Fraction(1, 3))
    assert run(PrimApp("==", (lit(2), lit(2)))) == CInr(CUnit())
    assert run(PrimApp("==", (lit(2), lit(3)))) == CInl(CUnit())


def test_run_division_by_zero():
    with pytest.raises(RuntimeDivisionByZero):
        run(PrimApp("/", (lit(1), lit(0))))


def test_run_case_evaluates_chosen_branch_only():
    t = Case(
        Inl(lit(1), Sum(RAT, RAT)),
        Lam("a", RAT, Var("a")),
        Lam("b", RAT, PrimApp("/", (lit(1), lit(0)))),
    )
    assert run(t) == CRat(Fraction(1))


def test_run_shape_errors():
    with pytest.raises(ShapeMismatch):
        run(Var("ghost"))
    with pytest.raises(ShapeMismatch):
        run(Fst(lit(1)))
    with pytest.raises(ShapeMismatch):
        run(PrimApp("nope", ()))
    import ebn.interp
    import ebn.nbe

    assert ebn.interp.ShapeMismatch is ebn.nbe.ShapeMismatch


@pytest.mark.parametrize(
    "t, message",
    [
        (Case(lit(1), Lam("a", RAT, Var("a")), Lam("b", RAT, Var("b"))), "cased a non-sum CRat"),
        (App(lit(1), lit(2)), "applied a non-function CRat"),
        (Case(Inl(lit(1), Sum(RAT, RAT)), lit(1), Lam("b", RAT, Var("b"))), "case branch is not a function"),
    ],
    ids=["case of a non-sum", "application of a non-function", "case branch not a function"],
)
def test_run_shape_errors_name_the_value(t, message):
    with pytest.raises(ShapeMismatch) as exc:
        run(t)
    assert str(exc.value) == message


def test_format_value():
    assert format_value(CRat(Fraction(-1, 2))) == "-1/2"
    assert format_value(CRat(Fraction(3))) == "3"
    assert format_value(CPair(CUnit(), CInr(CUnit()))) == "<unit, inr unit>"
    assert format_value(CFun(Lam("x", RAT, Var("x")), {})) == "<fun>"


def test_a_closure_equals_only_itself():
    lam = Lam("x", RAT, Var("x"))
    f = run(lam)
    assert f == f and f != run(lam) and f != CFun(lam, {})
    assert hash(f) == object.__hash__(f)
    assert CPair(f, CUnit()) == CPair(f, CUnit()) != CPair(run(lam), CUnit())


def _nest(n, level, leaf):
    for _ in range(n):
        leaf = level(leaf)
    return leaf


def test_run_and_format_a_right_tuple_of_100000_at_default_limit():
    # run and format_value loop over explicit stacks, as norm does
    assert sys.getrecursionlimit() == 1000
    n = 100_000
    t, want = lit(0), CRat(Fraction(0))
    for i in range(1, n):
        t, want = Pair(lit(i), t), CPair(CRat(Fraction(i)), want)
    value = run(t)
    assert value == want
    text = "".join([f"<{i}, " for i in range(n - 1, 0, -1)]) + "0" + ">" * (n - 1)
    assert format_value(value) == text


def test_run_10000_deep_chains_at_default_limit():
    assert sys.getrecursionlimit() == 1000
    n = 10_000
    fst_chain = _nest(n, Fst, _nest(n, lambda t: Pair(t, UnitVal()), UnitVal()))
    assert run(fst_chain) == CUnit()
    # a curried function of n arguments, applied to all of them: each inner
    # binder shadows the outer ones, so the body sees the last argument
    app_chain = _nest(n, lambda t: Lam("x", RAT, t), Var("x"))
    for i in range(n):
        app_chain = App(app_chain, lit(i))
    assert run(app_chain) == CRat(Fraction(n - 1))
    # n negations of true, each a case in the scrutinee of the next
    if_chain = _nest(n, lambda t: mk_if(t, mk_false(), mk_true()), mk_true())
    assert run(if_chain) == CInr(CUnit())
    mul_chain = _nest(n, lambda t: PrimApp("*", (lit(2), t)), lit(1))
    assert run(mul_chain) == CRat(Fraction(2**n))


def test_interp_is_independent_of_the_normalizer():
    import ebn.interp as interp_mod

    assert "ebn.semantics" not in {m for m in _imported_modules(interp_mod)}
    assert "ebn.nbe" not in {m for m in _imported_modules(interp_mod)}


def _imported_modules(mod):
    import ast
    import inspect

    tree = ast.parse(inspect.getsource(mod))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            prefix = "ebn." if node.level else ""
            out.add(prefix + node.module)
    return out
