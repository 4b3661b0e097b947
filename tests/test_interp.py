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
    import ebn.semantics

    assert ebn.interp.ShapeMismatch is ebn.semantics.ShapeMismatch


def test_format_value():
    assert format_value(CRat(Fraction(-1, 2))) == "-1/2"
    assert format_value(CRat(Fraction(3))) == "3"
    assert format_value(CPair(CUnit(), CInr(CUnit()))) == "<unit, inr unit>"
    assert format_value(CFun(lambda v: v)) == "<fun>"


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
