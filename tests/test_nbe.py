import copy
import random
import sys

import pytest

from ebn.control import reset
from ebn.examples import power
from ebn.interp import run
from ebn.nbe import _PRIMS, NameSupply, norm, reify
from ebn.primitives import (
    BOOL,
    PrimSignature,
    PrimType,
    RAT,
    lit,
    naive_prim_env,
    rational_signature,
    smart_prim_env,
)
from ebn.semantics import (
    Closure,
    SBase,
    SemValue,
    SInl,
    SInr,
    SPair,
    SUnit,
)
from ebn.syntax import (
    App,
    Arrow,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Lit,
    Pair,
    PrimApp,
    Prod,
    ShapeMismatch,
    Snd,
    Sum,
    UnboundVariable,
    Unit,
    UnknownPrimitive,
    UnitVal,
    Var,
    alpha_eq,
    beta_normal,
    children,
    infer,
    parse_term,
    print_term,
)

from conftest import TermGen, agree_on_probes, bool_chain, run_in_machine
from spec_nbe import reflect

SIG = rational_signature()


def test_name_supply_is_deterministic():
    ns = NameSupply()
    assert [ns.fresh() for _ in range(3)] == ["x0", "x1", "x2"]
    assert NameSupply().fresh() == "x0"  # a new supply starts again


# ---------------------------------------------------------------------------
# reify


def test_reify_semantic_identity():
    v = Closure(Lam("y", RAT, Var("y")), {})
    t = reify(Arrow(RAT, RAT), v, NameSupply())
    assert t == Lam("x0", RAT, Var("x0"))


def test_reify_constant_unit_function_over_sum():
    ty = Arrow(Sum(Unit(), Unit()), Unit())
    t = reify(ty, Closure(Lam("b", Sum(Unit(), Unit()), UnitVal()), {}), NameSupply())
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
    assert reify(RAT, SBase("Q", lit(3)), NameSupply()) == lit(3)


def test_reify_base_exp_emits_code():
    assert reify(RAT, SBase("Q", Var("m")), NameSupply()) == Var("m")


def test_reify_pair_and_sum():
    v = SPair(SBase("Q", lit(1)), SInr(SUnit()))
    ty = Prod(RAT, Sum(RAT, Unit()))
    got = reify(ty, v, NameSupply())
    assert got == Pair(lit(1), Inr(UnitVal(), Sum(RAT, Unit())))


def test_reify_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        reify(RAT, SUnit(), NameSupply())
    with pytest.raises(ShapeMismatch):
        reify(Arrow(RAT, RAT), SUnit(), NameSupply())


# ---------------------------------------------------------------------------
# reflect, as the reference normaliser writes it; the machine's is compared
# with it in test_spec_nbe.py


def test_reflect_base_is_residual_code():
    code = Var("y")
    out = []
    reflect(RAT, code, NameSupply()).run(lambda v: (out.append(v), UnitVal())[1])
    assert out == [SBase("Q", code)]
    assert out[0].payload is code  # reflection at a base type is the identity on code


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


# A sum whose right summand is compound: the shift reflects the right
# branch's binder through a machine step, not at once.  Each row: the term,
# its normal form, and arguments to run both on.
RIGHT_COMPOUND = {
    "prod": (
        "(lam (s (sum Q (prod Q Q))) (case (var s) (lam (a Q) (var a)) "
        "(lam (p (prod Q Q)) (fst (var p)))))",
        "(lam (x0 (sum Q (prod Q Q))) (case (var x0) (lam (x1 Q) (var x1)) "
        "(lam (x2 (prod Q Q)) (fst (var x2)))))",
        ["(inl (lit 3 Q) (sum Q (prod Q Q)))", "(inr (pair (lit 4 Q) (lit 5 Q)) (sum Q (prod Q Q)))"],
    ),
    "arrow": (
        "(lam (s (sum Q (arrow Q Q))) (case (var s) (lam (a Q) (var a)) "
        "(lam (f (arrow Q Q)) (app (var f) (lit 2 Q)))))",
        "(lam (x0 (sum Q (arrow Q Q))) (case (var x0) (lam (x1 Q) (var x1)) "
        "(lam (x2 (arrow Q Q)) (app (var x2) (lit 2 Q)))))",
        [
            "(inl (lit 3 Q) (sum Q (arrow Q Q)))",
            "(inr (lam (y Q) (prim * (var y) (lit 7 Q))) (sum Q (arrow Q Q)))",
        ],
    ),
    "sum": (
        "(lam (s (sum Q (sum unit unit))) (case (var s) (lam (a Q) (var a)) "
        "(lam (b (sum unit unit)) (case (var b) (lam (u unit) (lit 0 Q)) (lam (u unit) (lit 1 Q))))))",
        "(lam (x0 (sum Q (sum unit unit))) (case (var x0) (lam (x1 Q) (var x1)) "
        "(lam (x2 (sum unit unit)) (case (var x2) (lam (x3 unit) (lit 0 Q)) (lam (x4 unit) (lit 1 Q))))))",
        [
            "(inl (lit 3 Q) (sum Q (sum unit unit)))",
            "(inr (inl unit (sum unit unit)) (sum Q (sum unit unit)))",
            "(inr (inr unit (sum unit unit)) (sum Q (sum unit unit)))",
        ],
    ),
}


def _golden_and_oracle(src, expected, args):
    t = parse_term(src)
    got = norm(t, SIG, smart_prim_env())
    assert print_term(got) == expected
    for arg in map(parse_term, args):
        assert run(App(got, arg)) == run(App(t, arg))


@pytest.mark.parametrize("src, expected, args", RIGHT_COMPOUND.values(), ids=RIGHT_COMPOUND.keys())
def test_norm_shift_with_a_compound_right_summand_golden(src, expected, args):
    _golden_and_oracle(src, expected, args)


# Reflection at unit: a variable, an application's result or a component of
# unit type is the unit value, with no code of its own.
AT_UNIT = {
    "var": ("(lam (u unit) (var u))", "(lam (x0 unit) unit)", ["unit"]),
    "app": (
        "(lam (f (arrow Q unit)) (app (var f) (lit 1 Q)))",
        "(lam (x0 (arrow Q unit)) unit)",
        ["(lam (y Q) unit)"],
    ),
    "prod": (
        "(lam (p (prod unit Q)) (var p))",
        "(lam (x0 (prod unit Q)) (pair unit (snd (var x0))))",
        ["(pair unit (lit 5 Q))"],
    ),
}


@pytest.mark.parametrize("src, expected, args", AT_UNIT.values(), ids=AT_UNIT.keys())
def test_norm_reflects_at_unit_golden(src, expected, args):
    _golden_and_oracle(src, expected, args)


def test_norm_shares_a_folded_literal_used_twice():
    # the folded product is one Lit, which both components reify to
    t = parse_term("(app (lam (y Q) (pair (var y) (var y))) (prim * (lit 2 Q) (lit 3 Q)))")
    got = norm(t, SIG, smart_prim_env())
    assert got == Pair(lit(6), lit(6))
    assert got.first is got.second


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


# ---------------------------------------------------------------------------
# Atoms evaluated in place and source redexes bound directly


def _eval(src: str, env: dict, prims=None):
    return run_in_machine(parse_term(src), env, prims)


def test_eval_unbound_primitive_arguments_leftmost_first():
    with pytest.raises(UnboundVariable, match="'a'"):
        _eval("(prim * (var a) (var b))", {})
    with pytest.raises(UnboundVariable, match="'b'"):
        _eval("(prim * (var a) (var b))", {"a": SBase("Q", lit(2))})


def test_eval_unbound_redex_argument():
    with pytest.raises(UnboundVariable, match="'z'"):
        _eval("(app (lam (y Q) (var y)) (var z))", {})


@pytest.mark.parametrize(
    "src, expected",
    [
        # an application whose function is a variable bound to a lambda
        (
            "(lam (x Q) (app (lam (f (arrow Q Q)) (app (var f) (var x))) (lam (y Q) (prim * (var y) (var y)))))",
            "(lam (x0 Q) (prim * (var x0) (var x0)))",
        ),
        # ... and to reflected code
        (
            "(lam (f (arrow Q Q)) (lam (x Q) (app (var f) (prim * (var x) (var x)))))",
            "(lam (x0 (arrow Q Q)) (lam (x1 Q) (app (var x0) (prim * (var x1) (var x1)))))",
        ),
        # case branches that are variables bound to lambdas
        (
            "(lam (s (sum Q unit)) (app (lam (f (arrow Q Q)) (app (lam (g (arrow unit Q)) "
            "(case (var s) (var f) (var g))) (lam (u unit) (lit 0 Q)))) "
            "(lam (y Q) (prim * (var y) (lit 2 Q)))))",
            "(lam (x0 (sum Q unit)) (case (var x0) (lam (x1 Q) (prim * (var x1) (lit 2 Q))) "
            "(lam (x2 unit) (lit 0 Q))))",
        ),
        # a shift at (sum Q unit) under a primitive's pending argument
        (
            "(lam (m (sum Q unit)) (prim * (lit 3 Q) (case (var m) (lam (y Q) (var y)) (lam (u unit) (lit 1 Q)))))",
            "(lam (x0 (sum Q unit)) (case (var x0) (lam (x1 Q) (prim * (lit 3 Q) (var x1))) "
            "(lam (x2 unit) (lit 3 Q))))",
        ),
    ],
)
def test_norm_variable_functions_and_unit_shift_golden(src, expected):
    assert print_term(norm(parse_term(src), SIG, smart_prim_env())) == expected


def test_eval_nullary_primitives_and_host_function():
    # a client's constants, one folded and one residual, and a client's entry,
    # a host function, applied to a non-atomic argument and to an atom
    prims = {
        "one": lambda args, names: SBase("Q", lit(1)),
        "c": lambda args, names: (RAT, Var("c")),
        "double": lambda args, names: SBase("Q", PrimApp("*", (args[0].payload, lit(2)))),
        **smart_prim_env(),
    }
    src = "(prim * (prim one) (prim * (prim double (prim c)) (prim double (var y))))"
    assert _eval(src, {"y": SBase("Q", Var("y"))}, prims) == parse_term(
        "(prim * (prim * (var c) (lit 2 Q)) (prim * (var y) (lit 2 Q)))"
    )


def test_a_nullary_primitive_reflects_its_request_at_bool():
    # the entry of a nullary primitive is called with no arguments through
    # the one primitive step, and its request is reflected there: at Bool,
    # a shift that cases on the residual call
    sig = PrimSignature(bases=SIG.bases, prims={**SIG.prims, "coin": PrimType((), BOOL)})
    prims = {**smart_prim_env(), "coin": lambda args, names: (BOOL, PrimApp("coin", args))}
    t = parse_term("(lam (x Q) (case (prim coin) (lam (u unit) (var x)) (lam (w unit) (prim * (var x) (lit 2 Q)))))")
    assert print_term(norm(t, sig, prims)) == (
        "(lam (x0 Q) (case (prim coin) (lam (x1 unit) (var x0)) (lam (x2 unit) (prim * (var x0) (lit 2 Q)))))"
    )


def test_a_primitive_missing_from_the_environment_is_reported_before_its_arguments():
    with pytest.raises(UnknownPrimitive) as e:
        _eval("(prim * (lit 1 Q) (prim c))", {})
    assert str(e.value) == "no semantic entry for primitive 'c'"
    with pytest.raises(UnknownPrimitive, match="^no semantic entry for primitive 'f'$"):
        _eval("(prim f (var unbound))", {})


def test_a_literal_lambda_branch_binds_in_the_case_environment_in_both_branches_of_a_shift():
    # the scrutinee binds `y` again and shifts at Bool; both runs of the case
    # frame bind their branch in the environment of the case, where `y` and
    # `w` are the outer ones, and the left run's `w` does not reach the right
    t = parse_term(
        "(lam (y Q) (lam (w Q) (case (app (lam (y Q) (prim == (var y) (lit 1 Q))) (prim * (var y) (lit 2 Q))) "
        "(lam (w unit) (var y)) (lam (u unit) (prim * (var y) (var w))))))"
    )
    assert print_term(norm(t, SIG, smart_prim_env())) == (
        "(lam (x0 Q) (lam (x1 Q) (case (prim == (prim * (var x0) (lit 2 Q)) (lit 1 Q)) "
        "(lam (x2 unit) (var x0)) (lam (x3 unit) (prim * (var x0) (var x1))))))"
    )


def test_a_source_redex_binds_in_its_own_environment():
    # the argument is a redex that binds `b` again; the outer redex binds
    # `a` where `b` is the outer one
    t = parse_term("(lam (b Q) (app (lam (a Q) (prim * (var a) (var b))) (app (lam (b Q) (var b)) (lit 3 Q))))")
    assert print_term(norm(t, SIG, smart_prim_env())) == "(lam (x0 Q) (prim * (lit 3 Q) (var x0)))"


def test_applying_a_term_that_a_host_function_returns_is_a_shape_mismatch():
    # a raw lambda is not a function value, even where a literal one binds
    prims = {"g": lambda args, names: Lam("y", RAT, Var("y"))}
    with pytest.raises(ShapeMismatch, match="^expected a function value, found Lam$"):
        _eval("(app (prim g unit) (lit 1 Q))", {}, prims)


def test_closure_primitives_do_not_leak_into_the_caller():
    # f was made with naive primitives; the smart code that applies it folds
    # its own product after f returns
    f = Closure(parse_term("(lam (x Q) (var x))"), {_PRIMS: naive_prim_env()})
    src = "(prim * (app (var f) (lit 2 Q)) (prim * (lit 3 Q) (lit 4 Q)))"
    assert print_term(_eval(src, {"f": f})) == "(lit 24 Q)"


def test_shift_inside_a_closure_keeps_its_primitives_for_the_right_branch():
    # g (naive) cases on a residual sum; the shift happens inside g's body,
    # so both branches run g's rest naively and the smart caller's rest
    # smartly
    g = Closure(
        parse_term(
            "(lam (h (arrow Q (sum unit unit))) (case (app (var h) (lit 1 Q)) "
            "(lam (u unit) (prim * (lit 2 Q) (lit 3 Q))) (lam (u unit) (prim * (lit 4 Q) (lit 5 Q)))))"
        ),
        {_PRIMS: naive_prim_env()},
    )
    src = "(lam (h (arrow Q (sum unit unit))) (prim * (app (var g) (var h)) (prim * (lit 6 Q) (lit 7 Q))))"
    f = Closure(parse_term(src), {"g": g, _PRIMS: smart_prim_env()})
    assert print_term(reify(Arrow(Arrow(RAT, BOOL), RAT), f, NameSupply())) == (
        "(lam (x0 (arrow Q (sum unit unit))) (case (app (var x0) (lit 1 Q)) "
        "(lam (x1 unit) (prim * (prim * (lit 2 Q) (lit 3 Q)) (lit 42 Q))) "
        "(lam (x2 unit) (prim * (prim * (lit 4 Q) (lit 5 Q)) (lit 42 Q)))))"
    )


def test_a_deep_copied_closure_keeps_its_primitives():
    # the key that binds the primitives in a closure's env survives deepcopy
    f = Closure(parse_term("(lam (x Q) (prim * (lit 2 Q) (lit 3 Q)))"), {_PRIMS: naive_prim_env()})
    twin = copy.deepcopy(f)
    assert twin is not f and twin.env is not f.env
    assert print_term(reify(Arrow(RAT, RAT), twin, NameSupply())) == "(lam (x0 Q) (prim * (lit 2 Q) (lit 3 Q)))"


def test_a_closure_whose_env_binds_no_primitives_reports_the_primitive():
    f = Closure(parse_term("(lam (x Q) (prim * (var x) (lit 2 Q)))"), {})
    with pytest.raises(UnknownPrimitive, match="'\\*'"):
        reify(Arrow(RAT, RAT), f, NameSupply())


def test_nested_host_function_applications_run_in_constant_stack():
    # a client's entry, a host function, called 10^4 deep: each call is one
    # step of the machine, which no call re-enters
    assert sys.getrecursionlimit() == 1000
    depth = 10**4
    t = Var("y")
    for _ in range(depth):
        t = PrimApp("succ", (t,))
    prims = {"succ": lambda args, names: SBase("Q", lit(args[0].payload.value + 1))}
    assert run_in_machine(t, {"y": SBase("Q", lit(0))}, prims) == lit(depth)


def test_norm_bool_chain_2_golden():
    # a let-redex whose argument shifts: both branches of the first test
    # continue into the second, left branch named first
    assert print_term(norm(bool_chain(2), SIG, smart_prim_env())) == (
        "(lam (x0 Q) (case (prim == (var x0) (lit 1 Q)) "
        "(lam (x1 unit) (case (prim == (var x0) (lit 2 Q)) "
        "(lam (x2 unit) (prim / (prim / (var x0) (lit 3 Q)) (lit 3 Q))) "
        "(lam (x3 unit) (prim * (prim / (var x0) (lit 3 Q)) (lit 2 Q))))) "
        "(lam (x4 unit) (case (prim == (var x0) (lit 2 Q)) "
        "(lam (x5 unit) (prim / (prim * (var x0) (lit 2 Q)) (lit 3 Q))) "
        "(lam (x6 unit) (prim * (prim * (var x0) (lit 2 Q)) (lit 2 Q)))))))"
    )


# ---------------------------------------------------------------------------
# Stack safety: the machine's Python stack use does not grow with the term


def _mul_tree(depth: int):
    """A balanced `*`-tree with 2^depth leaves under (lam (x Q) ...); every
    fourth leaf is a literal."""
    level = [Var("x") if i % 4 else lit(i + 2) for i in range(2**depth)]
    while len(level) > 1:
        level = [PrimApp("*", (level[i], level[i + 1])) for i in range(0, len(level), 2)]
    return Lam("x", RAT, level[0])


def _leaves(t):
    """The leaves of a `*`-tree or a right-nested tuple, left to right."""
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, (PrimApp, Pair)):
            stack.extend(reversed(children(u)))
        else:
            out.append(u)
    return out


def test_norm_depth_14_tree_at_default_limit():
    assert sys.getrecursionlimit() == 1000
    t = _mul_tree(14)
    got = norm(t, SIG, smart_prim_env())
    assert isinstance(got, Lam) and got.binder == "x0"
    # no two literals meet under one `*` and none is 1, so the tree keeps
    # its shape
    assert _leaves(got.body) == [
        Var("x0") if isinstance(leaf, Var) else leaf for leaf in _leaves(t.body)
    ]


def test_norm_900_tuple_at_default_limit():
    assert sys.getrecursionlimit() == 1000
    t = Var("x")
    for i in range(899):
        t = Pair(lit(i) if i % 2 else Var("x"), t)
    got = norm(Lam("x", RAT, t), SIG, smart_prim_env())
    want = Var("x0")
    for i in range(899):
        want = Pair(lit(i) if i % 2 else Var("x0"), want)
    assert _leaves(got.body) == _leaves(want)
    assert alpha_eq(got, Lam("x0", RAT, want))


def test_norm_900_left_chain_at_default_limit():
    assert sys.getrecursionlimit() == 1000
    t, want = Var("x"), Var("x0")
    for i in range(899):
        t = PrimApp("*", (t, lit(i + 2) if i % 3 == 0 else Var("x")))
        want = PrimApp("*", (want, lit(i + 2) if i % 3 == 0 else Var("x0")))
    got = norm(Lam("x", RAT, t), SIG, smart_prim_env())
    assert alpha_eq(got, Lam("x0", RAT, want))


def _nodes(t):
    """The distinct nodes of t, each once."""
    seen, stack = {id(t): t}, [t]
    while stack:
        for c in children(stack.pop()):
            if id(c) not in seen:
                seen[id(c)] = c
                stack.append(c)
    return seen.values()


def test_norm_reuses_source_literal_nodes():
    t = bool_chain(6)
    source = {id(u) for u in _nodes(t) if isinstance(u, Lit)}
    assert len(source) == 18
    for env in (smart_prim_env(), naive_prim_env()):
        normal = norm(t, SIG, env)
        assert {id(u) for u in _nodes(normal) if isinstance(u, Lit)} == source


def test_norm_folded_literals_are_new_nodes():
    two, three = lit(2), lit(3)
    got = norm(PrimApp("*", (two, three)), SIG, smart_prim_env())
    assert got == lit(6) and got is not two and got is not three
    # 1 * 3 folds as well: its 3 equals the source's but is a new node
    got = norm(PrimApp("*", (lit(1), three)), SIG, smart_prim_env())
    assert got == three and got is not three


def _right_tuple(n: int):
    t = lit(n)
    for i in range(n - 1):
        t = Pair(lit(i), t)
    return t


def _fst_chain(n: int):
    t = UnitVal()
    for _ in range(n):
        t = Pair(t, UnitVal())
    for _ in range(n):
        t = Fst(t)
    return t


def _lam_chain(n: int):
    t = Var("x")
    for _ in range(n):
        t = Lam("x", RAT, t)
    return t


def _spine(t, cls, field):
    """The nodes of t's chain of `cls` nodes through `field`, and the node
    that ends it."""
    out = []
    while isinstance(t, cls):
        out.append(t)
        t = getattr(t, field)
    return out, t


@pytest.mark.parametrize("n", [1000, 100_000])
def test_infer_and_norm_right_tuple_at_default_limit(n):
    assert sys.getrecursionlimit() == 1000
    t = _right_tuple(n)
    prods, last = _spine(infer({}, SIG, t), Prod, "right")
    assert len(prods) == n - 1 and last == RAT and all(p.left == RAT for p in prods)
    got = norm(t, SIG, smart_prim_env())
    assert _leaves(got) == _leaves(t)
    assert got == t  # source literals are reused, so the normal form is the term


def test_infer_and_norm_10000_deep_fst_chain_at_default_limit():
    assert sys.getrecursionlimit() == 1000
    t = _fst_chain(10_000)
    assert infer({}, SIG, t) == Unit()
    assert norm(t, SIG, smart_prim_env()) == UnitVal()


def test_infer_and_norm_10000_deep_lam_chain_at_default_limit():
    # every binder is `x`, so each inner lam shadows the one outside it
    assert sys.getrecursionlimit() == 1000
    t = _lam_chain(10_000)
    arrows, cod = _spine(infer({}, SIG, t), Arrow, "cod")
    assert len(arrows) == 10_000 and cod == RAT and all(a.dom == RAT for a in arrows)
    lams, body = _spine(norm(t, SIG, smart_prim_env()), Lam, "body")
    assert [lam.binder for lam in lams] == [f"x{i}" for i in range(10_000)]
    assert body == Var("x9999")


@pytest.mark.parametrize("env", [smart_prim_env(), naive_prim_env()], ids=["smart", "naive"])
def test_norm_builds_each_residual_test_once_per_call(env):
    for k in range(1, 11):
        t = bool_chain(k)
        first, second = (
            {id(u): u for u in _nodes(norm(t, SIG, env)) if type(u) is PrimApp and u.name == "=="}
            for _ in range(2)
        )
        assert len(first) == len(second) == k
        assert not first.keys() & second.keys()  # two calls share no test node
