import random
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ebn import syntax
from ebn.chars import parse_chars
from ebn.examples import power, power_prime
from ebn.nbe import norm
from ebn.primitives import BOOL, RAT, lit, mk_if, naive_prim_env, rational_signature, smart_prim_env
from ebn.syntax import (
    AnnotationMissing,
    App,
    ArityMismatch,
    Arrow,
    Base,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Lit,
    Pair,
    ParseError,
    PrimApp,
    Prod,
    Snd,
    Sum,
    TypeMismatch,
    UnboundVariable,
    Unit,
    UnitVal,
    UnknownBaseType,
    UnknownPrimitive,
    Var,
    alpha_eq,
    beta_normal,
    children,
    free_vars,
    infer,
    parse_term,
    parse_type,
    pretty_term,
    print_term,
    print_type,
    subterms,
)

from conftest import TermGen, ACCEPT_TYPES

SIG = rational_signature()


# ---------------------------------------------------------------------------
# infer


def test_infer_identity():
    t = Lam("x", RAT, Var("x"))
    assert infer({}, SIG, t) == Arrow(RAT, RAT)


def test_infer_power_type():
    assert infer({}, SIG, power(-6)) == Arrow(RAT, RAT)


def test_infer_case_of_units():
    t = Case(
        Inl(UnitVal(), Sum(Unit(), Unit())),
        Lam("a", Unit(), UnitVal()),
        Lam("b", Unit(), UnitVal()),
    )
    assert infer({}, SIG, t) == Unit()


def test_infer_env_lookup():
    assert infer({"y": RAT}, SIG, Var("y")) == RAT
    with pytest.raises(UnboundVariable):
        infer({}, SIG, Var("y"))


def test_infer_prim_errors():
    with pytest.raises(UnknownPrimitive):
        infer({}, SIG, PrimApp("+", (lit(1), lit(2))))
    with pytest.raises(ArityMismatch):
        infer({}, SIG, PrimApp("*", (lit(1),)))
    with pytest.raises(UnknownBaseType):
        infer({}, SIG, Lit(Fraction(1), "R"))
    with pytest.raises(UnknownBaseType):
        infer({}, SIG, Lam("x", Base("R"), Var("x")))


def test_infer_literal_outside_carrier():
    with pytest.raises(TypeMismatch):
        infer({}, SIG, Lit(0.5, "Q"))


def test_infer_mismatch_reports_path():
    # the bad argument sits at fun(1) -> arg of the application
    t = App(Lam("x", RAT, Var("x")), UnitVal())
    with pytest.raises(TypeMismatch) as exc:
        infer({}, SIG, t)
    assert exc.value.path == (1,)


def test_infer_leftmost_innermost_failure():
    bad = PrimApp("*", (UnitVal(), PrimApp("+", (lit(1), lit(1)))))
    with pytest.raises(TypeMismatch) as exc:
        infer({}, SIG, bad)
    assert exc.value.path == (0,)


def test_infer_case_branch_shapes():
    scrut = Inl(lit(1), Sum(RAT, Unit()))
    with pytest.raises(TypeMismatch):
        infer({}, SIG, Case(scrut, lit(1), Lam("b", Unit(), lit(0))))
    with pytest.raises(TypeMismatch):
        infer(
            {},
            SIG,
            Case(scrut, Lam("a", RAT, Var("a")), Lam("b", Unit(), UnitVal())),
        )


def test_infer_annotation_must_be_sum():
    with pytest.raises(TypeMismatch):
        infer({}, SIG, Inl(lit(1), RAT))


# ---------------------------------------------------------------------------
# alpha_eq


def test_alpha_eq_examples():
    assert alpha_eq(Lam("x", RAT, Var("x")), Lam("y", RAT, Var("y")))
    assert not alpha_eq(Var("x"), Var("y"))
    assert not alpha_eq(
        Lam("x", RAT, Lam("y", RAT, Var("x"))),
        Lam("a", RAT, Lam("b", RAT, Var("b"))),
    )


def test_alpha_eq_annotations_matter():
    assert not alpha_eq(Lam("x", RAT, Var("x")), Lam("x", Unit(), Var("x")))
    assert not alpha_eq(Inl(UnitVal(), BOOL), Inl(UnitVal(), Sum(Unit(), RAT)))


def test_alpha_eq_bound_vs_free():
    # bound on one side, free on the other
    assert not alpha_eq(Lam("x", RAT, Var("x")), Lam("y", RAT, Var("x")))


def _chain(depth: int, wrap, leaf):
    t = leaf
    for i in range(depth):
        t = wrap(i, t)
    return t


_CHAIN_WRAPS = {
    "prim *": lambda i, t: PrimApp("*", (lit(i), t)),
    "lam": lambda i, t: Lam(f"v{i}", RAT, t),
    "fst": lambda i, t: Fst(t),
    "case": lambda i, t: Case(Var("s"), Lam("l", Unit(), t), Lam("r", Unit(), UnitVal())),
}


@pytest.mark.parametrize("head", _CHAIN_WRAPS)
def test_alpha_eq_walks_deep_chains(head):
    assert sys.getrecursionlimit() == 1000
    depth, wrap = 3000, _CHAIN_WRAPS[head]
    t = _chain(depth, wrap, Var("v0"))
    assert alpha_eq(t, _chain(depth, wrap, Var("v0")))
    assert not alpha_eq(t, _chain(depth, wrap, Var("v1")))


def test_alpha_eq_deep_binders():
    depth = 3000

    def lams(stem, odd_annot):
        def wrap(i, t):
            return Lam(f"{stem}{i}", odd_annot if i == depth // 2 else RAT, t)

        return _chain(depth, wrap, Var(f"{stem}0"))

    assert alpha_eq(lams("v", RAT), lams("w", RAT))
    assert not alpha_eq(lams("v", RAT), lams("v", Unit()))
    assert not alpha_eq(lams("v", RAT), lams("w", Unit()))


_names = st.sampled_from(["a", "b", "c", "x", "y", "z"])
_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
_types = st.recursive(
    st.sampled_from([RAT, Unit()]),
    lambda ts: st.one_of(
        st.builds(Arrow, ts, ts), st.builds(Prod, ts, ts), st.builds(Sum, ts, ts)
    ),
    max_leaves=4,
)
_raw_terms = st.recursive(
    st.one_of(
        st.builds(Var, _names),
        st.just(UnitVal()),
        st.builds(Lit, _rationals, st.just("Q")),
    ),
    lambda ts: st.one_of(
        st.builds(Lam, _names, _types, ts),
        st.builds(App, ts, ts),
        st.builds(Pair, ts, ts),
        st.builds(Fst, ts),
        st.builds(Snd, ts),
        st.builds(Inl, ts, _types),
        st.builds(Inr, ts, _types),
        st.builds(Case, ts, ts, ts),
        st.builds(
            lambda n, args: PrimApp(n, tuple(args)),
            st.sampled_from(["*", "/", "=="]),
            st.lists(ts, min_size=1, max_size=3),
        ),
    ),
    max_leaves=10,
)


def _rename_binders(t, suffix, counter=None):
    """An alpha-equivalent copy with all binders renamed apart."""
    counter = counter if counter is not None else [0]

    def go(t, ren):
        match t:
            case Var(name=x):
                return Var(ren.get(x, x))
            case Lam(binder=x, annot=a, body=n):
                counter[0] += 1
                fresh = f"{suffix}{counter[0]}"
                return Lam(fresh, a, go(n, {**ren, x: fresh}))
            case App(fun=f, arg=a):
                return App(go(f, ren), go(a, ren))
            case Pair(first=a, second=b):
                return Pair(go(a, ren), go(b, ren))
            case Fst(arg=a):
                return Fst(go(a, ren))
            case Snd(arg=a):
                return Snd(go(a, ren))
            case Inl(arg=a, annot=ty):
                return Inl(go(a, ren), ty)
            case Inr(arg=a, annot=ty):
                return Inr(go(a, ren), ty)
            case Case(scrutinee=s, left=l, right=r):
                return Case(go(s, ren), go(l, ren), go(r, ren))
            case PrimApp(name=n, args=args):
                return PrimApp(n, tuple(go(a, ren) for a in args))
            case _:
                return t

    return go(t, {})


@given(_raw_terms)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


@given(_raw_terms)
def test_alpha_eq_closed_under_renaming(t):
    v1 = _rename_binders(t, "r")
    v2 = _rename_binders(t, "s")
    assert alpha_eq(t, v1)
    assert alpha_eq(v1, t)  # symmetry
    assert alpha_eq(v1, v2)  # transitivity through t


@given(_raw_terms, _raw_terms)
def test_alpha_eq_symmetric(t1, t2):
    assert alpha_eq(t1, t2) == alpha_eq(t2, t1)


# ---------------------------------------------------------------------------
# beta_normal


def test_beta_normal_examples():
    assert not beta_normal(App(Lam("x", RAT, Var("x")), lit(1)))
    assert not beta_normal(Fst(Pair(UnitVal(), UnitVal())))
    assert not beta_normal(Snd(Pair(UnitVal(), UnitVal())))
    assert not beta_normal(Case(Inl(lit(1), Sum(RAT, RAT)), Var("f"), Var("g")))
    assert beta_normal(Lam("x", RAT, Var("x")))


@given(_raw_terms)
def test_beta_normal_closed_under_subterms(t):
    if beta_normal(t):
        assert all(beta_normal(s) for s in subterms(t))


def _fst_chain(depth: int):
    t = UnitVal()
    for _ in range(depth):
        t = Fst(t)
    return t


def test_beta_normal_deep_and_shared():
    assert sys.getrecursionlimit() == 1000
    assert beta_normal(_fst_chain(3000))
    redex = Fst(Pair(lit(1), lit(2)))
    shared = PrimApp("*", (redex, lit(3)))
    assert not beta_normal(Pair(shared, shared))
    assert not beta_normal(Case(Var("s"), Lam("a", Unit(), shared), Lam("b", Unit(), shared)))


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_examples():
    assert parse_term("(lam (x Q) (var x))") == Lam("x", Base("Q"), Var("x"))
    assert parse_term("(inl unit (sum unit unit))") == Inl(UnitVal(), Sum(Unit(), Unit()))
    assert parse_term("(prim * (lit 2 Q) (lit 3 Q))") == PrimApp("*", (lit(2), lit(3)))


def test_parse_rationals():
    assert parse_term("(lit -1/2 Q)") == Lit(Fraction(-1, 2), "Q")
    assert parse_term("(lit 7 Q)") == lit(7)
    assert parse_term("(lit 2/4 Q)") == Lit(Fraction(1, 2), "Q")  # normalized
    with pytest.raises(ParseError):
        parse_term("(lit 1/0 Q)")
    with pytest.raises(ParseError):
        parse_term("(lit 1.5 Q)")


def test_parse_whitespace_and_comments():
    text = """
    (case (var s) ; scrutinee
          (lam (a unit) unit)
          (lam (b unit) unit))
    """
    t = parse_term(text)
    assert isinstance(t, Case)
    for tail in ("; done", "; done\n", ";c\n"):
        assert parse_term("(var x)" + tail) == Var("x")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_term("(app (var x)")
    assert exc.value.line == 1 and exc.value.col > 0
    with pytest.raises(ParseError) as exc:
        parse_term("(lam (x Q) (var x)) trailing")
    assert exc.value.col == 21
    with pytest.raises(ParseError) as exc:
        parse_term("(pair ; a comment\n  unit\n\t(bad))")
    assert (exc.value.line, exc.value.col) == (3, 3)
    assert exc.value.message == "unknown term form 'bad'"
    with pytest.raises(ParseError) as exc:
        parse_chars('(chr "a"')
    assert (exc.value.line, exc.value.col) == (1, 9)
    with pytest.raises(ParseError) as exc:
        parse_chars('(cat eps\n (chr "a))')
    assert (exc.value.line, exc.value.col, exc.value.message) == (2, 7, "unterminated string")


def test_parse_reads_deep_chains():
    depth = 800
    for head in ("prim f", "app (var f)", "fst", "lam (x Q)"):
        t = parse_term(f"({head} " * depth + "unit" + ")" * depth)
        for _ in range(depth):
            t = children(t)[-1]
        assert t == UnitVal()


def test_parse_annotation_missing():
    with pytest.raises(AnnotationMissing):
        parse_term("(lam (x) (var x))")
    with pytest.raises(AnnotationMissing):
        parse_term("(inl unit)")
    with pytest.raises(AnnotationMissing):
        parse_term("(inr unit)")


def test_parse_type_examples():
    assert parse_type("Q") == Base("Q")
    assert parse_type("(arrow Q (prod unit Q))") == Arrow(RAT, Prod(Unit(), RAT))
    with pytest.raises(ParseError):
        parse_type("(arrow Q)")


def test_print_examples():
    assert print_term(Lam("x0", RAT, Var("x0"))) == "(lam (x0 Q) (var x0))"
    assert print_term(UnitVal()) == "unit"
    assert (
        print_term(
            Case(Var("s"), Lam("a", Unit(), UnitVal()), Lam("b", Unit(), UnitVal()))
        )
        == "(case (var s) (lam (a unit) unit) (lam (b unit) unit))"
    )
    assert print_type(Sum(RAT, Unit())) == "(sum Q unit)"


@given(_raw_terms)
def test_print_parse_round_trip(t):
    back = parse_term(print_term(t))
    assert back == t
    assert alpha_eq(back, t)


def test_round_trip_preserves_types():
    rng = random.Random(1380)
    gen = TermGen(rng)
    for ty in ACCEPT_TYPES:
        for _ in range(10):
            t = gen.gen(ty, {}, rng.randint(1, 4))
            back = parse_term(print_term(t))
            assert infer({}, SIG, back) == infer({}, SIG, t) == ty


def test_free_vars():
    t = Lam("x", RAT, PrimApp("*", (Var("x"), Var("y"))))
    assert free_vars(t) == {"y"}


# ---------------------------------------------------------------------------
# printing shared terms


def unshare(t):
    """A copy of `t` in which no node is shared: every subterm is rebuilt."""

    def copy(v):
        if isinstance(v, tuple):
            return tuple(map(copy, v))
        return unshare(v) if isinstance(v, syntax.Term) else v

    return replace(t, **{f.name: copy(getattr(t, f.name)) for f in fields(t)})


def _dag_size(t) -> int:
    seen = set()
    stack = [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen.add(id(u))
            stack.extend(children(u))
    return len(seen)


def _tree_size(t) -> int:
    return 1 + sum(map(_tree_size, children(t)))


def _assert_prints_as_tree(t):
    flat = unshare(t)
    assert print_term(t) == print_term(flat)
    for prec in (0, 1, 2):
        assert pretty_term(t, prec) == pretty_term(flat, prec)


def _bool_chain(k: int):
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


def test_printers_ignore_sharing_in_normal_forms():
    cases = [(6, norm(_bool_chain(6), SIG, smart_prim_env()))]
    for env in (smart_prim_env(), naive_prim_env()):
        for make in (power, power_prime):
            for k in range(1, 9):
                for n in (2**k - 1, -(2**k - 1)):
                    cases.append((k, norm(make(n), SIG, env)))
    for k, t in cases:
        _assert_prints_as_tree(t)
        # The property says something only where the term shares.
        assert k == 1 or _dag_size(t) < _tree_size(t)


@given(_raw_terms)
def test_printers_ignore_sharing(t):
    # In `App(t, t)` the one node is an operand at precedence 1 and 2.
    for shared in (Pair(t, t), PrimApp("*", (t, t)), Case(Var("s"), t, t), App(t, t)):
        _assert_prints_as_tree(shared)


def test_printers_format_each_shared_node_once(monkeypatch):
    t = lit(3)
    for _ in range(12):
        t = PrimApp("*", (t, t))
    calls = []
    real = syntax.format_rational
    monkeypatch.setattr(syntax, "format_rational", lambda q: calls.append(q) or real(q))
    assert print_term(t).count("(lit 3 Q)") == 4096
    assert len(calls) == 1
    assert pretty_term(t).count("3") == 4096
    assert len(calls) == 2


def test_printers_handle_deep_chains():
    assert sys.getrecursionlimit() == 1000
    depth = 3000
    t = _fst_chain(depth)
    assert print_term(t) == "(fst " * depth + "unit" + ")" * depth
    assert pretty_term(t) == "fst (" * (depth - 1) + "fst unit" + ")" * (depth - 1)
