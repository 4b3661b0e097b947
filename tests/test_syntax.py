import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ebn import chars, reader, records, syntax
from ebn.chars import parse_chars
from ebn.examples import mk_fmap, mk_maybe, power, power_prime
from ebn.nbe import norm
from ebn.primitives import (
    BOOL,
    RAT,
    PrimSignature,
    PrimType,
    lit,
    mk_if,
    mk_true,
    naive_prim_env,
    rational_signature,
    smart_prim_env,
)
from ebn.reader import AnnotationMissing, ParseError
from ebn.syntax import (
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
    PrimApp,
    Prod,
    Snd,
    Sum,
    TypeMismatch,
    TypingError,
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
    pretty_type,
    print_term,
    print_type,
    validate_type,
)

from conftest import TermGen, ACCEPT_TYPES, bool_chain

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


def test_infer_returns_the_interned_types():
    assert infer({}, SIG, lit(1)) is RAT
    assert infer({}, SIG, Lam("x", RAT, Var("x"))) is Arrow(RAT, RAT)
    assert infer({}, SIG, Pair(lit(1), UnitVal())) is Prod(RAT, Unit())
    assert infer({}, SIG, mk_true()) is BOOL


def test_infer_validates_each_distinct_annotation_once(monkeypatch):
    calls = []
    real = syntax.validate_type
    monkeypatch.setattr(syntax, "validate_type", lambda ty, sig: calls.append(ty) or real(ty, sig))
    t = UnitVal()
    for i in range(10):
        t = App(Lam(f"x{i}", RAT, t), lit(i))
    t = Pair(t, Inl(UnitVal(), Sum(Unit(), RAT)))
    assert infer({}, SIG, t) == Prod(Unit(), Sum(Unit(), RAT))
    assert calls == [RAT, Sum(Unit(), RAT)]


def test_infer_validates_each_distinct_type_of_its_env_once(monkeypatch):
    # an unknown base in the environment raises as in an annotation, with
    # the empty path, whether or not the term uses its name
    for env in ({"y": Base("R")}, {"y": RAT, "z": Arrow(RAT, Base("R"))}):
        with pytest.raises(UnknownBaseType) as exc:
            infer(env, SIG, Var("y"))
        assert str(exc.value) == "unknown base type 'R'" and exc.value.path == ()
    calls = []
    real = syntax.validate_type
    monkeypatch.setattr(syntax, "validate_type", lambda ty, sig: calls.append(ty) or real(ty, sig))
    assert infer({"y": RAT, "z": BOOL, "w": RAT}, SIG, Lam("x", RAT, Var("y"))) is Arrow(RAT, RAT)
    assert calls == [RAT, BOOL]  # the annotation was validated with the env


def test_infer_annotation_must_be_sum():
    with pytest.raises(TypeMismatch):
        infer({}, SIG, Inl(lit(1), RAT))


def test_infer_nullary_primitive():
    sig = PrimSignature(bases=SIG.bases, prims={**SIG.prims, "c": PrimType((), RAT)})
    assert infer({}, sig, PrimApp("c", ())) is RAT
    t = Lam("x", RAT, PrimApp("*", (Var("x"), PrimApp("c", ()))))
    assert infer({}, sig, t) is Arrow(RAT, RAT)


@pytest.mark.parametrize(
    "src, message, path",
    [
        (
            "(lam (x Q) (case (var x) (lam (a Q) (var a)) (lam (b Q) (var b))))",
            "expected a sum type, found Q (at path 0.0)",
            (0, 0),
        ),
        ("(pair unit (inl (lit 1 Q) (sum unit Q)))", "expected unit, found Q (at path 1.0)", (1, 0)),
        ("(pair unit (inr unit (sum unit Q)))", "expected Q, found unit (at path 1.0)", (1, 0)),
    ],
    ids=["case of a non-sum", "inl payload", "inr payload"],
)
def test_infer_shape_errors_carry_message_and_path(src, message, path):
    with pytest.raises(TypingError) as exc:
        infer({}, SIG, parse_term(src))
    assert type(exc.value) is TypeMismatch
    assert str(exc.value) == message and exc.value.path == path


def test_infer_restores_outer_binding_after_a_lam():
    t = parse_term("(lam (x Q) (pair (lam (x unit) (var x)) (var x)))")
    assert pretty_type(infer({}, SIG, t)) == "Q -> (unit -> unit) * Q"
    env = {"x": RAT}
    assert infer(env, SIG, Pair(Lam("x", Unit(), Var("x")), Var("x"))) == Prod(
        Arrow(Unit(), Unit()), RAT
    )
    assert env == {"x": RAT}  # the caller's environment is left alone


def test_infer_reports_the_path_of_a_deep_bad_annotation():
    assert sys.getrecursionlimit() == 1000
    t = Lam("y", Base("R"), Var("y"))
    for _ in range(5000):
        t = Lam("x", RAT, t)
    with pytest.raises(UnknownBaseType) as exc:
        infer({}, SIG, t)
    assert exc.value.path == (0,) * 5000
    assert str(exc.value).startswith("unknown base type 'R' (at path 0.0.0.")


# The recursive typer that `infer`'s loop replaced, kept only as the
# reference that the loop must agree with.
def _infer_by_recursion(env, sig, t, path=()):
    def sub(u, i, bound=env):
        return _infer_by_recursion(bound, sig, u, path + (i,))

    def annotation(a):
        try:
            validate_type(a, sig)
        except UnknownBaseType as e:
            raise UnknownBaseType(e.args[0], path) from None

    match t:
        case Var(name=x):
            if x not in env:
                raise UnboundVariable(f"unbound variable {x!r}", path)
            return env[x]
        case Lit(value=v, base=b):
            if b not in sig.bases:
                raise UnknownBaseType(f"unknown base type {b!r}", path)
            if not sig.bases[b](v):
                raise TypeMismatch(Base(b), f"literal {v!r} outside its carrier", path)
            return Base(b)
        case UnitVal():
            return Unit()
        case Lam(binder=x, annot=a, body=body):
            annotation(a)
            return Arrow(a, sub(body, 0, {**env, x: a}))
        case App(fun=f, arg=a):
            fty = sub(f, 0)
            if not isinstance(fty, Arrow):
                raise TypeMismatch("a function type", fty, path + (0,))
            aty = sub(a, 1)
            if aty is not fty.dom:
                raise TypeMismatch(fty.dom, aty, path + (1,))
            return fty.cod
        case Pair(first=a, second=b):
            return Prod(sub(a, 0), sub(b, 1))
        case Fst(arg=a) | Snd(arg=a):
            pty = sub(a, 0)
            if not isinstance(pty, Prod):
                raise TypeMismatch("a product type", pty, path + (0,))
            return pty.left if type(t) is Fst else pty.right
        case Inl(arg=a, annot=s) | Inr(arg=a, annot=s):
            annotation(s)
            if not isinstance(s, Sum):
                raise TypeMismatch("a sum type annotation", s, path)
            want = s.left if type(t) is Inl else s.right
            aty = sub(a, 0)
            if aty is not want:
                raise TypeMismatch(want, aty, path + (0,))
            return s
        case Case(scrutinee=scrutinee, left=left, right=right):
            sty = sub(scrutinee, 0)
            if not isinstance(sty, Sum):
                raise TypeMismatch("a sum type", sty, path + (0,))
            branches = []
            for i, branch, side in ((1, left, sty.left), (2, right, sty.right)):
                bty = sub(branch, i)
                if not isinstance(bty, Arrow) or bty.dom is not side:
                    raise TypeMismatch(f"a function from {pretty_type(side)}", bty, path + (i,))
                branches.append(bty.cod)
            if branches[1] is not branches[0]:
                raise TypeMismatch(branches[0], branches[1], path + (2,))
            return branches[0]
        case PrimApp(name=c, args=args):
            if c not in sig.prims:
                raise UnknownPrimitive(f"unknown primitive {c!r}", path)
            decl = sig.prims[c]
            if len(args) != len(decl.args):
                raise ArityMismatch(
                    f"primitive {c!r} expects {len(decl.args)} arguments, got {len(args)}", path
                )
            for i, (a, want) in enumerate(zip(args, decl.args)):
                aty = sub(a, i)
                if aty is not want:
                    raise TypeMismatch(want, aty, path + (i,))
            return decl.result
    raise TypeError(f"not a term: {t!r}")


# Well-typed terms over a small pool of names, so binders shadow each other
# and the outer environment, and variables are often arguments.  The
# signature adds a primitive whose arguments have three types, and a nullary
# one.
_TYPER_SIG = PrimSignature(
    bases=SIG.bases, prims={**SIG.prims, "pick": PrimType((BOOL, RAT, Unit()), RAT), "c": PrimType((), RAT)}
)
_POOL = ("x", "y", "z")
_SIDES = (RAT, Unit(), BOOL)
_ANNOTATIONS = (RAT, Unit(), BOOL, Arrow(RAT, RAT), Prod(RAT, Unit()), Sum(Unit(), RAT), Base("R"))


def _typed(draw, ty, env, fuel):
    """A term of type `ty` under `env`, with at most `fuel` eliminations or
    primitives on any path; introductions follow the type."""
    forms = [name for name, a in env.items() if a is ty]
    cls = type(ty)
    if cls is Base:
        forms += ["lit", "c", "*", "/", "pick"] if fuel else ["lit", "c"]
    elif cls is Unit:
        forms.append("unit")
    elif cls is Arrow:
        forms.append("lam")
    elif cls is Prod:
        forms.append("pair")
    else:
        forms += ["inl", "inr"] + (["=="] if ty is BOOL and fuel else [])
    if fuel:
        forms += ["app", "fst", "snd", "case"]
    form = draw(st.sampled_from(forms))
    if form in env:
        return Var(form)
    if form == "lit":
        return lit(draw(st.integers(-3, 3)))
    if form == "unit":
        return UnitVal()
    if form in _TYPER_SIG.prims:
        return PrimApp(form, tuple(_typed(draw, a, env, fuel - 1) for a in _TYPER_SIG.prims[form].args))
    if form == "lam":
        x = draw(st.sampled_from(_POOL))
        return Lam(x, ty.dom, _typed(draw, ty.cod, {**env, x: ty.dom}, fuel))
    if form == "pair":
        return Pair(_typed(draw, ty.left, env, fuel), _typed(draw, ty.right, env, fuel))
    if form in ("inl", "inr"):
        side = ty.left if form == "inl" else ty.right
        return (Inl if form == "inl" else Inr)(_typed(draw, side, env, fuel), ty)
    d = draw(st.sampled_from(_SIDES))
    if form == "app":
        return App(_typed(draw, Arrow(d, ty), env, fuel - 1), _typed(draw, d, env, fuel - 1))
    if form == "fst":
        return Fst(_typed(draw, Prod(ty, d), env, fuel - 1))
    if form == "snd":
        return Snd(_typed(draw, Prod(d, ty), env, fuel - 1))
    e = draw(st.sampled_from(_SIDES))
    return Case(
        _typed(draw, Sum(d, e), env, fuel - 1),
        _typed(draw, Arrow(d, ty), env, fuel - 1),
        _typed(draw, Arrow(e, ty), env, fuel - 1),
    )


def _corruptions(t, env):
    """Every single-node corruption of `t`: (path, kind, the node's scope)."""
    out, stack = [], [(t, (), env)]
    while stack:
        u, path, scope = stack.pop()
        cls = type(u)
        if cls in (Lam, Inl, Inr):
            out.append((path, "annotation", scope))
        if cls in (Inl, Inr):
            out.append((path, "side", scope))
        if cls is Var:
            out.append((path, "unbind", scope))
        if cls is PrimApp:
            out += [(path, "name", scope), (path, "arity", scope)]
        if cls is Case:
            out += [(path + (i,), "domain", scope) for i in (1, 2) if type(children(u)[i]) is Lam]
        inner = {**scope, u.binder: u.annot} if cls is Lam else scope
        stack += [(c, path + (i,), inner) for i, c in enumerate(children(u))]
    return out


def _replace(t, path, make):
    """`t` with the node at `path` replaced by `make(node)`."""
    if not path:
        return make(t)
    i, rest = path[0], path[1:]
    if type(t) is PrimApp:
        args = list(t.args)
        args[i] = _replace(args[i], rest, make)
        return PrimApp(t.name, tuple(args))
    fields = [getattr(t, f) for f in t.__match_args__]
    slot = [j for j, v in enumerate(fields) if isinstance(v, syntax.Term)][i]
    fields[slot] = _replace(fields[slot], rest, make)
    return type(t)(*fields)


@st.composite
def _typer_inputs(draw):
    """(env, term): a well-typed term, or one with a single node corrupted:
    an annotation swapped, a variable unbound, a primitive's name or arity
    changed, an injection off its side or a case branch with the wrong
    domain."""
    env = {x: draw(st.sampled_from(_SIDES)) for x in draw(st.lists(st.sampled_from(_POOL), unique=True))}
    t = _typed(draw, draw(st.sampled_from(_ANNOTATIONS[:-1])), env, draw(st.integers(0, 3)))
    spots = _corruptions(t, env)
    if not spots or not draw(st.integers(0, 3)):
        return env, t
    path, kind, scope = draw(st.sampled_from(spots))
    if kind in ("annotation", "domain"):
        other = draw(st.sampled_from(_ANNOTATIONS))
        make = lambda u: type(u)(*[other if f == "annot" else getattr(u, f) for f in u.__match_args__])
    elif kind == "side":
        make = lambda u: (Inr if type(u) is Inl else Inl)(u.arg, u.annot)
    elif kind == "unbind":
        free = [x for x in _POOL if x not in scope] or ["w"]
        make = lambda u: Var(draw(st.sampled_from(free)))
    elif kind == "name":
        name = draw(st.sampled_from([*_TYPER_SIG.prims, "+"]))
        make = lambda u: PrimApp(name, u.args)
    else:
        n = draw(st.integers(0, 3))
        make = lambda u: PrimApp(u.name, (u.args * 2)[:n])
    return env, _replace(t, path, make)


def _typing_outcome(typer, env, t):
    try:
        return typer(env, _TYPER_SIG, t)
    except TypingError as e:
        return type(e), str(e), e.path


@settings(max_examples=400, deadline=None)
@given(_typer_inputs())
# A variable argument whose type is the function's codomain, not its domain,
# or a primitive's first argument type or result type, not its own; an outer
# x used again after an inner lam rebinds it; a lam's binder used outside
# it; the error paths of an application's argument, of a second primitive
# argument and of a case's right branch.
@example(({}, parse_term("(lam (f (arrow Q unit)) (lam (x unit) (app (var f) (var x))))")))
@example(({}, parse_term("(lam (b (sum unit unit)) (prim pick (var b) (var b) unit))")))
@example(({}, parse_term("(lam (b (sum unit unit)) (prim == (lit 1 Q) (var b)))")))
@example(({"x": RAT}, parse_term("(pair (lam (x unit) (var x)) (prim * (var x) (var x)))")))
@example(({}, parse_term("(pair (lam (x Q) (var x)) (var x))")))
@example(({"x": Unit()}, parse_term("(pair unit (app (lam (y Q) (var y)) (var x)))")))
@example(({"x": Unit()}, parse_term("(prim * (lit 1 Q) (var x))")))
@example(({}, parse_term("(case (inl unit (sum unit Q)) (lam (a unit) unit) (lam (b unit) unit))")))
def test_infer_agrees_with_the_recursive_typer(inputs):
    env, t = inputs
    before = dict(env)
    assert _typing_outcome(infer, env, t) == _typing_outcome(_infer_by_recursion, env, t)
    assert env == before


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


def test_alpha_eq_restores_outer_binding_after_a_lam():
    def shadowed(inner_body, after):
        # (lam x (pair (lam x' inner_body) after)), binders named x and x'
        return lambda x, x2: Lam(x, RAT, Pair(Lam(x2, RAT, inner_body(x, x2)), after(x, x2)))

    same_names = shadowed(lambda x, x2: Var(x2), lambda x, x2: Var(x))("x", "x")
    assert alpha_eq(same_names, shadowed(lambda x, x2: Var(x2), lambda x, x2: Var(x))("a", "b"))
    # the inner body refers to the outer binder
    assert not alpha_eq(same_names, shadowed(lambda x, x2: Var(x), lambda x, x2: Var(x))("a", "b"))
    # after the inner lam, its name is free again
    assert not alpha_eq(same_names, shadowed(lambda x, x2: Var(x2), lambda x, x2: Var(x2))("a", "b"))
    left = Pair(Lam("x", RAT, Var("x")), Var("x"))
    assert alpha_eq(left, Pair(Lam("y", RAT, Var("y")), Var("x")))
    assert not alpha_eq(left, Pair(Lam("x", RAT, Var("x")), Var("y")))


def _arrows(depth: int, leaf=RAT, *, left: bool = False):
    """`Q -> Q -> ... -> leaf` with `depth` arrows, or with `left`
    `((leaf -> Q) -> Q) ... -> Q`."""
    ty = leaf
    for _ in range(depth):
        ty = Arrow(ty, RAT) if left else Arrow(RAT, ty)
    return ty


@pytest.mark.parametrize("depth", [2000, 20000])
def test_deep_annotation_is_not_bounded_by_the_stack(depth):
    assert sys.getrecursionlimit() == 1000
    ty = _arrows(depth)
    t = Lam("f", ty, Var("f"))
    assert infer({}, SIG, t) == Arrow(ty, ty)
    # eta expansion: \f. \a1 ... \a_depth. f a1 ... a_depth
    body = Var("f")
    for i in range(1, depth + 1):
        body = App(body, Var(f"a{i}"))
    for i in range(depth, 0, -1):
        body = Lam(f"a{i}", RAT, body)
    assert alpha_eq(norm(t, SIG, smart_prim_env()), Lam("f", ty, body))
    assert print_term(t) == f"(lam (f {'(arrow Q ' * depth}Q{')' * depth}) (var f))"
    assert pretty_term(t) == f"\\f:{'Q -> ' * depth}Q. f"
    rebuilt = _arrows(depth)
    assert ty == rebuilt and hash(ty) == hash(rebuilt)
    assert ty != _arrows(depth, Unit()) and ty != _arrows(depth - 1)
    assert repr(ty) == "Arrow(dom=Base(name='Q'), cod=" * depth + "Base(name='Q')" + ")" * depth


def test_deep_left_nested_types():
    depth = 20000
    ty = _arrows(depth, left=True)
    assert ty == _arrows(depth, left=True) and hash(ty) == hash(_arrows(depth, left=True))
    assert ty != _arrows(depth, Unit(), left=True)
    assert print_type(ty) == f"{'(arrow ' * depth}Q{' Q)' * depth}"
    assert pretty_type(ty) == f"{'(' * (depth - 1)}Q -> Q{') -> Q' * (depth - 1)}"
    assert repr(ty).startswith("Arrow(dom=Arrow(dom=") and repr(ty).endswith("cod=Base(name='Q'))")
    validate_type(ty, SIG)
    with pytest.raises(UnknownBaseType, match="'A'"):
        validate_type(Arrow(_arrows(depth, Base("A"), left=True), Base("B")), SIG)


def test_alpha_eq_renamed_20000_deep_binders():
    depth = 20000

    def lams(stem, odd_annot):
        def wrap(i, t):
            return Lam(f"{stem}{i}", odd_annot if i == depth // 2 else RAT, t)

        return _chain(depth, wrap, Pair(Var(f"{stem}0"), Var(f"{stem}{depth - 1}")))

    assert alpha_eq(lams("v", RAT), lams("w", RAT))
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
        stack = [t]
        while stack:
            s = stack.pop()
            assert beta_normal(s)
            stack.extend(children(s))


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
    # a folded literal past `int`'s 4,300 digits reads back as it prints
    big = f"(lit 1{'0' * 3000} Q)"
    text = print_term(norm(parse_term(f"(prim * {big} {big})"), SIG, smart_prim_env()))
    assert parse_term(text) == Lit(Fraction(10**6000), "Q")
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


# One input for each error the reader raises, with its class, message, line
# and column.
_READERS = {"term": parse_term, "type": parse_type, "chars": parse_chars}
_READ_ERRORS = [
    ('term', '', ParseError, 'unexpected end of input, expected a term', 1, 1),
    ('term', '(', ParseError, 'unexpected end of input, expected a term constructor', 1, 2),
    ('term', '(lit', ParseError, 'unexpected end of input, expected a rational literal', 1, 5),
    ('term', '(lit 1', ParseError, 'unexpected end of input, expected a base type name', 1, 7),
    ('term', '(prim', ParseError, 'unexpected end of input, expected a primitive name', 1, 6),
    ('term', '(prim f', ParseError, 'unexpected end of input, expected a term', 1, 8),
    ('term', '(var', ParseError, 'unexpected end of input, expected a variable name', 1, 5),
    ('term', '(lam', ParseError, "unexpected end of input, expected '(' before the binder", 1, 5),
    ('term', '(lam (', ParseError, 'unexpected end of input, expected a binder name', 1, 7),
    ('term', '(lam (x', ParseError, 'unexpected end of input, expected a type', 1, 8),
    ('term', '(lam (x Q', ParseError, "unexpected end of input, expected ')' after the binder", 1, 10),
    ('term', '(lam (x Q)', ParseError, 'unexpected end of input, expected a term', 1, 11),
    ('term', '(inl unit', ParseError, 'unexpected end of input, expected a type', 1, 10),
    ('term', '(app (var f)', ParseError, 'unexpected end of input, expected a term', 1, 13),
    ('term', '(fst unit', ParseError, "unexpected end of input, expected ')'", 1, 10),
    ('type', '', ParseError, 'unexpected end of input, expected a type', 1, 1),
    ('type', '(', ParseError, 'unexpected end of input, expected a type constructor', 1, 2),
    ('type', '(arrow Q', ParseError, 'unexpected end of input, expected a type', 1, 9),
    ('chars', '', ParseError, 'unexpected end of input, expected a chars term', 1, 1),
    ('chars', '(', ParseError, "unexpected end of input, expected 'chr' or 'cat'", 1, 2),
    ('chars', '(chr', ParseError, 'unexpected end of input, expected a one-character string', 1, 5),
    ('chars', '(cat eps', ParseError, 'unexpected end of input, expected a chars term', 1, 9),
    ('term', ')', ParseError, "expected a term, found ')'", 1, 1),
    ('term', '()', ParseError, "expected a term constructor, found ')'", 1, 2),
    ('term', '(lam x (var x))', ParseError, "expected '(' before the binder, found 'x'", 1, 6),
    ('term', '(lam (x Q (var x))', ParseError, "expected ')' after the binder, found '('", 1, 11),
    ('term', '(fst unit unit)', ParseError, "expected ')', found 'unit'", 1, 11),
    ('term', '(bad)', ParseError, "unknown term form 'bad'", 1, 2),
    ('term', '(pair ; a comment\n  unit\n\t(bad))', ParseError, "unknown term form 'bad'", 3, 3),
    ('type', ')', ParseError, "expected a type, found ')'", 1, 1),
    ('type', '(unit)', ParseError, "unknown type form 'unit'", 1, 2),
    ('type', '(arrow Q Q Q)', ParseError, "expected ')', found 'Q'", 1, 12),
    ('type', '(func Q Q)', ParseError, "unknown type form 'func'", 1, 2),
    ('chars', ')', ParseError, "expected a chars term, found ')'", 1, 1),
    ('chars', '(eps)', ParseError, "unknown chars form 'eps'", 1, 2),
    ('chars', '(cat eps eps eps)', ParseError, "expected ')', found 'eps'", 1, 14),
    ('chars', '(str "a")', ParseError, "unknown chars form 'str'", 1, 2),
    ('chars', '(chr "a"', ParseError, "unexpected end of input, expected ')'", 1, 9),
    ('term', 'x', ParseError, "unexpected atom 'x'", 1, 1),
    ('term', '(fst x)', ParseError, "unexpected atom 'x'", 1, 6),
    ('term', '"a"', ParseError, 'expected a term, found \'"a"\'', 1, 1),
    ('term', '(var "a")', ParseError, 'expected a variable name, found \'"a"\'', 1, 6),
    ('term', '(lit ( Q)', ParseError, "expected a rational literal, found '('", 1, 6),
    ('term', '(lit 1.5 Q)', ParseError, "malformed rational literal '1.5'", 1, 6),
    ('term', '(lit 1/0 Q)', ParseError, "zero denominator in '1/0'", 1, 6),
    ('term', '(lit 1 ))', ParseError, "expected a base type name, found ')'", 1, 8),
    ('term', '(prim ) unit)', ParseError, "expected a primitive name, found ')'", 1, 7),
    ('type', '1Q', ParseError, "malformed base type name '1Q'", 1, 1),
    ('type', '"a"', ParseError, 'expected a type, found \'"a"\'', 1, 1),
    ('type', '(arrow Q 2)', ParseError, "malformed base type name '2'", 1, 10),
    ('chars', 'a', ParseError, "expected a chars term, found 'a'", 1, 1),
    ('chars', '"a"', ParseError, 'expected a chars term, found \'"a"\'', 1, 1),
    ('term', '(lam (x) (var x))', AnnotationMissing, "binder 'x' has no type annotation", 1, 7),
    ('term', '(inl unit)', AnnotationMissing, 'inl has no sum type annotation', 1, 2),
    ('term', '(inr\n  (pair unit unit))', AnnotationMissing, 'inr has no sum type annotation', 1, 2),
    ('chars', '(chr "ab")', ParseError, 'chr takes a one-character string', 1, 6),
    ('chars', '(chr a)', ParseError, 'chr takes a one-character string', 1, 6),
    ('chars', '(chr (chr', ParseError, 'chr takes a one-character string', 1, 6),
    ('term', '(lam (x Q) (var x)) trailing', ParseError, "trailing input 'trailing'", 1, 21),
    ('term', 'unit unit', ParseError, "trailing input 'unit'", 1, 6),
    ('type', 'Q )', ParseError, "trailing input ')'", 1, 3),
    ('chars', 'eps eps', ParseError, "trailing input 'eps'", 1, 5),
    ('chars', '(cat eps\n (chr "a))', ParseError, 'unterminated string', 2, 7),
    ('term', '(var x) "', ParseError, 'unterminated string', 1, 9),
]


@pytest.mark.parametrize("sort, text, cls, message, line, col", _READ_ERRORS)
def test_parse_error_table(sort, text, cls, message, line, col):
    with pytest.raises(ParseError) as exc:
        _READERS[sort](text)
    assert type(exc.value) is cls
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, line, col)


_SORTS = {"term": syntax._TERM, "type": syntax._TYPE, "chars": chars._CHARS}


@pytest.fixture
def empty_leaves(monkeypatch):
    """An empty leaf table for the test; the old one is put back after it."""
    monkeypatch.setattr(reader, "_LEAVES", {})


def _error(read, text: str) -> tuple:
    with pytest.raises(ParseError) as exc:
        read(text)
    return type(exc.value), exc.value.message, exc.value.line, exc.value.col


def _leaf_texts(sort: str, text: str) -> list[str]:
    """Each `(head operand ...)` in `text` whose head is a leaf form of `sort`,
    spelled alone."""
    leaves, tokens = _SORTS[sort][6], reader._TOKEN_RE.findall(text)
    out = []
    for k in range(len(tokens) - 1):
        if tokens[k] == "(" and tokens[k + 1] in leaves:
            out.append(f"({' '.join(tokens[k + 1 : k + 2 + len(leaves[tokens[k + 1]][1])])})")
    return out


def test_leaf_forms_come_from_the_form_tables():
    assert sorted(_SORTS["term"][6]) == ["lit", "var"]
    assert sorted(_SORTS["chars"][6]) == ["chr"]
    assert _SORTS["type"][6] == {}


def test_two_reads_share_their_leaves(empty_leaves):
    text = "(lam (x Q) (pair (prim + (var x) (lit 4/5 Q)) (pair (lit 4/5 Q) (var x))))"
    a, b = parse_term(text), parse_term(text)
    assert a == b and a is not b

    def leaves(t):
        stack, out = [t], []
        while stack:
            u = stack.pop()
            if type(u) in (Lit, Var):
                out.append(u)
            else:
                stack.extend(children(u)[::-1])
        return out

    la, lb = leaves(a), leaves(b)
    assert [type(u) for u in la] == [Var, Lit, Lit, Var]
    assert all(u is v for u, v in zip(la, lb))
    assert la[0] is la[3] and la[1] is la[2]  # within one read too


def test_parse_error_table_with_a_cold_and_a_warm_leaf_table(empty_leaves):
    warmed = 0
    for sort, text, cls, message, line, col in _READ_ERRORS:
        read = _READERS[sort]
        reader._LEAVES.clear()
        assert _error(read, text) == (cls, message, line, col), ("cold", text)
        for leaf in _leaf_texts(sort, text):
            try:
                read(leaf)
            except ParseError:
                continue
            warmed += 1
        assert _error(read, text) == (cls, message, line, col), ("warm", text)
    assert warmed >= 7  # the rows with a valid leaf


@pytest.mark.parametrize("sort, text", [
    ("term", "(lit 1/0 Q)"), ("term", "(lit x Q)"), ("term", "(lit 1 ))"), ("term", '(var "a")'),
    ("chars", '(chr "ab")'), ("chars", "(chr a)"), ("type", "1Q"),
])
def test_a_leaf_that_fails_is_never_stored(empty_leaves, sort, text):
    first = _error(_READERS[sort], text)
    assert _error(_READERS[sort], text) == first
    assert reader._LEAVES == {}
    assert all(syntax._NAME_RE.fullmatch(tok) for tok in syntax._TYPE_ATOMS)


def test_leaf_table_is_emptied_when_full(empty_leaves, monkeypatch):
    monkeypatch.setattr(reader, "_LEAF_BOUND", 4)
    first = parse_term("(lit 0 Q)")
    for i in range(10):
        t = parse_term(f"(pair (lit {i} Q) (lit -{i}/7 Q))")
        assert t == Pair(lit(i), lit(Fraction(-i, 7)))
        assert len(reader._LEAVES) <= 4
    assert parse_term("(lit 0 Q)") == first and parse_term("(lit 0 Q)") is not first
    assert parse_term("(lit -9/7 Q)") is parse_term("(lit -9/7 Q)")


@pytest.mark.parametrize("depth", [800, 10_000])
def test_parse_reads_deep_chains(depth):
    for head in ("prim f", "app (var f)", "fst", "lam (x Q)"):
        t = parse_term(f"({head} " * depth + "unit" + ")" * depth)
        for _ in range(depth):
            t = children(t)[-1]
        assert t == UnitVal()


def test_parse_reads_what_the_writer_prints_at_any_depth():
    assert sys.getrecursionlimit() == 1000
    t = lit(0)  # a right tuple of 10^5
    for i in range(100_000, 0, -1):
        t = Pair(lit(i), t)
    assert parse_term(print_term(t)) == t
    ty = _arrows(20_000)
    assert parse_type(print_type(ty)) == ty


def test_parse_type_returns_the_interned_node():
    for ty in (RAT, Unit(), BOOL, Arrow(Sum(RAT, RAT), RAT), _arrows(20_000), _arrows(20_000, left=True)):
        assert parse_type(print_type(ty)) is ty
    assert parse_term("(lam (x Q) (var x))").annot is RAT


# The 29 code points that `re` takes for `\s`, and `str.split` for whitespace.
_WHITESPACE = (
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
    + "".join(map(chr, range(0x2000, 0x200B)))
    + "\u2028\u2029\u202f\u205f\u3000"
)


def test_whitespace_is_the_same_for_re_and_str_split():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(re.findall(r"\s", every)) == _WHITESPACE
    assert "".join(c for c in _WHITESPACE if len(f"a{c}a".split()) == 2) == _WHITESPACE
    assert "".join(c for c in every if c.isspace()) == _WHITESPACE


@given(st.text(st.sampled_from("()()ax_'Q*+=é/-0123456789" + _WHITESPACE), max_size=80))
def test_split_tokenizer_agrees_with_the_regex(text):
    # texts without `"` or `;` take the `str.split` path
    assert syntax.tokenize(text) == reader._TOKEN_RE.findall(text)


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


# Terms whose lam, inl and inr carry compound annotations, with their
# print_term, pretty_term and repr texts.
_ANNOTATED = [
    (
        "(lam (f (arrow (prod Q unit) (sum Q (arrow Q Q)))) (lam (p (prod Q unit)) (var f)))",
        "\\f:Q * unit -> Q + (Q -> Q). \\p:Q * unit. f",
        "Lam(binder='f', annot=Arrow(dom=Prod(left=Base(name='Q'), right=Unit()), "
        "cod=Sum(left=Base(name='Q'), right=Arrow(dom=Base(name='Q'), cod=Base(name='Q')))), "
        "body=Lam(binder='p', annot=Prod(left=Base(name='Q'), right=Unit()), body=Var(name='f')))",
    ),
    (
        "(inl (lam (x (prod Q Q)) (fst (var x))) (sum (arrow (prod Q Q) Q) (sum (prod Q Q) (arrow unit Q))))",
        "inl (\\x:Q * Q. fst x)",
        "Inl(arg=Lam(binder='x', annot=Prod(left=Base(name='Q'), right=Base(name='Q')), "
        "body=Fst(arg=Var(name='x'))), annot=Sum(left=Arrow(dom=Prod(left=Base(name='Q'), "
        "right=Base(name='Q')), cod=Base(name='Q')), right=Sum(left=Prod(left=Base(name='Q'), "
        "right=Base(name='Q')), right=Arrow(dom=Unit(), cod=Base(name='Q')))))",
    ),
    (
        "(pair (lam (y (sum (prod Q Q) (arrow unit Q))) (var y)) "
        "(inr (lam (u unit) (lit 3 Q)) (sum (prod Q Q) (arrow unit Q))))",
        "<\\y:(Q * Q) + (unit -> Q). y, inr (\\u:unit. 3)>",
        "Pair(first=Lam(binder='y', annot=Sum(left=Prod(left=Base(name='Q'), right=Base(name='Q')), "
        "right=Arrow(dom=Unit(), cod=Base(name='Q'))), body=Var(name='y')), "
        "second=Inr(arg=Lam(binder='u', annot=Unit(), body=Lit(value=Fraction(3, 1), base='Q')), "
        "annot=Sum(left=Prod(left=Base(name='Q'), right=Base(name='Q')), "
        "right=Arrow(dom=Unit(), cod=Base(name='Q')))))",
    ),
]


@pytest.mark.parametrize("text, pretty, spelled", _ANNOTATED, ids=["lam", "inl", "inr"])
def test_printers_write_compound_annotations(text, pretty, spelled):
    t = parse_term(text)
    assert print_term(t) == text
    assert pretty_term(t) == pretty
    assert repr(t) == spelled


def test_printers_write_each_distinct_annotation_once_per_call(monkeypatch):
    ty = Sum(Prod(RAT, RAT), Arrow(Unit(), RAT))
    t = Lam("y", ty, Var("y"))
    for i in range(50):
        t = Pair(Pair(Lam(f"x{i}", ty, Var(f"x{i}")), Inr(Lam("u", Unit(), lit(i)), ty)), t)
    for table, write in ((syntax._PRINT, print_term), (syntax._PRETTY, pretty_term)):
        calls = []
        real = table[Sum]
        monkeypatch.setitem(table, Sum, lambda u, real=real: calls.append(u) or real(u))
        for _ in range(2):
            write(t)
        assert calls == [ty, ty]


def test_print_prim_operands_of_every_arity():
    # a variable operand's text is written into the piece beside it
    x, y, one = Var("x"), Var("y"), lit(1)
    cases = {
        (): "(prim f)",
        (x,): "(prim f (var x))",
        (one,): "(prim f (lit 1 Q))",
        (x, y): "(prim f (var x) (var y))",
        (x, one): "(prim f (var x) (lit 1 Q))",
        (one, y): "(prim f (lit 1 Q) (var y))",
        (one, one): "(prim f (lit 1 Q) (lit 1 Q))",
        (x, one, y): "(prim f (var x) (lit 1 Q) (var y))",
        (one, x, y): "(prim f (lit 1 Q) (var x) (var y))",
        (x, y, x): "(prim f (var x) (var y) (var x))",
        (one, one, x, one): "(prim f (lit 1 Q) (lit 1 Q) (var x) (lit 1 Q))",
    }
    for args, text in cases.items():
        assert print_term(PrimApp("f", args)) == text
        assert print_term(Lam("x", Arrow(RAT, Unit()), PrimApp("f", args))) == (
            f"(lam (x (arrow Q unit)) {text})"
        )
    assert print_term(Inr(PrimApp("f", (x,)), BOOL)) == "(inr (prim f (var x)) (sum unit unit))"


def test_printers_make_each_nodes_pieces_once(monkeypatch):
    # a compound node met again writes the text of its first occurrence
    t = lit(3)
    for _ in range(12):
        t = PrimApp("*", (t, t))
    for table, write in ((syntax._PRINT, print_term), (syntax._PRETTY, pretty_term), (records._REPR, repr)):
        calls = []
        real = table[PrimApp]
        monkeypatch.setitem(table, PrimApp, lambda u, real=real: calls.append(u) or real(u))
        assert write(t).count("3") == 4096
        assert len(calls) == 12


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


def test_free_vars_walks_deep_chains():
    assert sys.getrecursionlimit() == 1000
    depth = 10**4
    chain = Var("z")
    for _ in range(depth):
        chain = Fst(chain)
    assert free_vars(chain) == {"z"}
    # the smart constructors read the free names of their operands
    assert free_vars(mk_if(mk_true(), chain, lit(0))) == {"z"}
    assert free_vars(mk_maybe(chain, chain, Var("m"))) == {"z", "m"}
    assert free_vars(mk_fmap(Lam("q", RAT, chain), Var("m"))) == {"z", "m"}
    # `x` is bound `depth` times over; it is free again outside the chain
    lams = Var("x")
    for _ in range(depth):
        lams = Lam("x", RAT, App(lams, Var("x")))
    assert free_vars(lams) == frozenset()
    assert free_vars(Pair(lams, Var("x"))) == {"x"}
    assert free_vars(Lam("y", RAT, Pair(Var("y"), Pair(lams, Var("x"))))) == {"x"}


def test_free_vars_of_a_shared_normal_form_cost_its_dag_size():
    # `norm(power(2**20))` is an 18-node DAG that stands for a tree of
    # about 2^21 nodes; `mk_if` reads the free names of both branches
    assert sys.getrecursionlimit() == 1000
    nf = norm(power(2**20), SIG, smart_prim_env())
    start = time.process_time()
    assert free_vars(nf) == frozenset()
    assert free_vars(nf.body) == {"x0"}
    mk_if(nf, nf, nf)
    assert time.process_time() - start < 0.05


def test_a_shared_spine_of_distinct_names_costs_its_length():
    # the shared node's names are found once, not once per node under it
    assert sys.getrecursionlimit() == 1000
    n = 5000
    c = Var("v0")
    for i in range(1, n):
        c = PrimApp("*", (Var(f"v{i}"), c))
    names = {f"v{i}" for i in range(n)}
    start = time.process_time()
    assert free_vars(Pair(c, c)) == names
    assert free_vars(Lam("v7", RAT, Pair(c, Lam("v9", RAT, c)))) == names - {"v7"}
    assert time.process_time() - start < 0.05


def _free_vars_of_the_tree(t):
    """The free names of `t`, walked as the tree it stands for."""
    out, bound, stack = set(), {}, [t]
    while stack:
        u = stack.pop()
        if type(u) is str:
            bound[u] -= 1
        elif type(u) is Var:
            if not bound.get(u.name):
                out.add(u.name)
        elif type(u) is Lam:
            bound[u.binder] = bound.get(u.binder, 0) + 1
            stack += (u.binder, u.body)
        else:
            stack += children(u)
    return out


@given(_raw_terms)
def test_free_vars_agrees_with_the_tree_walk(t):
    # shared nodes under binders that bind some of their names, and not
    # others, and shared nodes inside shared nodes
    s = Pair(t, Var("a"))
    for u in (
        t,
        Lam("a", RAT, Pair(s, App(Lam("x", RAT, s), Pair(s, t)))),
        Pair(t, t),
        Lam("a", RAT, Pair(t, Lam("b", RAT, App(t, Var("b"))))),
        Case(t, Lam("x", RAT, t), Lam("y", RAT, PrimApp("*", (t, Var("x"))))),
    ):
        assert free_vars(u) == _free_vars_of_the_tree(u)


def test_children_in_order_and_only_of_terms():
    s, l, r = Var("s"), Lam("l", Unit(), UnitVal()), Lam("r", Unit(), UnitVal())
    assert children(Case(s, l, r)) == (s, l, r)
    assert children(PrimApp("*", (s, l))) == (s, l)
    assert children(Inr(s, BOOL)) == (s,)
    assert children(lit(1)) == ()
    for not_a_term in (RAT, None, (s,)):
        with pytest.raises(TypeError, match="not a term"):
            children(not_a_term)


# ---------------------------------------------------------------------------
# printing shared terms


def unshare(t):
    """A copy of the term or chars term `t` in which no node is shared: every
    node under it is rebuilt (a type is interned, so rebuilding one returns
    it)."""

    def copy(v):
        if isinstance(v, tuple):
            return tuple(map(copy, v))
        return unshare(v) if isinstance(v, syntax.Record) else v

    return type(t)(**{name: copy(getattr(t, name)) for name in t.__match_args__})


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
    assert repr(t) == repr(flat)


def test_printers_ignore_sharing_in_normal_forms():
    cases = [(6, norm(bool_chain(6), SIG, smart_prim_env()))]
    for env in (smart_prim_env(), naive_prim_env()):
        for make in (power, power_prime):
            for k in range(1, 9):
                for n in (2**k - 1, -(2**k - 1)):
                    cases.append((k, norm(make(n), SIG, env)))
    for k, t in cases:
        _assert_prints_as_tree(t)
        # The property says something only where the term shares.
        assert k == 1 or _dag_size(t) < _tree_size(t)


_chars_terms = st.recursive(
    st.one_of(st.just(chars.Eps()), st.builds(chars.Chr, st.sampled_from("abc"))),
    lambda cs: st.builds(chars.Append, cs, cs),
    max_leaves=10,
)


@given(_raw_terms, _chars_terms)
def test_printers_ignore_sharing(t, c):
    # In `App(t, t)` the one node is an operand at precedence 1 and 2.
    for shared in (Pair(t, t), PrimApp("*", (t, t)), Case(Var("s"), t, t), App(t, t)):
        _assert_prints_as_tree(shared)
    for shared in (chars.Append(c, c), chars.Append(chars.Append(c, c), c)):
        flat = unshare(shared)
        assert chars.format_chars(shared) == chars.format_chars(flat)
        assert repr(shared) == repr(flat)


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


def test_print_formats_each_literal_of_a_normal_form_once(monkeypatch):
    # the normal form holds the chain's own literal nodes, however many
    # paths through its cases copy them
    t = bool_chain(6)
    normal = norm(t, SIG, smart_prim_env())
    calls = []
    real = syntax.format_rational
    monkeypatch.setattr(syntax, "format_rational", lambda q: calls.append(q) or real(q))
    text = print_term(normal)
    assert text.count("(lit ") > 18
    assert len(calls) == 18  # lit(i), lit(2) and lit(3) for each of 6 tests


def test_printers_handle_deep_chains():
    assert sys.getrecursionlimit() == 1000
    depth = 3000
    t = _fst_chain(depth)
    assert print_term(t) == "(fst " * depth + "unit" + ")" * depth
    assert pretty_term(t) == "fst (" * (depth - 1) + "fst unit" + ")" * (depth - 1)


def test_printers_take_a_100000_element_tuple():
    # the normal form of a right tuple of 10^5 pairs: each node's text is
    # written once, not copied into every enclosing node's text, so this
    # takes well under a second per printer
    assert sys.getrecursionlimit() == 1000
    n = 10**5
    t = lit(0)
    for i in reversed(range(n)):
        t = Pair(lit(i), t)
    normal = norm(t, SIG, smart_prim_env())
    printed, pretty = [], []
    for i in range(n):
        printed.append(f"(pair (lit {i} Q) ")
        pretty.append(f"<{i}, ")
    assert print_term(normal) == "".join(printed) + "(lit 0 Q)" + ")" * n
    assert pretty_term(normal) == "".join(pretty) + "0" + ">" * n


def test_printers_write_a_node_first_met_10_to_the_5_deep_as_a_tree():
    # `Pair(c, c)` over a right tuple `c` of 10^5: the shared node's first
    # text ends 10^5 levels down, and its second occurrence reuses it
    assert sys.getrecursionlimit() == 1000
    n = 10**5
    c = lit(0)
    for i in reversed(range(n)):
        c = Pair(lit(i), c)
    t = Pair(c, c)
    printed = "".join([f"(pair (lit {i} Q) " for i in range(n)]) + "(lit 0 Q)" + ")" * n
    assert print_term(t) == f"(pair {printed} {printed})"
    pretty = "".join([f"<{i}, " for i in range(n)]) + "0" + ">" * n
    assert pretty_term(t) == f"<{pretty}, {pretty}>"
    spelled = (
        "".join([f"Pair(first=Lit(value=Fraction({i}, 1), base='Q'), second=" for i in range(n)])
        + "Lit(value=Fraction(0, 1), base='Q')"
        + ")" * n
    )
    assert repr(t) == f"Pair(first={spelled}, second={spelled})"


# ---------------------------------------------------------------------------
# a case writes its branch lambdas with its own text


_FORMS = {
    App: "app", Pair: "pair", Fst: "fst", Snd: "snd", Inl: "inl", Inr: "inr", Case: "case",
    Arrow: "arrow", Prod: "prod", Sum: "sum",
}


def _print_by_recursion(t) -> str:
    """The s-expression of a term or type, by recursion on the tree it
    stands for."""
    cls = type(t)
    if cls is Lit:
        return f"(lit {syntax.format_rational(t.value)} {t.base})"
    if cls is Var:
        return f"(var {t.name})"
    if cls is UnitVal or cls is Unit:
        return "unit"
    if cls is Base:
        return t.name
    if cls is Lam:
        return f"(lam ({t.binder} {_print_by_recursion(t.annot)}) {_print_by_recursion(t.body)})"
    if cls is PrimApp:
        return f"(prim {t.name}" + "".join(" " + _print_by_recursion(a) for a in t.args) + ")"
    fields = " ".join(_print_by_recursion(getattr(t, f)) for f in t.__match_args__)
    return f"({_FORMS[cls]} {fields})"


def _branch_cases():
    """Cases whose branches are variables, lambdas with leaf and compound
    annotations, one Lam object twice, and a Lam also shared by a pair."""
    s, q = Var("s"), Var("q")
    unit = Lam("u", Unit(), lit(1))
    pair = Lam("p", Prod(RAT, RAT), Fst(Var("p")))
    arrow = Lam("f", Arrow(RAT, RAT), App(Var("f"), lit(2)))
    shared = Lam("y", RAT, PrimApp("*", (Var("y"), q)))
    yield Case(s, Var("f"), Var("g"))
    yield Case(s, unit, Var("g"))
    yield Case(s, Var("f"), unit)
    for left in (unit, pair, arrow):
        for right in (unit, pair, arrow):
            yield Case(s, left, right)
    yield Case(s, shared, shared)
    yield Pair(shared, Case(s, shared, unit))
    yield Pair(Case(s, unit, shared), shared)
    yield Case(Case(s, unit, unit), Lam("a", Unit(), Case(q, shared, shared)), shared)


def test_print_agrees_with_the_recursive_printer(oracle_corpus):
    terms = list(_branch_cases())
    terms += [u for t, _, normal in oracle_corpus for u in (t, normal)]
    terms.append(norm(bool_chain(4), SIG, naive_prim_env()))
    for t in terms:
        text = print_term(t)
        assert text == _print_by_recursion(t)
        assert parse_term(text) == t


def test_a_16_level_case_dag_prints_in_under_a_second():
    # each level's two branch lambdas share the level below as their body,
    # and in the second DAG one Lam object is both branches
    for twin in (False, True):
        t, want = lit(0), "(lit 0 Q)"
        for i in range(16):
            left = Lam("a", Unit(), t)
            t = Case(Var(f"s{i}"), left, left if twin else Lam("b", Prod(RAT, RAT), t))
            right = "(lam (a unit)" if twin else "(lam (b (prod Q Q))"
            want = f"(case (var s{i}) (lam (a unit) {want}) {right} {want}))"
        start = time.process_time()
        text = print_term(t)
        assert time.process_time() - start < 1
        assert text == want
        assert parse_term(text) == t


def test_a_case_makes_the_pieces_of_its_branch_lambdas(monkeypatch):
    normal = norm(bool_chain(3), SIG, smart_prim_env())
    calls = []
    real = syntax._PRINT[Lam]
    monkeypatch.setitem(syntax._PRINT, Lam, lambda u: calls.append(u) or real(u))
    assert print_term(normal).count("(case ") == 7
    assert calls == [normal]  # the outer lambda only
