"""The immutable record contract shared by types, terms, semantic values,
concrete values, primitive tables and chars terms."""

import copy
import pickle
import sys
import time
from fractions import Fraction

import pytest

from ebn import chars, interp, primitives, records, semantics, syntax
from ebn.examples import power
from ebn.nbe import norm
from ebn.primitives import (
    RAT,
    PrimRule,
    PrimSignature,
    PrimType,
    rational_signature,
    smart_prim_env,
)
from ebn.semantics import Closure, SBase
from ebn.syntax import (
    App,
    Arrow,
    Base,
    Fst,
    Inl,
    Inr,
    Lam,
    Lit,
    Record,
    Snd,
    Sum,
    Unit,
    UnitVal,
    UnknownBaseType,
    Var,
)

U = UnitVal()
Q = Base("Q")
SAMPLES = [
    Q,
    Unit(),
    Arrow(Q, Unit()),
    syntax.Prod(Q, Q),
    Sum(Unit(), Q),
    Lit(Fraction(2), "Q"),
    syntax.PrimApp("*", (Var("x"), Lit(Fraction(1), "Q"))),
    U,
    Var("x"),
    Lam("x", Q, Var("x")),
    App(Var("f"), U),
    syntax.Pair(U, Var("y")),
    Fst(Var("p")),
    Snd(Var("p")),
    Inl(U, Sum(Unit(), Q)),
    Inr(U, Sum(Q, Unit())),
    syntax.Case(Var("s"), Var("l"), Var("r")),
    semantics.SUnit(),
    Closure(Lam("x", Q, Var("x")), {}),
    semantics.Reflected(Var("f"), Q, Q),
    semantics.SPair(semantics.SUnit(), semantics.SUnit()),
    semantics.SInl(semantics.SUnit()),
    semantics.SInr(semantics.SUnit()),
    SBase("Q", Lit(Fraction(1), "Q")),
    interp.CUnit(),
    interp.CRat(Fraction(1, 2)),
    interp.CPair(interp.CUnit(), interp.CUnit()),
    interp.CInl(interp.CUnit()),
    interp.CInr(interp.CUnit()),
    interp.CFun(Lam("x", Q, Var("x")), {}),
    PrimType((RAT, RAT), RAT),
    rational_signature(),
    primitives.RULES["*"],
    chars.Eps(),
    chars.Chr("a"),
    chars.Append(chars.Eps(), chars.Chr("b")),
]


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _record_classes(sub)


def test_samples_cover_every_concrete_record_class():
    abstract = {
        syntax.ObjType,
        syntax.Term,
        semantics.SemValue,
        interp.ConcreteValue,
        chars.CharsTerm,
    }
    assert {type(r) for r in SAMPLES} == set(_record_classes()) - abstract


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(r):
    before = [getattr(r, name) for name in r.__match_args__]
    for name in (*r.__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert all(getattr(r, name) is v for name, v in zip(r.__match_args__, before))
    assert not hasattr(r, "extra")


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records(r):
    twin = type(r)(**{name: getattr(r, name) for name in r.__match_args__})
    if type(r) in (Closure, interp.CFun):  # identity equality, see below
        assert twin != r
        return
    assert twin == r and not twin != r
    try:
        h = hash(r)
    except TypeError:  # a dict field: unhashable, as a frozen dataclass was
        assert type(r) is PrimSignature
    else:
        assert hash(twin) == h


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_copy_rebuilds_every_field(r):
    for twin in (copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is type(r)
        fields = r.__match_args__
        assert [getattr(twin, f) for f in fields] == [getattr(r, f) for f in fields]


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_each_field_has_one_bound_setter_in_match_args_order(r):
    cls = type(r)
    assert len(cls._setters) == len(cls.__match_args__)
    for name, setter in zip(cls.__match_args__, cls._setters):
        assert setter.__self__ is getattr(cls, name)  # the slot's own descriptor


@pytest.mark.parametrize("r", SAMPLES, ids=lambda r: type(r).__name__)
def test_positional_and_keyword_construction_agree(r):
    cls, fields = type(r), [getattr(r, name) for name in r.__match_args__]
    by_position = cls(*fields)
    by_keyword = cls(**dict(zip(r.__match_args__, fields)))
    for twin in (by_position, by_keyword):
        assert all(getattr(twin, n) is v for n, v in zip(r.__match_args__, fields))
    if cls not in (Closure, interp.CFun):  # those equal only themselves
        assert by_position == by_keyword == r


def test_pickle_round_trip():
    source = Lit(Fraction(5), "Q")
    t = Lam("x", Arrow(Q, Sum(Unit(), Q)), App(Var("f"), source))
    assert pickle.loads(pickle.dumps(t)) == t
    v = pickle.loads(pickle.dumps(SBase("Q", source)))
    assert v == SBase("Q", source) and type(v.payload) is Lit


def test_match_args_follow_the_constructor():
    assert Lam.__match_args__ == ("binder", "annot", "body")
    assert SBase.__match_args__ == ("base", "payload")
    assert PrimRule.__match_args__ == ("type", "fold", "left_unit", "right_unit")
    assert Unit.__match_args__ == () and UnitVal.__match_args__ == ()
    match Lam("x", Q, Var("x")):
        case Lam(x, Base(name=b), Var(y)):
            assert (x, b, y) == ("x", "Q", "x")
        case _:
            pytest.fail("positional pattern did not match")


def test_keyword_construction():
    assert Lam(body=Var("x"), annot=Q, binder="x") == Lam("x", Q, Var("x"))
    assert Arrow(cod=Unit(), dom=Q) == Arrow(Q, Unit())


def test_types_are_interned():
    # one node per class and fields, however the type is built
    assert Base("Q") is Q is RAT and Base(name="Q") is Q and Unit() is Unit()
    ty = Arrow(Sum(Unit(), Q), syntax.Prod(Q, Q))
    assert Arrow(cod=syntax.Prod(right=Q, left=Q), dom=Sum(Unit(), Q)) is ty
    assert Arrow(Sum(Unit(), Q), cod=syntax.Prod(Q, Q)) is ty
    for twin in (copy.copy(ty), copy.deepcopy(ty), pickle.loads(pickle.dumps(ty))):
        assert twin is ty
    assert Base("R") is not Q and Sum(Q, Q) is not syntax.Prod(Q, Q)


def test_building_an_existing_type_leaves_the_table_alone():
    ty = Arrow(Sum(Unit(), Base("R")), Q)
    size = len(syntax._TYPES)
    assert Arrow(Sum(Unit(), Base("R")), Q) is ty and Base(name="R") is ty.dom.right
    with pytest.raises(TypeError):
        Base()
    with pytest.raises(TypeError):
        Arrow(Q, domain=Q)
    assert len(syntax._TYPES) == size
    Arrow(ty, ty)
    assert len(syntax._TYPES) == size + 1


def test_a_deep_type_is_one_node_that_compares_and_hashes_in_constant_time():
    assert sys.getrecursionlimit() == 1000
    a = _nest(20_000, lambda t: Arrow(Q, t), Q)
    b = _nest(20_000, lambda t: Arrow(Q, t), Q)
    assert a is b
    # equality and hashing are object's, so neither walks the 20,000 levels
    assert type(a).__eq__ is object.__eq__ and type(a).__hash__ is object.__hash__
    assert a == b and hash(a) == hash(b) == object.__hash__(a)
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert a != Arrow(Q, a) and a != _nest(20_000, lambda t: Arrow(Q, t), Unit())
    # a record holding a type compares it as one value, by identity
    assert Lam("f", a, Var("f")) == Lam("f", b, Var("f")) != Lam("f", Arrow(Q, a), Var("f"))


def test_deepcopy_of_a_deep_term_or_chars_term_is_the_node():
    # their fields are immutable all the way down, so deepcopy walks none
    assert sys.getrecursionlimit() == 1000
    t = _nest(99_999, lambda u: syntax.Pair(Lit(Fraction(1), "Q"), u), Lit(Fraction(0), "Q"))
    for node in (t, chars.reify_list("a" * 20_000)):
        assert copy.deepcopy(node) is node


def test_different_classes_with_equal_fields_differ():
    t = Var("p")
    assert Fst(t) != Snd(t)
    ty = Sum(Unit(), Unit())
    assert Inl(U, ty) != Inr(U, ty)
    assert syntax.Prod(Q, Q) != Sum(Q, Q)
    assert semantics.SInl(semantics.SUnit()) != semantics.SInr(semantics.SUnit())
    assert Lit(Fraction(1), "Q") != Fraction(1)


def test_closure_equals_only_itself():
    lam = Lam("x", Q, Var("x"))
    c = Closure(lam, {})
    assert c == c
    assert c != Closure(lam, {})
    assert {c: 1}[c] == 1
    # inside a record too: a record holding a closure hashes, and two
    # closures of one lambda stay unequal
    pair = semantics.SPair(c, semantics.SUnit())
    assert pair == semantics.SPair(c, semantics.SUnit())
    assert hash(pair) == hash(semantics.SPair(c, semantics.SUnit()))
    assert pair != semantics.SPair(Closure(lam, {}), semantics.SUnit())


def test_plain_fields_compare_as_values():
    # a field that is not a record is compared with `==`, not by its class
    assert Lit(1, "Q") == Lit(Fraction(1), "Q")
    assert hash(Lit(1, "Q")) == hash(Lit(Fraction(1), "Q"))
    assert syntax.PrimApp("f", (Lit(1, "Q"),)) == syntax.PrimApp("f", (Lit(Fraction(1), "Q"),))
    assert syntax.PrimApp("f", (Var("x"),)) != syntax.PrimApp("f", (Var("x"), Var("x")))
    assert PrimType((RAT, RAT), RAT) != PrimType((RAT, Q), Unit())
    assert PrimType((RAT, RAT), RAT) != PrimType((RAT, Unit()), RAT)  # a tuple element differs


def test_repr_golden():
    assert repr(Lam("x", Base("Q"), Var("x"))) == (
        "Lam(binder='x', annot=Base(name='Q'), body=Var(name='x'))"
    )
    assert repr(Arrow(Sum(Unit(), Q), Q)) == (
        "Arrow(dom=Sum(left=Unit(), right=Base(name='Q')), cod=Base(name='Q'))"
    )
    assert repr(UnitVal()) == "UnitVal()"
    assert repr(SBase("Q", Var("m"))) == "SBase(base='Q', payload=Var(name='m'))"
    assert repr(interp.CRat(Fraction(1, 2))) == "CRat(value=Fraction(1, 2))"
    assert repr(chars.Chr("a")) == "Chr(char='a')"
    assert repr(syntax.PrimApp("f", (Var("x"),))) == "PrimApp(name='f', args=(Var(name='x'),))"
    assert repr(syntax.PrimApp("f", ())) == "PrimApp(name='f', args=())"
    # a tuple field's elements that are not records are spelled by their repr
    assert repr(syntax.PrimApp("f", (Var("x"), 2, "y"))) == "PrimApp(name='f', args=(Var(name='x'), 2, 'y'))"
    assert repr(syntax.PrimApp("f", (3,))) == "PrimApp(name='f', args=(3,))"
    assert repr(PrimType((RAT, Q), RAT)) == (
        "PrimType(args=(Base(name='Q'), Base(name='Q')), result=Base(name='Q'))"
    )


def test_validation_at_construction():
    with pytest.raises(UnknownBaseType):
        PrimSignature(bases={}, prims={"id": PrimType((Q,), Q)})
    with pytest.raises(ValueError):
        chars.Chr("ab")


def _nest(n, level, leaf):
    for _ in range(n):
        leaf = level(leaf)
    return leaf


# Deep records: `build(end)` nests `n` levels around an innermost leaf that
# depends on `end`, and `repr(build(0))` is `n` copies of `text`, then `leaf`,
# then `n` closing parentheses.
DEEP = {
    "right tuple of 10^5": (
        lambda end: _nest(
            99_999, lambda t: syntax.Pair(Lit(Fraction(1), "Q"), t), Lit(Fraction(end), "Q")
        ),
        99_999,
        "Pair(first=Lit(value=Fraction(1, 1), base='Q'), second=",
        "Lit(value=Fraction(0, 1), base='Q')",
    ),
    "fst chain of 10^4": (
        lambda end: _nest(10_000, Fst, Var("pq"[end])), 10_000, "Fst(arg=", "Var(name='p')"
    ),
    "comb of 20,000": (
        lambda end: chars.reify_list("a" * 19_999 + "ab"[end]),
        20_000,
        "Append(left=Chr(char='a'), right=",
        "Eps()",
    ),
    "SPair chain of 10^4": (
        lambda end: _nest(
            10_000,
            lambda v: semantics.SPair(SBase("Q", Lit(Fraction(1), "Q")), v),
            (semantics.SUnit(), semantics.SInl(semantics.SUnit()))[end],
        ),
        10_000,
        "SPair(first=SBase(base='Q', payload=Lit(value=Fraction(1, 1), base='Q')), second=",
        "SUnit()",
    ),
    "CPair chain of 10^4": (
        lambda end: _nest(
            10_000,
            lambda v: interp.CPair(interp.CRat(Fraction(1, 2)), v),
            (interp.CUnit(), interp.CRat(Fraction(0)))[end],
        ),
        10_000,
        "CPair(first=CRat(value=Fraction(1, 2)), second=",
        "CUnit()",
    ),
}


@pytest.mark.parametrize("build, n, text, leaf", DEEP.values(), ids=DEEP.keys())
def test_deep_records_compare_hash_and_print(build, n, text, leaf):
    # equality, hashing and repr walk an explicit stack, so two separately
    # built copies of any depth are equal, hash alike and print alike
    assert sys.getrecursionlimit() == 1000
    a, b = build(0), build(0)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == text * n + leaf + ")" * n
    assert a != build(1)


@pytest.mark.parametrize("name", ["SPair chain of 10^4", "CPair chain of 10^4"])
def test_deepcopy_rebuilds_a_deep_value_at_the_default_limit(name):
    # one loop rebuilds each distinct node once, so a value may nest past the
    # recursion limit; a node met again, here or through `memo`, is one copy
    assert sys.getrecursionlimit() == 1000
    build = DEEP[name][0]
    a = build(0)
    twin = copy.deepcopy(a)
    assert twin == a and twin != build(1)
    u, v = a, twin
    while type(u) is type(a):
        assert v is not u and type(v) is type(u)
        if name.startswith("SPair"):  # a term payload is kept as it is
            assert v.first is not u.first and v.first.payload is u.first.payload
        u, v = u.second, v.second
    assert v == u and v is not u
    memo = {}
    whole = copy.deepcopy(a, memo)
    assert copy.deepcopy(a.second.second, memo) is whole.second.second
    shared = copy.deepcopy(type(a)(a, a))
    assert shared.first is shared.second and shared.first == a


def test_a_shared_normal_form_compares_and_hashes_in_time_linear_in_its_dag():
    # the normal form of power 2**20 is a small DAG that stands for a tree of
    # about 2^21 nodes; `==` compares each pair of nodes once and `hash`
    # hashes each distinct node once
    assert sys.getrecursionlimit() == 1000
    sig, prims = rational_signature(), smart_prim_env()
    a, b = norm(power(2**20), sig, prims), norm(power(2**20), sig, prims)
    assert a is not b
    start = time.process_time()
    assert a == b
    assert time.process_time() - start < 0.05
    for r in (a, b):
        start = time.process_time()
        hash(r)
        assert time.process_time() - start < 0.05
    assert hash(a) == hash(b)
    # sharing changes neither: a shared node and an equal copy of it give
    # equal records that hash alike, and a difference under a node met
    # again is still found
    s, t = a.body, norm(power(2**20), sig, prims).body
    assert syntax.Pair(s, s) == syntax.Pair(s, t) == syntax.Pair(t, s)
    assert hash(syntax.Pair(s, s)) == hash(syntax.Pair(s, t))
    odd = norm(power(2**20 + 1), sig, prims).body
    assert syntax.Pair(s, s) != syntax.Pair(s, odd)
    assert syntax.App(syntax.Pair(s, s), s) != syntax.App(syntax.Pair(s, s), odd)


def test_a_shared_semantic_value_hashes_copies_and_pickles_as_a_dag():
    # `v = SPair(v, v)` over 10^4 levels is a DAG of 10^4 + 1 nodes that
    # stands for a tree of 2^10001 - 1; hash, deepcopy and pickle each fold
    # every distinct node once, so a copy shares as the original does
    assert sys.getrecursionlimit() == 1000
    build = lambda: _nest(10_000, lambda v: semantics.SPair(v, v), semantics.SUnit())
    a, b = build(), build()
    start = time.process_time()
    assert a is not b and hash(a) == hash(b)
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin is not a
        for _ in range(10_000):
            assert type(twin) is semantics.SPair and twin.first is twin.second
            twin = twin.first
        assert twin == semantics.SUnit()
    # deepcopy of a list hands one memo to each value, and a value finds
    # there the part that an earlier one copied, without a walk
    many = copy.deepcopy([semantics.SPair(semantics.SUnit(), a) for _ in range(1000)])
    assert all(v.second is many[0].second for v in many)
    assert time.process_time() - start < 1


@pytest.mark.parametrize("build, n, text, leaf", DEEP.values(), ids=DEEP.keys())
def test_pickle_round_trips_deep_records(build, n, text, leaf):
    # pickle writes a flat table of the nodes, so any depth loads back
    assert sys.getrecursionlimit() == 1000
    a = build(0)
    back = pickle.loads(pickle.dumps(a))
    assert back is not a and back == a


def _distinct_nodes(t):
    seen, stack = {id(t)}, [t]
    while stack:
        for c in syntax.children(stack.pop()):
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return len(seen)


def test_pickle_keeps_a_normal_form_shared():
    # the normal form of power 2**20 is a 22-node DAG that stands for a tree
    # of millions of nodes
    normal = norm(power(2**20), rational_signature(), smart_prim_env())
    back = pickle.loads(pickle.dumps(normal))
    assert _distinct_nodes(normal) == _distinct_nodes(back) == 22
    assert records.table(back) == records.table(normal)  # the same DAG
    shared = syntax.PrimApp("*", (normal.body, normal.body))
    back = pickle.loads(pickle.dumps(shared))
    assert records.table(back) == records.table(shared) and back.args[0] is back.args[1]


def test_pickle_gives_back_interned_types():
    ty = _nest(20_000, lambda t: Arrow(Q, t), Sum(Unit(), Q))
    assert pickle.loads(pickle.dumps(ty)) is ty
    back = pickle.loads(pickle.dumps(Lam("f", ty, Inl(Var("f"), Sum(ty, Q)))))
    assert back.annot is ty and back.body.annot is Sum(ty, Q)


def test_copy_is_shallow_and_deepcopy_keeps_terms():
    a, b = Fst(Var("p")), Snd(Var("p"))
    pair = syntax.Pair(a, b)
    twin = copy.copy(pair)
    assert twin is not pair and twin == pair and twin.first is a and twin.second is b
    value = semantics.SPair(SBase("Q", a), SBase("Q", b))
    twin = copy.deepcopy(value)
    assert twin == value and twin.first is not value.first
    assert twin.first.payload is a and twin.second.payload is b
    v = SBase("Q", a)
    twin = copy.deepcopy(semantics.SPair(v, v))
    assert twin.first is twin.second is not v
