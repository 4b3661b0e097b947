"""The object language: types and terms, typing, alpha-equivalence,
beta-normality, rational literals, and the tables through which the reader
(`reader.py`) reads and the writer (`writer.py`) prints terms and types, as
s-expressions or surface syntax.

Types and terms are records (`records.py`).  Types are hash-consed: building
a type returns the one node of its class and fields, so types compare and
hash by identity, in O(1) at any depth.  A term may share a subterm by
reference (normal forms do), so it is a DAG that stands for a tree.  Binders
(lam, inl, inr) carry explicit type annotations so that type inference is
synthesis-only.  Bare type atoms read as their interned types.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Mapping

# `tokenize` is imported for callers of `syntax.tokenize`.
from .reader import ANNOT, ATOM, PAREN, REST, SORT, add_forms, bare_atom, form, read, tokenize
from .records import Record, RecordType, itself
from .writer import write


# ---------------------------------------------------------------------------
# Types


class _InternedType(RecordType):
    """The class of type classes.  Calling one returns the node in `_TYPES`
    for its class and fields, built by the first such call."""

    def __call__(cls, *args, **kwargs):
        node = _TYPES.get((cls, args))
        if kwargs or node is None:  # key a new node by its fields in order
            node = super().__call__(*args, **kwargs)
            fields = tuple([getattr(node, f) for f in cls.__match_args__])
            node = _TYPES.setdefault((cls, fields), node)
        return node


# Every type built so far, by `(class, fields)`.
_TYPES: dict[tuple, ObjType] = {}


class ObjType(Record, metaclass=_InternedType):
    """Base class of object-language types.  Types are interned: `Base("Q")`
    is the one node named "Q", and copy, deepcopy and pickle return it too.
    Two types are equal only when they are the same node, so equality and
    hashing are those of `object`, O(1) at any depth.  The table `_TYPES`
    keeps every distinct type for the life of the process.  It is not weak:
    a parsed term's types would die with the term and be built again at the
    next parse, and a program meets few distinct types."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __deepcopy__ = itself


class Base(ObjType):
    def __init__(self, name: str):
        Base._setters[0](self, name)


class Unit(ObjType):
    pass


class Arrow(ObjType):
    def __init__(self, dom: ObjType, cod: ObjType):
        set_dom, set_cod = Arrow._setters
        set_dom(self, dom)
        set_cod(self, cod)


class Prod(ObjType):
    def __init__(self, left: ObjType, right: ObjType):
        set_left, set_right = Prod._setters
        set_left(self, left)
        set_right(self, right)


class Sum(ObjType):
    def __init__(self, left: ObjType, right: ObjType):
        set_left, set_right = Sum._setters
        set_left(self, left)
        set_right(self, right)


# ---------------------------------------------------------------------------
# Terms


class Term(Record):
    """Base class of object-language terms."""

    __deepcopy__ = itself


class Lit(Term):
    def __init__(self, value: Any, base: str):
        set_value, set_base = Lit._setters
        set_value(self, value)
        set_base(self, base)


class PrimApp(Term):
    def __init__(self, name: str, args: tuple[Term, ...]):
        set_name, set_args = PrimApp._setters
        set_name(self, name)
        set_args(self, args)


class UnitVal(Term):
    pass


class Var(Term):
    def __init__(self, name: str):
        Var._setters[0](self, name)


class Lam(Term):
    def __init__(self, binder: str, annot: ObjType, body: Term):
        set_binder, set_annot, set_body = Lam._setters
        set_binder(self, binder)
        set_annot(self, annot)
        set_body(self, body)


class App(Term):
    def __init__(self, fun: Term, arg: Term):
        set_fun, set_arg = App._setters
        set_fun(self, fun)
        set_arg(self, arg)


class Pair(Term):
    def __init__(self, first: Term, second: Term):
        set_first, set_second = Pair._setters
        set_first(self, first)
        set_second(self, second)


class Fst(Term):
    def __init__(self, arg: Term):
        Fst._setters[0](self, arg)


class Snd(Term):
    def __init__(self, arg: Term):
        Snd._setters[0](self, arg)


class Inl(Term):
    def __init__(self, arg: Term, annot: ObjType):
        set_arg, set_annot = Inl._setters
        set_arg(self, arg)
        set_annot(self, annot)


class Inr(Term):
    def __init__(self, arg: Term, annot: ObjType):
        set_arg, set_annot = Inr._setters
        set_arg(self, arg)
        set_annot(self, annot)


class Case(Term):
    def __init__(self, scrutinee: Term, left: Term, right: Term):
        set_scrutinee, set_left, set_right = Case._setters
        set_scrutinee(self, scrutinee)
        set_left(self, left)
        set_right(self, right)


# Each term class's children, in order; a table lookup costs the same for
# every class, where a match tries its arms in turn.
_CHILDREN: dict[type, Callable[[Term], tuple[Term, ...]]] = {
    Lit: lambda t: (),
    UnitVal: lambda t: (),
    Var: lambda t: (),
    PrimApp: attrgetter("args"),
    Lam: lambda t: (t.body,),
    App: attrgetter("fun", "arg"),
    Pair: attrgetter("first", "second"),
    Fst: lambda t: (t.arg,),
    Snd: lambda t: (t.arg,),
    Inl: lambda t: (t.arg,),
    Inr: lambda t: (t.arg,),
    Case: attrgetter("scrutinee", "left", "right"),
}


def children(t: Term) -> tuple[Term, ...]:
    get = _CHILDREN.get(type(t))
    if get is None:
        raise TypeError(f"not a term: {t!r}")
    return get(t)


def free_vars(t: Term) -> frozenset[str]:
    """The names that occur free in `t`.  A term may be a normal form that
    shares subterms and stands for a far larger tree, so a first pass finds
    the ids of the compound nodes that more than one edge reaches; a leaf's
    free names cost nothing to find.  Then one walk over an explicit stack:
    `bound` counts the Lams around the node at hand that bind each name, and
    a Lam leaves its binder under its body, to be unbound on the way out.
    A shared node is walked once, in a frame of its own, for its own free
    names, kept in `memo`; where it occurs, those names less the ones bound
    there join the rest.  That costs the DAG size plus, at each edge into a
    shared node, that node's number of free names."""
    seen: set[int] = set()
    shared: set[int] = set()
    stack: list = [t]
    while stack:
        for c in children(stack.pop()):
            if type(c) not in _LEAF_TERMS:
                if id(c) in seen:
                    shared.add(id(c))
                else:
                    seen.add(id(c))
                    stack.append(c)
    memo: dict[int, frozenset[str]] = {}
    frames: list = []  # the walks that wait for a shared node's names
    out: set[str] = set()
    bound: dict[str, int] = {}
    stack = [t]
    while True:
        if not stack:
            names = frozenset(out)
            if not frames:
                return names
            out, bound, stack = frames.pop()
            memo[id(stack[-1])] = names
            continue
        u = stack.pop()
        cls = type(u)
        if cls is str:  # leaving the body of a Lam that binds `u`
            bound[u] -= 1
            continue
        if cls is Var:
            if not bound.get(u.name):
                out.add(u.name)
            continue
        if shared and id(u) in shared:
            names = memo.get(id(u))
            if names is not None:
                out.update([x for x in names if not bound.get(x)])
                continue
            stack.append(u)  # met again once its names are known
            frames.append((out, bound, stack))
            out, bound, stack = set(), {}, []
        if cls is Lam:
            bound[u.binder] = bound.get(u.binder, 0) + 1
            stack += (u.binder, u.body)
        else:
            stack += children(u)


_LEAF_TERMS = frozenset((Var, Lit, UnitVal))


# ---------------------------------------------------------------------------
# Typing


class TypingError(Exception):
    """A term failed to typecheck; `path` is the child-index route from the
    root to the offending subterm."""

    def __init__(self, message: str, path: tuple[int, ...] = ()):
        self.path = path
        if path:
            message = f"{message} (at path {'.'.join(map(str, path))})"
        super().__init__(message)


class UnboundVariable(TypingError):
    pass


class ArityMismatch(TypingError):
    pass


class UnknownPrimitive(TypingError):
    pass


class UnknownBaseType(TypingError):
    pass


class ShapeMismatch(Exception):
    """A value's shape contradicts its expected type: a semantic value met by
    the normalizer or a concrete value met by the interpreter.  Unreachable
    from well-typed input."""


class TypeMismatch(TypingError):
    def __init__(self, expected, found, path: tuple[int, ...] = ()):
        self.expected = expected
        self.found = found
        exp = expected if isinstance(expected, str) else pretty_type(expected)
        fnd = found if isinstance(found, str) else pretty_type(found)
        super().__init__(f"expected {exp}, found {fnd}", path)


def validate_type(ty: ObjType, sig) -> None:
    """Check every base name in `ty` is registered in the signature; the
    leftmost unknown one is reported."""
    stack = [ty]
    while stack:
        u = stack.pop()
        cls = type(u)
        if cls is Base:
            if u.name not in sig.bases:
                raise UnknownBaseType(f"unknown base type {u.name!r}")
        elif cls is Arrow:
            stack += (u.cod, u.dom)
        elif cls is Prod or cls is Sum:
            stack += (u.right, u.left)
        elif cls is not Unit:
            raise TypeError(f"not a type: {u!r}")


def infer(env: Mapping[str, ObjType], sig, t: Term) -> ObjType:
    """Synthesize the unique type of `t` under `env` and the primitive
    signature `sig`, or raise a TypingError at the leftmost-innermost
    failing subterm.

    One loop over immutable frames `(tag, outer frames, x, y)`, one per
    term whose child is being typed, so Python stack use does not grow
    with the term; a frame that moves on to its next child is replaced.
    A variable argument of an application, or of a primitive after its
    first, that has the type its frame expects is typed in place.
    One environment dict is updated in place: a Lam's frame saves the
    binding its binder shadows and puts it back when the body is done.
    The error path is read off the tags only when raising.  Types are
    interned, so every check is one `is`; arrows and products are read
    from `_TYPES`, and each distinct type of `env` and annotation is
    validated once, those of `env` first."""
    env = dict(env)
    bases, prims = sig.bases, sig.prims
    checked = set()  # the types validated so far
    for a in env.values():  # an unknown base has the empty path
        if a not in checked:
            validate_type(a, sig)
            checked.add(a)
    k = None
    while True:
        # Descend: type an atom at once; a compound term pushes its frame
        # and goes on to its first child.
        cls = type(t)
        if cls is Var:
            ty = env.get(t.name)
            if ty is None:  # not bound, or bound to None once its Lam ended
                raise UnboundVariable(f"unbound variable {t.name!r}", _path(k))
        elif cls is App:
            k = (APP, k, t.arg, None)
            t = t.fun
            continue
        elif cls is Lam or cls is Inl or cls is Inr:
            a = t.annot
            if a not in checked:  # an unknown base gets the path of `t`
                try:
                    validate_type(a, sig)
                except UnknownBaseType as e:
                    raise UnknownBaseType(e.args[0], _path(k)) from None
                checked.add(a)
            if cls is Lam:
                x = t.binder
                k = (LAM, k, x, env.get(x))
                env[x] = a
                t = t.body
                continue
            if type(a) is not Sum:
                raise TypeMismatch("a sum type annotation", a, _path(k))
            k = (INJ, k, a.left if cls is Inl else a.right, a)
            t = t.arg
            continue
        elif cls is PrimApp:
            c = t.name
            if c not in prims:
                raise UnknownPrimitive(f"unknown primitive {c!r}", _path(k))
            decl = prims[c]
            if len(t.args) != len(decl.args):
                raise ArityMismatch(
                    f"primitive {c!r} expects {len(decl.args)} arguments, got {len(t.args)}", _path(k)
                )
            if t.args:  # the frame types the arguments after the first
                k = (PRIM, k, t, 0)
                t = t.args[0]
                continue
            ty = decl.result
        elif cls is Lit:
            b = t.base
            if b not in bases:
                raise UnknownBaseType(f"unknown base type {b!r}", _path(k))
            ty = _TYPES.get((Base, (b,))) or Base(b)
            if not bases[b](t.value):
                raise TypeMismatch(ty, f"literal {t.value!r} outside its carrier", _path(k))
        elif cls is UnitVal:
            ty = _UNIT_TYPE
        elif cls is Pair:
            k = (PAIR, k, t.second, None)
            t = t.first
            continue
        elif cls is Case:
            k = (CASE, k, t.left, t.right)
            t = t.scrutinee
            continue
        elif cls is Fst or cls is Snd:
            k = (PROJ, k, cls, None)
            t = t.arg
            continue
        else:
            raise TypeError(f"not a term: {t!r}")

        # Ascend: hand `ty` to the innermost frame, which either checks it
        # and moves on to its next child or finishes with its own type.
        while k:
            tag, outer, x, y = k
            if tag is APP:
                if type(ty) is not Arrow:
                    raise TypeMismatch("a function type", ty, _path(k))
                t = x
                if type(t) is not Var or env.get(t.name) is not ty.dom:
                    k = (ARG, outer, ty.dom, ty.cod)
                    break
                ty = ty.cod
            elif tag is ARG or tag is INJ:
                if ty is not x:
                    raise TypeMismatch(x, ty, _path(k))
                ty = y
            elif tag is LAM:  # env[x] is the annotation again
                a = env[x]
                env[x] = y
                ty = _TYPES.get((Arrow, (a, ty))) or Arrow(a, ty)
            elif tag is PRIM:
                want = prims[x.name].args
                if ty is not want[y]:
                    raise TypeMismatch(want[y], ty, _path(k))
                y += 1
                while y < len(want):  # variables of the wanted type in place
                    t = x.args[y]
                    if type(t) is not Var or env.get(t.name) is not want[y]:
                        k = (PRIM, outer, x, y)
                        break
                    y += 1
                else:
                    ty = prims[x.name].result
                    k = outer
                    continue
                break
            elif tag is SECOND:
                ty = _TYPES.get((Prod, (x, ty))) or Prod(x, ty)
            elif tag is PROJ:
                if type(ty) is not Prod:
                    raise TypeMismatch("a product type", ty, _path(k))
                ty = ty.left if x is Fst else ty.right
            elif tag is PAIR or tag is CASE:  # the first child arrived
                if tag is CASE and type(ty) is not Sum:
                    raise TypeMismatch("a sum type", ty, _path(k))
                t = x
                k = (SECOND if tag is PAIR else LEFT, outer, ty, y)
                break
            else:  # LEFT or RIGHT: a branch arrived
                side = x.left if tag is LEFT else x.right
                if type(ty) is not Arrow or ty.dom is not side:
                    raise TypeMismatch(f"a function from {pretty_type(side)}", ty, _path(k))
                if tag is LEFT:
                    t = y
                    k = (RIGHT, outer, x, ty)
                    break
                if ty.cod is not y.cod:
                    raise TypeMismatch(y.cod, ty.cod, _path(k))
                ty = ty.cod
            k = outer
        else:
            return ty


# The tags of `infer`'s frames `(tag, outer frames, x, y)`, each with the
# child it waits for and its x and y:
#   LAM      the body: the binder, and the binding it shadows (None if none);
#   APP      the function: the argument, None;
#   ARG      the argument: the domain and the codomain of the function;
#   PAIR     the first component: the second, None;
#   SECOND   the second component: the first one's type, None;
#   PROJ     the pair: Fst or Snd, None;
#   INJ      the payload: its side of the sum, the sum;
#   CASE     the scrutinee: the left and the right branch;
#   LEFT     the left branch: the sum, the right branch;
#   RIGHT    the right branch: the sum, the left branch's type;
#   PRIM     argument i: the PrimApp, i.
# `_INDEX[tag]` is the index of that child among the term's children, and i
# a PRIM frame's.
LAM, APP, ARG, PAIR, SECOND, PROJ, INJ, CASE, LEFT, RIGHT, PRIM = range(11)
_INDEX = b"\0\0\1\0\1\0\0\0\1\2"


def _path(k) -> tuple[int, ...]:
    """The child-index route from the root to the term being typed."""
    path = []
    while k:
        tag, k, _, i = k
        path.append(i if tag is PRIM else _INDEX[tag])
    return tuple(reversed(path))


_UNIT_TYPE = Unit()


# ---------------------------------------------------------------------------
# Alpha-equivalence and beta-normality


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Structural equality up to consistent renaming of bound variables;
    free variables must match by name, annotations structurally.  Walks an
    explicit stack of term pairs.  m1 and m2 map each side's binder names to
    the levels they are bound at, innermost last: entering a Lam pushes its
    binders and leaves an undo entry under its body, so time grows linearly
    with binder depth."""
    m1: dict[str, list[int]] = {}
    m2: dict[str, list[int]] = {}
    level = 0
    stack: list = [(t1, t2)]
    while stack:
        a, b = stack.pop()
        if a is None:  # undo: leaving the Lam that bound the names in b
            m1[b[0]].pop()
            m2[b[1]].pop()
            level -= 1
            continue
        if type(a) is not type(b):
            return False
        match a:
            case Lit(value=v, base=c):
                if v != b.value or c != b.base:
                    return False
            case PrimApp(name=n, args=args):
                if n != b.name or len(args) != len(b.args):
                    return False
                stack.extend(zip(args, b.args))
            case Var(name=x):
                s1, s2 = m1.get(x), m2.get(b.name)
                i = s1[-1] if s1 else None
                if i != (s2[-1] if s2 else None) or (i is None and x != b.name):
                    return False
            case Lam(binder=x, annot=ann, body=n):
                if ann != b.annot:
                    return False
                m1.setdefault(x, []).append(level)
                m2.setdefault(b.binder, []).append(level)
                level += 1
                stack.append((None, (x, b.binder)))
                stack.append((n, b.body))
            case Inl(arg=x, annot=ann) | Inr(arg=x, annot=ann):
                if ann != b.annot:
                    return False
                stack.append((x, b.arg))
            case _:
                stack.extend(zip(children(a), children(b)))
    return True


def beta_normal(t: Term) -> bool:
    """True iff t contains no beta redex: no applied lambda, projected pair,
    or case on an injection.  Visits each distinct node once, without
    recursion."""
    seen = {id(t)}
    stack = [t]
    while stack:
        u = stack.pop()
        match u:
            case App(fun=Lam()) | Fst(arg=Pair()) | Snd(arg=Pair()):
                return False
            case Case(scrutinee=Inl() | Inr()):
                return False
        for c in children(u):
            if id(c) not in seen:
                seen.add(id(c))
                stack.append(c)
    return True


# ---------------------------------------------------------------------------
# Rational literals (wire format: `p/q` in lowest terms, or `p` for q=1)

_RATIONAL_RE = re.compile(r"-?\d+(/\d+)?")


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational literal {text!r}")
    if "/" in text:
        p, q = text.split("/")
        if _int(q) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(_int(p), _int(q))
    return Fraction(_int(text))


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal has no cap
        return int(Decimal(digits))


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits(); Decimal has no cap
        return str(Decimal(n))


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


# ---------------------------------------------------------------------------
# The sorts of terms and types (see `reader.py`)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


# Every valid bare type atom read so far, to its type.  Types are interned,
# so this keeps no type that `_TYPES` does not.
_TYPE_ATOMS: dict[str, ObjType] = {"unit": Unit()}


def _type_atom(tok: str, what: str) -> ObjType:
    ty = _TYPE_ATOMS.get(tok)
    if ty is None:
        if not _NAME_RE.fullmatch(bare_atom(tok, what)):
            raise ValueError(f"malformed base type name {tok!r}")
        ty = _TYPE_ATOMS[tok] = Base(tok)
    return ty


def _term_atom(tok: str, what: str) -> Term:
    if tok == "unit":
        return UnitVal()
    raise ValueError(f"unexpected atom {bare_atom(tok, what)!r}")


# The sorts of types and terms; their forms name the sorts, so come after.
_TYPE = (SORT, "a type", _type_atom, {}, "a type constructor", "type", {})
_TERM = (SORT, "a term", _term_atom, {}, "a term constructor", "term", {})
add_forms(
    _TYPE, arrow=form(Arrow, _TYPE, _TYPE), prod=form(Prod, _TYPE, _TYPE), sum=form(Sum, _TYPE, _TYPE)
)
add_forms(
    _TERM,
    lit=form(
        Lit,
        (ATOM, "a rational literal", lambda tok, what: parse_rational(bare_atom(tok, what))),
        (ATOM, "a base type name", bare_atom),
    ),
    prim=form(lambda name, *args: PrimApp(name, args), (ATOM, "a primitive name", bare_atom),
               (REST, "a term", _TERM)),
    var=form(Var, (ATOM, "a variable name", bare_atom)),
    lam=form(
        Lam,
        (PAREN, "'(' before the binder", "("),
        (ATOM, "a binder name", bare_atom),
        (ANNOT, "binder {!r} has no type annotation", _TYPE, False),
        (PAREN, "')' after the binder", ")"),
        _TERM,
    ),
    app=form(App, _TERM, _TERM),
    pair=form(Pair, _TERM, _TERM),
    fst=form(Fst, _TERM),
    snd=form(Snd, _TERM),
    inl=form(Inl, _TERM, (ANNOT, "inl has no sum type annotation", _TYPE, True)),
    inr=form(Inr, _TERM, (ANNOT, "inr has no sum type annotation", _TYPE, True)),
    case=form(Case, _TERM, _TERM, _TERM),
)


def parse_term(text: str) -> Term:
    return read(text, _TERM)


def parse_type(text: str) -> ObjType:
    return read(text, _TYPE)


# ---------------------------------------------------------------------------
# Printing


def _print_prim(u: PrimApp) -> Any:
    """`(prim name a b)` last first, where a variable operand's text joins
    the piece beside it, or its whole text when both operands are variables.
    Every primitive of the signature is binary; other arities take one
    piece per operand."""
    args = u.args
    if len(args) != 2:
        return (")", *[p for a in args[::-1] for p in (a, " ")], f"(prim {u.name}")
    a, b = args
    if type(b) is Var:
        last = f" (var {b.name}))"
        if type(a) is Var:
            return f"(prim {u.name} (var {a.name}){last}"
        return last, a, f"(prim {u.name} "
    if type(a) is Var:
        return ")", b, f"(prim {u.name} (var {a.name}) "
    return ")", b, " ", a, f"(prim {u.name} "


def _annot_text(a: ObjType) -> str | None:
    """The text of a Lam's annotation when it is a leaf, `Base` or `Unit`,
    which the Lam writes into its own piece; None for any other type."""
    cls = type(a)
    return a.name if cls is Base else "unit" if cls is Unit else None


def _print_lam(u: Lam) -> tuple:
    a = _annot_text(u.annot)
    if a is None:
        return ")", u.body, ") ", u.annot, f"(lam ({u.binder} "
    return ")", u.body, f"(lam ({u.binder} {a}) "


def _print_case(u: Case) -> tuple:
    """`(case s l r)` last first.  When both branches are Lams, as every
    residual case's are, the case writes their text with its own, a leaf
    annotation inlined and any other pushed as a piece, so a branch lambda
    makes no pieces of its own."""
    l, r = u.left, u.right
    if type(l) is not Lam or type(r) is not Lam:
        return ")", r, " ", l, " ", u.scrutinee, "(case "
    a, b = _annot_text(l.annot), _annot_text(r.annot)
    if a is not None and b is not None:
        return (
            "))", r.body, f") (lam ({r.binder} {b}) ", l.body, f" (lam ({l.binder} {a}) ",
            u.scrutinee, "(case ",
        )
    left = (f" (lam ({l.binder} {a}) ",) if a is not None else (") ", l.annot, f" (lam ({l.binder} ")
    right = (f") (lam ({r.binder} {b}) ",) if b is not None else (") ", r.annot, f") (lam ({r.binder} ")
    return "))", r.body, *right, l.body, *left, u.scrutinee, "(case "


def _pretty_lam(u: Lam) -> tuple:
    a = _annot_text(u.annot)
    if a is None:
        return u.body, ". ", u.annot, f"\\{u.binder}:"
    return u.body, f"\\{u.binder}:{a}. "


# S-expressions, of terms and of types.  A leaf is its text.
_PRINT: dict[type, Callable] = {
    Lit: lambda u: f"(lit {format_rational(u.value)} {u.base})",
    PrimApp: _print_prim,
    UnitVal: lambda u: "unit",
    Var: lambda u: f"(var {u.name})",
    Lam: _print_lam,
    App: lambda u: (")", u.arg, " ", u.fun, "(app "),
    Pair: lambda u: (")", u.second, " ", u.first, "(pair "),
    Fst: lambda u: (")", u.arg, "(fst "),
    Snd: lambda u: (")", u.arg, "(snd "),
    Inl: lambda u: (")", u.annot, " ", u.arg, "(inl "),
    Inr: lambda u: (")", u.annot, " ", u.arg, "(inr "),
    Case: _print_case,
    Base: lambda u: u.name,
    Unit: lambda u: "unit",
    Arrow: lambda u: (")", u.cod, " ", u.dom, "(arrow "),
    Prod: lambda u: (")", u.right, " ", u.left, "(prod "),
    Sum: lambda u: (")", u.right, " ", u.left, "(sum "),
}


def print_term(t: Term) -> str:
    """Deterministic s-expression rendering; re-parses to an equal term."""
    return write(t, _PRINT)


def print_type(ty: ObjType) -> str:
    return write(ty, _PRINT)


# The highest operand precedence at which a form needs no parentheses; other
# forms never need them.  Operands of prefix forms, `*` and `+` sit at 2, a
# function being applied and an arrow's domain at 1.
_TOP = {App: 1, Fst: 1, Snd: 1, Inl: 1, Inr: 1, Case: 1, Lam: 0, Arrow: 0, Prod: 1, Sum: 1}


def _operand(c: Record, prec: int) -> tuple:
    """The pieces of the operand `c` at precedence `prec`, last first."""
    return (")", c, "(") if _TOP.get(type(c), prec) < prec else (c,)


# Surface syntax, of terms and of types.
_PRETTY: dict[type, Callable] = {
    Lit: lambda u: format_rational(u.value),
    PrimApp: lambda u: (
        (")", u.args[1], f" {u.name} ", u.args[0], "(") if len(u.args) == 2
        else (")", *[p for a in u.args[::-1] for p in (a, ", ")][:-1], f"{u.name}(")
    ),
    UnitVal: lambda u: "unit",
    Var: lambda u: u.name,
    Lam: _pretty_lam,
    App: lambda u: (*_operand(u.arg, 2), " ", *_operand(u.fun, 1)),
    Pair: lambda u: (">", u.second, ", ", u.first, "<"),
    Fst: lambda u: (*_operand(u.arg, 2), "fst "),
    Snd: lambda u: (*_operand(u.arg, 2), "snd "),
    Inl: lambda u: (*_operand(u.arg, 2), "inl "),
    Inr: lambda u: (*_operand(u.arg, 2), "inr "),
    Case: lambda u: (
        *_operand(u.right, 2), " ", *_operand(u.left, 2), " ", *_operand(u.scrutinee, 2), "case "
    ),
    Base: lambda u: u.name,
    Unit: lambda u: "unit",
    Arrow: lambda u: (u.cod, " -> ", *_operand(u.dom, 1)),
    Prod: lambda u: (*_operand(u.right, 2), " * ", *_operand(u.left, 2)),
    Sum: lambda u: (*_operand(u.right, 2), " + ", *_operand(u.left, 2)),
}


def pretty_term(t: Term, prec: int = 0) -> str:
    """Human-oriented surface syntax: `\\x:Q. ...`, `<a, b>`, infix binary
    primitives, parenthesised as an operand at precedence `prec`.
    Deterministic; not meant to be re-parsed."""
    text = write(t, _PRETTY)
    return f"({text})" if _TOP.get(type(t), prec) < prec else text


def pretty_type(ty: ObjType) -> str:
    return write(ty, _PRETTY)

