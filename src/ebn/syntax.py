"""Object-language types and terms: typing, alpha-equivalence, beta-normality,
and the s-expression reader/printer.

Terms are plain immutable values.  A term may share a subterm by reference
(normal forms do), so it is a DAG that stands for a tree.  Binders (lam, inl,
inr) carry explicit type annotations so that type inference is
synthesis-only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Mapping, TypeVar


# ---------------------------------------------------------------------------
# Types


class ObjType:
    """Base class of object-language types."""

    __slots__ = ()


@dataclass(frozen=True)
class Base(ObjType):
    name: str


@dataclass(frozen=True)
class Unit(ObjType):
    pass


@dataclass(frozen=True)
class Arrow(ObjType):
    dom: ObjType
    cod: ObjType


@dataclass(frozen=True)
class Prod(ObjType):
    left: ObjType
    right: ObjType


@dataclass(frozen=True)
class Sum(ObjType):
    left: ObjType
    right: ObjType


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class of object-language terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(Term):
    value: Any
    base: str


@dataclass(frozen=True)
class PrimApp(Term):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class UnitVal(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    binder: str
    annot: ObjType
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Pair(Term):
    first: Term
    second: Term


@dataclass(frozen=True)
class Fst(Term):
    arg: Term


@dataclass(frozen=True)
class Snd(Term):
    arg: Term


@dataclass(frozen=True)
class Inl(Term):
    arg: Term
    annot: ObjType


@dataclass(frozen=True)
class Inr(Term):
    arg: Term
    annot: ObjType


@dataclass(frozen=True)
class Case(Term):
    scrutinee: Term
    left: Term
    right: Term


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
    match t:
        case Var(name=x):
            return frozenset((x,))
        case Lam(binder=x, body=b):
            return free_vars(b) - {x}
        case _:
            out: frozenset[str] = frozenset()
            for c in children(t):
                out |= free_vars(c)
            return out


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
    """Check every base name in `ty` is registered in the signature."""
    match ty:
        case Base(name=n):
            if n not in sig.bases:
                raise UnknownBaseType(f"unknown base type {n!r}")
        case Unit():
            pass
        case Arrow(dom=a, cod=b) | Prod(left=a, right=b) | Sum(left=a, right=b):
            validate_type(a, sig)
            validate_type(b, sig)
        case _:
            raise TypeError(f"not a type: {ty!r}")


def infer(env: Mapping[str, ObjType], sig, t: Term) -> ObjType:
    """Synthesize the unique type of `t` under `env` and the primitive
    signature `sig`, or raise a TypingError at the leftmost-innermost
    failing subterm.

    One loop over an explicit stack of frames `[term, child index, saved]`,
    one per term whose child is being typed, so Python stack use does not
    grow with the term.  One environment dict is updated in place: a Lam's
    frame saves the binding its binder shadows and puts it back when the
    body is done.  The error path is read off the stack only when raising."""
    env = dict(env)
    bases, prims = sig.bases, sig.prims
    stack: list[list] = []
    while True:
        # Descend: type the leaves at once, push a frame for anything else.
        cls = type(t)
        if cls is Var:
            try:
                ty = env[t.name]
            except KeyError:
                raise UnboundVariable(f"unbound variable {t.name!r}", _path(stack)) from None
        elif cls is Lit:
            b = t.base
            if b not in bases:
                raise UnknownBaseType(f"unknown base type {b!r}", _path(stack))
            if not bases[b](t.value):
                raise TypeMismatch(Base(b), f"literal {t.value!r} outside its carrier", _path(stack))
            ty = Base(b)
        elif cls is Lam:
            _annotation(t.annot, sig, stack)
            x = t.binder
            stack.append([t, 0, env.get(x, _UNBOUND)])
            env[x] = t.annot
            t = t.body
            continue
        elif cls is PrimApp:
            c = t.name
            if c not in prims:
                raise UnknownPrimitive(f"unknown primitive {c!r}", _path(stack))
            decl = prims[c]
            if len(t.args) != len(decl.args):
                raise ArityMismatch(
                    f"primitive {c!r} expects {len(decl.args)} arguments, got {len(t.args)}",
                    _path(stack),
                )
            if not t.args:
                ty = decl.result
            else:
                stack.append([t, 0, decl])
                t = t.args[0]
                continue
        elif cls is UnitVal:
            ty = _UNIT_TYPE
        elif cls is Inl or cls is Inr:
            a = t.annot
            _annotation(a, sig, stack)
            if not isinstance(a, Sum):
                raise TypeMismatch("a sum type annotation", a, _path(stack))
            stack.append([t, 0, None])
            t = t.arg
            continue
        elif cls in _FIRST_CHILD:
            stack.append([t, 0, None])
            t = _FIRST_CHILD[cls](t)
            continue
        else:
            raise TypeError(f"not a term: {t!r}")

        # Ascend: hand `ty` to the innermost frame, which either checks it
        # and moves on to its next child or finishes with its own type.
        while stack:
            frame = stack[-1]
            u, i, saved = frame
            cls = type(u)
            if cls is Lam:
                if saved is _UNBOUND:
                    del env[u.binder]
                else:
                    env[u.binder] = saved
                ty = Arrow(u.annot, ty)
            elif cls is PrimApp:
                want = saved.args[i]
                if ty is not want and ty != want:
                    raise TypeMismatch(want, ty, _path(stack))
                i += 1
                if i < len(u.args):
                    frame[1] = i
                    t = u.args[i]
                    break
                ty = saved.result
            elif cls is App:
                if i == 0:
                    if not isinstance(ty, Arrow):
                        raise TypeMismatch("a function type", ty, _path(stack))
                    frame[1:] = 1, ty
                    t = u.arg
                    break
                if ty is not saved.dom and ty != saved.dom:
                    raise TypeMismatch(saved.dom, ty, _path(stack))
                ty = saved.cod
            elif cls is Pair:
                if i == 0:
                    frame[1:] = 1, ty
                    t = u.second
                    break
                ty = Prod(saved, ty)
            elif cls is Fst or cls is Snd:
                if not isinstance(ty, Prod):
                    raise TypeMismatch("a product type", ty, _path(stack))
                ty = ty.left if cls is Fst else ty.right
            elif cls is Case:
                if i == 0:
                    if not isinstance(ty, Sum):
                        raise TypeMismatch("a sum type", ty, _path(stack))
                    frame[1:] = 1, ty
                    t = u.left
                    break
                if i == 1:
                    side = saved.left
                else:
                    sty, lty = saved
                    side = sty.right
                if not isinstance(ty, Arrow) or ty.dom is not side and ty.dom != side:
                    raise TypeMismatch(f"a function from {pretty_type(side)}", ty, _path(stack))
                if i == 1:
                    frame[1:] = 2, (saved, ty)
                    t = u.right
                    break
                if ty.cod is not lty.cod and ty.cod != lty.cod:
                    raise TypeMismatch(lty.cod, ty.cod, _path(stack))
                ty = lty.cod
            else:  # Inl or Inr
                a = u.annot
                want = a.left if cls is Inl else a.right
                if ty is not want and ty != want:
                    raise TypeMismatch(want, ty, _path(stack))
                ty = a
            stack.pop()
        else:
            return ty


def _path(stack: list[list]) -> tuple[int, ...]:
    """The child-index route from the root to the term being typed."""
    return tuple(frame[1] for frame in stack)


def _annotation(a: ObjType, sig, stack: list[list]) -> None:
    """Validate an annotation; an unknown base gets the path of the term
    being typed."""
    try:
        validate_type(a, sig)
    except UnknownBaseType as e:
        raise UnknownBaseType(e.args[0], _path(stack)) from None


_UNBOUND = object()  # the saved binding of a name that was not bound
_UNIT_TYPE = Unit()
_FIRST_CHILD: dict[type, Callable[[Term], Term]] = {
    App: attrgetter("fun"),
    Pair: attrgetter("first"),
    Fst: attrgetter("arg"),
    Snd: attrgetter("arg"),
    Case: attrgetter("scrutinee"),
}


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
        if int(q) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(p), int(q))
    return Fraction(int(text))


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
# S-expression reader


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class AnnotationMissing(ParseError):
    """A lam/inl/inr form is missing its type annotation."""


_T = TypeVar("_T")

# A token is a parenthesis, a string (quotes kept; the closing one is missing
# only in an unterminated string), an atom, or a line comment.  Whitespace
# matches nothing, so `findall` skips it.
_TOKEN_RE = re.compile(r'[()]|"[^"\n]*"?|[^\s();"]+|;[^\n]*')


def tokenize(text: str) -> list[str]:
    """Split s-expression source into tokens; `;` starts a line comment,
    double quotes delimit single-character strings for the chars language.
    A token's first character gives its kind: `(`, `)`, `"` or an atom."""
    tokens = [t for t in _TOKEN_RE.findall(text) if t[0] != ";"]
    if '"' in text:
        for i, t in enumerate(tokens):
            if t[0] == '"' and (len(t) == 1 or t[-1] != '"'):
                raise ParseError("unterminated string", *_position(text, i))
    return tokens


def _position(text: str, index: int) -> tuple[int, int]:
    """Line and column of token `index` of `text`, or of the end of the last
    token when there are not that many.  Only errors pay for this."""
    pos = 0
    tokens = (m for m in _TOKEN_RE.finditer(text) if m.group()[0] != ";")
    for i, m in enumerate(tokens):
        if i == index:
            pos = m.start()
            break
        pos = m.end()
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class TokenStream:
    """The tokens of one text, read left to right.  The text is kept so that
    an error can work out its token's line and column."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def error(
        self, message: str, at: int | None = None, cls: type[ParseError] = ParseError
    ) -> ParseError:
        """A `cls` at token `at`, by default the last one read."""
        return cls(message, *_position(self.text, self.pos - 1 if at is None else at))

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str = "token") -> str:
        try:
            tok = self.tokens[self.pos]
        except IndexError:
            raise self.error(f"unexpected end of input, expected {what}", self.pos) from None
        self.pos += 1
        return tok

    def expect(self, paren: str, what: str) -> None:
        tok = self.next(what)
        if tok != paren:
            raise self.error(f"expected {what}, found {tok!r}")

    def close(self) -> None:
        self.expect(")", "')'")

    def atom(self, what: str) -> str:
        tok = self.next(what)
        if tok[0] in '()"':
            raise self.error(f"expected {what}, found {tok!r}")
        return tok

    def read(self, parse: Callable[[TokenStream], _T]) -> _T:
        """`parse` applied to the whole stream: input left over is an error."""
        out = parse(self)
        if self.pos < len(self.tokens):
            raise self.error(f"trailing input {self.tokens[self.pos]!r}", self.pos)
        return out


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_TYPE_FORMS = {"arrow": Arrow, "prod": Prod, "sum": Sum}
# Forms whose operands are all terms: head -> (constructor, arity).
_TERM_FORMS = {
    "app": (App, 2), "pair": (Pair, 2), "fst": (Fst, 1), "snd": (Snd, 1), "case": (Case, 3)
}


def _parse_type(ts: TokenStream) -> ObjType:
    tok = ts.next("a type")
    if tok == "(":
        head = ts.atom("a type constructor")
        if head not in _TYPE_FORMS:
            raise ts.error(f"unknown type form {head!r}")
        a = _parse_type(ts)
        b = _parse_type(ts)
        ts.close()
        return _TYPE_FORMS[head](a, b)
    if tok[0] in ')"':
        raise ts.error(f"expected a type, found {tok!r}")
    if tok == "unit":
        return Unit()
    if _NAME_RE.fullmatch(tok):
        return Base(tok)
    raise ts.error(f"malformed base type name {tok!r}")


def _parse_term(ts: TokenStream) -> Term:
    tok = ts.next("a term")
    if tok != "(":
        if tok == "unit":
            return UnitVal()
        if tok[0] in ')"':
            raise ts.error(f"expected a term, found {tok!r}")
        raise ts.error(f"unexpected atom {tok!r}")
    head = ts.atom("a term constructor")
    form = _TERM_FORMS.get(head)
    if form is not None:
        make, arity = form
        args: list[Term] = []
        # A plain loop: before Python 3.12 a comprehension adds a frame per level.
        for _ in range(arity):
            args.append(_parse_term(ts))
        ts.close()
        return make(*args)
    at_head = ts.pos - 1
    match head:
        case "lit":
            try:
                q = parse_rational(ts.atom("a rational literal"))
            except ValueError as e:
                raise ts.error(str(e)) from None
            base = ts.atom("a base type name")
            ts.close()
            return Lit(q, base)
        case "prim":
            name = ts.atom("a primitive name")
            args = []
            while ts.peek() != ")":
                args.append(_parse_term(ts))
            ts.next()
            return PrimApp(name, tuple(args))
        case "var":
            name = ts.atom("a variable name")
            ts.close()
            return Var(name)
        case "lam":
            ts.expect("(", "'(' before the binder")
            binder = ts.atom("a binder name")
            if ts.peek() == ")":
                raise ts.error(f"binder {binder!r} has no type annotation", cls=AnnotationMissing)
            annot = _parse_type(ts)
            ts.expect(")", "')' after the binder")
            body = _parse_term(ts)
            ts.close()
            return Lam(binder, annot, body)
        case "inl" | "inr":
            arg = _parse_term(ts)
            if ts.peek() == ")":
                raise ts.error(f"{head} has no sum type annotation", at_head, AnnotationMissing)
            annot = _parse_type(ts)
            ts.close()
            return Inl(arg, annot) if head == "inl" else Inr(arg, annot)
    raise ts.error(f"unknown term form {head!r}", at_head)


def parse_term(text: str) -> Term:
    return TokenStream(text).read(_parse_term)


def parse_type(text: str) -> ObjType:
    return TokenStream(text).read(_parse_type)


# ---------------------------------------------------------------------------
# Printing


def print_type(ty: ObjType) -> str:
    match ty:
        case Base(name=n):
            return n
        case Unit():
            return "unit"
        case Arrow(dom=a, cod=b):
            return f"(arrow {print_type(a)} {print_type(b)})"
        case Prod(left=a, right=b):
            return f"(prod {print_type(a)} {print_type(b)})"
        case Sum(left=a, right=b):
            return f"(sum {print_type(a)} {print_type(b)})"
    raise TypeError(f"not a type: {ty!r}")


# A formatter `(u, go, ty) -> str` gives the text of the node `u`, where
# `go(c)` is the text of its child `c` and `ty(a)` the text of its annotation
# `a`.  A printer is a table of formatters keyed by term class.
Formatter = Callable[[Term, Callable[[Term], str], Callable[[ObjType], str]], str]


def _render(t: Term, formats: dict[type, Formatter], type_text: Callable[[ObjType], str]) -> str:
    """The text of `t` under the printer `formats`, whose annotations read as
    `type_text(a)`.  Normal forms share subterms by reference, so a term is a
    DAG: each distinct node is formatted once, children first and without
    recursion, and its text is dropped once its last parent has used it.
    Each distinct annotation object is rendered once, too."""
    parents = {id(t): 0}
    order: list[Term] = []  # the distinct nodes, each after all its children
    stack = [(t, iter(children(t)))]
    while stack:
        u, kids = stack[-1]
        for c in kids:
            k = id(c)
            if k in parents:
                parents[k] += 1
                continue
            parents[k] = 1
            grand = children(c)
            if grand:
                stack.append((c, iter(grand)))
                break
            order.append(c)  # a leaf is done as soon as it is found
        else:
            stack.pop()
            order.append(u)
    texts: dict[int, str] = {}
    annots: dict[int, str] = {}

    def go(c: Term) -> str:
        k = id(c)
        left = parents[k] - 1
        if left:
            parents[k] = left
            return texts[k]
        return texts.pop(k)

    def ty(a: ObjType) -> str:
        text = annots.get(id(a))
        if text is None:
            text = annots[id(a)] = type_text(a)
        return text

    for u in order:
        texts[id(u)] = formats[type(u)](u, go, ty)
    return texts[id(t)]


_PRINT: dict[type, Formatter] = {
    Lit: lambda u, go, ty: f"(lit {format_rational(u.value)} {u.base})",
    PrimApp: lambda u, go, ty: f"(prim {' '.join([u.name, *map(go, u.args)])})",
    UnitVal: lambda u, go, ty: "unit",
    Var: lambda u, go, ty: f"(var {u.name})",
    Lam: lambda u, go, ty: f"(lam ({u.binder} {ty(u.annot)}) {go(u.body)})",
    App: lambda u, go, ty: f"(app {go(u.fun)} {go(u.arg)})",
    Pair: lambda u, go, ty: f"(pair {go(u.first)} {go(u.second)})",
    Fst: lambda u, go, ty: f"(fst {go(u.arg)})",
    Snd: lambda u, go, ty: f"(snd {go(u.arg)})",
    Inl: lambda u, go, ty: f"(inl {go(u.arg)} {ty(u.annot)})",
    Inr: lambda u, go, ty: f"(inr {go(u.arg)} {ty(u.annot)})",
    Case: lambda u, go, ty: f"(case {go(u.scrutinee)} {go(u.left)} {go(u.right)})",
}


def print_term(t: Term) -> str:
    """Deterministic s-expression rendering; re-parses to an equal term."""
    return _render(t, _PRINT, print_type)


def pretty_type(ty: ObjType, prec: int = 0) -> str:
    match ty:
        case Base(name=n):
            return n
        case Unit():
            return "unit"
        case Arrow(dom=a, cod=b):
            s = f"{pretty_type(a, 1)} -> {pretty_type(b, 0)}"
            return f"({s})" if prec > 0 else s
        case Prod(left=a, right=b):
            s = f"{pretty_type(a, 2)} * {pretty_type(b, 2)}"
            return f"({s})" if prec > 1 else s
        case Sum(left=a, right=b):
            s = f"{pretty_type(a, 2)} + {pretty_type(b, 2)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not a type: {ty!r}")


_TIGHT = (App, Fst, Snd, Inl, Inr, Case)


def _paren(t: Term, text: str, prec: int) -> str:
    """`text`, the pretty form of `t`, as an operand at precedence `prec`: an
    application-like form is parenthesised above 1, a lambda above 0.  So a
    node's own text does not depend on where it appears."""
    if prec > 1 and isinstance(t, _TIGHT) or prec > 0 and isinstance(t, Lam):
        return f"({text})"
    return text


def _operand(go: Callable[[Term], str], t: Term) -> str:
    """The pretty text of `t` as an operand of a prefix form."""
    return _paren(t, go(t), 2)


def _pretty_prim(u: PrimApp, go: Callable[[Term], str], ty) -> str:
    if len(u.args) == 2:
        a, b = u.args
        return f"({go(a)} {u.name} {go(b)})"
    return f"{u.name}({', '.join(map(go, u.args))})"


_PRETTY: dict[type, Formatter] = {
    Lit: lambda u, go, ty: format_rational(u.value),
    PrimApp: _pretty_prim,
    UnitVal: lambda u, go, ty: "unit",
    Var: lambda u, go, ty: u.name,
    Lam: lambda u, go, ty: f"\\{u.binder}:{ty(u.annot)}. {go(u.body)}",
    App: lambda u, go, ty: f"{_paren(u.fun, go(u.fun), 1)} {_operand(go, u.arg)}",
    Pair: lambda u, go, ty: f"<{go(u.first)}, {go(u.second)}>",
    Fst: lambda u, go, ty: f"fst {_operand(go, u.arg)}",
    Snd: lambda u, go, ty: f"snd {_operand(go, u.arg)}",
    Inl: lambda u, go, ty: f"inl {_operand(go, u.arg)}",
    Inr: lambda u, go, ty: f"inr {_operand(go, u.arg)}",
    Case: lambda u, go, ty: (
        f"case {_operand(go, u.scrutinee)} {_operand(go, u.left)} {_operand(go, u.right)}"
    ),
}


def pretty_term(t: Term, prec: int = 0) -> str:
    """Human-oriented surface syntax: `\\x:Q. ...`, `<a, b>`, infix binary
    primitives.  Deterministic; not meant to be re-parsed."""
    return _paren(t, _render(t, _PRETTY, pretty_type), prec)
