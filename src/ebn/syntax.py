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
from typing import Any, Callable, Iterator, Mapping, TypeVar


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


def subterms(t: Term) -> Iterator[Term]:
    """Yield t and every subterm of t, preorder."""
    yield t
    for c in children(t):
        yield from subterms(c)


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


def validate_type(ty: ObjType, sig, path: tuple[int, ...] = ()) -> None:
    """Check every base name in `ty` is registered in the signature."""
    match ty:
        case Base(name=n):
            if n not in sig.bases:
                raise UnknownBaseType(f"unknown base type {n!r}", path)
        case Unit():
            pass
        case Arrow(dom=a, cod=b) | Prod(left=a, right=b) | Sum(left=a, right=b):
            validate_type(a, sig, path)
            validate_type(b, sig, path)
        case _:
            raise TypeError(f"not a type: {ty!r}")


def infer(env: Mapping[str, ObjType], sig, t: Term) -> ObjType:
    """Synthesize the unique type of `t` under `env` and the primitive
    signature `sig`, or raise a TypingError at the leftmost-innermost
    failing subterm."""
    return _infer(dict(env), sig, t, ())


def _infer(env: dict[str, ObjType], sig, t: Term, path: tuple[int, ...]) -> ObjType:
    match t:
        case Lit(value=v, base=b):
            if b not in sig.bases:
                raise UnknownBaseType(f"unknown base type {b!r}", path)
            if not sig.bases[b](v):
                raise TypeMismatch(Base(b), f"literal {v!r} outside its carrier", path)
            return Base(b)
        case PrimApp(name=c, args=args):
            if c not in sig.prims:
                raise UnknownPrimitive(f"unknown primitive {c!r}", path)
            decl = sig.prims[c]
            if len(args) != len(decl.args):
                raise ArityMismatch(
                    f"primitive {c!r} expects {len(decl.args)} arguments, got {len(args)}",
                    path,
                )
            for i, (arg, want) in enumerate(zip(args, decl.args)):
                got = _infer(env, sig, arg, path + (i,))
                if got != want:
                    raise TypeMismatch(want, got, path + (i,))
            return decl.result
        case UnitVal():
            return Unit()
        case Var(name=x):
            if x not in env:
                raise UnboundVariable(f"unbound variable {x!r}", path)
            return env[x]
        case Lam(binder=x, annot=a, body=n):
            validate_type(a, sig, path)
            inner = dict(env)
            inner[x] = a
            b = _infer(inner, sig, n, path + (0,))
            return Arrow(a, b)
        case App(fun=l, arg=m):
            fty = _infer(env, sig, l, path + (0,))
            if not isinstance(fty, Arrow):
                raise TypeMismatch("a function type", fty, path + (0,))
            aty = _infer(env, sig, m, path + (1,))
            if aty != fty.dom:
                raise TypeMismatch(fty.dom, aty, path + (1,))
            return fty.cod
        case Pair(first=m, second=n):
            return Prod(
                _infer(env, sig, m, path + (0,)),
                _infer(env, sig, n, path + (1,)),
            )
        case Fst(arg=l):
            pty = _infer(env, sig, l, path + (0,))
            if not isinstance(pty, Prod):
                raise TypeMismatch("a product type", pty, path + (0,))
            return pty.left
        case Snd(arg=l):
            pty = _infer(env, sig, l, path + (0,))
            if not isinstance(pty, Prod):
                raise TypeMismatch("a product type", pty, path + (0,))
            return pty.right
        case Inl(arg=m, annot=a):
            validate_type(a, sig, path)
            if not isinstance(a, Sum):
                raise TypeMismatch("a sum type annotation", a, path)
            got = _infer(env, sig, m, path + (0,))
            if got != a.left:
                raise TypeMismatch(a.left, got, path + (0,))
            return a
        case Inr(arg=m, annot=a):
            validate_type(a, sig, path)
            if not isinstance(a, Sum):
                raise TypeMismatch("a sum type annotation", a, path)
            got = _infer(env, sig, m, path + (0,))
            if got != a.right:
                raise TypeMismatch(a.right, got, path + (0,))
            return a
        case Case(scrutinee=l, left=m, right=n):
            sty = _infer(env, sig, l, path + (0,))
            if not isinstance(sty, Sum):
                raise TypeMismatch("a sum type", sty, path + (0,))
            lty = _infer(env, sig, m, path + (1,))
            if not isinstance(lty, Arrow) or lty.dom != sty.left:
                raise TypeMismatch(f"a function from {pretty_type(sty.left)}", lty, path + (1,))
            rty = _infer(env, sig, n, path + (2,))
            if not isinstance(rty, Arrow) or rty.dom != sty.right:
                raise TypeMismatch(f"a function from {pretty_type(sty.right)}", rty, path + (2,))
            if rty.cod != lty.cod:
                raise TypeMismatch(lty.cod, rty.cod, path + (2,))
            return lty.cod
    raise TypeError(f"not a term: {t!r}")


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


def _render(t: Term, node: Callable[[Term, Callable[[Term], str]], str]) -> str:
    """The text of `t`, where `node(u, go)` formats the node `u` and `go(c)` is
    the text of its child `c`.  Normal forms share subterms by reference, so a
    term is a DAG: each distinct node is formatted once, children first and
    without recursion, and its text is dropped once its last parent has used
    it."""
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

    def go(c: Term) -> str:
        k = id(c)
        parents[k] -= 1
        return texts[k] if parents[k] else texts.pop(k)

    for u in order:
        texts[id(u)] = node(u, go)
    return texts[id(t)]


def _print_node(t: Term, go: Callable[[Term], str]) -> str:
    match t:
        case Lit(value=v, base=b):
            return f"(lit {format_rational(v)} {b})"
        case PrimApp(name=c, args=args):
            inner = "".join(f" {go(a)}" for a in args)
            return f"(prim {c}{inner})"
        case UnitVal():
            return "unit"
        case Var(name=x):
            return f"(var {x})"
        case Lam(binder=x, annot=a, body=n):
            return f"(lam ({x} {print_type(a)}) {go(n)})"
        case App(fun=f, arg=a):
            return f"(app {go(f)} {go(a)})"
        case Pair(first=a, second=b):
            return f"(pair {go(a)} {go(b)})"
        case Fst(arg=a):
            return f"(fst {go(a)})"
        case Snd(arg=a):
            return f"(snd {go(a)})"
        case Inl(arg=a, annot=ty):
            return f"(inl {go(a)} {print_type(ty)})"
        case Inr(arg=a, annot=ty):
            return f"(inr {go(a)} {print_type(ty)})"
        case Case(scrutinee=s, left=l, right=r):
            return f"(case {go(s)} {go(l)} {go(r)})"
    raise TypeError(f"not a term: {t!r}")


def print_term(t: Term) -> str:
    """Deterministic s-expression rendering; re-parses to an equal term."""
    return _render(t, _print_node)


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


def _pretty_node(t: Term, go: Callable[[Term], str]) -> str:
    match t:
        case Lit(value=v):
            return format_rational(v)
        case UnitVal():
            return "unit"
        case Var(name=x):
            return x
        case PrimApp(name=c, args=(a, b)):
            return f"({go(a)} {c} {go(b)})"
        case PrimApp(name=c, args=args):
            return f"{c}({', '.join(map(go, args))})"
        case Pair(first=a, second=b):
            return f"<{go(a)}, {go(b)}>"
        case Lam(binder=x, annot=a, body=n):
            return f"\\{x}:{pretty_type(a)}. {go(n)}"
        case App(fun=f, arg=a):
            return f"{_paren(f, go(f), 1)} {_paren(a, go(a), 2)}"
        case Fst(arg=a):
            return f"fst {_paren(a, go(a), 2)}"
        case Snd(arg=a):
            return f"snd {_paren(a, go(a), 2)}"
        case Inl(arg=a):
            return f"inl {_paren(a, go(a), 2)}"
        case Inr(arg=a):
            return f"inr {_paren(a, go(a), 2)}"
        case Case(scrutinee=s, left=l, right=r):
            return f"case {_paren(s, go(s), 2)} {_paren(l, go(l), 2)} {_paren(r, go(r), 2)}"
    raise TypeError(f"not a term: {t!r}")


def pretty_term(t: Term, prec: int = 0) -> str:
    """Human-oriented surface syntax: `\\x:Q. ...`, `<a, b>`, infix binary
    primitives.  Deterministic; not meant to be re-parsed."""
    return _paren(t, _render(t, _pretty_node), prec)
