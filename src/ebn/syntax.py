"""Object-language types and terms: typing, alpha-equivalence, beta-normality,
and the s-expression reader/printer.

Terms are plain immutable trees.  Binders (lam, inl, inr) carry explicit type
annotations so that type inference is synthesis-only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Mapping


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


def children(t: Term) -> tuple[Term, ...]:
    match t:
        case Lit() | UnitVal() | Var():
            return ()
        case PrimApp(args=args):
            return args
        case Lam(body=b):
            return (b,)
        case App(fun=f, arg=a):
            return (f, a)
        case Pair(first=a, second=b):
            return (a, b)
        case Fst(arg=a) | Snd(arg=a) | Inl(arg=a) | Inr(arg=a):
            return (a,)
        case Case(scrutinee=s, left=l, right=r):
            return (s, l, r)
    raise TypeError(f"not a term: {t!r}")


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
    free variables must match by name, annotations structurally."""
    return _alpha(t1, t2, {}, {}, 0)


def _alpha(a: Term, b: Term, m1: dict[str, int], m2: dict[str, int], depth: int) -> bool:
    if type(a) is not type(b):
        return False
    match a:
        case Lit(value=v, base=c):
            return v == b.value and c == b.base
        case PrimApp(name=n, args=args):
            return (
                n == b.name
                and len(args) == len(b.args)
                and all(_alpha(x, y, m1, m2, depth) for x, y in zip(args, b.args))
            )
        case UnitVal():
            return True
        case Var(name=x):
            i, j = m1.get(x), m2.get(b.name)
            if i is None and j is None:
                return x == b.name
            return i is not None and i == j
        case Lam(binder=x, annot=ann, body=n):
            if ann != b.annot:
                return False
            return _alpha(n, b.body, {**m1, x: depth}, {**m2, b.binder: depth}, depth + 1)
        case Inl(arg=x, annot=ann) | Inr(arg=x, annot=ann):
            return ann == b.annot and _alpha(x, b.arg, m1, m2, depth)
        case _:
            return all(
                _alpha(x, y, m1, m2, depth)
                for x, y in zip(children(a), children(b))
            )


def beta_normal(t: Term) -> bool:
    """True iff t contains no beta redex: no applied lambda, projected pair,
    or case on an injection."""
    match t:
        case App(fun=Lam()):
            return False
        case Fst(arg=Pair()) | Snd(arg=Pair()):
            return False
        case Case(scrutinee=Inl()) | Case(scrutinee=Inr()):
            return False
    return all(beta_normal(c) for c in children(t))


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


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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


@dataclass(frozen=True)
class SToken:
    kind: str  # "(", ")", "atom", "string"
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[SToken]:
    """Split s-expression source into tokens; `;` starts a line comment,
    double quotes delimit single-character strings for the chars language."""
    out: list[SToken] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
        elif c.isspace():
            col, i = col + 1, i + 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append(SToken(c, c, line, col))
            col, i = col + 1, i + 1
        elif c == '"':
            sl, sc = line, col
            j = i + 1
            while j < n and text[j] not in '"\n':
                j += 1
            if j >= n or text[j] != '"':
                raise ParseError("unterminated string", sl, sc)
            out.append(SToken("string", text[i + 1 : j], sl, sc))
            col += j + 1 - i
            i = j + 1
        else:
            sl, sc = line, col
            j = i
            while j < n and not text[j].isspace() and text[j] not in '();"':
                j += 1
            out.append(SToken("atom", text[i:j], sl, sc))
            col += j - i
            i = j
    return out


class TokenStream:
    def __init__(self, tokens: list[SToken]):
        self._tokens = tokens
        self._pos = 0

    def _eof_pos(self) -> tuple[int, int]:
        if self._tokens:
            last = self._tokens[-1]
            return last.line, last.col + len(last.text)
        return 1, 1

    def peek(self) -> SToken | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self, what: str = "token") -> SToken:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input, expected {what}", *self._eof_pos())
        self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> SToken:
        tok = self.next(what)
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def _parse_type(ts: TokenStream) -> ObjType:
    tok = ts.next("a type")
    if tok.kind == "atom":
        if tok.text == "unit":
            return Unit()
        if _NAME_RE.fullmatch(tok.text):
            return Base(tok.text)
        raise ParseError(f"malformed base type name {tok.text!r}", tok.line, tok.col)
    if tok.kind != "(":
        raise ParseError(f"expected a type, found {tok.text!r}", tok.line, tok.col)
    head = ts.expect("atom", "a type constructor")
    if head.text not in ("arrow", "prod", "sum"):
        raise ParseError(f"unknown type form {head.text!r}", head.line, head.col)
    a = _parse_type(ts)
    b = _parse_type(ts)
    ts.expect(")", "')'")
    if head.text == "arrow":
        return Arrow(a, b)
    if head.text == "prod":
        return Prod(a, b)
    return Sum(a, b)


def _parse_term(ts: TokenStream) -> Term:
    tok = ts.next("a term")
    if tok.kind == "atom":
        if tok.text == "unit":
            return UnitVal()
        raise ParseError(f"unexpected atom {tok.text!r}", tok.line, tok.col)
    if tok.kind != "(":
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
    head = ts.expect("atom", "a term constructor")
    match head.text:
        case "lit":
            val = ts.expect("atom", "a rational literal")
            try:
                q = parse_rational(val.text)
            except ValueError as e:
                raise ParseError(str(e), val.line, val.col) from None
            base = ts.expect("atom", "a base type name")
            ts.expect(")", "')'")
            return Lit(q, base.text)
        case "prim":
            name = ts.expect("atom", "a primitive name")
            args: list[Term] = []
            while True:
                nxt = ts.peek()
                if nxt is not None and nxt.kind == ")":
                    ts.next()
                    return PrimApp(name.text, tuple(args))
                args.append(_parse_term(ts))
        case "var":
            name = ts.expect("atom", "a variable name")
            ts.expect(")", "')'")
            return Var(name.text)
        case "lam":
            ts.expect("(", "'(' before the binder")
            binder = ts.expect("atom", "a binder name")
            nxt = ts.peek()
            if nxt is not None and nxt.kind == ")":
                raise AnnotationMissing(
                    f"binder {binder.text!r} has no type annotation", binder.line, binder.col
                )
            annot = _parse_type(ts)
            ts.expect(")", "')' after the binder")
            body = _parse_term(ts)
            ts.expect(")", "')'")
            return Lam(binder.text, annot, body)
        case "app":
            f = _parse_term(ts)
            a = _parse_term(ts)
            ts.expect(")", "')'")
            return App(f, a)
        case "pair":
            a = _parse_term(ts)
            b = _parse_term(ts)
            ts.expect(")", "')'")
            return Pair(a, b)
        case "fst":
            a = _parse_term(ts)
            ts.expect(")", "')'")
            return Fst(a)
        case "snd":
            a = _parse_term(ts)
            ts.expect(")", "')'")
            return Snd(a)
        case "inl" | "inr":
            arg = _parse_term(ts)
            nxt = ts.peek()
            if nxt is not None and nxt.kind == ")":
                raise AnnotationMissing(
                    f"{head.text} has no sum type annotation", head.line, head.col
                )
            annot = _parse_type(ts)
            ts.expect(")", "')'")
            return Inl(arg, annot) if head.text == "inl" else Inr(arg, annot)
        case "case":
            s = _parse_term(ts)
            l = _parse_term(ts)
            r = _parse_term(ts)
            ts.expect(")", "')'")
            return Case(s, l, r)
    raise ParseError(f"unknown term form {head.text!r}", head.line, head.col)


def parse_term(text: str) -> Term:
    ts = TokenStream(tokenize(text))
    t = _parse_term(ts)
    ts.expect_end()
    return t


def parse_type(text: str) -> ObjType:
    ts = TokenStream(tokenize(text))
    ty = _parse_type(ts)
    ts.expect_end()
    return ty


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


def print_term(t: Term) -> str:
    """Deterministic s-expression rendering; re-parses to an equal term."""
    match t:
        case Lit(value=v, base=b):
            return f"(lit {format_rational(v)} {b})"
        case PrimApp(name=c, args=args):
            inner = "".join(f" {print_term(a)}" for a in args)
            return f"(prim {c}{inner})"
        case UnitVal():
            return "unit"
        case Var(name=x):
            return f"(var {x})"
        case Lam(binder=x, annot=a, body=n):
            return f"(lam ({x} {print_type(a)}) {print_term(n)})"
        case App(fun=f, arg=a):
            return f"(app {print_term(f)} {print_term(a)})"
        case Pair(first=a, second=b):
            return f"(pair {print_term(a)} {print_term(b)})"
        case Fst(arg=a):
            return f"(fst {print_term(a)})"
        case Snd(arg=a):
            return f"(snd {print_term(a)})"
        case Inl(arg=a, annot=ty):
            return f"(inl {print_term(a)} {print_type(ty)})"
        case Inr(arg=a, annot=ty):
            return f"(inr {print_term(a)} {print_type(ty)})"
        case Case(scrutinee=s, left=l, right=r):
            return f"(case {print_term(s)} {print_term(l)} {print_term(r)})"
    raise TypeError(f"not a term: {t!r}")


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


def pretty_term(t: Term, prec: int = 0) -> str:
    """Human-oriented surface syntax: `\\x:Q. ...`, `<a, b>`, infix binary
    primitives.  Deterministic; not meant to be re-parsed."""
    match t:
        case Lit(value=v):
            return format_rational(v)
        case UnitVal():
            return "unit"
        case Var(name=x):
            return x
        case PrimApp(name=c, args=args) if len(args) == 2:
            return f"({pretty_term(args[0])} {c} {pretty_term(args[1])})"
        case PrimApp(name=c, args=args):
            return f"{c}({', '.join(pretty_term(a) for a in args)})"
        case Pair(first=a, second=b):
            return f"<{pretty_term(a)}, {pretty_term(b)}>"
        case Lam(binder=x, annot=a, body=n):
            s = f"\\{x}:{pretty_type(a)}. {pretty_term(n)}"
            return f"({s})" if prec > 0 else s
        case App(fun=f, arg=a):
            s = f"{pretty_term(f, 1)} {pretty_term(a, 2)}"
            return f"({s})" if prec > 1 else s
        case Fst(arg=a):
            s = f"fst {pretty_term(a, 2)}"
            return f"({s})" if prec > 1 else s
        case Snd(arg=a):
            s = f"snd {pretty_term(a, 2)}"
            return f"({s})" if prec > 1 else s
        case Inl(arg=a):
            s = f"inl {pretty_term(a, 2)}"
            return f"({s})" if prec > 1 else s
        case Inr(arg=a):
            s = f"inr {pretty_term(a, 2)}"
            return f"({s})" if prec > 1 else s
        case Case(scrutinee=s0, left=l, right=r):
            s = f"case {pretty_term(s0, 2)} {pretty_term(l, 2)} {pretty_term(r, 2)}"
            return f"({s})" if prec > 1 else s
    raise TypeError(f"not a term: {t!r}")
