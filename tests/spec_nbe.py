"""The reference normaliser: the equations of normalisation by evaluation,
written as recursive functions over the continuation monad of `ebn.control`,
to be read next to the paper.

- `eval` maps a term to a computation of a semantic value;
- `apply` applies a function value, a closure or reflected code;
- `reify` maps a value back to a term, eta-expanding at function types,
  whose bodies it delimits with a `reset`;
- `reflect` maps code into the domain; at a sum it is one `shift`, which
  runs the captured continuation once per branch of a residual `case`.

`ebn.nbe` runs the same equations as one defunctionalised loop (Danvy &
Nielsen, "Defunctionalization at Work", PPDP 2001); its reflection at sums
is that of type-directed partial evaluation (Danvy, POPL 1996).  Both use
the semantic values of `ebn.semantics`, bind the primitives in the
environment under `ebn.nbe._PRIMS`, call an entry as `(args, names)` and
draw fresh names from one `NameSupply`, so their normal forms agree byte for
byte.  This one recurses: it is for small inputs.
"""

from __future__ import annotations

from ebn.control import Residual, reset, ret, shift
from ebn.nbe import _PRIMS, NameSupply
from ebn.semantics import UNIT, Closure, Reflected, SBase, SInl, SInr, SPair, SUnit
from ebn.syntax import (
    App,
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
    ShapeMismatch,
    Snd,
    Sum,
    Term,
    UnboundVariable,
    Unit,
    UnitVal,
    UnknownPrimitive,
    Var,
    infer,
)


def _mismatch(expected, value):
    return ShapeMismatch(f"expected {expected}, found {type(value).__name__}")


def eval(t: Term, env: dict, names: NameSupply) -> Residual:
    """The value of `t` in `env`, as a computation: operands left to right,
    an entry called once its arguments are values, a case's branch chosen by
    the scrutinee's tag."""
    match t:
        case Var(name=x):
            if x not in env:
                raise UnboundVariable(f"variable {x!r} missing from the value environment")
            return ret(env[x])
        case Lit(base=base):
            return ret(SBase(base, t))
        case UnitVal():
            return ret(UNIT)
        case Lam():
            return ret(Closure(t, env))
        case App(fun=f, arg=m):
            return eval(f, env, names).bind(lambda fv: eval(m, env, names).bind(lambda v: apply(fv, v, names)))
        case PrimApp(name=op, args=args):
            entry = env.get(_PRIMS, {}).get(op)
            if entry is None:
                raise UnknownPrimitive(f"no semantic entry for primitive {op!r}")

            def call(values):  # the arguments left to right, then the entry
                if len(values) < len(args):
                    return eval(args[len(values)], env, names).bind(lambda v: call(values + (v,)))
                out = entry(values, names)
                return reflect(*out, names) if type(out) is tuple else ret(out)

            return call(())
        case Pair(first=m, second=n):
            return eval(m, env, names).bind(lambda a: eval(n, env, names).map(lambda b: SPair(a, b)))
        case Fst(arg=m) | Snd(arg=m):
            def project(p):
                if type(p) is not SPair:
                    raise _mismatch("a pair value", p)
                return p.first if type(t) is Fst else p.second

            return eval(m, env, names).map(project)
        case Inl(arg=m):
            return eval(m, env, names).map(SInl)
        case Inr(arg=m):
            return eval(m, env, names).map(SInr)
        case Case(scrutinee=s, left=l, right=r):
            def branch(sv):
                if type(sv) not in (SInl, SInr):
                    raise _mismatch("a tagged case scrutinee", sv)
                return eval(l if type(sv) is SInl else r, env, names).bind(lambda f: apply(f, sv.value, names))

            return eval(s, env, names).bind(branch)
    raise TypeError(f"not a term: {t!r}")


def apply(f, v, names: NameSupply) -> Residual:
    """A closure binds `v` and runs its body; reflected code `c` applies as
    `reflect(cod, App(c, reify(dom, v)))`."""
    match f:
        case Closure(lam=lam, env=env):
            return eval(lam.body, {**env, lam.binder: v}, names)
        case Reflected(code=code, dom=a, cod=b):
            return reflect(b, App(code, reify(a, v, names)), names)
    raise _mismatch("a function value", f)


def reify(ty, v, names: NameSupply) -> Term:
    """The code of `v` at `ty`; at `a -> b`, for a fresh `x`,
    `lam x. reset(reflect(a, x) >>= apply(v) >>= reify(b))`."""
    match ty:
        case Base(name=base):
            if type(v) is not SBase or v.base != base:
                raise _mismatch(f"a {base} value", v)
            return v.payload
        case Unit():
            if type(v) is not SUnit:
                raise _mismatch("a unit value", v)
            return UnitVal()
        case Arrow(dom=a, cod=b):
            if type(v) not in (Closure, Reflected):
                raise _mismatch("a function value", v)
            x = names.fresh()
            body = reflect(a, Var(x), names).bind(lambda u: apply(v, u, names))
            return Lam(x, a, reset(body.map(lambda r: reify(b, r, names))))
        case Prod(left=a, right=b):
            if type(v) is not SPair:
                raise _mismatch("a pair value", v)
            return Pair(reify(a, v.first, names), reify(b, v.second, names))
        case Sum(left=a, right=b):
            if type(v) is SInl:
                return Inl(reify(a, v.value, names), ty)
            if type(v) is SInr:
                return Inr(reify(b, v.value, names), ty)
            raise _mismatch("a tagged value", v)
    raise TypeError(f"not a type: {ty!r}")


def reflect(ty, code: Term, names: NameSupply) -> Residual:
    """`code` of type `ty` as a value; at `a + b`, for fresh `xl` and `xr`,
    `shift k. case code (lam xl. reflect(a, xl) >>= k . inl)
                        (lam xr. reflect(b, xr) >>= k . inr)`."""
    match ty:
        case Base(name=base):
            return ret(SBase(base, code))
        case Unit():
            return ret(UNIT)
        case Arrow(dom=a, cod=b):
            return ret(Reflected(code, a, b))
        case Prod(left=a, right=b):
            return reflect(a, Fst(code), names).bind(
                lambda u: reflect(b, Snd(code), names).map(lambda w: SPair(u, w))
            )
        case Sum(left=a, right=b):
            def both(k):  # the left branch runs before the right binder is drawn
                xl = names.fresh()
                left = reflect(a, Var(xl), names).run(lambda u: k(SInl(u)))
                xr = names.fresh()
                right = reflect(b, Var(xr), names).run(lambda u: k(SInr(u)))
                return Case(code, Lam(xl, a, left), Lam(xr, b, right))

            return shift(both)
    raise TypeError(f"not a type: {ty!r}")


def norm(t: Term, sig, prims) -> Term:
    """Evaluate a closed term and reify its value at its inferred type, both
    under one `reset`, with fresh names from x0."""
    ty = infer({}, sig, t)
    names = NameSupply()
    return reset(eval(t, {_PRIMS: prims}, names).map(lambda v: reify(ty, v, names)))
