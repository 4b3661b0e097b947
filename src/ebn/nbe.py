"""The normalizer: evaluation, type-directed reification and reflection, run
as one abstract machine.

Reification turns a semantic value back into syntax, eta-expanding at
function types; reflection turns code (typically a fresh variable) into a
semantic value.  At sum types reflection captures the continuation with
`shift` and materializes it in both branches of a residual case, so code
consuming a residual sum is branched over once, at the point the sum is
destructed.

These equations are the CPS evaluator of `control.py` defunctionalised
(Danvy & Nielsen, "Defunctionalization at Work", 2001): one loop `_run` in
four modes (evaluate a term, return a value to the continuation, reify a
value, reflect code).  A continuation is an immutable linked list of tuple
frames `(tag, rest, ...)` that ends in `None`, the delimiter of the nearest
`reset`.  The resets themselves are meta-frames on a Python list: the body of
a lambda being reified, and each branch of a residual case.  `shift` at a
sum keeps a pointer to the current frames and runs them once per branch;
frames are never mutated, so the second run copies nothing.  The left branch
finishes before the right branch's binder is drawn, so fresh names come out
in the same order as from the CPS code.  Python stack use does not grow with
the term.  A closure's body runs with the primitives the closure was made
with: a frame under the body gives the caller's back when they differ, and a
shift keeps the primitives at its point for the right branch.

A machine step is taken only where control can move.  A non-atomic term
takes one: an application, a case, a pair, a projection or an injection
pushes a frame and goes on to its first operand.  An atom (a variable, a
lambda, a literal or unit) becomes its value where it appears, so `x0 == 3`
calls its primitive in the step that meets it: the CaEK refinement of a CEK
machine (Flanagan, Sabry, Duba & Felleisen, "The Essence of Compiling with
Continuations", 1993).  Each rule is one block of the loop.  A source redex
`(app (lam (y a) b) m)`, a case branch that is a literal lambda and a
closure call bind the argument through one step that copies the
environment, binds and runs the body; a literal lambda builds no closure.
A primitive's frame gathers its arguments from the first, so every call,
nullary or not, is made in one place.  An entry may return a value (the
table's entries reflect a residual `*` or `/` themselves) or a request
`(type, code)` at any type (a residual `==` at Bool), which is reflected
there too; a residual test is built once per call per pair of operands
(`NameSupply.tests`), however many paths reach it.  Reflection at a base
type or unit is a value at once, so neither a residual result nor the
payload of a `shift` takes a step, and a `shift` builds a `Var` of a
branch's binder only for a side that is not unit.  `_atom` is called only
on a term whose class is in `_ATOMS`.
"""

from __future__ import annotations

from .control import Residual
from .semantics import (
    Closure,
    PrimEnv,
    Reflected,
    SBase,
    SemValue,
    SFun,
    SInl,
    SInr,
    SPair,
    SUnit,
    ValueEnv,
)
from .syntax import (
    App,
    Arrow,
    Base,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Lit,
    ObjType,
    Pair,
    PrimApp,
    Prod,
    ShapeMismatch,
    Snd,
    Sum,
    Term,
    Unit,
    UnboundVariable,
    UnitVal,
    UnknownPrimitive,
    Var,
    infer,
)


class NameSupply:
    """Issues x0, x1, ... deterministically; one per normalization call.

    It reaches every primitive entry `(args, names)`, so it also keeps the
    call's table of residual tests, `tests`: a table entry stores the
    request for a residual `==` under `(op, id(a), id(b))`, and the copies of
    a test that a shift's two runs meet are one node.  The ids stay valid
    because each stored node holds its operands, and a new supply starts an
    empty table, so two calls share no node through it."""

    def __init__(self):
        self.counter = 0
        self.tests = {}

    def fresh(self) -> str:
        name = f"x{self.counter}"
        self.counter += 1
        return name


# Machine modes.  Modes and frame tags are small ints, which CPython caches,
# so the loop compares them with `is`.
EVAL, RETURN, REIFY, REFLECT = range(4)

# Continuation frames `(tag, rest, *fields)`; a value returns into the frame.
(
    ARG,  # (term, env): the function arrived; evaluate its argument
    CALL,  # (fun,): the argument arrived; apply fun to it
    CALL_WITH,  # (arg,): a case branch arrived; apply it to arg, the payload
    PRIM_ARG,  # (args, i, acc, env, impl): the value of args[i - 1] joins acc,
    # the values before it; at i = 0, pushed by the PrimApp, none arrives
    CASE,  # (left, right, env): the scrutinee arrived; pick a branch
    BIND,  # (lam, env): the argument of a source redex arrived
    PAIR_SND,  # (term, env): the first component arrived; evaluate the second
    PAIR,  # (first,): the second component arrived
    FST,
    SND,
    INL,
    INR,
    REIFY_AT,  # (ty,): reify the value at ty
    REIFY_SND,  # (ty, second): the first component's code arrived
    PAIR_CODE,  # (first,): the second component's code arrived
    WRAP_INL,  # (sum type,): the payload's code arrived
    WRAP_INR,
    REFLECT_APP,  # (code, cod): the argument's code arrived
    REFLECT_SND,  # (ty, code): the first projection's value arrived
    PRIMS,  # (prims,): a closure returned; restore its caller's primitives
    HOST,  # (f,): the host function f takes the value
) = range(21)

# Meta-frames, one per reset in progress; each receives the answer (a term)
# that reaches the delimiter.
(
    LAM_BODY,  # (outer frames, x, a): build Lam(x, a, answer)
    SPLIT_RIGHT,  # (code, a, b, captured frames, xl, prims): run the right branch
    BUILD_CASE,  # (code, a, b, xl, left answer, xr): build the case
) = range(3)

# The frame each one-argument term form pushes while its argument runs.
_UNARY = {Fst: FST, Snd: SND, Inl: INL, Inr: INR}

_ATOMS = frozenset((Var, Lit, Lam, UnitVal))

_UNIT = SUnit()
# What a shift hands to a branch whose side of the sum is unit (both sides of
# Bool); values are immutable, so every branch shares one.
_INL_UNIT = SInl(_UNIT)
_INR_UNIT = SInr(_UNIT)


def _mismatch(expected: str, value) -> ShapeMismatch:
    return ShapeMismatch(f"expected {expected}, found {type(value).__name__}")


def _atom(term, env, prims, lits):
    """The value of an atomic term, one whose class is in `_ATOMS`, which
    needs no machine step: a variable, a lambda, a source literal (one value
    per Lit per run, kept in `lits`, whose payload is the Lit itself) or
    unit."""
    cls = type(term)
    if cls is Var:
        try:
            return env[term.name]
        except KeyError:
            raise UnboundVariable(f"variable {term.name!r} missing from the value environment") from None
    if cls is Lit:
        value = lits.get(id(term))
        if value is None:
            value = lits[id(term)] = SBase(term.base, term)
        return value
    if cls is Lam:
        return Closure(term.binder, term.body, env, prims)
    return _UNIT


def _reflect_now(ty, code):
    """Reflection where it needs no machine step: at a base type and at
    unit.  None at any other type."""
    cls = type(ty)
    if cls is Base:
        return SBase(ty.name, code)
    if cls is Unit:
        return _UNIT
    return None


def _run(mode, k, prims, names, term=None, env=None, ty=None, value=None, code=None):
    """Run the machine from one state to the answer at its outermost
    delimiter.  The registers: `term` and `env` in EVAL, `value` in RETURN,
    `ty` and `value` in REIFY, `ty` and `code` in REFLECT."""
    meta = []
    lits = {}  # id of a source Lit -> its value, which keeps the Lit alive
    while True:
        if mode is EVAL:
            # A compound term pushes its frame and goes on to its first
            # operand; an atom, that operand or the term itself, is a value
            # at once and returns to the frame in this same step.
            cls = type(term)
            if cls is PrimApp:  # its frame gathers the arguments, then calls impl
                try:
                    impl = prims[term.name]
                except KeyError:
                    raise UnknownPrimitive(f"no semantic entry for primitive {term.name!r}") from None
                k = (PRIM_ARG, k, term.args, 0, (), env, impl)
            else:
                if cls is App:
                    fun = term.fun
                    if type(fun) is Lam:  # a source redex binds with no closure
                        k = (BIND, k, fun, env)
                        term = term.arg
                    else:
                        k = (ARG, k, term.arg, env)
                        term = fun
                elif cls is Case:
                    k = (CASE, k, term.left, term.right, env)
                    term = term.scrutinee
                elif cls is Pair:
                    k = (PAIR_SND, k, term.second, env)
                    term = term.first
                elif cls in _UNARY:
                    k = (_UNARY[cls], k)
                    term = term.arg
                elif cls not in _ATOMS:
                    raise TypeError(f"not a term: {term!r}")
                if type(term) not in _ATOMS:
                    continue
                value = _atom(term, env, prims, lits)
        elif mode is REIFY:
            cls = type(ty)
            if cls is Base:  # a literal or residual code is its own code
                if type(value) is not SBase or value.base != ty.name:
                    raise _mismatch(f"a {ty.name} value", value)
                value = value.payload
            elif cls is Arrow:
                if type(value) not in (Closure, Reflected, SFun):
                    raise _mismatch("a function value", value)
                x = names.fresh()
                meta.append((LAM_BODY, k, x, ty.dom))
                k = (CALL, (REIFY_AT, None, ty.cod), value)
                ty = ty.dom
                code = Var(x)
                value = _reflect_now(ty, code)
                if value is None:
                    mode = REFLECT
                    continue
            elif cls is Sum:
                if type(value) is SInl:
                    k = (WRAP_INL, k, ty)
                    ty = ty.left
                elif type(value) is SInr:
                    k = (WRAP_INR, k, ty)
                    ty = ty.right
                else:
                    raise _mismatch("a tagged value", value)
                value = value.value
                continue
            elif cls is Prod:
                if type(value) is not SPair:
                    raise _mismatch("a pair value", value)
                k = (REIFY_SND, k, ty.right, value.second)
                ty = ty.left
                value = value.first
                continue
            elif cls is Unit:
                if type(value) is not SUnit:
                    raise _mismatch("a unit value", value)
                value = UnitVal()
            else:
                raise TypeError(f"not a type: {ty!r}")
        elif mode is REFLECT:
            cls = type(ty)
            if cls is Sum:  # shift: both branches continue with frames k
                x = names.fresh()
                a = ty.left
                meta.append((SPLIT_RIGHT, code, a, ty.right, k, x, prims))
                if type(a) is Unit:  # a unit side's value is SUnit: no Var of x
                    value = _INL_UNIT
                else:
                    code = Var(x)
                    value = _reflect_now(a, code)
                    if value is None:
                        k = (INL, k)
                        ty = a
                        continue
                    value = SInl(value)
            elif cls is Arrow:
                value = Reflected(code, ty.dom, ty.cod)
            elif cls is Prod:
                k = (REFLECT_SND, k, ty.right, code)
                ty = ty.left
                code = Fst(code)
                continue
            else:
                value = _reflect_now(ty, code)
                if value is None:
                    raise TypeError(f"not a type: {ty!r}")

        # RETURN: hand `value` to the innermost frame.
        mode = RETURN
        if k is None:  # the delimiter: `value` is the answer of a reset
            if not meta:
                return value
            frame = meta.pop()
            tag = frame[0]
            if tag is LAM_BODY:
                _, k, x, a = frame
                value = Lam(x, a, value)
            elif tag is SPLIT_RIGHT:
                _, code, a, b, k, xl, prims = frame
                x = names.fresh()
                meta.append((BUILD_CASE, code, a, b, xl, value, x))
                if type(b) is Unit:
                    value = _INR_UNIT
                else:
                    code = Var(x)
                    value = _reflect_now(b, code)
                    if value is None:
                        k = (INR, k)
                        ty = b
                        mode = REFLECT
                    else:
                        value = SInr(value)
            else:
                _, code, a, b, xl, left, xr = frame
                value = Case(code, Lam(xl, a, left), Lam(xr, b, value))
            continue
        tag = k[0]
        if tag is PRIM_ARG:
            _, k, args, i, acc, env, impl = k
            if i:  # the value of args[i - 1] arrived
                acc += (value,)
            n = len(args)
            while i < n:  # the following atoms, in place
                term = args[i]
                if type(term) not in _ATOMS:
                    break
                acc += (_atom(term, env, prims, lits),)
                i += 1
            if i < n:
                k = (PRIM_ARG, k, args, i + 1, acc, env, impl)
                mode = EVAL
                continue
            value = impl(acc, names)
            if type(value) is tuple:
                ty, code = value
                value = _reflect_now(ty, code)
                if value is None:
                    mode = REFLECT
            continue
        if tag is BIND:
            _, k, fun, env = k
            arg = value
        elif tag is CASE:
            _, k, left, right, env = k
            if type(value) is SInl:
                fun = left
            elif type(value) is SInr:
                fun = right
            else:
                raise _mismatch("a tagged case scrutinee", value)
            arg = value.value
            if type(fun) is not Lam:  # any other branch is a function value
                k = (CALL_WITH, k, arg)
                term = fun
                mode = EVAL
                continue
        elif tag is ARG or tag is CALL or tag is CALL_WITH:
            if tag is ARG:
                _, k, term, env = k
                fun = value
                if type(term) not in _ATOMS:
                    k = (CALL, k, fun)
                    mode = EVAL
                    continue
                arg = _atom(term, env, prims, lits)
            elif tag is CALL:
                _, k, fun = k
                arg = value
            else:
                _, k, arg = k
                fun = value
            cls = type(fun)
            if cls is Closure:  # its body runs with its own primitives
                if fun.prims is not prims:
                    k = (PRIMS, k, prims)
                    prims = fun.prims
                env = fun.env
            elif cls is Reflected:
                k = (REFLECT_APP, k, fun.code, fun.cod)
                ty = fun.dom
                value = arg
                mode = REIFY
                continue
            elif cls is SFun:
                value = fun.apply(arg)
                continue
            else:
                raise _mismatch("a function value", fun)
        else:
            if tag is PAIR_SND:
                _, k, term, env = k
                if type(term) in _ATOMS:
                    value = SPair(value, _atom(term, env, prims, lits))
                else:
                    k = (PAIR, k, value)
                    mode = EVAL
            elif tag is PAIR:
                value = SPair(k[2], value)
                k = k[1]
            elif tag is FST or tag is SND:
                if type(value) is not SPair:
                    raise _mismatch("a pair value", value)
                value = value.first if tag is FST else value.second
                k = k[1]
            elif tag is INL or tag is INR:
                value = SInl(value) if tag is INL else SInr(value)
                k = k[1]
            elif tag is REIFY_AT:
                _, k, ty = k
                mode = REIFY
            elif tag is REFLECT_APP:
                _, k, fun_code, ty = k
                code = App(fun_code, value)
                mode = REFLECT
            elif tag is REIFY_SND:
                _, rest, ty, second = k
                k = (PAIR_CODE, rest, value)
                value = second
                mode = REIFY
            elif tag is PAIR_CODE:
                value = Pair(k[2], value)
                k = k[1]
            elif tag is WRAP_INL or tag is WRAP_INR:
                value = (Inl if tag is WRAP_INL else Inr)(value, k[2])
                k = k[1]
            elif tag is REFLECT_SND:
                _, rest, ty, whole = k
                k = (PAIR, rest, value)
                code = Snd(whole)
                mode = REFLECT
            elif tag is PRIMS:
                _, k, prims = k
            else:  # HOST
                value = k[2](value)
                k = k[1]
            continue

        # Bind `arg` to the binder of `fun`, a literal lambda in `env` or a
        # closure over it, and run the body.
        env = env.copy()
        env[fun.binder] = arg
        term = fun.body
        mode = EVAL


def eval_term(t: Term, prims: PrimEnv, env: ValueEnv, names: NameSupply) -> Residual[SemValue]:
    """Evaluate a well-typed term, as a computation whose continuation is a
    host function.  Each source literal becomes one value per run, whose
    payload is the Lit itself, so reification gives back the source node;
    primitive arguments are forced left to right before dispatch, lambdas
    close over their environment, and case evaluates only the branch
    selected by the scrutinee's tag."""
    return Residual(lambda kf: _run(EVAL, (HOST, None, kf), prims, names, term=t, env=dict(env)))


def reify(ty: ObjType, value: SemValue, names: NameSupply) -> Term:
    """Map a semantic value of type ty back to a term."""
    return _run(REIFY, None, None, names, ty=ty, value=value)


def reflect(ty: ObjType, code: Term, names: NameSupply) -> Residual[SemValue]:
    """Map a term of type ty into the semantic domain.  At sum type this asks
    for the continuation and duplicates it into both branches of a residual
    case on `code`."""
    return Residual(lambda kf: _run(REFLECT, (HOST, None, kf), None, names, ty=ty, code=code))


def norm(t: Term, sig, prims: PrimEnv) -> Term:
    """Normalize a closed well-typed term: evaluate it, then reify the result
    at its inferred type.  Output is closed, beta-normal, type-preserving,
    and deterministic (fresh names start at x0)."""
    ty = infer({}, sig, t)
    return _run(EVAL, (REIFY_AT, None, ty), prims, NameSupply(), term=t, env={})
