"""Normalization-by-evaluation kernel for a small typed DSL.

Terms of a simply-typed lambda calculus (unit, products, sums, rational
base type, primitives) evaluate into a residualizing semantic domain and
reify back into beta-normal, eta-long code.  Sums residualize through
delimited continuations; primitives simplify online when their arguments
are literals.
"""

from .chars import (
    Append,
    CharsTerm,
    Chr,
    Eps,
    NotCanonical,
    eval_fun,
    eval_list,
    format_chars,
    is_canonical,
    norm_chars,
    parse_chars,
    print_chars,
    reify_fun,
    reify_list,
)
from .control import Residual, reset, ret, shift
from .examples import (
    MAYBE_RAT,
    mk_fmap,
    mk_just,
    mk_maybe,
    mk_nothing,
    power,
    power_dprime,
    power_prime,
)
from .interp import ConcreteValue, RuntimeDivisionByZero, format_value, run
from .nbe import NameSupply, eval_term, norm, reflect, reify
from .primitives import (
    BOOL,
    RAT,
    DivisionByZero,
    PrimSignature,
    PrimType,
    Rational,
    lit,
    mk_false,
    mk_if,
    mk_true,
    naive_prim_env,
    rational_signature,
    smart_prim_env,
)
from .reader import AnnotationMissing, ParseError
from .semantics import (
    Closure,
    Reflected,
    SBase,
    SemValue,
    SFun,
    SInl,
    SInr,
    SPair,
    SUnit,
)
from .syntax import (
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
    ObjType,
    Pair,
    Prod,
    PrimApp,
    ShapeMismatch,
    Snd,
    Sum,
    Term,
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
    free_vars,
    infer,
    parse_term,
    parse_type,
    pretty_term,
    pretty_type,
    print_term,
    print_type,
)

__all__ = [name for name in dir() if not name.startswith("_")]
