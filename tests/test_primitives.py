import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ebn.control import reset, ret
from ebn.examples import power, power_prime
from ebn.interp import CRat, run
from ebn.nbe import NameSupply, norm, reflect, reify
from ebn.primitives import (
    BOOL,
    RAT,
    DivisionByZero,
    PrimSignature,
    PrimType,
    lit,
    mk_false,
    mk_if,
    mk_true,
    naive_prim_env,
    rational_signature,
    smart_prim_env,
)
from ebn.semantics import SBase, SInl, SInr, SUnit
from ebn.syntax import (
    Arrow,
    Base,
    Case,
    Inl,
    Inr,
    Lam,
    Lit,
    Pair,
    PrimApp,
    ShapeMismatch,
    Unit,
    UnitVal,
    UnknownBaseType,
    Var,
    alpha_eq,
    infer,
    print_term,
)

from conftest import TermGen, gen_rational

SIG = rational_signature()
SMART = smart_prim_env()


def prim(op, a, b, env=SMART, names=None):
    """The entry `env[op]` applied to two argument values, as a computation:
    a request to reflect residual code runs through `reflect`."""
    names = names or NameSupply()
    out = env[op]((a, b), names)
    return reflect(*out, names) if isinstance(out, tuple) else ret(out)


def val(x) -> SBase:
    return SBase("Q", lit(x))


def exp(code) -> SBase:
    return SBase("Q", code)


def payload_of(comp):
    """Value of an effect-free primitive application."""
    out = []
    comp.run(lambda v: (out.append(v), UnitVal())[1])
    assert len(out) == 1
    return out[0]


def branching_of(op, a, b, env=SMART):
    """Render an equality reflection as the case it materializes, with the
    Bool reified in each branch by the supply that drew the branch binders."""
    names = NameSupply()
    return reset(prim(op, a, b, env, names).map(lambda v: reify(BOOL, v, names)))


M = Var("m")
N = Var("n")


# ---------------------------------------------------------------------------
# The smart table, row by row


def test_eq_val_val_true():
    assert payload_of(prim("==", val(2), val(2))) == SInr(SUnit())


def test_eq_val_val_false():
    assert payload_of(prim("==", val(2), val(3))) == SInl(SUnit())


def _expected_branching(code):
    return Case(
        code,
        Lam("x0", Unit(), Inl(UnitVal(), BOOL)),
        Lam("x1", Unit(), Inr(UnitVal(), BOOL)),
    )


def test_eq_val_exp_reflects():
    got = branching_of("==", val(2), exp(N))
    assert got == _expected_branching(PrimApp("==", (lit(2), N)))


def test_eq_exp_val_reflects():
    got = branching_of("==", exp(M), val(3))
    assert got == _expected_branching(PrimApp("==", (M, lit(3))))


def test_eq_exp_exp_reflects():
    got = branching_of("==", exp(M), exp(N))
    assert got == _expected_branching(PrimApp("==", (M, N)))


def test_mul_val_val_folds():
    assert payload_of(prim("*", val(2), val(3))) == val(6)


def test_mul_one_exp_simplifies():
    assert payload_of(prim("*", val(1), exp(N))) == exp(N)


def test_mul_val_exp_residualizes():
    assert payload_of(prim("*", val(5), exp(N))) == exp(PrimApp("*", (lit(5), N)))


def test_mul_exp_one_simplifies():
    assert payload_of(prim("*", exp(M), val(1))) == exp(M)


def test_mul_exp_val_residualizes():
    assert payload_of(prim("*", exp(M), val(7))) == exp(PrimApp("*", (M, lit(7))))


def test_mul_exp_exp_residualizes():
    assert payload_of(prim("*", exp(M), exp(N))) == exp(PrimApp("*", (M, N)))


def test_div_val_val_folds():
    assert payload_of(prim("/", val(1), val(2))) == val(Fraction(1, 2))


def test_div_val_exp_residualizes():
    assert payload_of(prim("/", val(3), exp(N))) == exp(PrimApp("/", (lit(3), N)))
    # / has no left unit
    assert payload_of(prim("/", val(1), exp(N))) == exp(PrimApp("/", (lit(1), N)))


def test_div_exp_one_simplifies():
    assert payload_of(prim("/", exp(M), val(1))) == exp(M)


def test_div_exp_val_residualizes():
    assert payload_of(prim("/", exp(M), val(4))) == exp(PrimApp("/", (M, lit(4))))


def test_div_exp_exp_residualizes():
    assert payload_of(prim("/", exp(M), exp(N))) == exp(PrimApp("/", (M, N)))


def test_div_by_zero_fold_is_an_error():
    with pytest.raises(DivisionByZero):
        prim("/", val(3), val(0))


def test_smart_rejects_non_base_arguments():
    with pytest.raises(ShapeMismatch):
        prim("*", SUnit(), val(1))


@pytest.mark.parametrize("op", ["*", "/", "=="])
def test_smart_rejects_a_non_rational_argument_on_either_side(op):
    # next to a unit, another literal or a residual
    for bad in (SUnit(), SInr(SUnit()), SBase("R", M)):
        for good in (val(1), val(2), exp(N)):
            for args in ((bad, good), (good, bad)):
                with pytest.raises(ShapeMismatch):
                    prim(op, *args)


def test_val_only_folds_match_rational_arithmetic():
    rng = random.Random(81001)
    for _ in range(100):
        a, b = gen_rational(rng), gen_rational(rng)
        assert payload_of(prim("*", val(a), val(b))) == val(a * b)
        if b != 0:
            assert payload_of(prim("/", val(a), val(b))) == val(a / b)
        want = SInr(SUnit()) if a == b else SInl(SUnit())
        assert payload_of(prim("==", val(a), val(b))) == want


# ---------------------------------------------------------------------------
# The naive environment


def test_naive_residualizes_unconditionally():
    env = naive_prim_env()
    assert payload_of(prim("*", val(2), val(3), env)) == exp(
        PrimApp("*", (lit(2), lit(3)))
    )
    assert payload_of(prim("*", exp(M), val(1), env)) == exp(
        PrimApp("*", (M, lit(1)))
    )
    assert payload_of(prim("/", val(1), val(2), env)) == exp(
        PrimApp("/", (lit(1), lit(2)))
    )
    assert payload_of(prim("/", val(3), val(0), env)) == exp(
        PrimApp("/", (lit(3), lit(0)))
    )


def test_naive_eq_still_reflects():
    got = branching_of("==", exp(M), val(0), naive_prim_env())
    assert got == _expected_branching(PrimApp("==", (M, lit(0))))
    got = branching_of("==", val(2), val(2), naive_prim_env())
    assert got == _expected_branching(PrimApp("==", (lit(2), lit(2))))


# ---------------------------------------------------------------------------
# Bool helpers


def test_bool_constructors():
    assert mk_false() == Inl(UnitVal(), BOOL)
    assert mk_true() == Inr(UnitVal(), BOOL)


def test_if_normalizes_and_runs():
    sig, env = SIG, smart_prim_env()
    assert norm(mk_if(mk_true(), lit(1), lit(0)), sig, env) == lit(1)
    assert norm(mk_if(mk_false(), lit(1), lit(0)), sig, env) == lit(0)
    assert run(mk_if(mk_true(), lit(1), lit(0))) == CRat(Fraction(1))
    assert run(mk_if(mk_false(), lit(1), lit(0))) == CRat(Fraction(0))


def test_if_typing():
    t = mk_if(mk_true(), lit(1), lit(0))
    assert infer({}, SIG, t) == infer({}, SIG, lit(1)) == RAT


def test_if_branch_binders_skip_every_taken_name():
    # u and u0 are free in the else branch, w and w0 in the then branch
    t = mk_if(Var("c"), Pair(Var("w"), Var("w0")), Pair(Var("u"), Var("u0")))
    assert t.left.binder == "u1" and t.right.binder == "w1"
    assert print_term(t) == (
        "(case (var c) (lam (u1 unit) (pair (var u) (var u0))) "
        "(lam (w1 unit) (pair (var w) (var w0))))"
    )


def test_if_branch_binders_avoid_capture():
    body = mk_if(PrimApp("==", (Var("u"), lit(0))), Var("w"), Var("u"))
    t = Lam("u", RAT, Lam("w", RAT, body))
    assert infer({}, SIG, t) == Arrow(RAT, Arrow(RAT, RAT))
    got = norm(t, SIG, smart_prim_env())
    # else branch must still see the outer u, not the case binder
    expected = Lam(
        "x0",
        RAT,
        Lam(
            "x1",
            RAT,
            Case(
                PrimApp("==", (Var("x0"), lit(0))),
                Lam("x2", Unit(), Var("x0")),
                Lam("x3", Unit(), Var("x1")),
            ),
        ),
    )
    assert got == expected


# ---------------------------------------------------------------------------
# Signatures and invariants


def test_signature_validates_base_names():
    with pytest.raises(UnknownBaseType):
        PrimSignature(bases={}, prims={"f": PrimType((Base("Z"),), Base("Z"))})


def test_signature_arity():
    assert len(SIG.prims["*"].args) == 2


@given(
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 24)),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 24)),
)
def test_rational_invariants(a, b):
    import math

    for q in (a * b, a + b, a - b) + ((a / b,) if b != 0 else ()):
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1


def test_no_zero_annihilation_rule():
    # deliberately absent from the table: folding 0 * m would change the
    # shipped golden outputs
    assert payload_of(prim("*", val(0), exp(M))) == exp(PrimApp("*", (lit(0), M)))
    assert payload_of(prim("*", exp(M), val(0))) == exp(PrimApp("*", (M, lit(0))))


def test_smart_and_naive_envs_agree_semantically(oracle_corpus):
    from conftest import agree_on_probes

    naive = naive_prim_env()
    for t, ty, nt_smart in oracle_corpus[::5]:
        nt_naive = norm(t, SIG, naive)
        assert agree_on_probes(nt_smart, nt_naive, ty)


def test_mul_by_one_preserves_meaning():
    rng = random.Random(5150)
    gen = TermGen(rng)
    env = smart_prim_env()
    checked = 0
    while checked < 20:
        body = gen.gen(RAT, {"v": RAT}, 3)
        wrapped = Lam("v", RAT, PrimApp("*", (body, lit(1))))
        plain = Lam("v", RAT, body)
        try:
            got = norm(wrapped, SIG, env)
            want = norm(plain, SIG, env)
        except DivisionByZero:
            continue
        assert alpha_eq(got, want)
        checked += 1


# ---------------------------------------------------------------------------
# What an entry returns: a value, or a request the normalizer reflects


@pytest.mark.parametrize("env", [SMART, naive_prim_env()], ids=["smart", "naive"])
@pytest.mark.parametrize("op", ["*", "/"])
def test_a_residual_base_result_is_its_sbase(env, op):
    for a, b in ((exp(M), val(3)), (val(3), exp(N)), (exp(M), exp(N))):
        out = env[op]((a, b), NameSupply())
        assert type(out) is SBase and out == exp(PrimApp(op, (a.payload, b.payload)))


@pytest.mark.parametrize("env", [SMART, naive_prim_env()], ids=["smart", "naive"])
def test_a_residual_eq_is_still_a_request_at_bool(env):
    assert env["=="]((exp(M), val(0)), NameSupply()) == (BOOL, PrimApp("==", (M, lit(0))))


def _requesting(env):
    """`env` with each residual base result handed back as a `(RAT, code)`
    request, the way a client's entry may return it."""

    def wrap(impl):
        def entry(args, names):
            out = impl(args, names)
            if type(out) is SBase and type(out.payload) is not Lit:
                return RAT, out.payload
            return out

        return entry

    return {op: wrap(impl) for op, impl in env.items()}


@pytest.mark.parametrize("env", [SMART, naive_prim_env()], ids=["smart", "naive"])
def test_requests_at_q_normalize_like_the_table(env):
    terms = [power(n) for n in (-5, 0, 3, 13)] + [power_prime(n) for n in (-2, 5, 11)]
    gen = TermGen(random.Random(23))
    terms += [gen.gen(Arrow(RAT, RAT), {}, 5) for _ in range(40)]
    requesting = _requesting(env)

    def outcome(t, prims):
        try:
            return print_term(norm(t, SIG, prims))
        except DivisionByZero:  # a generated literal division by zero
            return DivisionByZero

    for t in terms:
        assert outcome(t, requesting) == outcome(t, env)


# ---------------------------------------------------------------------------
# The per-call table of residual tests


@pytest.mark.parametrize("env", [SMART, naive_prim_env()], ids=["smart", "naive"])
def test_a_residual_eq_is_built_once_per_supply_and_pair_of_operands(env):
    names = NameSupply()
    a, b = exp(M), val(0)
    _, code = env["=="]((a, b), names)
    assert env["=="]((a, b), names)[1] is code
    assert env["=="]((exp(M), SBase("Q", b.payload)), names)[1] is code  # by code, not value
    # equal but distinct operands, or a new supply, make a new node
    for args, supply in (((exp(Var("m")), b), names), ((a, val(0)), names), ((a, b), NameSupply())):
        _, other = env["=="](args, supply)
        assert other == code and other is not code


@pytest.mark.parametrize("env", [SMART, naive_prim_env()], ids=["smart", "naive"])
@pytest.mark.parametrize("op", ["*", "/"])
def test_a_residual_base_result_is_built_anew_each_call(env, op):
    names = NameSupply()
    a, b = exp(M), exp(N)
    first, second = env[op]((a, b), names), env[op]((a, b), names)
    assert first == second and first.payload is not second.payload
