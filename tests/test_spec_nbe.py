"""The machine `ebn.nbe.norm` against the reference normaliser `spec_nbe`: the
same printed normal form, fresh names included, or the same exception
class, under the smart and the naive primitive environments.

CI runs `compare` at a larger scale than the tests below."""

import random

from hypothesis import given, settings, strategies as st

import spec_nbe
from ebn.examples import power, power_dprime, power_prime
from ebn.nbe import norm
from ebn.primitives import naive_prim_env, rational_signature, smart_prim_env
from ebn.syntax import print_term

from conftest import ACCEPT_TYPES, TermGen, bool_chain, min_depth

SIG = rational_signature()
ENVS = (smart_prim_env(), naive_prim_env())
EXPONENTS = (*range(-40, 41), 255, -1023, 2047)


def outcome(normalise, t, prims):
    """The printed normal form of `t`, or the class of what normalising it
    raised."""
    try:
        return print_term(normalise(t, SIG, prims))
    except Exception as e:
        return type(e)


def assert_agree(t) -> None:
    for prims in ENVS:
        assert outcome(spec_nbe.norm, t, prims) == outcome(norm, t, prims), print_term(t)


def generated(seed: int, per_type: int, max_fuel: int) -> list:
    """`per_type` terms of each acceptance type from one seed, each at a fuel
    drawn up to `max_fuel`."""
    rng = random.Random(seed)
    gen = TermGen(rng)
    return [
        gen.gen(ty, {}, rng.randint(max(1, min_depth(ty)), max_fuel))
        for ty in ACCEPT_TYPES
        for _ in range(per_type)
    ]


def compare(seeds, per_type: int, max_fuel: int) -> int:
    """Compare the two on the generated terms of each seed, on
    `bool_chain(1..8)` and on the three power ladders at `EXPONENTS`; the
    number of normalisations each side made."""
    terms = [t for seed in seeds for t in generated(seed, per_type, max_fuel)]
    terms += [bool_chain(k) for k in range(1, 9)]
    terms += [make(n) for make in (power, power_prime, power_dprime) for n in EXPONENTS]
    for t in terms:
        assert_agree(t)
    return len(terms) * len(ENVS)


def test_spec_agrees_on_the_oracle_corpus(oracle_corpus):
    for t, _, _ in oracle_corpus:
        assert_agree(t)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_spec_agrees_on_generated_terms(seed):
    for t in generated(seed, per_type=1, max_fuel=7):
        assert_agree(t)


def test_spec_agrees_on_bool_chains_and_power_ladders():
    assert compare(seeds=(), per_type=0, max_fuel=7) == (8 + 3 * 84) * 2
