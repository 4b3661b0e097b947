"""Every printed byte of a fixed set of normal forms, fresh names included,
pinned by one digest: a change to how the normalizer runs must not show in
its output.  A second digest pins the text of types and of chars terms."""

import hashlib
import itertools
import random

from ebn.chars import format_chars, norm_chars
from ebn.examples import power, power_dprime, power_prime
from ebn.nbe import norm
from ebn.primitives import naive_prim_env, rational_signature, smart_prim_env
from ebn.syntax import Arrow, Base, Prod, Sum, Unit, pretty_term, pretty_type, print_term, print_type

from conftest import bool_chain, gen_chars


def test_normal_form_digest(oracle_corpus):
    sources = [t for t, _, _ in oracle_corpus]
    sources += [bool_chain(k) for k in range(1, 11)]
    for make in (power, power_prime, power_dprime):
        for k in range(1, 11):
            sources += [make(2**k - 1), make(1 - 2**k), make(2**k)]
    assert len(sources) == 300 + 10 + 90
    sig = rational_signature()
    h = hashlib.sha256()
    for env in (smart_prim_env(), naive_prim_env()):
        for t in sources:
            normal = norm(t, sig, env)
            for text in (print_term(normal), pretty_term(normal, 0), pretty_term(normal, 1), pretty_term(normal, 2)):
                h.update(text.encode() + b"\n")
    assert h.hexdigest() == "541d3c37143db606e413eb9c4e15cbee7bd3dbfb0a587706cf12588a4eab1888"


def test_type_and_chars_text_digest():
    types = [Base("Q"), Unit()]
    for _ in range(2):
        types = types[:2] + [make(a, b) for make in (Arrow, Prod, Sum) for a, b in itertools.product(types, types)]
    assert len(types) == 590  # every type of depth at most 2 over Q and unit
    rng = random.Random(5)
    terms = [gen_chars(rng, 8) for _ in range(200)]
    h = hashlib.sha256()
    for ty in types:
        for text in (print_type(ty), pretty_type(ty), repr(ty)):
            h.update(text.encode() + b"\n")
    for t in terms:
        for text in (format_chars(t), format_chars(norm_chars(t))):
            h.update(text.encode() + b"\n")
    assert h.hexdigest() == "4c4afd64a0e1d98c520bce82529c3097f6bd1538363c02f01496ffaa23326b77"
