"""Every printed byte of a fixed set of normal forms, fresh names included,
pinned by one digest: a change to how the normalizer runs must not show in
its output."""

import hashlib

from ebn.examples import power, power_dprime, power_prime
from ebn.nbe import norm
from ebn.primitives import naive_prim_env, rational_signature, smart_prim_env
from ebn.syntax import pretty_term, print_term

from conftest import bool_chain


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
