import io
import random
import sys

import pytest
from hypothesis import given, strategies as st

from ebn import reader
from ebn.chars import (
    Append,
    Chr,
    Eps,
    NotCanonical,
    _leaves,
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
from ebn.reader import ParseError

from conftest import gen_chars

NBE_FLAT = Append(Chr("N"), Append(Chr("B"), Chr("E")))
NBE_PADDED = Append(
    Append(Chr("N"), Eps()),
    Append(Append(Chr("B"), Eps()), Append(Chr("E"), Eps())),
)
NBE_CANONICAL = Append(Chr("N"), Append(Chr("B"), Append(Chr("E"), Eps())))


def test_eval_list_examples():
    assert eval_list(NBE_FLAT) == "NBE"
    assert eval_list(Eps()) == ""
    assert eval_list(NBE_PADDED) == "NBE"


def test_reify_list_examples():
    assert reify_list("") == Eps()
    assert reify_list("NBE") == NBE_CANONICAL
    assert reify_list("a") == Append(Chr("a"), Eps())


def test_function_domain_examples():
    assert reify_fun(eval_fun(NBE_FLAT)) == NBE_CANONICAL
    assert reify_fun(eval_fun(Eps())) == Eps()


def test_function_domain_extensionality_probe():
    # appending the empty string on the right changes nothing, observed on
    # probe arguments
    m = Append(Chr("z"), Eps())
    f = eval_fun(Append(NBE_FLAT, Eps()))
    g = eval_fun(NBE_FLAT)
    for probe in (Eps(), m):
        assert f(probe) == g(probe)


def test_norm_chars_both_domains():
    for t in (NBE_FLAT, NBE_PADDED):
        for domain in ("list", "function"):
            assert norm_chars(t, domain) == NBE_CANONICAL
    with pytest.raises(ValueError):
        norm_chars(NBE_FLAT, "graph")


def test_is_canonical():
    assert is_canonical(NBE_CANONICAL)
    assert is_canonical(Eps())
    assert not is_canonical(Chr("a"))
    assert not is_canonical(Append(Append(Chr("a"), Chr("b")), Eps()))


def test_print_chars():
    buf = io.StringIO()
    print_chars(NBE_CANONICAL, buf)
    assert buf.getvalue() == "NBE"
    buf = io.StringIO()
    print_chars(Eps(), buf)
    assert buf.getvalue() == ""
    with pytest.raises(NotCanonical):
        print_chars(NBE_FLAT, io.StringIO())


def test_monoid_laws_hold_after_norm():
    rng = random.Random(31337)
    for _ in range(60):
        l = gen_chars(rng, 4)
        m = gen_chars(rng, 4)
        n = gen_chars(rng, 4)
        assert norm_chars(Append(Eps(), m)) == norm_chars(m)
        assert norm_chars(Append(m, Eps())) == norm_chars(m)
        assert norm_chars(Append(Append(l, m), n)) == norm_chars(Append(l, Append(m, n)))


@given(st.text(alphabet="NBEabc", max_size=8))
def test_reify_then_eval_is_identity(s):
    assert eval_list(reify_list(s)) == s
    assert is_canonical(reify_list(s))


def test_norm_is_idempotent_and_meaning_preserving():
    rng = random.Random(904)
    for _ in range(40):
        t = gen_chars(rng, 4)
        for domain in ("list", "function"):
            nt = norm_chars(t, domain)
            assert is_canonical(nt)
            assert norm_chars(nt, domain) == nt
            assert eval_list(nt) == eval_list(t)


def test_parse_and_format():
    src = '(cat (chr "N") (cat (chr "B") (chr "E")))'
    assert parse_chars(src) == NBE_FLAT
    assert parse_chars("eps") == Eps()
    assert parse_chars(format_chars(NBE_PADDED)) == NBE_PADDED
    with pytest.raises(ParseError):
        parse_chars('(chr "ab")')
    with pytest.raises(ParseError):
        parse_chars("(cat eps)")


def test_two_reads_share_their_chr_leaves(monkeypatch):
    monkeypatch.setattr(reader, "_LEAVES", {})
    src = '(cat (chr "a") (cat eps (cat (chr "b") (chr "a"))))'
    a, b = parse_chars(src), parse_chars(src)
    assert a == b and a is not b
    leaves = [list(_leaves(t, False)) for t in (a, b)]
    assert [leaf.char for leaf in leaves[0]] == ["a", "b", "a"]
    assert all(x is y for x, y in zip(*leaves))
    assert leaves[0][0] is leaves[0][2]
    assert parse_chars('(chr "a")') is leaves[0][0]


def test_long_combs_at_the_default_limit():
    assert sys.getrecursionlimit() == 1000
    comb = reify_list("a" * 20_000)
    for domain in ("list", "function"):
        assert norm_chars(comb, domain) == comb
    assert parse_chars(format_chars(comb)) == comb


def test_chr_rejects_long_strings():
    with pytest.raises(ValueError):
        Chr("ab")
