import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from ebn import chars, cli
from ebn.cli import INTERNAL_ERROR, NO_INPUT, OUT_OF_MEMORY, USAGE_ERROR, main
from ebn.interp import CRat, format_value
from ebn.records import Record
from ebn.syntax import format_rational, print_term

from conftest import ACCEPT_TYPES, TermGen, min_depth

IDENTITY_APP = "(app (lam (x Q) (var x)) (lit 3 Q))"


def test_norm_inline(capsys):
    assert main(["norm", "--inline", IDENTITY_APP]) == 0
    assert capsys.readouterr().out.strip() == "(lit 3 Q)"


def test_norm_pretty(capsys):
    assert main(["norm", "--inline", "(lam (x Q) (var x))", "--output", "pretty"]) == 0
    assert capsys.readouterr().out.strip() == "\\x0:Q. x0"


def test_norm_from_file(tmp_path, capsys):
    path = tmp_path / "term.sexp"
    path.write_text(IDENTITY_APP, encoding="utf-8")
    assert main(["norm", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "(lit 3 Q)"


def test_norm_from_file_reads_a_5000_deep_chain(tmp_path, capsys):
    path = tmp_path / "chain.sexp"
    path.write_text("(lam (x Q) " + "(prim * (var x) " * 5000 + "(lit 2 Q)" + ")" * 5001, encoding="utf-8")
    assert main(["norm", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "(lam (x0 Q) " + "(prim * (var x0) " * 5000 + "(lit 2 Q)" + ")" * 5001 + "\n"


def test_norm_output_renormalizes_to_itself(capsys):
    src = "(lam (x Q) (prim * (var x) (app (lam (y Q) (var y)) (lit 1 Q))))"
    assert main(["norm", "--inline", src]) == 0
    first = capsys.readouterr().out.strip()
    assert main(["norm", "--inline", first]) == 0
    assert capsys.readouterr().out.strip() == first


def test_identical_invocations_are_byte_identical(capsys):
    main(["demo", "power", "-6"])
    first = capsys.readouterr().out
    main(["demo", "power", "-6"])
    assert capsys.readouterr().out == first


def test_norm_naive_flag(capsys):
    src = "(lam (x Q) (prim * (var x) (lit 1 Q)))"
    assert main(["norm", "--inline", src]) == 0
    smart = capsys.readouterr().out.strip()
    assert main(["norm", "--inline", src, "--prims", "naive"]) == 0
    naive = capsys.readouterr().out.strip()
    assert smart == "(lam (x0 Q) (var x0))"
    assert naive == "(lam (x0 Q) (prim * (var x0) (lit 1 Q)))"


def test_check(capsys):
    assert main(["check", "--inline", "(lam (x Q) (var x))"]) == 0
    assert capsys.readouterr().out.strip() == "(arrow Q Q)"
    assert main(["check", "--inline", "(lam (x Q) (var x))", "--output", "pretty"]) == 0
    assert capsys.readouterr().out.strip() == "Q -> Q"


def test_check_type_error_exit_code(capsys):
    assert main(["check", "--inline", "(fst unit)"]) == 1
    err = capsys.readouterr().err
    assert "product" in err


def test_syntax_error_exit_code(capsys):
    assert main(["norm", "--inline", "(lam (x) (var x))"]) == 1
    assert main(["norm", "--inline", "(((("]) == 1


def test_run_subcommand(capsys):
    assert main(["run", "--inline", IDENTITY_APP]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["run", "--inline", "(pair (lit 1/2 Q) unit)"]) == 0
    assert capsys.readouterr().out.strip() == "<1/2, unit>"


def test_run_division_by_zero_exit_code(capsys):
    assert main(["run", "--inline", "(prim / (lit 1 Q) (lit 0 Q))"]) == 2
    assert "division by zero" in capsys.readouterr().err


def test_norm_division_by_zero_exit_code(capsys):
    assert main(["norm", "--inline", "(prim / (lit 1 Q) (lit 0 Q))"]) == 2


def test_usage_errors_exit_64():
    with pytest.raises(SystemExit) as exc:
        main(["norm"])  # missing input source
    assert exc.value.code == USAGE_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == USAGE_ERROR
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--inline", "unit", "--prims", "psychic"])
    assert exc.value.code == USAGE_ERROR


def test_demo_power(capsys):
    assert main(["demo", "power", "-6"]) == 0
    out = capsys.readouterr().out
    assert (
        "(lam (x0 Q) (case (prim == (var x0) (lit 0 Q)) (lam (x1 unit) (prim / (lit -1 Q)"
        in out
    )
    assert "f(2) = -1/64" in out


def test_demo_power_naive(capsys):
    assert main(["demo", "power", "-6", "--naive"]) == 0
    out = capsys.readouterr().out
    assert "(prim * (var x0) (lit 1 Q))" in out
    assert "f(2) = -1/64" in out


def test_demo_chars(capsys, tmp_path):
    assert main(["demo", "chars", "--inline", '(cat (chr "N") (cat (chr "B") (chr "E")))']) == 0
    out = capsys.readouterr().out
    assert 'normal form: (cat (chr "N") (cat (chr "B") (cat (chr "E") eps)))' in out
    assert "denotes:     NBE" in out
    path = tmp_path / "chars.sexp"
    path.write_text("(cat eps eps)", encoding="utf-8")
    assert main(["demo", "chars", "--file", str(path)]) == 0
    assert "normal form: eps" in capsys.readouterr().out


def _balanced_chars(text: str) -> str:
    if len(text) == 1:
        return f'(chr "{text}")'
    h = len(text) // 2
    return f"(cat {_balanced_chars(text[:h])} {_balanced_chars(text[h:])})"


def test_demo_chars_long_balanced_term(tmp_path, capsys):
    # twelve cat levels; the normal form is a comb of 4,096 cells, which the
    # demo compares and prints without recursion
    text = "".join(random.Random(4096).choice("NBEabcxyz") for _ in range(4096))
    path = tmp_path / "chars.sexp"
    path.write_text(_balanced_chars(text), encoding="utf-8")
    assert main(["demo", "chars", "--file", str(path)]) == 0
    comb = "".join(f'(cat (chr "{c}") ' for c in text) + "eps" + ")" * len(text)
    assert capsys.readouterr().out == f"normal form: {comb}\ndenotes:     {text}\n"


def test_demo_chars_domains_disagree_exits_70(monkeypatch, capsys):
    norm_chars = chars.norm_chars

    def skewed(t, domain="list"):
        out = norm_chars(t, domain)
        return chars.Append(chars.Chr("x"), out) if domain == "function" else out

    monkeypatch.setattr(chars, "norm_chars", skewed)
    assert main(["demo", "chars", "--inline", '(chr "a")']) == INTERNAL_ERROR == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("ebn: internal error:")
    assert "Traceback" not in captured.err


def test_unreadable_file_exits_66(tmp_path, capsys):
    bad_utf8 = tmp_path / "latin1.sexp"
    bad_utf8.write_bytes(b"(lit 1 Q) ; caf\xe9")
    for path in (tmp_path / "missing.sexp", tmp_path, bad_utf8):
        assert main(["norm", "--file", str(path)]) == NO_INPUT == 66
        err = capsys.readouterr().err
        assert f"ebn: error: cannot read {path}" in err
        assert "Traceback" not in err


def test_huge_rationals_print(capsys):
    # Past Python's default cap of 4,300 digits for int -> str.
    assert format_rational(Fraction(10**5000)) == "1" + "0" * 5000
    assert format_value(CRat(Fraction(-1, 10**5000))) == "-1/1" + "0" * 5000
    assert main(["demo", "power", "16384"]) == 0
    f3 = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("f(3) = "))
    assert int(Decimal(f3.removeprefix("f(3) = "))) == 3**16384


def _mul_tree(depth: int) -> str:
    if depth == 0:
        return "(var x)"
    return f"(prim * {_mul_tree(depth - 1)} {_mul_tree(depth - 1)})"


def test_deep_terms_run_in_constant_stack_and_a_500_bit_exponent_exits_64(capsys):
    # norm runs in constant Python stack, so a 256-leaf tree normalizes
    tree = _mul_tree(8)
    assert main(["norm", "--inline", f"(lam (x Q) {tree})"]) == 0
    assert capsys.readouterr().out.strip() == f"(lam (x0 Q) {tree.replace('(var x)', '(var x0)')})"
    # the reader, infer, norm and the interpreter take a 2,000-deep fst chain
    deep_fst = "(fst " * 2000 + "(pair " * 2000 + "unit" + " unit)" * 2000 + ")" * 2000
    for command in ("norm", "check", "run"):
        assert main([command, "--inline", deep_fst]) == 0
        assert capsys.readouterr().out == "unit\n"
    # a 500-bit exponent is refused before the recursive generator runs
    assert sys.getrecursionlimit() == 1000
    assert main(["demo", "power", str(2**500 - 1)]) == USAGE_ERROR == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("ebn: error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [2**20 + 1, -(2**20 + 1), 2**600 - 1])
def test_demo_power_refuses_exponents_past_2_to_the_20(n, capsys, monkeypatch):
    def built(*args):
        raise AssertionError("demo power built a term past its bound")

    monkeypatch.setattr(cli, "power", built)
    assert main(["demo", "power", str(n)]) == USAGE_ERROR == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"ebn: error: demo power takes |n| <= 2**20 ({2**20})\n"
    assert cli.MAX_DEMO_POWER == 2**20


def test_a_recursion_error_exits_70(monkeypatch, capsys):
    # no input is known to reach it, since every layer is a loop
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "norm", too_deep)
    assert main(["norm", "--inline", IDENTITY_APP]) == INTERNAL_ERROR == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "ebn: internal error: term too deep for Python's recursion limit\n"


def test_out_of_memory_exits_71(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "norm", exhausted)
    assert main(["norm", "--inline", IDENTITY_APP]) == OUT_OF_MEMORY == 71
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ebn: error:")
    assert "Traceback" not in err


DOCUMENTED_EXITS = {0, 1, 2, USAGE_ERROR, NO_INPUT, INTERNAL_ERROR, OUT_OF_MEMORY}
_DIV_BY_ZERO = "(prim / (lit 1 Q) (lit 0 Q))"


def _damaged_sources(rng: random.Random, count: int):
    """Generated well-typed terms, each followed by a truncation, an insertion
    of each of `(`, `)`, `"`, `;`, an atom and a division by zero at a random
    offset, and the term with its first literal replaced by that division."""
    gen = TermGen(rng)
    for i in range(count):
        ty = ACCEPT_TYPES[i % len(ACCEPT_TYPES)]
        text = print_term(gen.gen(ty, {}, rng.randint(max(1, min_depth(ty)), 5)))
        yield text
        yield text[: rng.randrange(len(text))]
        for snippet in ("(", ")", '"', ";", "q", _DIV_BY_ZERO):
            at = rng.randrange(len(text) + 1)
            yield text[:at] + snippet + text[at:]
        yield re.sub(r"\(lit \S+ Q\)", _DIV_BY_ZERO, text, count=1)


def test_cli_never_prints_a_traceback(capsys):
    seen = set()
    for source in _damaged_sources(random.Random(2024), 150):
        for command in (["norm"], ["norm", "--prims", "naive"], ["check"], ["run"]):
            code = main([*command, "--inline", source])
            err = capsys.readouterr().err
            assert code in DOCUMENTED_EXITS, (command, source, code, err)
            assert "Traceback" not in err, (command, source, err)
            seen.add(code)
    assert {0, 1, 2} <= seen


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run `python -S args` with the package on the path and no site
    packages, as a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-S", *args], env=env, capture_output=True, text=True, timeout=60
    )


def test_check_runs_as_a_process():
    done = _python("-m", "ebn.cli", "check", "--inline", "unit")
    assert (done.returncode, done.stdout, done.stderr) == (0, "unit\n", "")


def test_import_generates_no_code():
    # Records are plain classes: importing the CLI needs neither dataclasses
    # (which compiles methods for every class) nor the inspect module.  It
    # reads --file with open(), so pathlib and what pathlib imports stay out.
    # Records import copy only on a first deepcopy.
    unwanted = {"dataclasses", "inspect", "pathlib", "urllib.parse", "ipaddress", "copy"}
    code = f"import sys, ebn.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    done = _python("-c", code)
    assert (done.returncode, done.stdout) == (0, "[]\n")
    # Every record class's `__init__` is compiled from a file of the package,
    # so none is made per class.
    package = Path(cli.__file__).resolve().parent
    own = [c for c in _subclasses(Record) if "__init__" in vars(c)]
    assert len(own) > 30
    assert {Path(c.__init__.__code__.co_filename).resolve().parent for c in own} == {package}


def _subclasses(cls: type) -> list[type]:
    return [s for sub in cls.__subclasses__() for s in (sub, *_subclasses(sub))]
