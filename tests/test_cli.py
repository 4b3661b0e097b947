import pytest

from ebn.cli import NO_INPUT, USAGE_ERROR, main

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


def test_unreadable_file_exits_66(tmp_path, capsys):
    bad_utf8 = tmp_path / "latin1.sexp"
    bad_utf8.write_bytes(b"(lit 1 Q) ; caf\xe9")
    for path in (tmp_path / "missing.sexp", tmp_path, bad_utf8):
        assert main(["norm", "--file", str(path)]) == NO_INPUT == 66
        err = capsys.readouterr().err
        assert f"ebn: error: cannot read {path}" in err
        assert "Traceback" not in err
