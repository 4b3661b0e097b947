"""Command-line front door: parse, typecheck, normalize, interpret, demos.

Exit codes: 0 success, 1 syntax/type error, 2 runtime error (division by
zero), 64 usage error (also a `demo power` exponent n with |n| > 2**20), 66
unreadable input file, 70 internal error (the two chars domains disagree, or
Python's recursion limit is exceeded; no input is known to reach either), 71
out of memory.  Reading, type checking, normalization, interpretation and
printing run in constant Python stack.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import chars as chars_mod
from .examples import power
from .interp import RuntimeDivisionByZero, format_value, run
from .nbe import norm
from .primitives import (
    DivisionByZero,
    lit,
    naive_prim_env,
    rational_signature,
    smart_prim_env,
)
from .reader import ParseError
from .syntax import (
    App,
    TypingError,
    infer,
    parse_term,
    pretty_term,
    pretty_type,
    print_term,
    print_type,
)

USAGE_ERROR = 64
NO_INPUT = 66
INTERNAL_ERROR = 70  # EX_SOFTWARE
OUT_OF_MEMORY = 71  # EX_OSERR
# The largest |n| that `demo power` takes.  Its printed tree grows in
# proportion to n: at 2**20 it runs in about 20 s and prints 27 MB.
MAX_DEMO_POWER = 2**20


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", metavar="PATH", help="read the term from a file")
    group.add_argument("--inline", metavar="TERM", help="read the term from the argument")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `ebn` argument parser, built once: parsing does not change it."""
    parser = _ArgumentParser(prog="ebn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="print the normal form of a closed term")
    _add_input_flags(p_norm)
    p_norm.add_argument("--prims", choices=("smart", "naive"), default="smart")
    p_norm.add_argument("--output", choices=("pretty", "sexpr"), default="sexpr")

    p_check = sub.add_parser("check", help="print the inferred type of a closed term")
    _add_input_flags(p_check)
    p_check.add_argument("--output", choices=("pretty", "sexpr"), default="sexpr")

    p_run = sub.add_parser("run", help="interpret a closed term and print its value")
    _add_input_flags(p_run)

    p_demo = sub.add_parser("demo", help="run a named scenario")
    demo_sub = p_demo.add_subparsers(dest="demo_name", required=True)

    p_chars = demo_sub.add_parser("chars", help="normalize a string-language term")
    _add_input_flags(p_chars)

    p_power = demo_sub.add_parser("power", help="generate and normalize a power function")
    p_power.add_argument("n", type=int)
    p_power.add_argument("--naive", action="store_true", help="disable smart primitives")

    return parser


def _read_source(args) -> str:
    if args.inline is not None:
        return args.inline
    with open(args.file, encoding="utf-8") as f:
        return f.read()


def _prim_env(kind: str):
    return smart_prim_env() if kind == "smart" else naive_prim_env()


def _cmd_norm(args, source: str) -> int:
    term = parse_term(source)
    out = norm(term, rational_signature(), _prim_env(args.prims))
    print(pretty_term(out) if args.output == "pretty" else print_term(out))
    return 0


def _cmd_check(args, source: str) -> int:
    term = parse_term(source)
    ty = infer({}, rational_signature(), term)
    print(pretty_type(ty) if args.output == "pretty" else print_type(ty))
    return 0


def _cmd_run(source: str) -> int:
    term = parse_term(source)
    infer({}, rational_signature(), term)
    print(format_value(run(term)))
    return 0


def _cmd_demo_chars(source: str) -> int:
    term = chars_mod.parse_chars(source)
    normal = chars_mod.norm_chars(term, "list")
    if normal != chars_mod.norm_chars(term, "function"):
        print("ebn: internal error: the list and function domains disagree", file=sys.stderr)
        return INTERNAL_ERROR
    print(f"normal form: {chars_mod.format_chars(normal)}")
    out = sys.stdout
    out.write("denotes:     ")
    chars_mod.print_chars(normal, out)
    out.write("\n")
    return 0


def _cmd_demo_power(n: int, naive: bool) -> int:
    if abs(n) > MAX_DEMO_POWER:
        print(f"ebn: error: demo power takes |n| <= 2**20 ({MAX_DEMO_POWER})", file=sys.stderr)
        return USAGE_ERROR
    generated = power(n)
    normal = norm(generated, rational_signature(), _prim_env("naive" if naive else "smart"))
    print(f"generated:   {print_term(generated)}")
    print(f"normal form: {print_term(normal)}")
    print(f"pretty:      {pretty_term(normal)}")
    for probe in (Fraction(2), Fraction(3), Fraction(-1, 2)):
        value = run(App(normal, lit(probe)))
        print(f"f({probe}) = {format_value(value)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo" and args.demo_name == "power":
            return _cmd_demo_power(args.n, args.naive)
        try:
            source = _read_source(args)
        except (OSError, UnicodeDecodeError) as e:
            print(f"ebn: error: cannot read {args.file}: {e}", file=sys.stderr)
            return NO_INPUT
        if args.command == "norm":
            return _cmd_norm(args, source)
        if args.command == "check":
            return _cmd_check(args, source)
        if args.command == "run":
            return _cmd_run(source)
        if args.command == "demo" and args.demo_name == "chars":
            return _cmd_demo_chars(source)
    except (ParseError, TypingError) as e:
        print(f"ebn: error: {e}", file=sys.stderr)
        return 1
    except (DivisionByZero, RuntimeDivisionByZero) as e:
        print(f"ebn: runtime error: division by zero ({e})", file=sys.stderr)
        return 2
    except RecursionError:
        print("ebn: internal error: term too deep for Python's recursion limit", file=sys.stderr)
        return INTERNAL_ERROR
    except MemoryError:
        print("ebn: error: out of memory", file=sys.stderr)
        return OUT_OF_MEMORY
    raise AssertionError("unreachable: argparse enforces the command set")


if __name__ == "__main__":
    sys.exit(main())
