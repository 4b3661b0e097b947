"""Everything the benchmark measures outside the timed loop: the correctness
stage (which also times the `interp` oracle and sizes the outputs), the
primitive counts, the edge probes and the process set-up probes."""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from ebn import chars, cli, examples, interp, nbe, syntax
from ebn.primitives import RAT, lit
from ebn.semantics import SBase, Val
from ebn.syntax import App, Arrow, Inl, Inr, Lam, PrimApp, Sum, Var

from workloads import Item, tree_counts

PROBES = tuple(Fraction(p) for p in ("-2", "-1", "-1/2", "0", "1/3", "1", "2", "7"))
# Power outputs are trees of up to 65,536 nodes, so one probe costs tens of
# milliseconds whatever its value; one, negative and fractional, checks the
# arithmetic.
POWER_PROBES = (Fraction(-1, 2),)
# The interpreter passes over every probe, spread over the run; each item's
# time is its best pass.
INTERP_PASSES = 3


@dataclass
class Outcome:
    """What the correctness stage learned about one distinct item."""

    ok: bool = True
    reason: str = ""
    in_nodes: int = 0
    out_nodes: int = 0
    out_bytes: int = 0
    dag_nodes: int = 0
    cases: int = 0
    binders: int = 0
    tokens: int = 0
    # (probe, source applied to it, normal form applied to it), for `run_probes`
    probes: list = field(default_factory=list)
    # best CPU seconds so far to run the source, and the normal form, at all probes
    src_run_s: float = 0.0
    nf_run_s: float = 0.0

    def fail(self, reason: str) -> None:
        if self.ok:
            self.ok, self.reason = False, reason


def _value_key(v):
    match v:
        case interp.CUnit():
            return ("unit",)
        case interp.CRat(value=q):
            return q
        case interp.CPair(first=a, second=b):
            return ("pair", _value_key(a), _value_key(b))
        case interp.CInl(value=a):
            return ("inl", _value_key(a))
        case interp.CInr(value=a):
            return ("inr", _value_key(a))
    raise TypeError(f"no observable key for {v!r}")


def _probe_args(ty, probes) -> list[tuple[Fraction | None, object]]:
    """(probe, argument term) pairs; a term that is not a function is
    observed once, with no argument."""
    if not isinstance(ty, Arrow):
        return [(None, None)]
    if ty.dom == RAT:
        return [(p, lit(p)) for p in probes]
    if ty.dom == Sum(RAT, RAT):
        return [(p, inj(lit(p), ty.dom)) for p in probes for inj in (Inl, Inr)]
    raise TypeError(f"no probe set for argument type {ty.dom!r}")


def _timed_runs(terms) -> tuple[list, float]:
    """(observable key of each term, or None on division by zero; CPU
    seconds for all of them)."""
    keys = []
    start = time.process_time()
    for t in terms:
        try:
            keys.append(_value_key(interp.run(t)))
        except interp.RuntimeDivisionByZero:
            keys.append(None)
    return keys, time.process_time() - start


def _power_expected(n: int, x: Fraction) -> Fraction:
    if n >= 0:
        return x**n
    return Fraction(0) if x == 0 else -1 / x**-n


def check_item(item: Item, sig, envs) -> Outcome:
    """Normalize one item again and check its output: print/parse round trip
    up to alpha-equivalence, beta-normality and type preservation.  The
    probes to run are left for `run_probes`."""
    out = Outcome()
    try:
        if item.kind == "chars":
            _check_chars(item, out)
        else:
            _check_term(item, sig, envs[item.prims], out)
    except Exception as e:  # any raise is a failed item, never a crash
        out.fail(f"{type(e).__name__}: {e}"[:200])
    return out


def _check_chars(item: Item, out: Outcome) -> None:
    t = chars.parse_chars(item.payload)
    normal = chars.norm_chars(t, "list")
    text = chars.format_chars(normal)
    out.out_nodes, out.out_bytes = 2 * len(chars.eval_list(normal)) + 1, len(text)
    if chars.norm_chars(t, "function") != normal:
        out.fail("the two semantic domains disagree")
    if not chars.is_canonical(normal) or chars.eval_list(normal) != chars.eval_list(t):
        out.fail("normal form is not the canonical form of the same string")
    if chars.parse_chars(text) != normal:
        out.fail("format/parse round trip changed the normal form")


def source_term(item: Item):
    """The term an item normalizes, built outside any timing."""
    if item.kind == "text":
        return syntax.parse_term(item.payload)
    if item.kind == "power":
        return examples.power(item.payload)
    return item.payload


def _check_term(item: Item, sig, env, out: Outcome) -> None:
    src = source_term(item)
    if item.kind == "text":
        out.tokens = len(syntax.tokenize(item.payload))
    ty = syntax.infer({}, sig, src)
    normal = nbe.norm(src, sig, env)
    text = syntax.print_term(normal)
    out.in_nodes = tree_counts(src)[0]
    out.out_nodes, out.dag_nodes, out.cases, out.binders = tree_counts(normal)
    out.out_bytes = len(text.encode())
    if not syntax.beta_normal(normal):
        out.fail("normal form has a beta redex")
    if syntax.infer({}, sig, normal) != ty:
        out.fail("normalization changed the type")
    if not syntax.alpha_eq(syntax.parse_term(text), normal):
        out.fail("print/parse round trip is not alpha-equivalent")
    for p, arg in _probe_args(ty, POWER_PROBES if item.kind == "power" else PROBES):
        out.probes.append((p, src, normal) if arg is None else (p, App(src, arg), App(normal, arg)))


def run_probes(items: list[Item], outcomes: dict[int, Outcome], first: bool) -> None:
    """One interpreter pass: run each item's source, then its normal form,
    at all of its probes, keeping each block's best time so far.  The first
    pass also checks that the interpreter agrees on both and, for power, with
    host arithmetic.  The collector is off meanwhile: its pauses would come
    from the terms this benchmark keeps alive, not from the code under test."""
    gc.collect()
    gc.disable()
    try:
        for item in items:
            _probe_item(item, outcomes[item.id], first)
    finally:
        gc.enable()


def _probe_item(item: Item, out: Outcome, first: bool) -> None:
    if not out.probes:
        return
    try:
        src_keys, src_s = _timed_runs([src for _, src, _ in out.probes])
        nf_keys, nf_s = _timed_runs([normal for _, _, normal in out.probes])
    except Exception as e:  # any raise is a failed item, never a crash
        out.fail(f"interpreter raised {type(e).__name__}: {e}"[:200])
        return
    out.src_run_s = min(src_s, out.src_run_s or src_s)
    out.nf_run_s = min(nf_s, out.nf_run_s or nf_s)
    if first:
        for (p, _, _), src_key, nf_key in zip(out.probes, src_keys, nf_keys):
            # A source may divide by zero where its normal form does not (a
            # folded or dropped division), never the other way round.
            if src_key is not None and nf_key != src_key:
                out.fail(f"interpreter disagrees on t and norm(t) at {p}")
            if item.kind == "power" and nf_key != _power_expected(item.payload, p):
                out.fail(f"power {item.payload} at {p} differs from host arithmetic")


# ---------------------------------------------------------------------------
# Primitive counts


@dataclass
class PrimCounts:
    calls: int = 0
    args: int = 0
    literal_args: int = 0
    smart_nodes: int = 0
    naive_nodes: int = 0


def _counting_env(env, counts: PrimCounts):
    def wrap(impl):
        def entry(args, names):
            counts.calls += 1
            counts.args += len(args)
            counts.literal_args += sum(isinstance(a, SBase) and isinstance(a.payload, Val) for a in args)
            return impl(args, names)

        return entry

    return {name: wrap(impl) for name, impl in env.items()}


def prim_counts(items: list[Item], sig, envs) -> PrimCounts:
    """Primitive calls made while normalizing each distinct term with the
    environment its item names, and its smart versus naive output size."""
    counts = PrimCounts()
    for item in items:
        if item.kind == "chars":
            continue
        src = source_term(item)
        nbe.norm(src, sig, _counting_env(envs[item.prims], counts))
        counts.smart_nodes += tree_counts(nbe.norm(src, sig, envs["smart"]))[0]
        counts.naive_nodes += tree_counts(nbe.norm(src, sig, envs["naive"]))[0]
    return counts


# ---------------------------------------------------------------------------
# Edge probes: the largest input of a growing family that still works, with
# the ladder capped so a fixed kernel reports the cap.


def _largest_ok(ladder, attempt) -> int:
    best = 0
    for size in ladder:
        try:
            if not attempt(size):
                break
        except Exception:
            break
        best = size
    return best


def _balanced(depth: int):
    if depth == 0:
        return Var("x")
    return PrimApp("*", (_balanced(depth - 1), _balanced(depth - 1)))


def _chain(length: int):
    t = Var("x")
    for _ in range(length):
        t = PrimApp("*", (Var("x"), t))
    return Lam("x", RAT, t)


def _round_trips(t) -> bool:
    return syntax.alpha_eq(syntax.parse_term(syntax.print_term(t)), t)


def _demo_power_ok(n: int) -> bool:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["demo", "power", str(n)]) == 0


def edge_probes(sig, envs) -> dict[str, int]:
    return {
        "nbe.max_ok_tree_depth": _largest_ok(
            range(1, 13), lambda d: nbe.norm(Lam("x", RAT, _balanced(d)), sig, envs["smart"]) is not None
        ),
        "syntax.max_ok_nesting": _largest_ok(range(25, 2001, 25), lambda n: _round_trips(_chain(n))),
        "cli.max_ok_demo_power": _largest_ok([2**k - 1 for k in range(1, 16)], _demo_power_ok),
    }


# ---------------------------------------------------------------------------
# Process set-up


def _python_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _child(cmd, root: Path) -> tuple[float, str]:
    """Run `cmd` to completion: (its CPU seconds, its standard output)."""
    start = _children_cpu()
    done = subprocess.run(cmd, cwd=root, env=_python_env(root), capture_output=True, text=True, timeout=60)
    elapsed = _children_cpu() - start
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} exited {done.returncode}: {done.stderr.strip()[-200:]}")
    return elapsed, done.stdout


SETUP_CMD = [sys.executable, "-m", "ebn.cli", "check", "--inline", "unit"]


def setup_sample(root: Path) -> float:
    """CPU seconds of a fresh `ebn check --inline unit` process: the fixed
    cost every `ebn` call pays."""
    elapsed, stdout = _child(SETUP_CMD, root)
    if stdout.strip() != "unit":
        raise RuntimeError(f"ebn check printed {stdout!r}")
    return elapsed


_IMPORT_SNIPPET = "import time; t = time.process_time(); import ebn.cli; print(time.process_time() - t)"


def setup_layers(root: Path, repeats: int = 5) -> dict[str, float]:
    interpreter = statistics.median(_child([sys.executable, "-c", "pass"], root)[0] for _ in range(repeats))
    imports = statistics.median(float(_child([sys.executable, "-c", _IMPORT_SNIPPET], root)[1]) for _ in range(repeats))
    main_s = []
    for _ in range(21):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            cli.main(["check", "--inline", "unit"])
            main_s.append(time.process_time() - start)
    return {
        "setup.interpreter_ms": 1e3 * interpreter,
        "setup.import_ms": 1e3 * imports,
        "cli.main_ms": 1e3 * statistics.median(main_s),
    }
