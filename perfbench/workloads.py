"""Seeded inputs and item pipelines for the three workloads.

An item is one unit of closed-loop work: the sequence of public `ebn` calls a
user of `ebn norm` or `ebn demo power` pays for.  Each item kind has a plain
pipeline (for end-to-end timing) and a traced pipeline that makes the same
calls with a span around each layer.  Where one public function calls another
(`parse_term` calls `tokenize`, `norm` calls `infer`), the traced pipeline
times the inner one with a separate call on the same input, so the outer one's
self time is the difference.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

from ebn import chars, examples, nbe, syntax
from ebn.primitives import BOOL, RAT, lit, mk_if
from ebn.syntax import (
    App,
    Arrow,
    Base,
    Case,
    Fst,
    Inl,
    Inr,
    Lam,
    Pair,
    PrimApp,
    Prod,
    Snd,
    Sum,
    Unit,
    UnitVal,
    Var,
)

# The six acceptance types: Q, Bool, Q -> Q, Q x Q, Maybe Q, (Q + Q) -> Q.
CORPUS_TYPES = (RAT, BOOL, Arrow(RAT, RAT), Prod(RAT, RAT), examples.MAYBE_RAT, Arrow(Sum(RAT, RAT), RAT))
_SIDE_TYPES = (RAT, Unit(), BOOL)


@dataclass(frozen=True)
class Item:
    """One input.  `kind` selects the pipeline: `text` (a term in concrete
    syntax), `chars` (a string-language term in concrete syntax), `power`
    (an exponent for `examples.power`) or `term` (a prebuilt term)."""

    id: int
    kind: str
    payload: object
    prims: str  # "smart" or "naive"
    label: str


# ---------------------------------------------------------------------------
# Generators


def _rational(rng: random.Random) -> Fraction:
    # Never zero: no literal division can fold onto a zero divisor, so no
    # item's normalization raises.
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 9))


def _min_depth(ty) -> int:
    match ty:
        case Base() | Unit():
            return 0
        case Arrow(cod=b):
            return 1 + _min_depth(b)
        case Prod(left=a, right=b):
            return 1 + max(_min_depth(a), _min_depth(b))
        case Sum(left=a, right=b):
            return 1 + min(_min_depth(a), _min_depth(b))
    raise TypeError(f"not a type: {ty!r}")


class TermGen:
    """Type-directed generator of closed well-typed terms whose depth never
    exceeds the fuel it is given."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.binders = 0

    def gen(self, ty, env: dict, fuel: int):
        rng = self.rng
        options = []
        in_scope = [x for x, t in env.items() if t == ty]
        if in_scope:
            options += [lambda: Var(rng.choice(in_scope))] * 3
        match ty:
            case Base():
                options += [lambda: lit(_rational(rng))] * 3
                if fuel >= 1:
                    options += [lambda: self._prim("*", RAT, env, fuel)] * 2
                    options += [lambda: self._prim("/", RAT, env, fuel)]
            case Unit():
                options += [lambda: UnitVal()] * 3
            case Arrow(dom=a, cod=b):
                options += [lambda: self._lam(a, b, env, fuel)] * 3
            case Prod(left=a, right=b):
                options += [lambda: Pair(self.gen(a, env, fuel - 1), self.gen(b, env, fuel - 1))] * 3
            case Sum(left=a, right=b):
                if fuel - 1 >= _min_depth(a):
                    options.append(lambda: Inl(self.gen(a, env, fuel - 1), ty))
                if fuel - 1 >= _min_depth(b):
                    options.append(lambda: Inr(self.gen(b, env, fuel - 1), ty))
                if ty == BOOL and fuel >= 1:
                    options += [lambda: self._prim("==", RAT, env, fuel)] * 2
        # An eliminated subterm's type is one node bigger than the target's.
        if fuel >= _min_depth(ty) + 2:
            sides = [d for d in _SIDE_TYPES if _min_depth(d) <= fuel - 2]
            options += [
                lambda: self._app(ty, rng.choice(sides), env, fuel),
                lambda: Fst(self.gen(Prod(ty, rng.choice(sides)), env, fuel - 1)),
                lambda: Snd(self.gen(Prod(rng.choice(sides), ty), env, fuel - 1)),
                lambda: self._case(ty, sides, env, fuel),
            ]
        return rng.choice(options)()

    def _prim(self, name, arg_ty, env, fuel):
        return PrimApp(name, (self.gen(arg_ty, env, fuel - 1), self.gen(arg_ty, env, fuel - 1)))

    def _lam(self, a, b, env, fuel):
        self.binders += 1
        x = f"v{self.binders}"
        return Lam(x, a, self.gen(b, {**env, x: a}, fuel - 1))

    def _app(self, ty, d, env, fuel):
        return App(self.gen(Arrow(d, ty), env, fuel - 1), self.gen(d, env, fuel - 1))

    def _case(self, ty, sides, env, fuel):
        d1, d2 = self.rng.choice(sides), self.rng.choice(sides)
        return Case(
            self.gen(Sum(d1, d2), env, fuel - 1),
            self.gen(Arrow(d1, ty), env, fuel - 1),
            self.gen(Arrow(d2, ty), env, fuel - 1),
        )


def tree_counts(t) -> tuple[int, int, int, int]:
    """(tree nodes, distinct nodes, case nodes, lambda nodes), walking each
    shared subterm once, so a DAG of 18 nodes that prints as 65,536 costs 18
    steps."""
    memo: dict[int, tuple[int, int, int]] = {}

    def walk(u):
        key = id(u)
        if key not in memo:
            n, c, b = 1, int(isinstance(u, Case)), int(isinstance(u, Lam))
            for child in syntax.children(u):
                dn, dc, db = walk(child)
                n, c, b = n + dn, c + dc, b + db
            memo[key] = (n, c, b)
        return memo[key]

    n, c, b = walk(t)
    return n, len(memo), c, b


def _gen_chars(rng: random.Random, fuel: int) -> chars.CharsTerm:
    if fuel <= 0 or rng.random() < 0.3:
        return rng.choice([chars.Eps(), chars.Chr(rng.choice("NBEabcxyz"))])
    return chars.Append(_gen_chars(rng, fuel - 1), _gen_chars(rng, fuel - 1))


CORPUS_TERMS = 2160
CORPUS_CHARS = 240
MAX_CORPUS_NODES = 120


def corpus_items(rng: random.Random) -> list[Item]:
    """Many small programs through the text front door, one chars term in
    ten.  Terms are literal-heavy, so smart folding matters."""
    gen = TermGen(rng)
    items: list[Item] = []
    while len(items) < CORPUS_TERMS:
        ty = CORPUS_TYPES[len(items) % len(CORPUS_TYPES)]
        t = gen.gen(ty, {}, rng.randint(max(1, _min_depth(ty)), 8))
        if tree_counts(t)[0] <= MAX_CORPUS_NODES:
            items.append(Item(len(items), "text", syntax.print_term(t), "smart", syntax.pretty_type(ty)))
    for _ in range(CORPUS_CHARS):
        text = chars.format_chars(_gen_chars(rng, 6))
        items.append(Item(len(items), "chars", text, "smart", "chars"))
    return items


def power_items(rng: random.Random) -> list[Item]:
    """The `ebn demo power` ladder: for k = 1..14 the exponents 2^k and
    +-(2^k - 1), the sign seeded.  Smart and naive primitives alternate
    between the two by the parity of k, so each rung has both."""
    items: list[Item] = []
    for k in range(1, 15):
        odd = rng.choice([-1, 1]) * (2**k - 1)
        envs = ("smart", "naive") if k % 2 == 0 else ("naive", "smart")
        for n, prims in zip((2**k, odd), envs):
            items.append(Item(len(items), "power", n, prims, f"power {n} {prims}"))
    return items


def bool_chain(rng: random.Random, k: int):
    """k residual tests `x == c_i` in sequence; both branches of each test
    continue into the rest of the chain, so `shift` duplicates it."""
    x = Var("x")
    body = Var(f"a{k}")
    for i in range(k, 0, -1):
        prev = Var(f"a{i - 1}") if i > 1 else x
        test = mk_if(
            PrimApp("==", (x, lit(_rational(rng)))),
            PrimApp("*", (prev, lit(_rational(rng)))),
            PrimApp("/", (prev, lit(_rational(rng)))),
        )
        body = App(Lam(f"a{i}", RAT, body), test)
    return Lam("x", RAT, body)


def mul_tree(rng: random.Random, depth: int):
    """A balanced `*`-tree with 2^depth leaves, each `x` or a literal."""
    def build(d):
        if d == 0:
            return Var("x") if rng.random() < 0.75 else lit(_rational(rng))
        return PrimApp("*", (build(d - 1), build(d - 1)))

    return Lam("x", RAT, build(depth))


def right_tuple(rng: random.Random, n: int):
    """A right-nested tuple of n elements, each `x` or a literal."""
    def elem():
        return Var("x") if rng.random() < 0.5 else lit(_rational(rng))

    t = elem()
    for _ in range(n - 1):
        t = Pair(elem(), t)
    return Lam("x", RAT, t)


def branching_items(rng: random.Random) -> list[Item]:
    """A few large terms where residual sums make `shift` duplicate the
    continuation, plus the shapes whose size the normalizer's stack bounds."""
    terms = []
    for k in range(3, 11):
        terms.append((f"chain {k}", bool_chain(rng, k), "smart"))
    for k in (9, 10):
        terms.append((f"chain {k}", bool_chain(rng, k), "naive"))
    # Both signs: a negative exponent adds a division, and a seeded sign
    # would move the median item from seed to seed.
    for n in (m * (2**k - 1) for k in (6, 8, 10, 11) for m in (1, -1)):
        for prims in ("smart", "naive"):
            terms.append((f"power_prime {n}", examples.power_prime(n), prims))
            terms.append((f"power_dprime {n}", examples.power_dprime(n), prims))
    for d in range(1, 8):
        for prims in ("smart", "naive"):
            terms.append((f"tree {d}", mul_tree(rng, d), prims))
    for n in range(15, 151, 15):
        terms.append((f"tuple {n}", right_tuple(rng, n), "smart"))
    return [Item(i, "term", t, prims, label) for i, (label, t, prims) in enumerate(terms)]


WORKLOADS = {"corpus": corpus_items, "power": power_items, "branching": branching_items}


def make_items(workload: str, seed: int) -> list[Item]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def fingerprint(items: list[Item]) -> str:
    """A digest of the inputs, to show that the seed alone decides them."""
    h = hashlib.sha256()
    for item in items:
        payload = item.payload if isinstance(item.payload, (str, int)) else syntax.print_term(item.payload)
        h.update(f"{item.kind}|{item.prims}|{payload}\n".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Pipelines


class Pipelines:
    """The per-kind item pipelines, bound to one signature and one pair of
    primitive environments."""

    def __init__(self, sig, envs: dict):
        self.sig = sig
        self.envs = envs

    def run(self, item: Item) -> None:
        env = self.envs[item.prims]
        match item.kind:
            case "text":
                syntax.print_term(nbe.norm(syntax.parse_term(item.payload), self.sig, env))
            case "chars":
                t = chars.parse_chars(item.payload)
                normal = chars.norm_chars(t, "list")
                chars.norm_chars(t, "function")
                chars.format_chars(normal)
            case "power":
                normal = nbe.norm(examples.power(item.payload), self.sig, env)
                syntax.print_term(normal)
                syntax.pretty_term(normal)
            case "term":
                syntax.print_term(nbe.norm(item.payload, self.sig, env))
            case _:
                raise ValueError(f"unknown item kind {item.kind!r}")

    def run_traced(self, item: Item, span) -> None:
        """The same calls as `run`, each inside `span(name)`, plus the
        separate inner calls that give outer self times."""
        env = self.envs[item.prims]
        match item.kind:
            case "text":
                with span("syntax.tokenize"):
                    syntax.tokenize(item.payload)
                with span("syntax.parse"):
                    t = syntax.parse_term(item.payload)
                self._norm_print(t, env, span)
            case "chars":
                with span("chars.parse"):
                    t = chars.parse_chars(item.payload)
                with span("chars.norm_list"):
                    normal = chars.norm_chars(t, "list")
                with span("chars.norm_function"):
                    chars.norm_chars(t, "function")
                with span("chars.format"):
                    chars.format_chars(normal)
            case "power":
                with span("examples.generate"):
                    t = examples.power(item.payload)
                normal = self._norm_print(t, env, span)
                with span("syntax.pretty"):
                    syntax.pretty_term(normal)
            case "term":
                self._norm_print(item.payload, env, span)
            case _:
                raise ValueError(f"unknown item kind {item.kind!r}")

    def _norm_print(self, t, env, span):
        with span("syntax.infer"):
            syntax.infer({}, self.sig, t)
        with span("nbe.norm"):
            normal = nbe.norm(t, self.sig, env)
        with span("syntax.print"):
            syntax.print_term(normal)
        return normal
