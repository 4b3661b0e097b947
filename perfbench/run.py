"""The ebn benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload corpus|power|branching --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.  Inputs
come from the seed alone.  The loop makes whole passes over the workload's
items, in a seeded order, until the passes add up to `--seconds`; every item
weighs the same in every run.  Outputs are checked outside the timed passes,
by untimed work spread between them.

With `--trace 0` the last line reports the end-to-end metrics.  Item times
are each item's best pass, and `setup_s` is the median of nine fresh `ebn`
processes sampled across the run.  With `--trace 1` it reports the per-layer
metrics from a separate traced run; the spans go to
`.perfbench_out/trace_<workload>.json`.  Either way the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines before
it start with `#` and say what was measured, including `fail_ratio`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every time is CPU time of this one-thread process.  The package does no I/O
# or waiting in the measured calls, so CPU time is the time the work takes,
# while wall time on a shared virtual machine also counts the spells, often
# tens of seconds long, in which other tenants hold the processor.
clock = time.process_time
SETUP_SAMPLES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description="ebn closed-loop benchmark")
    p.add_argument("--workload", required=True, choices=("corpus", "power", "branching"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


class Tracer:
    """Spans kept in memory as (name, start, end, parent, item) and written
    out when the run ends.  Each item has one `item` span, the parent of the
    layer spans made for it."""

    def __init__(self):
        self.spans: list = []
        self.item = -1
        self.parent = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def run_item(self, pipelines, item) -> None:
        self.item, self.parent = item.id, len(self.spans)
        self.spans.append(None)
        start = clock()
        try:
            pipelines.run_traced(item, self.span)
        finally:
            self.spans[self.parent] = ("item", start, clock(), -1, item.id)

    def self_ms(self, items: int) -> dict[str, float]:
        """Milliseconds per item spent in each layer's own code.  A traced
        pipeline times `tokenize` and `infer` on their own, so `parse` and
        `norm` self times are their spans minus those."""
        total: dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                total[name] = total.get(name, 0.0) + (end - start)
        for outer, inner in (("syntax.parse", "syntax.tokenize"), ("nbe.norm", "syntax.infer")):
            if outer in total:
                total[outer] -= total.get(inner, 0.0)
        return {name: 1e3 * seconds / items for name, seconds in total.items()}


class _Span:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.start = clock()

    def __exit__(self, *exc):
        t = self.tracer
        t.spans.append((self.name, self.start, clock(), t.parent, t.item))


def timed_pass(run_one, items, samples: list) -> float:
    """One pass over `items`, appending (item id, seconds or None if it
    raised) to `samples`.  Returns the pass's seconds.  Each pass starts from
    a collected heap, so the untimed work between passes does not decide
    where the collector runs inside one."""
    gc.collect()
    start = clock()
    for item in items:
        t0 = clock()
        try:
            run_one(item)
            samples.append((item.id, clock() - t0))
        except Exception:
            samples.append((item.id, None))
    return clock() - start


def interleave(one_pass, seconds: float, planned: int, tasks: list) -> int:
    """Timed passes until they add up to `seconds`, with the untimed `tasks`
    spread between them: after pass p of `planned`, the first p/planned of
    the tasks have run.  The load other tenants put on a shared machine comes
    and goes over tens of seconds, so spreading the passes over the whole run
    lets each item meet a quiet spell.  Returns the number of passes."""
    measured, passes, done = 0.0, 0, 0
    while measured < seconds:
        measured += one_pass()
        passes += 1
        upto = min(len(tasks), math.ceil(len(tasks) * passes / planned))
        for task in tasks[done:upto]:
            task()
        done = max(done, upto)
    for task in tasks[done:]:
        task()
    return passes


def tail(values: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile, at most 99, with at
    least ten of `values` beyond it (nearest rank).  `values` holds one number
    per distinct item, so the percentile depends only on the workload's item
    count, never on how many passes a run made."""
    ordered = sorted(values)
    n = len(ordered)
    p = max(50, min(99, 100 * (n - 10) // n))
    return p, ordered[-(-p * n // 100) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "ebn" / "__init__.py").is_file():
        print(f"perfbench: no ebn package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import workloads
    from ebn.primitives import naive_prim_env, rational_signature, smart_prim_env

    if not args.trace:
        checks.setup_sample(ROOT)  # writes the bytecode cache; not counted

    items = workloads.make_items(args.workload, args.seed)
    order = list(items)
    random.Random(f"order:{args.seed}").shuffle(order)

    sig = rational_signature()
    envs = {"smart": smart_prim_env(), "naive": naive_prim_env()}
    pipelines = workloads.Pipelines(sig, envs)
    warm = timed_pass(pipelines.run, order, [])  # untimed

    # Untimed work, run between timed passes: the correctness stage, then
    # the interpreter passes over every probe.
    outcomes: dict = {}
    work = [lambda item=item: outcomes.__setitem__(item.id, checks.check_item(item, sig, envs)) for item in items]
    work += [lambda first=n == 0: checks.run_probes(items, outcomes, first) for n in range(checks.INTERP_PASSES)]

    samples: list = []
    tracer = Tracer()
    if args.trace:
        traced_s, plain_s = [], []

        def one_pass():
            traced_s.append(timed_pass(lambda i: tracer.run_item(pipelines, i), order, samples))
            plain_s.append(timed_pass(pipelines.run, order, []))
            return traced_s[-1] + plain_s[-1]

        passes = interleave(one_pass, args.seconds, math.ceil(args.seconds / (3 * warm)), work)
    else:
        rss, setup = [], []
        tasks = [lambda: rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)]
        for k in range(SETUP_SAMPLES):
            tasks.append(lambda: setup.append(checks.setup_sample(ROOT)))
            tasks += work[round(k * len(work) / SETUP_SAMPLES):round((k + 1) * len(work) / SETUP_SAMPLES)]
        passes = interleave(lambda: timed_pass(pipelines.run, order, samples), args.seconds,
                            math.ceil(args.seconds / warm), tasks)

    bad = {i for i, o in outcomes.items() if not o.ok}
    failed = sum(1 for i, s in samples if s is None or i in bad)
    attempted = len(samples)
    correct = failed == 0 and not bad

    print(f"# workload {args.workload} seed {args.seed}: {len(items)} items, inputs {workloads.fingerprint(items)}")
    for i in sorted(bad):
        print(f"# FAILED item {i} ({items[i].label}): {outcomes[i].reason}")
    print(f"# {attempted} samples in {passes} passes, fail_ratio {failed / attempted:.6f}")

    terms = [o for i, o in outcomes.items() if items[i].kind != "chars"]
    if args.trace:
        metrics = per_layer(args, tracer, len(samples), traced_s, plain_s, terms, items, sig, envs)
    else:
        # Each item is timed at its best pass: the load other tenants put on
        # a shared machine comes and goes over seconds and only slows items
        # down, so the best of several passes is what repeats between runs.
        # Whole passes give every item the same number of samples.
        best: dict[int, float] = {}
        for i, s in samples:
            if s is not None:
                best[i] = min(s, best.get(i, s))
        latencies = list(best.values())
        p, tail_s = tail(latencies)
        print(f"# latency_tail_ms is p{p} of {len(latencies)} items, each at its best of {passes} passes")
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (len(best) / sum(best.values()), "1/s"),
            "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "latency_tail_ms": (1e3 * tail_s, "ms"),
            "output_nodes": (sum(o.out_nodes for o in outcomes.values()), "count"),
            "output_bytes": (sum(o.out_bytes for o in outcomes.values()), "bytes"),
            "peak_rss_mb": (rss[0], "MB"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer(args, tracer, n, traced_s, plain_s, terms, items, sig, envs):
    """Per-layer metrics: self time per item from the spans of `n` traced
    items, counts from the correctness stage's outcomes for `terms`, and the
    primitive counts, set-up layers and edge probes, measured here."""
    import checks

    layers = tracer.self_ms(n)
    traced, plain = sum(traced_s), sum(plain_s)
    overhead_ms = 1e3 * (traced - plain) / n
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace_{args.workload}.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "fields": ["name", "start", "end", "parent", "item"],
        "spans": tracer.spans,
    }))
    print(f"# {len(tracer.spans)} spans; traced {traced:.3f} s, untraced {plain:.3f} s for the same items")

    prims = checks.prim_counts(items, sig, envs)
    in_nodes = sum(o.in_nodes for o in terms)
    out_nodes = sum(o.out_nodes for o in terms)
    nf_run = sum(o.nf_run_s for o in terms)
    probe_runs = sum(len(o.probes) for o in terms)

    def ms(name):
        return (layers.get(name, 0.0), "ms")

    metrics = {
        "syntax.tokenize_ms": ms("syntax.tokenize"),
        "syntax.parse_ms": ms("syntax.parse"),
        "syntax.tokens": (sum(o.tokens for o in terms), "count"),
        "syntax.print_ms": ms("syntax.print"),
        "syntax.pretty_ms": ms("syntax.pretty"),
        "syntax.output_bytes": (sum(o.out_bytes for o in terms), "bytes"),
        "syntax.infer_ms": ms("syntax.infer"),
        "nbe.norm_ms": ms("nbe.norm"),
        "nbe.output_nodes": (out_nodes, "count"),
        "nbe.output_dag_nodes": (sum(o.dag_nodes for o in terms), "count"),
        "nbe.residual_cases": (sum(o.cases for o in terms), "count"),
        "nbe.binders": (sum(o.binders for o in terms), "count"),
        "nbe.blowup": (out_nodes / in_nodes, "ratio"),
        "primitives.calls": (prims.calls, "count"),
        "primitives.literal_args_ratio": (prims.literal_args / max(prims.args, 1), "ratio"),
        "primitives.smart_over_naive_nodes": (prims.smart_nodes / prims.naive_nodes, "ratio"),
        # The run time of the generated code.  It would be an end-to-end
        # metric, but across seeds it spreads by a quarter and more, too much
        # for a bound.
        "residual_run_ms": (1e3 * nf_run, "ms"),
        "interp.run_ms": (1e3 * nf_run / probe_runs, "ms"),
        "interp.source_over_residual": (sum(o.src_run_s for o in terms) / nf_run, "ratio"),
        "chars.parse_ms": ms("chars.parse"),
        "chars.norm_list_ms": ms("chars.norm_list"),
        "chars.norm_function_ms": ms("chars.norm_function"),
        "chars.format_ms": ms("chars.format"),
        "examples.generate_ms": ms("examples.generate"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
    for name, value in checks.setup_layers(ROOT).items():
        metrics[name] = (value, "ms")
    for name, value in checks.edge_probes(sig, envs).items():
        metrics[name] = (value, "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
