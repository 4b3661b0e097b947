"""Run the benchmark over ten seeds, twice, and record the result.

    python3 perfbench/baseline.py [--write]

For each workload it runs `run.py --trace 0` for seeds 1 to 10 at
BENCHMARK.json's `run_seconds`, twice over: the two sets alternate seed by
seed, so a slow spell of the machine falls on both.  For each end-to-end
metric and set it prints the median and the spread: the distance between the
first and third quartile of the ten values, as a share of their median.  Then
it makes two traced runs of seed 1.

It exits 1 unless all of these hold:
- every run is correct and has no failed item;
- in each set, each spread except that of `setup_s` is within the metric's
  bound (the benchmark's contract exempts `setup_s`, the CPU time of a child
  process, from the spread rule, but not from the next one);
- the second set's median of every metric is not worse than the first's by
  more than the bound;
- every count repeats exactly for a repeated seed, traced and untraced, and
  the inputs repeat for a seed and change with it.
A spread above a third of its bound is flagged as not steady, but passes.

With `--write` it stores both sets, the traced per-layer metrics, each
layer's share of item time, the dominant layer and the stated and measured
mappings of layers to end-to-end metrics in `perfbench/BASELINE.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TIMED_UNITS = {"ms", "s", "1/s", "MB"}
# Per-layer figures that are not counts although their unit is "ratio".
TIMED_RATIOS = {"interp.source_over_residual"}
# Layers of the item pipeline; their shares add up to the traced item time.
ITEM_LAYERS = (
    "syntax.tokenize_ms", "syntax.parse_ms", "syntax.infer_ms", "nbe.norm_ms", "syntax.print_ms",
    "syntax.pretty_ms", "chars.parse_ms", "chars.norm_list_ms", "chars.norm_function_ms",
    "chars.format_ms", "examples.generate_ms",
)
# Which end-to-end metrics each layer should move, per workload, as stated
# before measuring.  `check_mapping` flags where a measured share disagrees.
MAPPING = {
    "syntax.tokenize_ms": {"corpus": ["items_per_s", "latency_p50_ms", "latency_tail_ms"]},
    "syntax.parse_ms": {"corpus": ["items_per_s", "latency_p50_ms", "latency_tail_ms"]},
    "syntax.print_ms": {"power": ["items_per_s", "latency_tail_ms"]},
    "syntax.pretty_ms": {"power": ["items_per_s", "latency_tail_ms"]},
    "syntax.infer_ms": {"branching": ["items_per_s"], "corpus": ["latency_p50_ms", "latency_tail_ms"]},
    "nbe.norm_ms": {"branching": ["items_per_s"], "corpus": ["latency_p50_ms", "latency_tail_ms"]},
    "chars.parse_ms": {"corpus": ["latency_tail_ms"]},
    "chars.norm_list_ms": {"corpus": ["latency_tail_ms"]},
    "chars.norm_function_ms": {"corpus": ["latency_tail_ms"]},
    "chars.format_ms": {"corpus": ["latency_tail_ms"]},
    "examples.generate_ms": {"power": ["items_per_s"]},
}
MOVES_AT = 0.05  # a layer below this share of item time moves no timing metric


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: incorrect output\n" + "\n".join(lines[:-1]))
    return result, lines[:-1]


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def values(result: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in result["metrics"].items()}


def is_count(name: str, unit: str) -> bool:
    return unit not in TIMED_UNITS and name not in TIMED_RATIOS


def counts(result: dict) -> dict[str, float]:
    return {n: m["value"] for n, m in result["metrics"].items() if is_count(n, m["unit"])}


def inputs_digest(lines: list[str]) -> str:
    return next(line.split("inputs ")[1].split(",")[0] for line in lines if "inputs " in line)


def shares(per_layer: dict[str, float]) -> dict[str, float]:
    total = sum(per_layer[name] for name in ITEM_LAYERS)
    return {name: per_layer[name] / total for name in ITEM_LAYERS}


def check_mapping(workload: str, layer_shares: dict[str, float], measured: dict) -> list[str]:
    """Compare the stated mapping with the measured shares on one workload,
    and put the corrected mapping for it into `measured`."""
    notes = []
    for layer, share in layer_shares.items():
        mapped = MAPPING.get(layer, {}).get(workload)
        if mapped and share < MOVES_AT:
            notes.append(f"{layer} is mapped to {mapped} on {workload} but takes {share:.1%} of item time")
            mapped = None
        if not mapped and share >= MOVES_AT:
            notes.append(f"{layer} takes {share:.1%} of item time on {workload} but is mapped to nothing there")
            mapped = ["items_per_s", "latency_tail_ms"]
        if mapped:
            measured.setdefault(layer, {})[workload] = mapped
    return notes


def summarize(runs: list[tuple[dict, list[str]]]) -> dict[str, dict]:
    return {
        name: {**quartiles([values(r)[name] for r, _ in runs]), "values": [values(r)[name] for r, _ in runs]}
        for name in runs[0][0]["metrics"]
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worse_is_higher = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    record = {
        "recorded": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    measured: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        started = time.perf_counter()
        pairs = [(run_once(workload, seed, seconds, 0), run_once(workload, seed, seconds, 0)) for seed in SEEDS]
        sets = [summarize([pair[k] for pair in pairs]) for k in (0, 1)]
        print(f"{workload}: two sets of {len(SEEDS)} seeds in {time.perf_counter() - started:.0f} s")
        for name, bound in bounds.items():
            first, second = (s[name] for s in sets)
            change = (second["median"] - first["median"]) / first["median"]
            agree = (change if worse_is_higher[name] else -change) <= bound
            within = all(s[name]["spread"] <= bound for s in sets) or name == "setup_s"
            ok &= agree and within
            flags = [] if within else ["spread above the bound"]
            flags += [] if agree else ["second median worse by more than the bound"]
            flags += [] if flags or all(s[name]["spread"] <= bound / 3 for s in sets) else ["not steady"]
            print(f"  {name:16} medians {first['median']:12.4f} {second['median']:12.4f} ({change:+7.2%})  "
                  f"spreads {first['spread']:7.2%} {second['spread']:7.2%}  bound {bound:.0%}"
                  + "".join(f"  <-- {f}" for f in flags))

        traced, lines = run_once(workload, 1, seconds, 1)
        traced_again, _ = run_once(workload, 1, seconds, 1)
        deterministic = (
            all(counts(a) == counts(b) and inputs_digest(la) == inputs_digest(lb) for (a, la), (b, lb) in pairs)
            and counts(traced) == counts(traced_again)
            and len({inputs_digest(la) for (_, la), _ in pairs}) == len(SEEDS)
        )
        ok &= deterministic
        per_layer = values(traced)
        layer_shares = shares(per_layer)
        dominant = max(layer_shares, key=layer_shares.get)
        notes = check_mapping(workload, layer_shares, measured)
        print(f"  counts and inputs repeat for a seed, inputs change with it: {deterministic}; {lines[-1].lstrip('# ')}")
        print(f"  dominant layer {dominant}; shares: " + ", ".join(f"{k} {v:.1%}" for k, v in layer_shares.items() if v >= 0.005))
        for note in notes:
            print(f"  mapping: {note}")
        record["workloads"][workload] = {
            "end_to_end": sets,
            "per_layer_seed_1": per_layer,
            "layer_shares": {k: round(v, 4) for k, v in layer_shares.items()},
            "dominant_layer": dominant,
            "deterministic": deterministic,
            "mapping_notes": notes,
        }
    record["mapping_stated"] = MAPPING
    record["mapping_measured"] = measured
    if args.write:
        (HERE / "BASELINE.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
