#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write a BENCH file.

    python3 scripts/bench_pairs.py --parent REV --change REV --seed N \\
        --pairs 10 --seconds 25 --traced 1 --out BENCH_<n>.json \\
        [--workload corpus --workload power ...] [--extra notes.json]

Each side runs from its own `git archive` of its revision, extracted under
`--workdir`, with PYTHONDONTWRITEBYTECODE=1, so every process compiles `src/`
as a fresh checkout would.  In pair p every workload runs both sides back to
back, the parent first when p is odd and the change first when p is even, as
`python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`.  Then
each side makes `--traced` runs with `--trace 1` per workload, for the
per-layer numbers.  The metrics, their units, which way is better and their
bounds come from the change's `BENCHMARK.json`.

The file holds every run and, per workload and end-to-end metric, each side's
median and quartiles, the pairs the change won and lost, `change_worse_by`
(the change's median against the parent's, as a fraction of the parent's,
positive when worse) and the parent's interquartile distance; then, per
workload, the median of each per-layer metric of the traced runs.  `--extra`
names a JSON object whose keys are added to the file as they are.  The file is
written in any case; the exit status is 1 unless every run exited 0 and
reported correct output (`all_correct`).  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_args(argv):
    p = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    p.add_argument("--parent", required=True, help="revision of the parent side")
    p.add_argument("--change", required=True, help="revision of the change side")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--traced", type=int, default=1, help="traced runs per side and workload")
    p.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--extra", type=Path, help="a JSON object whose keys are added to the file")
    p.add_argument("--workdir", type=Path, help="where the archives are extracted (default: a temp dir)")
    return p.parse_args(argv)


def extract(rev: str, dest: Path) -> str:
    """`rev` as a tree under `dest`, from `git archive`; its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=REPO,
                            check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=REPO,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` process in `tree`: its last line, parsed, or the
    failure when it exits non-zero or prints no JSON."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    run = {"returncode": done.returncode, "wall_s": round(time.monotonic() - start, 1)}
    lines = done.stdout.strip().splitlines()
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["result"] = None
        run["stderr"] = done.stderr[-2000:]
    return run


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def _value(run: dict, metric: str) -> float | None:
    result = run.get("result")
    if run.get("returncode") or not result or metric not in result.get("metrics", {}):
        return None
    return result["metrics"][metric]["value"]


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload and metric of `end_to_end` (BENCHMARK.json's entries:
    name, better, bound), both sides' quartiles over the untraced `runs`, the
    pairs the change won and lost, and `change_worse_by`.  A run that failed
    or lacks the metric is left out, and so is its pair."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        out[workload] = {}
        for m in end_to_end:
            name, sign = m["name"], 1 if m["better"] == "higher" else -1
            by_pair: dict = {}
            for r in mine:
                v = _value(r, name)
                if v is not None:
                    by_pair.setdefault(r["pair"], {})[r["side"]] = v
            sides = {s: [p[s] for p in by_pair.values() if s in p] for s in SIDES}
            if not all(sides.values()):
                out[workload][name] = {"unresolved": "a side has no successful run"}
                continue
            both = [p for p in by_pair.values() if len(p) == 2]
            won = sum(sign * (p["change"] - p["parent"]) > 0 for p in both)
            lost = sum(sign * (p["change"] - p["parent"]) < 0 for p in both)
            parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
            base = parent["median"]
            worse = -sign * (change["median"] - base) / base if base else 0.0
            out[workload][name] = {
                "parent": parent,
                "change": change,
                "pairs_won_by_change": f"{won} of {len(both)}",
                "pairs_lost_by_change": f"{lost} of {len(both)}",
                "change_worse_by": round(worse, 4),
                "bound": m["bound"],
                "within_bound": worse <= m["bound"],
                "parent_interquartile_distance": parent["q3"] - parent["q1"],
            }
    return out


def traced_medians(runs: list[dict]) -> dict:
    """Per workload and side, the median of each metric over the traced runs."""
    out: dict = {}
    for r in runs:
        if r["trace"] and not r["returncode"] and r.get("result"):
            side = out.setdefault(r["workload"], {}).setdefault(r["side"], {})
            for name, m in r["result"]["metrics"].items():
                side.setdefault(name, []).append(m["value"])
    for sides in out.values():
        for side, metrics in sides.items():
            sides[side] = {name: statistics.median(v) for name, v in metrics.items()}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {s: work / s for s in SIDES}
    commits = {s: extract(getattr(args, s), trees[s]) for s in SIDES}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    runs: list[dict] = []

    def record(side, workload, pair, trace):
        run = {"workload": workload, "seed": args.seed, "trace": trace, "seconds": args.seconds,
               "side": side, "pair": pair}
        run.update(run_once(trees[side], workload, args.seed, args.seconds, trace))
        runs.append(run)
        value = _value(run, "items_per_s")
        print(f"pair {pair} {workload} {side} trace {trace}: rc {run['returncode']}, "
              f"{run['wall_s']} s, items_per_s {value}", file=sys.stderr, flush=True)

    for pair in range(1, args.pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                record(side, workload, pair, 0)
    for n in range(args.traced):
        for workload in workloads:
            for side in SIDES if n % 2 == 0 else SIDES[::-1]:
                record(side, workload, None, 1)

    doc = {
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "order": f"{args.pairs} pairs; within each pair every workload ran both sides back to back "
                 f"({', '.join(workloads)} in turn), the parent first in odd pairs and the change first "
                 f"in even pairs; then {args.traced} traced run(s) per side and workload; each side ran "
                 "from its own git archive of its commit, with PYTHONDONTWRITEBYTECODE=1.",
        "host": {"python": sys.version.split()[0], "cpus": os.cpu_count()},
        "summary": summarize(runs, bench["end_to_end"]),
        "all_correct": all(not r["returncode"] and r["result"] and r["result"].get("correct") for r in runs),
        "traced": traced_medians(runs),
    }
    if args.extra:
        doc.update(json.loads(args.extra.read_text()))
    doc["runs"] = runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if doc["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
