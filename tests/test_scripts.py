import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["power_demo.py", "chars_demo.py"])
def test_demo_script_runs(name, capsys):
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    if name == "power_demo.py":
        assert "agrees: True" in out
        assert "agrees: False" not in out


def _bench_pairs():
    return runpy.run_path(str(SCRIPTS / "bench_pairs.py"))  # not as __main__: runs nothing


def _run(pair, side, items_per_s, rss, workload="w", returncode=0):
    metrics = {"items_per_s": {"value": items_per_s}, "peak_rss_mb": {"value": rss}}
    return {"workload": workload, "trace": 0, "pair": pair, "side": side, "returncode": returncode,
            "result": {"correct": True, "metrics": metrics}}


def test_bench_pairs_summarizes_canned_runs():
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    runs = [_run(1, "parent", 100, 20), _run(1, "change", 110, 20),
            _run(2, "change", 120, 19), _run(2, "parent", 100, 21),
            _run(3, "parent", 104, 20), _run(3, "change", 90, 22),
            _run(4, "parent", 96, 20), _run(4, "change", 0, 0, returncode=1)]
    out = _bench_pairs()["summarize"](runs, metrics)["w"]
    speed, rss = out["items_per_s"], out["peak_rss_mb"]
    assert speed["parent"] == {"q1": 99.0, "median": 100.0, "q3": 101.0, "n": 4}
    assert speed["change"] == {"q1": 100.0, "median": 110.0, "q3": 115.0, "n": 3}
    # the failed run of pair 4 leaves that pair out
    assert (speed["pairs_won_by_change"], speed["pairs_lost_by_change"]) == ("2 of 3", "1 of 3")
    assert speed["change_worse_by"] == -0.1 and speed["within_bound"]
    assert speed["parent_interquartile_distance"] == 2.0
    # lower is better: a higher median is worse, and an equal pair is a tie
    assert (rss["pairs_won_by_change"], rss["pairs_lost_by_change"]) == ("1 of 3", "1 of 3")
    assert rss["change_worse_by"] == 0.0 and rss["within_bound"]


def test_bench_pairs_marks_a_metric_with_no_run_of_a_side_unresolved():
    metrics = [{"name": "items_per_s", "better": "higher", "bound": 0.25}]
    runs = [_run(1, "parent", 100, 20), _run(1, "change", 0, 0, returncode=1)]
    out = _bench_pairs()["summarize"](runs, metrics)
    assert out == {"w": {"items_per_s": {"unresolved": "a side has no successful run"}}}


def _stubbed_main(monkeypatch, tmp_path, outcome):
    """`bench_pairs.main` on one pair of one workload, with `extract` making
    an empty tree that holds only BENCHMARK.json and `run_once` answering
    `outcome(side)` for each run: its exit status and the file it wrote."""
    main = _bench_pairs()["main"]
    bench = {"workloads": [{"name": "w"}], "end_to_end": [{"name": "items_per_s", "better": "higher", "bound": 0.25}]}

    def extract(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(bench))
        return rev

    def run_once(tree, workload, seed, seconds, trace):
        returncode, correct = outcome(tree.name)
        return {"returncode": returncode, "wall_s": 0.0,
                "result": {"correct": correct, "metrics": {"items_per_s": {"value": 100.0}}}}

    monkeypatch.setitem(main.__globals__, "extract", extract)
    monkeypatch.setitem(main.__globals__, "run_once", run_once)
    out = tmp_path / "bench.json"
    status = main(["--parent", "a", "--change", "b", "--seed", "1", "--pairs", "1", "--traced", "0",
                   "--out", str(out), "--workdir", str(tmp_path / "work")])
    return status, json.loads(out.read_text())


def test_bench_pairs_exits_0_when_every_run_is_correct(monkeypatch, tmp_path):
    status, doc = _stubbed_main(monkeypatch, tmp_path, lambda side: (0, True))
    assert status == 0 and doc["all_correct"] is True
    assert (doc["parent_commit"], doc["change_commit"], len(doc["runs"])) == ("a", "b", 2)


@pytest.mark.parametrize("failure", [(0, False), (1, True)], ids=["incorrect output", "non-zero exit"])
def test_bench_pairs_writes_its_file_and_exits_1_on_a_bad_run(monkeypatch, tmp_path, failure):
    status, doc = _stubbed_main(monkeypatch, tmp_path, lambda side: failure if side == "change" else (0, True))
    assert status == 1 and doc["all_correct"] is False
    assert len(doc["runs"]) == 2
