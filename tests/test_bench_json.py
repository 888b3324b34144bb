"""tools/bench_json.py pairs runs and summarizes them; checked here with the
benchmark run itself stubbed out."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_alternate_and_spread_is_median_and_quartiles(tmp_path, monkeypatch):
    bench_json = _load()
    calls = []

    def run_once(path, argv):
        calls.append((path.name, argv))
        seed = int(argv[argv.index("--seed") + 1])
        wall = {"parent": 1.0, "change": 0.5}[path.name] + seed / 100
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {
            "wall_ref_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": 0.1, "unit": "s"},
        }}

    monkeypatch.setattr(bench_json, "run_once", run_once)
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    bench = {"command": ["python3", "bench/run.py"], "run_seconds": 3}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.chdir(tmp_path)
    bench_json.main([
        "--pr", "9", "--parent", "parent", "--change", "change",
        "--workload", "w", "--seeds", "0,7,1,2",
    ])
    # the run length comes from BENCHMARK.json; pair i takes seed i mod 4,
    # the sides' order reversed on odd pairs
    run = ["bench/run.py", "--seconds", "3", "--trace", "0", "--workload", "w", "--seed"]
    assert len(calls) == 2 * bench_json.PAIRS
    assert calls[:6] == [
        ("parent", [*run, "0"]), ("change", [*run, "0"]), ("change", [*run, "7"]),
        ("parent", [*run, "7"]), ("parent", [*run, "1"]), ("change", [*run, "1"]),
    ]
    report = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert report["pr"] == 9 and report["machine"]["cpus"] >= 1
    assert report["command"] == "python3 bench/run.py --seconds 3 --trace 0 --workload W --seed S"
    parent = report["sides"]["parent"]
    assert len(parent["src_sha256"]) == 64
    w = parent["workloads"]["w"]
    assert w["all_correct"] and w["failed"] == 0
    assert [r["seed"] for r in w["runs"]] == [0, 7, 1, 2, 0, 7, 1, 2, 0, 7]
    # the exclusive method's quartiles of 1.0 x3, 1.01 x2, 1.02 x2, 1.07 x3
    assert w["metrics"]["wall_ref_s"] == pytest.approx({"median": 1.015, "q1": 1.0, "q3": 1.07})
    assert report["change_lower_in_pairs"] == {
        "of": 10, "workloads": {"w": {"wall_ref_s": 10, "setup_s": 0}},
    }


def test_spread_of_one_run_is_that_run():
    assert _load().spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5}
