"""Run bench/run.py on a parent and a change checkout and write BENCH_<pr>.json.

    python3 tools/bench_json.py --pr N --parent ../parent --change . \\
        --workload real-sample --seeds 0,1,2

Each checkout's own, unchanged bench/run.py is run in a fresh interpreter,
for the run length the change's BENCHMARK.json sets (run_seconds) and with
--trace 0, so only the end-to-end metrics.  A pair is one run of each
checkout on one workload and seed; every workload gets PAIRS pairs, pair i
takes seed i modulo the seed list, and the checkouts' order is reversed on
every other pair, so a drift of the machine's speed does not favour one
side.  The JSON, written to the current directory, holds each side's
commit and a digest of its src/, the machine (CPU count, Python version),
every run's metrics, per workload and metric the median and quartiles over
the runs, and the number of pairs in which the change read lower.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def commit_of(path: Path) -> str:
    """The checked-out commit, with "+dirty" when tracked files differ from it."""
    git = ["git", "-C", str(path)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run([*git, "diff", "--quiet", "HEAD"]).returncode != 0
    return head.stdout.strip() + ("+dirty" if dirty else "")


def src_digest(path: Path) -> str:
    """sha256 over src/'s Python files, each its relative path and then its bytes:
    names the measured program when the checkout has uncommitted changes."""
    h = hashlib.sha256()
    for f in sorted((path / "src").rglob("*.py")):
        h.update(f.relative_to(path).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_once(path: Path, argv: list[str]) -> dict:
    """bench/run.py's result object: the last line of its stdout."""
    done = subprocess.run([sys.executable, *argv], cwd=path, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {path} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (the exclusive method; one value is its own quartiles)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", required=True, type=int, help="names the output BENCH_<pr>.json")
    ap.add_argument("--parent", required=True, type=Path, help="the parent commit's checkout")
    ap.add_argument("--change", required=True, type=Path, help="the change's checkout")
    ap.add_argument("--workload", required=True, action="append")
    ap.add_argument("--seeds", default="0", help="comma-separated; pair i takes seed i mod len")
    args = ap.parse_args(argv)

    paths = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((paths["change"] / "BENCHMARK.json").read_text())
    command = [*bench["command"][1:], "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = {name: {w: [] for w in args.workload} for name in paths}
    for workload in args.workload:
        for i in range(PAIRS):
            seed = seeds[i % len(seeds)]
            for name in list(paths) if i % 2 == 0 else reversed(paths):
                result = run_once(paths[name], [*command, "--workload", workload, "--seed", str(seed)])
                metrics = {k: m["value"] for k, m in result["metrics"].items()}
                runs[name][workload].append({"seed": seed, "correct": result["correct"],
                                             "failed": result["failed"], **metrics})
                print(f"{workload} pair {i} seed {seed} {name}: {json.dumps(metrics)}", file=sys.stderr)

    report = {
        "pr": args.pr,
        "command": " ".join([bench["command"][0], *command, "--workload W --seed S"]),
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "sides": {},
    }
    for name, path in paths.items():
        workloads = {}
        for workload, rows in runs[name].items():
            names = [k for k in rows[0] if k not in ("seed", "correct", "failed")]
            workloads[workload] = {
                "all_correct": all(r["correct"] for r in rows),
                "failed": sum(r["failed"] for r in rows),
                "metrics": {k: spread([r[k] for r in rows]) for k in names},
                "runs": rows,
            }
        report["sides"][name] = {
            "commit": commit_of(path), "src_sha256": src_digest(path), "workloads": workloads,
        }
    wins = {}
    for workload in args.workload:
        a, b = runs["parent"][workload], runs["change"][workload]
        wins[workload] = {k: sum(y[k] < x[k] for x, y in zip(a, b))
                          for k in a[0] if k not in ("seed", "correct", "failed")}
    report["change_lower_in_pairs"] = {"of": PAIRS, "workloads": wins}

    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.resolve()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
