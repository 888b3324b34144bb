"""Store the reference bundles that benchmark runs are checked against.

    python3 bench/record_reference.py --seed 0 --seed 7

For each workload and seed this runs one pass, requires exit code 0 and a
clean recount, and copies each invocation's result artifacts and
summary.json to bench/reference/<workload>/seed-<seed>/<invocation>/.
Record on a commit whose outputs are trusted; a change that is meant to
keep outputs identical must leave these files untouched.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from run import WORKLOADS, Runner, invoke, reference_dir, enter_checkout


def record(name: str, seed: int) -> None:
    workload = WORKLOADS[name]
    work = Runner(workload, seed).work
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    dest = reference_dir(name, seed)
    try:
        invocations = workload.make(work, seed)
        shutil.rmtree(dest, ignore_errors=True)
        for j, inv in enumerate(invocations):
            out = work / "out" / str(j)
            rc = invoke(inv.argv, out)
            problems = inv.check(out) if rc == 0 else [f"exit code {rc}"]
            if problems:
                raise SystemExit(f"{name} seed {seed} invocation {j}: {'; '.join(problems)}")
            (dest / str(j)).mkdir(parents=True)
            for artifact in (*workload.artifacts, "summary.json"):
                shutil.copyfile(out / artifact, dest / str(j) / artifact)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, action="append", required=True)
    args = ap.parse_args(argv)
    if not enter_checkout():
        return 2
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seed:
            record(name, seed)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
