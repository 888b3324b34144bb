"""topdowndt benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload grow-deep --seed 0 --seconds 24 --trace 0

Runs from the root of a source checkout and imports topdowndt from src/.
A run sets up (cold import plus seeded inputs, several times), makes one
small warm-up invocation, then repeats the workload's pass -- a fixed list
of topdowndt CLI invocations, run in process one after another by a single
caller -- until another pass would overrun --seconds.  Every invocation is
checked: exit code 0, result artifacts identical to the stored reference
for this seed (for other seeds, to the run's first pass), summary.json keys
as stored, and a workload-specific recount of its results.  Times are
taken by speed.SpeedClock, in seconds at the reference CPU speed, because
the shared host's cores change speed while the benchmark runs.

--trace 0 prints the end-to-end metrics; --trace 1 also runs one traced
pass and prints the per-layer metrics derived from its spans.  The last
line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedClock
from tracer import Tracer, unit
from workloads import WORKLOADS, Invocation, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 9
COLD_IMPORT = """
from speed import SpeedClock
with SpeedClock() as clock:
    import topdowndt.cli
print(clock.ref)
"""


def invoke(argv: tuple[str, ...], out: Path) -> int:
    """One CLI invocation in this process; CLI chatter goes to stderr."""
    from topdowndt import cli

    with contextlib.redirect_stdout(sys.stderr):
        try:
            return cli.main([*argv, "--out", str(out)])
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 2
        except Exception:
            traceback.print_exc()
            return -1


def reference_dir(workload: str, seed: int) -> Path:
    return BENCH / "reference" / workload / f"seed-{seed}"


def changed_keys(ref: dict, got: dict, path: str = "") -> list[str]:
    """Summary keys stored in the reference whose values differ; new keys are ignored."""
    diffs = []
    for key, want in ref.items():
        where = f"{path}{key}"
        if key not in got:
            diffs.append(where)
        elif isinstance(want, dict) and isinstance(got[key], dict):
            diffs += changed_keys(want, got[key], where + ".")
        elif key == "files" and path == "":
            if not set(want) <= set(got[key]):
                diffs.append(where)
        elif got[key] != want:
            diffs.append(where)
    return diffs


class Runner:
    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        # a fixed relative path: input paths show up in the bundles' summaries
        self.work = Path(".bench_work") / workload.name
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.invocations: list[Invocation] = []  # one pass
        # per invocation: artifact bytes and summary from the reference or the first pass
        self.expected: list[dict | None] = []
        self.recounted: set[int] = set()
        self.seed_free: list[dict[str, bytes]] = []

    def _read(self, bundle: Path) -> dict:
        files = {name: (bundle / name).read_bytes() for name in self.workload.artifacts}
        summary = json.loads((bundle / "summary.json").read_text())
        return {"files": files, "summary": summary}

    def setup(self) -> list[float]:
        """Cold import in a fresh interpreter plus input generation, repeated;
        returns each repeat's time in reference seconds.  The fresh
        interpreter times its own import, so that the clock's probes run
        on the core that does the work."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH), str(ROOT / "src")]))
        times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            child = subprocess.run(
                [sys.executable, "-c", COLD_IMPORT], env=env, check=True, timeout=60,
                stdout=subprocess.PIPE, text=True,
            )
            with SpeedClock() as clock:
                self.invocations = self.workload.make(self.work, self.seed)
            times.append(float(child.stdout.split()[-1]) + clock.ref)
        ref = reference_dir(self.workload.name, self.seed)
        if ref.is_dir():
            self.expected = [self._read(ref / str(j)) for j in range(len(self.invocations))]
        else:
            self.expected = [None] * len(self.invocations)
        ref0 = reference_dir(self.workload.name, 0)
        self.seed_free = [
            {name: (ref0 / str(j) / name).read_bytes() for name in self.workload.seed_free}
            for j in range(len(self.invocations))
        ]
        return times

    def warmup(self) -> None:
        out = self.work / "warmup"
        rc = invoke(self.workload.warmup(self.invocations), out)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.problems.append(f"warm-up exited {rc}")
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, clocked: bool = True) -> list[SpeedClock]:
        """Run one pass, then check every invocation's bundle; returns each
        invocation's clock (wall time only, without probes, if not clocked)."""
        outs = [self.work / "out" / str(j) for j in range(len(self.invocations))]
        shutil.rmtree(self.work / "out", ignore_errors=True)
        codes, clocks = [], []
        for inv, out in zip(self.invocations, outs):
            clock = SpeedClock()
            if clocked:
                with clock:
                    codes.append(invoke(inv.argv, out))
            else:
                t0 = time.perf_counter()
                codes.append(invoke(inv.argv, out))
                clock.wall = time.perf_counter() - t0
            clocks.append(clock)
        for j, (inv, out, rc) in enumerate(zip(self.invocations, outs, codes)):
            self.attempted += 1
            problems = self._check(j, inv, out, rc)
            if problems:
                self.failed += 1
                self.problems += [f"invocation {j}: {p}" for p in problems]
        return clocks

    def _check(self, j: int, inv: Invocation, out: Path, rc: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            got = self._read(out)
        except (OSError, ValueError) as e:
            return [f"unreadable bundle: {e}"]
        problems = [f"{name} differs from seed 0's" for name, data in self.seed_free[j].items()
                    if got["files"][name] != data]
        if j not in self.recounted:
            self.recounted.add(j)
            problems += inv.check(out)
        want = self.expected[j]
        if want is None:
            self.expected[j] = got
            return problems
        problems += [f"{name} differs" for name in want["files"] if got["files"][name] != want["files"][name]]
        problems += [f"summary {k} differs" for k in changed_keys(want["summary"], got["summary"])]
        return problems

    def bundle_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.work / "out").rglob("*") if p.is_file())


def enter_checkout() -> bool:
    """Work from the checkout root with topdowndt importable from src/."""
    if not (ROOT / "src" / "topdowndt" / "cli.py").is_file():
        print(f"error: no topdowndt sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    os.chdir(ROOT)  # input paths are relative, so bundles do not depend on the checkout's place
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not enter_checkout():
        return 2
    import topdowndt.cli  # noqa: F401  (untimed here; set-up times the import in a fresh interpreter)

    runner = Runner(WORKLOADS[args.workload], args.seed)
    try:
        setup = runner.setup()
        runner.warmup()
        passes = []
        began = time.perf_counter()
        while not passes or time.perf_counter() - began + sum(c.wall for c in passes[-1]) <= args.seconds:
            passes.append(runner.run_pass())
        # one pass, each invocation at its median over the passes
        wall = sum(statistics.median(c.wall for c in clocks) for clocks in zip(*passes))
        wall_ref = sum(statistics.median(c.ref for c in clocks) for clocks in zip(*passes))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            # no probes in the traced pass: they would land in the spans' self time
            with Tracer() as tracer:
                traced = sum(c.wall for c in runner.run_pass(clocked=False))
            layers = tracer.layer_metrics()
            layers["cli.bundle_bytes"] = runner.bundle_bytes()
            layers["tracing.overhead_s"] = traced - wall
            tracer.save(Path(".bench_out") / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            runner.work.parent.rmdir()  # only if no other run is using it

    for p in runner.problems:
        print(f"problem: {p}", file=sys.stderr)
    for i, clocks in enumerate(passes):
        print(f"pass {i} wall/ref s: " + " ".join(f"{c.wall:.3f}/{c.ref:.3f}" for c in clocks), file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_ref_s": {"value": wall_ref, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
