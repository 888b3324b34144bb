"""Self-test of the benchmark and its traced run.

    python3 -m pytest bench/test_bench.py        # two to three minutes on 2 CPUs

For every workload: a traced pass writes the same artifacts as an untraced
one, byte for byte; every wrapper is gone after the traced pass; and the
per-layer call counts of two traced passes are identical.  The speed clock
leaves out its probes and stops its timer.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def checkout():
    cwd = os.getcwd()
    assert run.enter_checkout()
    yield
    os.chdir(cwd)


def _wrappers_left() -> list[str]:
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "topdowndt" or name.startswith("topdowndt.")):
            continue
        owners = [module, *(v for v in vars(module).values() if isinstance(v, type))]
        for owner in owners:
            for attr, value in vars(owner).items():
                if hasattr(getattr(value, "__func__", value), "__bench_span__"):
                    found.append(f"{name}.{getattr(owner, '__name__', '')}.{attr}")
    return found


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_pass(name, checkout):
    runner = run.Runner(run.WORKLOADS[name], 0)
    counts = []
    try:
        runner.setup()
        runner.run_pass()
        for _ in range(2):
            # the runner compares each traced bundle with the untraced one
            with Tracer() as tracer:
                runner.run_pass(clocked=False)
            assert _wrappers_left() == []
            counts.append({k: v for k, v in tracer.layer_metrics().items() if k.endswith(".calls")})
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    assert runner.problems == []
    assert runner.failed == 0 and runner.attempted == 3 * len(runner.invocations)
    assert counts[0] == counts[1]
    assert counts[0]["grower.grow.calls"] + counts[0]["realvalued.grow_real.calls"] > 0


def test_summary_comparison_ignores_new_keys_and_files():
    ref = {"kind": "grow", "files": ["trace.csv"], "summary": {"final_size": 3}}
    grown = {
        "kind": "grow",
        "files": ["perf.json", "trace.csv"],
        "summary": {"final_size": 3, "splits": 2},
        "perf": {"grow_s": 0.1},
    }
    assert run.changed_keys(ref, grown) == []
    changed = {"kind": "grow", "files": [], "summary": {"final_size": 4}}
    assert run.changed_keys(ref, changed) == ["files", "summary.final_size"]


def test_per_layer_metrics_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    reported = set(Tracer().layer_metrics()) | {"cli.bundle_bytes", "tracing.overhead_s"}
    assert reported == {m["name"] for m in declared}


def test_tracer_wraps_names_imported_by_modules_loaded_late():
    # the traced run may start before topdowndt.cli has been imported
    code = (
        "import topdowndt.realvalued\n"
        "from tracer import Tracer\n"
        "with Tracer():\n"
        "    import topdowndt.cli as cli\n"
        "    assert hasattr(cli.grow_real, '__bench_span__')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.BENCH), str(run.ROOT / "src")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_speed_clock_covers_the_block_and_stops():
    t0 = time.perf_counter()
    with speed.SpeedClock() as clock:
        while time.perf_counter() < t0 + 0.35:
            pass
    elapsed = time.perf_counter() - t0
    # the probes' own time, a few per cent, is left out
    assert 0.9 * elapsed < clock.wall < elapsed
    assert clock.ref > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.SpeedClock._running is None
