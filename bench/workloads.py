"""The benchmark's four workloads: seeded inputs, invocations and output checks.

A workload is a fixed list of topdowndt invocations (one pass) built from
the seed.  Inputs the program needs as files are generated here, in set-up;
the program itself receives only those files and its CLI flags.

The run length of each workload is the work in one pass: the trial, sample
and point counts, and how many inputs a pass walks through.  The cost of an
agnostic trial or a real-sample fit varies several-fold with the drawn
input, so agnostic spreads its trials over several seeds and real-sample
keeps its teacher trees fixed and draws only fresh points from the seed:
one pass then costs about the same for every seed.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

AGNOSTIC_RUNS = 4  # agnostic-sweep invocations per pass, each on its own seed
AGNOSTIC_TRIALS = 8
HARD_SAMPLES = 2500
# real-sample teachers balanced_random_tree(8, 64, j), one CSV each per pass.
# Of j = 0..7, these four varied least in work over 16 point samples
# (impurity evaluations per fit: CV 5-8%, against 8-20% for j = 0, 2, 3, 4).
REAL_TEACHERS = (1, 5, 6, 7)
REAL_POINTS = 10000


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]  # topdowndt arguments, without --out
    check: Callable[[Path], list[str]]  # semantic check of the bundle: problems found


@dataclass(frozen=True)
class Workload:
    name: str
    artifacts: tuple[str, ...]  # result files compared byte for byte
    make: Callable[[Path, int], list[Invocation]]  # writes inputs, returns the pass
    warmup: Callable[[list[Invocation]], tuple[str, ...]]  # small run on the pass's first input
    seed_free: tuple[str, ...] = ()  # artifacts equal for every seed: checked against seed 0's


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary(bundle: Path) -> dict:
    return json.loads((bundle / "summary.json").read_text())["summary"]


# ---------------------------------------------------------------------------
# grow-deep: gini growth to 1024 leaves on random 12-bit truth tables
# ---------------------------------------------------------------------------


def _grow_check(table: int, n: int, budget: int):
    bits = np.array([(table >> i) & 1 for i in range(1 << n)], dtype=np.int64)
    idx = np.arange(1 << n)

    def err(mask: int, vals: int) -> int:
        ones = bits[(idx & mask) == vals]
        return int(min(ones.sum(), len(ones) - ones.sum()))

    def check(bundle: Path) -> list[str]:
        # replay the trace on subcubes (mask, values) and recount every distance
        rows = _read_csv(bundle / "trace.csv")
        leaves = [(0, 0)]
        errors = err(0, 0)
        problems = []
        if Fraction(rows[0]["distance"]) != Fraction(errors, 1 << n):
            problems.append("initial distance")
        for row in rows[1:]:
            leaf, coord = int(row["leaf_id"]), int(row["coord"])
            mask, vals = leaves[leaf]
            bit = 1 << (coord - 1)
            if mask & bit:
                return problems + [f"iteration {row['iter']} re-queries coordinate {coord}"]
            hi, lo = (mask | bit, vals | bit), (mask | bit, vals)
            leaves[leaf : leaf + 1] = [hi, lo]
            errors += err(*hi) + err(*lo) - err(mask, vals)
            if Fraction(row["distance"]) != Fraction(errors, 1 << n):
                problems.append(f"distance at iteration {row['iter']}")
        summary = _summary(bundle)
        if len(leaves) != summary["final_size"] or len(leaves) > budget:
            problems.append("final size")
        if Fraction(summary["final_distance"]) != Fraction(errors, 1 << n):
            problems.append("final distance")
        return problems

    return check


def _make_grow(work: Path, seed: int) -> list[Invocation]:
    from topdowndt import boolfn

    table = random.Random(f"grow-deep:{seed}").getrandbits(1 << 12)
    path = work / "fn.json"
    path.write_text(json.dumps(boolfn.to_spec(boolfn.BoolFunc(12, table))))
    argv = ("grow", "--fn", str(path), "--impurity", "gini", "--budget", "1024")
    return [Invocation(argv, _grow_check(table, 12, 1024))]


# ---------------------------------------------------------------------------
# agnostic: greedy against the exact optimum on random monotone 8-bit targets
# ---------------------------------------------------------------------------


def _agnostic_check(seed: int, trials: int, sizes: tuple[int, ...]):
    def check(bundle: Path) -> list[str]:
        from topdowndt.boolfn import random_monotone

        rows = _read_csv(bundle / "rows.csv")
        if len(rows) != trials * len(sizes):
            return [f"{len(rows)} rows, expected {trials * len(sizes)}"]
        problems = []
        for i in range(trials):
            opts = [Fraction(r["opt_s"]) for r in rows if int(r["trial"]) == i]
            if any(a < b for a, b in zip(opts, opts[1:])):
                problems.append(f"trial {i}: opt_s grows with s")
            # the size-2 optimum recounted as the best single split or leaf
            f = random_monotone(8, seed=seed * 1_000_003 + i)
            bits = np.array([(f.table >> p) & 1 for p in range(256)], dtype=np.int64)
            best = min(bits.sum(), 256 - bits.sum())
            for c in range(8):
                side = ((np.arange(256) >> c) & 1).astype(bool)
                hi, lo = bits[side], bits[~side]
                best = min(best, min(hi.sum(), 128 - hi.sum()) + min(lo.sum(), 128 - lo.sum()))
            if opts[0] != Fraction(int(best), 256):
                problems.append(f"trial {i}: opt_2")
        return problems

    return check


def _make_agnostic(work: Path, seed: int) -> list[Invocation]:
    out = []
    for j in range(AGNOSTIC_RUNS):
        cli_seed = seed * AGNOSTIC_RUNS + j
        argv = (
            "agnostic-sweep", "--arity", "8", "--sizes", "2,4,8", "--epsilon", "0.1",
            "--trials", str(AGNOSTIC_TRIALS), "--seed", str(cli_seed),
        )
        out.append(Invocation(argv, _agnostic_check(cli_seed, AGNOSTIC_TRIALS, (2, 4, 8))))
    return out


# ---------------------------------------------------------------------------
# hard: closed-form growth on the l=8, k=63 instance plus Monte-Carlo checks
# ---------------------------------------------------------------------------


def _hard_check(bundle: Path) -> list[str]:
    curve = [Fraction(r["distance"]) for r in _read_csv(bundle / "exact_curve.csv")]
    problems = []
    if any(b > a for a, b in zip(curve, curve[1:])):
        problems.append("exact curve increases")
    if len(curve) != _summary(bundle)["final_size"]:
        problems.append("exact curve length")
    for row in _read_csv(bundle / "rows.csv"):
        size = int(row["size"])
        # each checkpoint's estimate must sit near the exact distance at that size
        if abs(float(row["error_estimate"]) - float(curve[size - 1])) > 4 * float(row["error_ci"]):
            problems.append(f"estimate at size {size}")
        if not 0.0 <= float(row["xi_fraction"]) <= 1.0:
            problems.append(f"xi fraction at size {size}")
    return problems


def _make_hard(work: Path, seed: int) -> list[Invocation]:
    argv = (
        "hard", "--l", "8", "--k", "63", "--budget", "256", "--impurity", "gini",
        "--samples", str(HARD_SAMPLES), "--seed", str(seed),
    )
    return [Invocation(argv, _hard_check)]


# ---------------------------------------------------------------------------
# real-sample: threshold growth on points labelled by a random threshold tree
# ---------------------------------------------------------------------------


def _tree_label(node: dict, x: list[float]) -> int:
    while "q" in node:
        node = node["hi"] if x[node["q"] - 1] >= node["theta"] else node["lo"]
    return node["label"]


def _real_check(points: list[tuple[list[float], int]]):
    def check(bundle: Path) -> list[str]:
        tree = json.loads((bundle / "tree.json").read_text())
        wrong = sum(_tree_label(tree, x) != label for x, label in points)
        measured = Fraction(wrong, len(points))
        trace = _read_csv(bundle / "trace.csv")
        problems = []
        if _summary(bundle)["points"] != len(points):
            problems.append("point count")
        if Fraction(trace[-1]["distance"]) != measured:
            problems.append("trace distance differs from the tree's training error")
        if Fraction(_summary(bundle)["training_distance"]) != measured:
            problems.append("summary distance differs from the tree's training error")
        if any(Fraction(b["distance"]) > Fraction(a["distance"]) for a, b in zip(trace, trace[1:])):
            problems.append("training distance increases")
        return problems

    return check


def _make_real(work: Path, seed: int) -> list[Invocation]:
    from topdowndt.realvalued import ProductDistribution, balanced_random_tree, sample_teacher

    out = []
    for j, teacher_seed in enumerate(REAL_TEACHERS):
        # the same teachers for every seed, fresh points per seed
        teacher = balanced_random_tree(8, 64, teacher_seed)
        sample_seed = seed * len(REAL_TEACHERS) + j
        sample = sample_teacher(teacher, ProductDistribution.uniform(8), REAL_POINTS, sample_seed)
        path = work / f"points-{j}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{i}" for i in range(1, 9)] + ["label"])
            for x, label in sample.points:
                w.writerow([repr(v) for v in x] + [label])
        argv = (
            "grow-real", "--data", str(path), "--impurity", "gini", "--budget", "128",
            "--thresholds", "midpoints",
        )
        out.append(Invocation(argv, _real_check([(list(x), y) for x, y in sample.points])))
    return out


# ---------------------------------------------------------------------------


def _with_flag(argv: tuple[str, ...], **flags: str) -> tuple[str, ...]:
    """argv with the given --flag values replaced."""
    out = list(argv)
    for key, value in flags.items():
        out[out.index(f"--{key}") + 1] = value
    return tuple(out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grow-deep", ("trace.csv",), _make_grow,
                 lambda p: _with_flag(p[0].argv, budget="64")),
        Workload("agnostic", ("rows.csv",), _make_agnostic,
                 lambda p: _with_flag(p[0].argv, trials="1")),
        # growth on the hard instance does not depend on the seed, only the MC samples do
        Workload("hard", ("rows.csv", "exact_curve.csv"), _make_hard,
                 lambda p: _with_flag(p[0].argv, budget="16", samples="100"),
                 seed_free=("exact_curve.csv",)),
        Workload("real-sample", ("trace.csv", "tree.json"), _make_real,
                 lambda p: _with_flag(p[0].argv, budget="8")),
    )
}
