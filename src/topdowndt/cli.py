"""Command-line experiment harness.

Every run is described by an ExperimentConfig (subcommand flags, or a JSON
config file that flags override) and produces a ResultBundle on disk:

    out/
      config.json     exact echo of the resolved config
      summary.json    version, headline numbers, and check outcomes
      *.csv           experiment rows and growth traces
      plotdata/*.csv  (x, y, series) files for external plotting

Each subcommand is declared once, in SUBCOMMANDS: its runner, its help
line, the ExperimentConfig fields it takes as flags and their caps (LOWEST
holds every size field's lowest value; ExperimentConfig checks both before
any runner starts).  The parser is
built from that table; a flag's name is its field's name with "_" as "-"
(ell is --l) and its type comes from the field's annotation.  A runner
writes its own CSVs and plot files and returns (summary, checks, files).

All randomness flows from the single --seed through named substreams, one
per trial, and trials run one after another.  Re-running an identical
config byte-reproduces every file.

The runners only assemble experiments: growth is grower.grow or
realvalued.grow_real (one greedy loop), the Monte-Carlo error and xi
fraction at the hard run's checkpoint sizes come from hardinstance.mc_check
(one walk of the final tree per point, read off the trace); round-check's
rounding distance is realvalued.disagreement, exact.

Exit status: 0 when every enabled check passes, 1 when a check fails
(the bundle is still written), 2 for an invalid config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from . import boolfn
from . import hardinstance
from . import oracle
from . import realvalued
from . import tree as treemod
from .boolfn import BoolFunc, derived_rng, is_monotone, random_monotone
from .grower import (
    GrowthConfig,
    GrowthTrace,
    Monitor,
    grow,
    rule_agreement,
    tree_at,
    verify_split_inequalities,
)
from .impurity import BUILTIN_NAMES, builtin, verify_shape, verify_strong_concavity
from .realvalued import (
    CoordinateDist,
    PointError,
    ProductDistribution,
    RealSample,
    balanced_random_tree,
    booleanized_evaluate,
    cdf_transform,
    disagreement,
    encode,
    grow_real,
    round_thresholds,
)
from .tree import random_monotone_tree


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit status 2."""


DEFAULT_IMPURITIES = ("gini", "entropy", "kearns-mansour")

# The lowest value of each size field, refused before any work whatever the
# subcommand; each subcommand's caps are in SUBCOMMANDS.  A list field is
# checked entry by entry.  A growth monitor needs s >= 2 (log2 s > 0), a chain
# teacher tree has at least 2 leaves and a tribes block at least 2 bits;
# monitor_size 0 disables the monitor.
LOWEST = {
    "budget": 1, "trials": 1, "samples": 1, "size": 1, "sizes": 2, "leaves": 1,
    "teacher_leaves": 2, "arity": 1, "ell": 2, "k": 1, "monitor_size": 0,
}


def _flag(name: str) -> str:
    """The command-line flag of an ExperimentConfig field."""
    return "--l" if name == "ell" else "--" + name.replace("_", "-")


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = 0
    out: str = ""
    fn: str = ""  # function spec JSON (boolfn serialization)
    arity: int = 8
    impurity: str = "gini"  # an impurity name, or "influence"
    impurities: tuple[str, ...] = DEFAULT_IMPURITIES
    budget: int = 16
    size: int = 2
    sizes: tuple[int, ...] = (2, 4, 8)
    epsilon: float = 0.1
    trials: int = 20
    samples: int = 20000
    threshold: float = 0.35
    ell: int = 8
    k: int = 15
    data: str = ""
    dist: str = ""
    thresholds: str = "midpoints"
    leaves: int = 64
    teacher_leaves: int = 16
    target: float = 0.05
    monitor_size: int = 0  # 0 disables the monitor

    def __post_init__(self):
        if self.kind not in SUBCOMMANDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if not self.out:
            self.out = f"results/{self.kind}"
        caps = SUBCOMMANDS[self.kind].caps
        for name, low in LOWEST.items():
            value = getattr(self, name)
            for v in value if isinstance(value, tuple) else (value,):
                if v < low:
                    raise ConfigError(f"{_flag(name)} {v} is below the minimum {low}")
                if v > caps.get(name, math.inf):
                    raise ConfigError(f"{_flag(name)} {v} exceeds the cap {caps[name]}")
        for name in ("sizes", "impurities"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be positive and finite")
        if not math.isfinite(self.threshold):
            raise ConfigError("threshold must be finite")
        if not 0 < self.target < 1:
            raise ConfigError("target must be in (0,1)")
        # verify-impurity checks impurities, every other run takes a split rule
        other = "all" if self.kind == "verify-impurity" else "influence"
        if self.impurity != other:
            try:
                builtin(self.impurity)
            except ValueError:
                raise ConfigError(
                    f"unknown impurity {self.impurity!r}; use {other} or one of "
                    f"{', '.join(BUILTIN_NAMES)}"
                ) from None
        if self.kind == "grow-real" and self.impurity == "influence":
            raise ConfigError("real-valued growth needs an impurity rule, not influence")
        for name in self.impurities:
            try:
                builtin(name)
            except (KeyError, ValueError):
                raise ConfigError(f"unknown impurity {name!r}") from None
        try:
            realvalued.parse_policy(self.thresholds)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        # Monitor refuses a monitored size below 2, or an epsilon below its
        # resolution, before the oracle runs
        monitored = self.sizes if self.kind == "agnostic-sweep" else ()
        if self.kind == "grow" and self.monitor_size:
            monitored = (self.monitor_size,)
        for s in monitored:
            try:
                Monitor(s, self.epsilon, Fraction(0))
            except ValueError as e:
                raise ConfigError(str(e)) from None


@dataclass
class ResultBundle:
    out_dir: Path
    summary: dict
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


# ---------------------------------------------------------------------------
# formatting and small shared helpers
# ---------------------------------------------------------------------------


def _dyadic(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write_csv(path: Path, header, rows) -> None:
    """A Fraction cell is written by _dyadic; csv writes every other cell,
    a float by repr and None as the empty string."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            # type(), not isinstance: Fraction's ABC check is slow on the other cells
            w.writerow([_dyadic(v) if type(v) is Fraction else v for v in row])


def _write_json(path: Path, value) -> None:
    with open(path, "w") as fh:
        json.dump(value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_tree(path: Path, t: treemod.Tree) -> None:
    """_write_json(path, treemod.to_json(t)), byte for byte, at any depth."""
    with open(path, "w") as fh:
        fh.write(treemod.to_json_text(t))
        fh.write("\n")


def _plot(out: Path, name: str, header, rows) -> str:
    """Write an (x, y, series) CSV for external plotting; returns its bundle path."""
    (out / "plotdata").mkdir(exist_ok=True)
    _write_csv(out / "plotdata" / name, header, rows)
    return f"plotdata/{name}"


def _trial_seed(cfg: ExperimentConfig, index: int) -> int:
    # distinct per-trial streams derived from the one config seed
    return cfg.seed * 1_000_003 + index


def _impurity_or_none(name: str):
    return None if name == "influence" else builtin(name)


def _read_json(path: Path, what: str):
    """The JSON value in a spec or config file, or ConfigError naming the file."""
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from None
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from None


def _matches(value, shape: str) -> bool:
    """Whether a JSON value has the shape "int", "float", "str" or "list[<shape>]".

    A bool is no number, and neither are the NaN and Infinity json.load reads.
    """
    if shape.startswith("list["):
        return isinstance(value, list) and all(_matches(v, shape[5:-1]) for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    types = {"int": int, "float": (int, float), "str": str}[shape]
    return isinstance(value, types) and not isinstance(value, bool)


def _field(obj, name: str, shape: str):
    """obj[name] of a JSON object; ValueError unless it is there with that shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"missing field {name!r}")
    if not _matches(obj[name], shape):
        raise ValueError(f"field {name!r} must be {shape}, got {json.dumps(obj[name])}")
    return obj[name]


# the fields boolfn.from_spec reads, by spec kind, with their JSON shapes
_SPEC_FIELDS = {
    "table": {"n": "int", "hex": "str"},
    "dnf": {"n": "int", "terms": "list[list[int]]"},
}


def _load_function(cfg: ExperimentConfig) -> tuple[BoolFunc, str]:
    if cfg.fn:
        path = Path(cfg.fn)
        spec = _read_json(path, "function spec")
        try:
            for name, shape in _SPEC_FIELDS.get(_field(spec, "kind", "str"), {}).items():
                _field(spec, name, shape)
            return boolfn.from_spec(spec), path.stem
        except ValueError as e:
            raise ConfigError(f"bad function spec {path}: {e}") from None
    f = random_monotone(cfg.arity, seed=cfg.seed)
    return f, f"random-monotone-n{cfg.arity}-seed{cfg.seed}"


def _distance_curve(trace: GrowthTrace) -> list[tuple[int, Fraction]]:
    return list(enumerate(trace.distances(), start=1))


def _nonincreasing(curve) -> bool:
    return all(b <= a for (_, a), (_, b) in zip(curve, curve[1:]))


def _write_trace(out: Path, trace: GrowthTrace) -> list[str]:
    """trace.csv and its two plots, as grow and grow-real write them.

    trace.csv writes its exact columns, u_f and distance, as str(fraction):
    0 is "0" there, where _dyadic writes "0/1".
    """

    def exact(v: Fraction | None) -> str | None:
        return None if v is None else str(v)

    def rows():  # streamed: a deep trace has a row per split
        yield (0, None, None, None, None, trace.initial_g_impurity,
               exact(trace.initial_u_f), exact(trace.initial_distance))
        for st in trace.steps:
            yield (st.iteration, st.leaf_id, st.coord, st.theta, st.gain, st.g_impurity,
                   exact(st.u_f), exact(st.distance))

    header = ("iter", "leaf_id", "coord", "theta", "gain", "g_impurity", "u_f", "distance")
    _write_csv(out / "trace.csv", header, rows())
    potential = [(0, trace.initial_g_impurity)]
    potential += [(st.iteration, st.g_impurity) for st in trace.steps]
    return [
        "trace.csv",
        _plot(out, "error_vs_size.csv", ("size", "distance"), _distance_curve(trace)),
        _plot(out, "potential_vs_iteration.csv", ("iteration", "g_impurity"), potential),
    ]


def _sweep_budget(s: int, n: int) -> int:
    return min(1 << n, s ** math.ceil(math.log2(s)) if s > 1 else 1)


# ---------------------------------------------------------------------------
# experiment runners: each returns (summary, checks, files)
# ---------------------------------------------------------------------------


def _run_grow(cfg: ExperimentConfig, out: Path):
    f, fname = _load_function(cfg)
    spec = _impurity_or_none(cfg.impurity)
    monitor = None
    if cfg.monitor_size:
        if spec is None:
            raise ConfigError("the growth monitor needs an impurity rule")
        if f.n > oracle.OPT_MAX_ARITY:
            raise ConfigError("monitoring needs the exact oracle; reduce arity")
        if not is_monotone(f):
            raise ConfigError(f"the monitor's guarantees need a monotone target; {fname} is not")
        opt_s = oracle.OptTable(f).error(cfg.monitor_size)
        monitor = Monitor(cfg.monitor_size, cfg.epsilon, opt_s)
    trace = grow(f, GrowthConfig(budget=cfg.budget, impurity=spec, stop_on_zero_gain=True))
    files = _write_trace(out, trace)
    checks = {"distance-nonincreasing": _nonincreasing(_distance_curve(trace))}
    if monitor is not None:
        report = verify_split_inequalities(trace, f, spec, monitor)
        checks["split-inequalities"] = report.passed
        rows = [(c.iteration, c.gain, c.score_bound, c.monitored) for c in report.checks]
        header = ("iteration", "gain", "bound", "monitored")
        files.append(_plot(out, "gain_vs_bound.csv", header, rows))
    summary = {
        "function": fname,
        "arity": f.n,
        "rule": cfg.impurity,
        "budget": cfg.budget,
        "final_size": trace.final_size,
        "final_distance": _dyadic(trace.final_distance()),
        "stop_reason": trace.stop_reason,
    }
    return summary, checks, files


def _coordinate_from_spec(entry, columns: dict[str, list[float] | None]) -> CoordinateDist:
    """One --dist entry; ValueError says what is wrong with a malformed one.
    A column whose name the header repeats maps to None."""
    kind = _field(entry, "kind", "str")
    if kind == "uniform01":
        return CoordinateDist.uniform01()
    if kind == "cdf_table":
        return CoordinateDist.from_table(_field(entry, "points", "list[list[float]]"))
    if kind == "empirical":
        col = _field(entry, "column", "str")
        if col not in columns:
            raise ValueError(f"unknown column {col!r}")
        if columns[col] is None:
            raise ValueError(f"column {col!r} appears more than once in the header")
        return CoordinateDist.from_data(columns[col])
    raise ValueError(f"unknown coordinate distribution kind {kind!r}")


def _load_real_sample(cfg: ExperimentConfig) -> tuple[RealSample, list[str]]:
    if not cfg.data:
        raise ConfigError("grow-real needs --data CSV")
    path = Path(cfg.data)
    if not path.exists():
        raise ConfigError(f"dataset not found: {path}")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if not header:
                raise ConfigError(f"{path}: empty dataset or blank header")
            if header.count("label") > 1:
                raise ConfigError(f"{path}: column 'label' appears more than once in the header")
            label_idx = header.index("label") if "label" in header else len(header) - 1
            feature_names = header[:label_idx] + header[label_idx + 1 :]
            if not feature_names:
                raise ConfigError(f"{path}: no feature column besides the label")
            points = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise ConfigError(f"{path}:{lineno}: expected {len(header)} columns")
                try:
                    x = (*map(float, row[:label_idx]), *map(float, row[label_idx + 1 :]))
                    label = int(row[label_idx])
                except ValueError as e:
                    raise ConfigError(f"{path}:{lineno}: {e}") from None
                points.append((x, label))
    except (OSError, UnicodeDecodeError, csv.Error) as e:  # a directory, not UTF-8, ...
        raise ConfigError(f"cannot read dataset {path}: {e}") from None
    try:
        sample = RealSample(tuple(points), provenance=str(path))
    except PointError as e:  # point i is on line i + 2, under the header
        raise ConfigError(f"{path}:{e.index + 2}: {e.problem}") from None
    except ValueError as e:  # no data rows
        raise ConfigError(f"{path}: {e}") from None
    if cfg.dist:
        dist_path = Path(cfg.dist)
        entries = _read_json(dist_path, "distribution spec")
        if not isinstance(entries, list) or len(entries) != sample.n:
            raise ConfigError(
                f"distribution spec {dist_path} must list one entry per feature column "
                f"({sample.n})"
            )
        columns = {
            name: [p[0][i] for p in sample.points] if header.count(name) == 1 else None
            for i, name in enumerate(feature_names)
        }
        coords = []
        for i, entry in enumerate(entries, start=1):
            try:
                coords.append(_coordinate_from_spec(entry, columns))
            except ValueError as e:
                raise ConfigError(f"bad distribution spec {dist_path}: entry {i}: {e}") from None
        d = ProductDistribution(tuple(coords))
        transformed = tuple((cdf_transform(d, x), label) for x, label in sample.points)
        sample = RealSample(transformed, provenance=f"{path} via {dist_path}")
    return sample, feature_names


def _run_grow_real(cfg: ExperimentConfig, out: Path):
    sample, feature_names = _load_real_sample(cfg)
    trace = grow_real(
        sample,
        GrowthConfig(budget=cfg.budget, impurity=builtin(cfg.impurity), stop_on_zero_gain=True),
        policy=cfg.thresholds,
    )
    files = _write_trace(out, trace)
    _write_tree(out / "tree.json", tree_at(trace, trace.final_size))
    medians = [st.median_split for st in trace.steps]
    summary = {
        "dataset": sample.provenance,
        "points": len(sample),
        "features": feature_names,
        "impurity": cfg.impurity,
        "threshold_policy": trace.threshold_policy,
        "budget": cfg.budget,
        "final_size": trace.final_size,
        "training_distance": _dyadic(trace.final_distance()),
        "median_split_fraction": (sum(1 for m in medians if m) / len(medians)) if medians else None,
        "stop_reason": trace.stop_reason,
    }
    checks = {"distance-nonincreasing": _nonincreasing(_distance_curve(trace))}
    return summary, checks, [*files, "tree.json"]


def _run_opt(cfg: ExperimentConfig, out: Path):
    if not cfg.fn:
        raise ConfigError("opt needs --fn (exhaustive search has no random default)")
    f, fname = _load_function(cfg)
    try:
        err, witness = oracle.opt(f, cfg.size)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    _write_json(
        out / "witness.json",
        {"size_budget": cfg.size, "error": _dyadic(err), "tree": treemod.to_json(witness)},
    )
    checks = {
        "witness-distance-matches": treemod.distance(witness, f) == err,
        "witness-within-budget": treemod.size(witness) <= cfg.size,
    }
    summary = {
        "function": fname,
        "arity": f.n,
        "size": cfg.size,
        "error": _dyadic(err),
        "witness_size": treemod.size(witness),
    }
    return summary, checks, ["witness.json"]


def _random_binary_tree(n: int, max_leaves: int, rng) -> treemod.DecisionTree:
    paths = [()]  # the coordinates on each open leaf's path, in preorder
    nodes = [0]  # each open leaf's node id, beside paths
    splits = []
    target = rng.randint(2, max(2, max_leaves))
    while len(paths) < target:
        open_ids = [i for i, path in enumerate(paths) if len(path) < n]
        if not open_ids:
            break
        leaf_id = rng.choice(open_ids)
        path = paths[leaf_id]
        coord = rng.choice([c for c in range(1, n + 1) if c not in path])
        hi = 2 * len(splits) + 1
        splits.append((nodes[leaf_id], coord, None))
        paths[leaf_id : leaf_id + 1] = [path + (coord,)] * 2
        nodes[leaf_id : leaf_id + 1] = [hi, hi + 1]
    labels = [0] * (2 * len(splits) + 1)  # an internal node's entry is never read
    for v in nodes:  # the leaves' labels, drawn in preorder
        labels[v] = rng.randint(0, 1)
    return treemod.from_splits(splits, labels)


def _run_jz_sweep(cfg: ExperimentConfig, out: Path):
    n = cfg.arity
    rows = []
    for i in range(cfg.trials):
        rng = derived_rng(_trial_seed(cfg, i), "jz")
        f = BoolFunc(n, rng.getrandbits(1 << n))
        g = _random_binary_tree(n, max(2, min(cfg.leaves, 1 << n)), rng)
        rep = oracle.verify_jz(f, g)
        rows.append((i, rep.lhs, rep.numerator, rep.tree_size, rep.rhs, rep.passed))
    _write_csv(out / "rows.csv", ("trial", "lhs", "numerator", "size", "rhs", "passed"), rows)
    violations = sum(1 for r in rows if not r[5])
    summary = {"arity": n, "trials": cfg.trials, "violations": violations}
    checks = {"jz-zero-violations": violations == 0}
    return summary, checks, ["rows.csv"]


def _run_agnostic_sweep(cfg: ExperimentConfig, out: Path):
    n = cfg.arity
    names = tuple(cfg.impurities)
    specs = [builtin(name) for name in names]
    budgets = {s: _sweep_budget(s, n) for s in cfg.sizes}
    top = max(budgets.values())

    rows = []
    flags = []
    for i in range(cfg.trials):
        f = random_monotone(n, seed=_trial_seed(cfg, i))
        table = oracle.OptTable(f)  # one table serves every size
        runs = [grow(f, GrowthConfig(top, spec, stop_on_zero_gain=True)) for spec in specs]
        for s in cfg.sizes:
            opt_s = table.error(s)
            monitor = Monitor(s, cfg.epsilon, opt_s)
            # the budget only stops the deterministic loop: budget b gives the first b - 1 steps
            traces = [dataclasses.replace(r, steps=r.steps[: budgets[s] - 1]) for r in runs]
            for spec, trace in zip(specs, traces):
                report = verify_split_inequalities(trace, f, spec, monitor)
                err_ok = trace.final_distance() <= opt_s + monitor.eps
                flags.append((err_ok, report.passed, _nonincreasing(_distance_curve(trace))))
            rows.append((i, s, opt_s, *(t.final_distance() for t in traces)))
    header = ("trial", "s", "opt_s", *(f"err_{name}" for name in names))
    _write_csv(out / "rows.csv", header, rows)
    summary = {
        "arity": n,
        "trials": cfg.trials,
        "sizes": list(cfg.sizes),
        "impurities": list(names),
        "epsilon": cfg.epsilon,
        "budgets": {str(s): b for s, b in budgets.items()},
    }
    checks = {
        "error-within-eps": all(fl[0] for fl in flags),
        "split-inequalities": all(fl[1] for fl in flags),
        "distance-nonincreasing": all(fl[2] for fl in flags),
    }
    means = []
    for s in cfg.sizes:
        group = [r for r in rows if r[1] == s]
        mean_opt = sum(float(r[2]) for r in group) / len(group)
        errs = [sum(float(r[3 + j]) for r in group) / len(group) for j in range(len(names))]
        means.append((s, mean_opt, *errs))
    plot = _plot(out, "agnostic.csv", ("s", "opt_s", *header[3:]), means)
    return summary, checks, ["rows.csv", plot]


def _hard_checkpoints(final_size: int) -> list[int]:
    sizes = {1, final_size}
    p = 2
    while p < final_size:
        sizes.add(p)
        p *= 2
    return sorted(sizes)


def _run_hard(cfg: ExperimentConfig, out: Path):
    try:
        h = hardinstance.choose_params(cfg.ell, cfg.k)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    spec = _impurity_or_none(cfg.impurity)
    trace, (mc_estimate, mc_halfwidth, xi_fraction) = hardinstance.lower_bound_experiment(
        h, spec, cfg.budget, mc_samples=cfg.samples, seed=cfg.seed
    )
    cutoff = hardinstance.xi_cutoff(h.k)
    final_distance = trace.final_distance()

    # one evaluation sample, drawn lazily, each point walking the final tree once for every checkpoint
    sizes = _hard_checkpoints(trace.final_size)
    labeled = hardinstance.labeled_points(h, cfg.samples, derived_rng(cfg.seed, "hard", "curve"))
    checked = hardinstance.mc_check(h, trace, sizes, labeled, cutoff)
    rows = [(size, *result) for size, result in zip(sizes, checked)]
    _write_csv(out / "rows.csv", ("size", "error_estimate", "error_ci", "xi_fraction"), rows)
    curve = _distance_curve(trace)
    _write_csv(out / "exact_curve.csv", ("size", "distance"), curve)

    summary = {
        "ell": h.params.ell,
        "k": h.k,
        "w": h.params.w,
        "m": h.params.m,
        "m_prime": h.params.m_prime,
        "p_full": _dyadic(h.params.p_full),
        "p_prime": _dyadic(h.params.p_prime),
        "p_rest": _dyadic(h.params.p_rest),
        "expectation": _dyadic(h.expectation),
        "rule": cfg.impurity,
        "budget": cfg.budget,
        "final_size": trace.final_size,
        "final_distance": _dyadic(final_distance),
        "terms_distance": _dyadic(h.distance_to_terms),
        "mc_estimate": mc_estimate,
        "mc_halfwidth": mc_halfwidth,
        "threshold": cfg.threshold,
        "exact_above_threshold": float(final_distance) > cfg.threshold,
        "xi_cutoff": cutoff,
        "xi_fraction": xi_fraction,
        "stop_reason": trace.stop_reason,
    }
    checks = {
        "curve-nonincreasing": _nonincreasing(curve),
        "mc-within-ci": abs(mc_estimate - float(final_distance)) <= 4 * mc_halfwidth,
    }
    plot = _plot(out, "error_vs_size.csv", ("size", "error_estimate", "ci"), [r[:3] for r in rows])
    return summary, checks, ["rows.csv", "exact_curve.csv", plot]


def _run_realizable(cfg: ExperimentConfig, out: Path):
    n = cfg.arity
    budget = min(1 << n, cfg.budget)
    names = tuple(cfg.impurities)

    rows = []
    mismatches = 0
    for i in range(cfg.trials):
        teacher = random_monotone_tree(n, cfg.teacher_leaves, _trial_seed(cfg, i))
        f = treemod.to_boolfunc(teacher, n)
        inf_trace = grow(f, GrowthConfig(budget=budget, impurity=None, stop_on_zero_gain=True))
        for name in names:
            trace = grow(
                f, GrowthConfig(budget=budget, impurity=builtin(name), stop_on_zero_gain=True)
            )
            reached = next((s for s, d in _distance_curve(trace) if float(d) <= cfg.target), None)
            rows.append((i, treemod.size(teacher), name, reached, trace.final_distance()))
            mismatches += len(rule_agreement(trace, inf_trace)[1])
    _write_csv(
        out / "rows.csv",
        ("trial", "teacher_leaves", "impurity", "reached_size", "final_distance"),
        rows,
    )
    summary = {
        "arity": n,
        "trials": cfg.trials,
        "teacher_leaves": cfg.teacher_leaves,
        "target": cfg.target,
        "budget": budget,
        "rule_mismatches": mismatches,
        "max_reached_size": max((r[3] for r in rows if r[3] is not None), default=None),
    }
    checks = {
        "realizable-reaches-target": all(r[3] is not None for r in rows),
        "rule-agreement": mismatches == 0,
    }
    return summary, checks, ["rows.csv"]


def _run_round_check(cfg: ExperimentConfig, out: Path):
    n = cfg.arity
    eps = cfg.epsilon
    d = ProductDistribution.uniform(n)
    agree_per_trial = max(1, math.ceil(10**4 / cfg.trials))

    rows = []
    for i in range(cfg.trials):
        seed = _trial_seed(cfg, i)
        t = balanced_random_tree(n, cfg.leaves, seed)
        # rounding keeps every query, and booleanized_evaluate reads only the
        # bits of the coordinates queried
        depth, queried = treemod.depth_and_coords(t)
        ratio = cfg.leaves * max(1, depth) / eps  # inf when it overflows
        w = math.ceil(math.log2(ratio)) + 2 if ratio < math.inf else math.inf
        if not 1 <= w <= realvalued.MAX_BITS:
            raise ConfigError(
                f"--epsilon {eps} gives a rounding grid of w = {w} bits for {cfg.leaves} "
                f"leaves at depth {depth}; w must be in 1..{realvalued.MAX_BITS}"
            )
        tr = round_thresholds(t, w)
        rng = derived_rng(seed, "agreement")
        fails = 0
        for x in d.draw(rng, agree_per_trial):
            bits = {(c - 1) * w + p: b for c in queried for p, b in enumerate(encode(x[c - 1], w))}
            if treemod.evaluate(tr, x) != booleanized_evaluate(tr, w, bits):
                fails += 1
        rows.append((i, depth, w, disagreement(t, tr), fails))
    _write_csv(out / "rows.csv", ("trial", "depth", "w", "distance", "agreement_failures"), rows)
    summary = {
        "arity": n,
        "trials": cfg.trials,
        "leaves": cfg.leaves,
        "epsilon": eps,
        "agreement_inputs": agree_per_trial * cfg.trials,
        "max_distance": _dyadic(max(r[3] for r in rows)),
    }
    checks = {
        # eps as the exact value of its float
        "round-dist-within-eps": all(r[3] <= Fraction(eps) / 2 for r in rows),
        "s-construction-agreement": all(r[4] == 0 for r in rows),
    }
    return summary, checks, ["rows.csv"]


def _run_verify_impurity(cfg: ExperimentConfig, out: Path):
    names = BUILTIN_NAMES if cfg.impurity == "all" else (cfg.impurity,)
    summary = {}
    checks = {}
    for name in names:
        spec = builtin(name)
        rep = verify_strong_concavity(spec)
        problems = verify_shape(spec)
        summary[name] = {
            "kappa": spec.kappa,
            "min_slack": rep.min_slack,
            "max_slack": rep.max_slack,
            "shape_problems": problems,
        }
        checks[f"concavity-{name}"] = rep.passed
        checks[f"shape-{name}"] = not problems
    return summary, checks, []


# ---------------------------------------------------------------------------
# the subcommand table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subcommand:
    runner: Callable  # (config, out dir) -> (summary, checks, bundle files written)
    help: str
    flags: tuple[str, ...]  # ExperimentConfig fields it takes as flags, besides COMMON_FLAGS
    defaults: tuple[tuple[str, object], ...] = ()  # its own field defaults, as (name, value)
    echo: str = ""  # line printed after the run, formatted from the summary
    caps: dict[str, int] = dataclasses.field(default_factory=dict)  # field -> largest value


COMMON_FLAGS = ("seed", "out")

# Each subcommand's caps, refused before any work.  Measured on a 2-CPU VM with
# Python 3.11; time grows faster than linearly past the first three caps:
# - hard --budget 65536: --l 8 --k 63 grows in 65 s and 200 MB;
# - round-check --leaves 262144: one trial at arity 8 takes 10.4-10.8 s and
#   279 MB, nearly all of it building the tree;
# - jz-sweep --leaves 8192: a random tree of 8192 leaves takes 3.5 s to draw,
#   one of 16384 leaves 15 s;
# - the oracle's size, oracle.OPT_MAX_SIZE = 32 (opt --size,
#   agnostic-sweep --sizes, grow --monitor-size): opt --size 32 takes
#   1.1-2.0 s and 89 MB on a random or a monotone 12-bit table;
# - round-check --arity 1024: a trial with 2 leaves takes 0.75 s;
# - --samples 524288: hard --l 8 --k 63 --budget 256 takes 14 s and 22 MB;
# - --trials 1024: every other flag at its default, round-check takes 2.8 s
#   and agnostic-sweep 7.3 s.
# Arity is also capped at boolfn.MAX_ARITY for a truth table, at
# oracle.OPT_MAX_ARITY for the exact oracle and at 16 for jz-sweep.
SUBCOMMANDS = {
    "grow": Subcommand(
        _run_grow,
        "grow a tree for a boolean function",
        ("fn", "arity", "impurity", "budget", "monitor_size", "epsilon"),
        caps={"arity": boolfn.MAX_ARITY, "monitor_size": oracle.OPT_MAX_SIZE},
    ),
    "grow-real": Subcommand(
        _run_grow_real,
        "grow a threshold tree from a CSV dataset",
        ("data", "dist", "impurity", "budget", "thresholds"),
    ),
    "opt": Subcommand(
        _run_opt,
        "exact smallest-error tree of a given size",
        ("fn", "size"),
        echo="opt_{size} = {error}",
        caps={"size": oracle.OPT_MAX_SIZE},
    ),
    "jz-sweep": Subcommand(
        _run_jz_sweep,
        "two-function inequality over random pairs",
        ("arity", "trials", "leaves"),
        caps={"arity": 16, "trials": 1 << 10, "leaves": 1 << 13},
    ),
    "agnostic-sweep": Subcommand(
        _run_agnostic_sweep,
        "greedy vs exact optimum on random monotone targets",
        ("arity", "trials", "sizes", "epsilon", "impurities"),
        caps={"arity": oracle.OPT_MAX_ARITY, "trials": 1 << 10, "sizes": oracle.OPT_MAX_SIZE},
    ),
    "hard": Subcommand(
        _run_hard,
        "growth on the conjunctions-plus-majority instance",
        ("ell", "k", "impurity", "budget", "samples", "threshold"),
        caps={"budget": 1 << 16, "samples": 1 << 19},
    ),
    "realizable": Subcommand(
        _run_realizable,
        "growth on random monotone tree targets",
        ("arity", "trials", "teacher_leaves", "target", "budget", "impurities"),
        caps={"arity": boolfn.MAX_ARITY, "trials": 1 << 10},
    ),
    "round-check": Subcommand(
        _run_round_check,
        "threshold rounding and bit-encoding agreement",
        ("arity", "trials", "leaves", "epsilon"),
        caps={"arity": 1 << 10, "trials": 1 << 10, "leaves": 1 << 18},
    ),
    "verify-impurity": Subcommand(
        _run_verify_impurity,
        "strong concavity and shape checks",
        ("impurity",),
        defaults=(("impurity", "all"),),
    ),
}


# ---------------------------------------------------------------------------
# run + main
# ---------------------------------------------------------------------------


def run(config: ExperimentConfig) -> ResultBundle:
    """Run the named experiment and write its ResultBundle."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    summary, checks, files = SUBCOMMANDS[config.kind].runner(config, out)

    _write_json(out / "config.json", dataclasses.asdict(config))
    _write_json(
        out / "summary.json",
        {
            "version": __version__,
            "kind": config.kind,
            "seed": config.seed,
            "summary": summary,
            "checks": checks,
            "files": sorted(files),
        },
    )
    return ResultBundle(out, summary, checks)


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _csv_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# by ExperimentConfig annotation: the flag's parser, and the JSON shape (see
# _matches) of the field's value in a config file
_FLAG_TYPES = {
    "int": (int, "int"),
    "float": (float, "float"),
    "str": (str, "str"),
    "tuple[int, ...]": (_csv_ints, "list[int]"),
    "tuple[str, ...]": (_csv_names, "list[str]"),
}

_FLAG_HELP = {
    "seed": "master seed (default 0)",
    "out": "output directory (default results/<kind>)",
    "fn": "function spec JSON (default: random monotone)",
    "impurity": "gini|entropy|kearns-mansour, or influence / all where taken",
    "impurities": "comma-separated impurity names",
    "budget": "leaf budget",
    "size": "leaf budget s",
    "sizes": "comma-separated opt sizes",
    "data": "CSV with feature columns + {0,1} label",
    "dist": "per-coordinate distribution spec JSON",
    "thresholds": "midpoints | grid:w",
    "leaves": "max random-tree leaves",
    "ell": "conjunction block width",
    "k": "majority block width (odd)",
    "target": "distance to reach",
}


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an abbreviated flag is an error, not another field
    parser = argparse.ArgumentParser(
        prog="topdowndt",
        description="Top-down decision tree growth experiments.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"topdowndt {__version__}")
    sub = parser.add_subparsers(dest="kind", required=True)
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    for kind, command in SUBCOMMANDS.items():
        p = sub.add_parser(kind, help=command.help, allow_abbrev=False)
        for name in (*command.flags, *COMMON_FLAGS):
            # an unset flag parses to None and leaves the config file's value
            p.add_argument(
                _flag(name), dest=name, type=_FLAG_TYPES[types[name]][0], help=_FLAG_HELP.get(name)
            )
        p.add_argument("--config", help="JSON config file; flags override it")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    merged: dict = {"kind": args.kind, **dict(SUBCOMMANDS[args.kind].defaults)}
    if args.config:
        path = Path(args.config)
        file_cfg = _read_json(path, "config file")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(file_cfg) - set(types)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            if key == "kind":
                continue
            try:
                _field(file_cfg, key, _FLAG_TYPES[types[key]][1])
            except ValueError as e:
                raise ConfigError(f"bad config file {path}: {e}") from None
            merged[key] = tuple(val) if isinstance(val, list) else val
    for key, val in vars(args).items():
        if key in types and val is not None:
            merged[key] = val
    return ExperimentConfig(**merged)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        bundle = run(config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    echo = SUBCOMMANDS[config.kind].echo
    if echo:
        print(echo.format(**bundle.summary))
    verdicts = "  ".join(
        f"{name}={'PASS' if ok else 'FAIL'}" for name, ok in sorted(bundle.checks.items())
    )
    print(f"[{config.kind}] wrote {bundle.out_dir}")
    if verdicts:
        print(verdicts)
    return 0 if bundle.ok else 1


if __name__ == "__main__":
    sys.exit(main())
