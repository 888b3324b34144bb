"""Command-line experiment harness.

Every run is described by an ExperimentConfig (subcommand flags, or a JSON
config file that flags override) and produces a ResultBundle on disk:

    out/
      config.json     exact echo of the resolved config
      summary.json    version, headline numbers, and check outcomes
      *.csv           experiment rows and growth traces
      plotdata/*.csv  (x, y, series) files for external plotting

Each subcommand is declared once, in SUBCOMMANDS: its runner, its help
line and the ExperimentConfig fields it takes as flags.  The parser is
built from that table; a flag's name is its field's name with "_" as "-"
(ell is --l) and its type comes from the field's annotation.  A runner
writes its own CSVs and plot files and returns (summary, checks, files).

All randomness flows from the single --seed through named substreams, one
per trial, and trials run one after another.  Re-running an identical
config byte-reproduces every file.

The runners only assemble experiments: growth is grower.grow or
realvalued.grow_real (one greedy loop), the trees at the hard run's
checkpoint sizes come from grower.tree_at, and its Monte-Carlo error and
xi fraction from hardinstance.mc_check.

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
    write_trace_csv,
)
from .impurity import BUILTIN_NAMES, builtin, verify_shape, verify_strong_concavity
from .realvalued import (
    CoordinateDist,
    ProductDistribution,
    RealSample,
    balanced_random_tree,
    booleanized_evaluate,
    cdf_transform,
    encode_point,
    estimate_dist,
    grow_real,
    round_thresholds,
)
from .tree import PartialTree, label_leaves, random_monotone_tree


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit status 2."""


DEFAULT_IMPURITIES = ("gini", "entropy", "kearns-mansour")


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
        for name, low in (
            ("budget", 1),
            ("trials", 1),
            ("samples", 1),
            ("size", 1),
            ("leaves", 1),
            ("teacher_leaves", 2),
            ("arity", 1),
            ("ell", 2),
            ("k", 1),
        ):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("epsilon must be positive and finite")
        if not math.isfinite(self.threshold):
            raise ConfigError("threshold must be finite")
        if not 0 < self.target < 1:
            raise ConfigError("target must be in (0,1)")
        rules = ("influence", "all") if self.kind == "verify-impurity" else ("influence",)
        if self.impurity not in rules and self.impurity not in BUILTIN_NAMES:
            try:
                builtin(self.impurity)
            except (KeyError, ValueError):
                raise ConfigError(f"unknown impurity {self.impurity!r}") from None
        for name in self.impurities:
            try:
                builtin(name)
            except (KeyError, ValueError):
                raise ConfigError(f"unknown impurity {name!r}") from None
        try:
            realvalued.parse_policy(self.thresholds)
        except ValueError as e:
            raise ConfigError(str(e)) from None


@dataclass
class ResultBundle:
    out_dir: Path
    summary: dict
    checks: dict[str, bool]
    files: list[str]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


# ---------------------------------------------------------------------------
# formatting and small shared helpers
# ---------------------------------------------------------------------------


def _dyadic(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _cell(v) -> str:
    if isinstance(v, Fraction):
        return _dyadic(v)
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    return str(v)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


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


def _check_table_arity(n: int) -> None:
    # refuse before building a 2^n table
    if n > boolfn.MAX_ARITY:
        raise ConfigError(f"arity {n} exceeds the truth-table cap {boolfn.MAX_ARITY}")


def _monitor_eps(cfg: ExperimentConfig) -> Fraction:
    # the monitor's eps is exact: epsilon as a fraction with denominator <= 10^9
    eps = Fraction(cfg.epsilon).limit_denominator(10**9)
    if eps == 0:
        raise ConfigError(f"epsilon {cfg.epsilon:g} is below the monitor's resolution 1e-9")
    return eps


def _check_monitor(s: int, eps: Fraction) -> None:
    # refuse a bad monitor size before the oracle runs
    try:
        Monitor(s, eps, Fraction(0))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _load_function(cfg: ExperimentConfig) -> tuple[BoolFunc, str]:
    if cfg.fn:
        path = Path(cfg.fn)
        if not path.exists():
            raise ConfigError(f"function spec not found: {path}")
        with open(path) as fh:
            spec = json.load(fh)
        try:
            f = boolfn.from_spec(spec)
        except (KeyError, ValueError) as e:
            raise ConfigError(f"bad function spec {path}: {e}") from None
        return f, path.stem
    _check_table_arity(cfg.arity)
    f = random_monotone(cfg.arity, seed=cfg.seed)
    return f, f"random-monotone-n{cfg.arity}-seed{cfg.seed}"


def _distance_curve(trace: GrowthTrace) -> list[tuple[int, Fraction]]:
    return list(enumerate(trace.distances(), start=1))


def _nonincreasing(curve) -> bool:
    return all(b <= a for (_, a), (_, b) in zip(curve, curve[1:]))


def _write_trace(out: Path, trace: GrowthTrace) -> list[str]:
    """trace.csv and its two plots, as grow and grow-real write them."""
    write_trace_csv(trace, out / "trace.csv")
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
        eps = _monitor_eps(cfg)
        _check_monitor(cfg.monitor_size, eps)
        opt_s = oracle.OptTable(f).error(cfg.monitor_size)
        monitor = Monitor(cfg.monitor_size, eps, opt_s)
    _, trace = grow(f, GrowthConfig(budget=cfg.budget, impurity=spec, stop_on_zero_gain=True))
    files = _write_trace(out, trace)
    checks = {"distance-nonincreasing": _nonincreasing(_distance_curve(trace))}
    if monitor is not None and is_monotone(f):
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


def _coordinate_from_spec(entry: dict, columns: dict[str, list[float]]) -> CoordinateDist:
    kind = entry.get("kind")
    if kind == "uniform01":
        return CoordinateDist.uniform01()
    if kind == "cdf_table":
        return CoordinateDist.from_table([tuple(p) for p in entry["points"]])
    if kind == "empirical":
        col = entry["column"]
        if col not in columns:
            raise ConfigError(f"distribution spec names unknown column {col!r}")
        return CoordinateDist.from_data(columns[col])
    raise ConfigError(f"unknown coordinate distribution kind {kind!r}")


def _load_real_sample(cfg: ExperimentConfig) -> tuple[RealSample, list[str]]:
    if not cfg.data:
        raise ConfigError("grow-real needs --data CSV")
    path = Path(cfg.data)
    if not path.exists():
        raise ConfigError(f"dataset not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty dataset") from None
        if "label" in header:
            label_idx = header.index("label")
        else:
            label_idx = len(header) - 1
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        points = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                x = tuple(float(v) for i, v in enumerate(row) if i != label_idx)
                label = int(row[label_idx])
            except ValueError as e:
                raise ConfigError(f"{path}:{lineno}: {e}") from None
            if label not in (0, 1):
                raise ConfigError(f"{path}:{lineno}: label must be 0 or 1")
            if not all(map(math.isfinite, x)):
                raise ConfigError(f"{path}:{lineno}: feature values must be finite")
            points.append((x, label))
    if not points:
        raise ConfigError(f"{path}: no data rows")
    sample = RealSample(tuple(points), provenance=str(path))
    if cfg.dist:
        dist_path = Path(cfg.dist)
        if not dist_path.exists():
            raise ConfigError(f"distribution spec not found: {dist_path}")
        with open(dist_path) as fh:
            entries = json.load(fh)
        if not isinstance(entries, list) or len(entries) != sample.n:
            raise ConfigError(
                f"distribution spec must list one entry per feature column ({sample.n})"
            )
        columns = {
            name: [p[0][i] for p in sample.points] for i, name in enumerate(feature_names)
        }
        d = ProductDistribution(
            tuple(_coordinate_from_spec(e, columns) for e in entries)
        )
        transformed = tuple((cdf_transform(d, x), label) for x, label in sample.points)
        sample = RealSample(transformed, provenance=f"{path} via {dist_path}")
    return sample, feature_names


def _run_grow_real(cfg: ExperimentConfig, out: Path):
    sample, feature_names = _load_real_sample(cfg)
    if cfg.impurity == "influence":
        raise ConfigError("real-valued growth needs an impurity rule")
    dtree, trace = grow_real(
        sample,
        GrowthConfig(budget=cfg.budget, impurity=builtin(cfg.impurity), stop_on_zero_gain=True),
        policy=cfg.thresholds,
    )
    files = _write_trace(out, trace)
    with open(out / "tree.json", "w") as fh:
        json.dump(treemod.to_json(dtree), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    with open(out / "witness.json", "w") as fh:
        json.dump(
            {"size_budget": cfg.size, "error": _dyadic(err), "tree": treemod.to_json(witness)},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
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
    t = PartialTree.empty()
    target = rng.randint(2, max(2, max_leaves))
    while treemod.size(t) < target:
        infos = [info for info in treemod.leaves(t) if len(info.path) < n]
        if not infos:
            break
        info = rng.choice(infos)
        used = {step.coord for step in info.path}
        coord = rng.choice([c for c in range(1, n + 1) if c not in used])
        t = treemod.split(t, info.leaf_id, coord)
    return label_leaves(t, [rng.randint(0, 1) for _ in range(treemod.size(t))])


def _run_jz_sweep(cfg: ExperimentConfig, out: Path):
    n = cfg.arity
    if n > 16:
        raise ConfigError("jz-sweep enumerates truth tables; keep arity <= 16")

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
    if n > oracle.OPT_MAX_ARITY:
        raise ConfigError(f"agnostic-sweep needs the exact oracle; arity <= {oracle.OPT_MAX_ARITY}")
    eps = _monitor_eps(cfg)
    names = tuple(cfg.impurities)
    for s in cfg.sizes:
        _check_monitor(s, eps)

    rows = []
    flags = []
    for i in range(cfg.trials):
        f = random_monotone(n, seed=_trial_seed(cfg, i))
        table = oracle.OptTable(f)  # one memo serves every size
        for s in cfg.sizes:
            opt_s = table.error(s)
            budget = _sweep_budget(s, n)
            errs = []
            monitor = Monitor(s, eps, opt_s)
            for name in names:
                spec = builtin(name)
                _, trace = grow(
                    f, GrowthConfig(budget=budget, impurity=spec, stop_on_zero_gain=True)
                )
                err = trace.final_distance()
                errs.append(err)
                report = verify_split_inequalities(trace, f, spec, monitor)
                flags.append(
                    (err <= opt_s + eps, report.passed, _nonincreasing(_distance_curve(trace)))
                )
            rows.append((i, s, opt_s, *errs))
    header = ("trial", "s", "opt_s", *(f"err_{name}" for name in names))
    _write_csv(out / "rows.csv", header, rows)
    summary = {
        "arity": n,
        "trials": cfg.trials,
        "sizes": list(cfg.sizes),
        "impurities": list(names),
        "epsilon": cfg.epsilon,
        "budgets": {str(s): _sweep_budget(s, n) for s in cfg.sizes},
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
    if cfg.k % 2 == 0:
        raise ConfigError("k must be odd (majority needs an odd vote count)")
    h = hardinstance.choose_params(cfg.ell, cfg.k)
    spec = _impurity_or_none(cfg.impurity)
    report, _, trace = hardinstance.lower_bound_experiment(
        h, spec, cfg.budget, mc_samples=cfg.samples, seed=cfg.seed, threshold=cfg.threshold
    )

    # one evaluation sample, its truths computed once, shared by every checkpoint
    points = hardinstance.random_points(h, cfg.samples, derived_rng(cfg.seed, "hard", "curve"))
    labeled = [(x, hardinstance._label(h.params, x)) for x in points]
    rows = [
        (size, *hardinstance.mc_check(h, tree_at(trace, size), labeled, report.xi_cutoff))
        for size in _hard_checkpoints(report.final_size)
    ]
    _write_csv(out / "rows.csv", ("size", "error_estimate", "error_ci", "xi_fraction"), rows)
    curve = _distance_curve(trace)
    _write_csv(out / "exact_curve.csv", ("size", "distance"), curve)

    summary = {
        "ell": report.ell,
        "k": report.k,
        "w": report.w,
        "m": report.m,
        "m_prime": report.m_prime,
        "p_full": _dyadic(h.params.p_full),
        "p_prime": _dyadic(h.params.p_prime),
        "p_rest": _dyadic(h.params.p_rest),
        "expectation": _dyadic(h.expectation),
        "rule": cfg.impurity,
        "budget": report.budget,
        "final_size": report.final_size,
        "final_distance": _dyadic(report.final_distance),
        "terms_distance": _dyadic(report.terms_distance),
        "mc_estimate": report.mc_estimate,
        "mc_halfwidth": report.mc_halfwidth,
        "threshold": report.threshold,
        "exact_above_threshold": report.exact_above_threshold,
        "xi_cutoff": report.xi_cutoff,
        "xi_fraction": report.xi_fraction,
        "stop_reason": report.stop_reason,
    }
    checks = {
        "curve-nonincreasing": _nonincreasing(curve),
        "mc-within-ci": abs(report.mc_estimate - float(report.final_distance))
        <= 4 * report.mc_halfwidth,
    }
    plot = _plot(out, "error_vs_size.csv", ("size", "error_estimate", "ci"), [r[:3] for r in rows])
    return summary, checks, ["rows.csv", "exact_curve.csv", plot]


def _run_realizable(cfg: ExperimentConfig, out: Path):
    n = cfg.arity
    _check_table_arity(n)
    budget = min(1 << n, cfg.budget)
    names = tuple(cfg.impurities)

    rows = []
    mismatches = 0
    for i in range(cfg.trials):
        teacher = random_monotone_tree(n, cfg.teacher_leaves, _trial_seed(cfg, i))
        f = treemod.to_boolfunc(teacher, n)
        _, inf_trace = grow(f, GrowthConfig(budget=budget, impurity=None, stop_on_zero_gain=True))
        for name in names:
            _, trace = grow(
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
        depth = treemod.depth(t)
        ratio = cfg.leaves * max(1, depth) / eps  # inf when it overflows
        w = math.ceil(math.log2(ratio)) + 2 if ratio < math.inf else math.inf
        if not 1 <= w <= realvalued.MAX_BITS:
            raise ConfigError(
                f"--epsilon {eps} gives a rounding grid of w = {w} bits for {cfg.leaves} "
                f"leaves at depth {depth}; w must be in 1..{realvalued.MAX_BITS}"
            )
        tr = round_thresholds(t, w)
        est, hw = estimate_dist(t, tr, d, cfg.samples, seed)
        rng = derived_rng(seed, "agreement")
        fails = 0
        for _ in range(agree_per_trial):
            x = d.sample(rng)
            bits = encode_point(x, w)
            if treemod.evaluate(tr, x) != booleanized_evaluate(tr, w, bits):
                fails += 1
        rows.append((i, depth, w, est, hw, fails))
    _write_csv(
        out / "rows.csv",
        ("trial", "depth", "w", "estimate", "halfwidth", "agreement_failures"),
        rows,
    )
    summary = {
        "arity": n,
        "trials": cfg.trials,
        "leaves": cfg.leaves,
        "epsilon": eps,
        "samples": cfg.samples,
        "agreement_inputs": agree_per_trial * cfg.trials,
        "max_estimate": max(r[3] for r in rows),
    }
    checks = {
        "round-dist-within-eps": all(r[3] <= eps / 2 + r[4] for r in rows),
        "s-construction-agreement": all(r[5] == 0 for r in rows),
    }
    return summary, checks, ["rows.csv"]


def _run_verify_impurity(cfg: ExperimentConfig, out: Path):
    names = BUILTIN_NAMES if cfg.impurity in ("all", "influence") else (cfg.impurity,)
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


COMMON_FLAGS = ("seed", "out")

SUBCOMMANDS = {
    "grow": Subcommand(
        _run_grow,
        "grow a tree for a boolean function",
        ("fn", "arity", "impurity", "budget", "monitor_size", "epsilon"),
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
    ),
    "jz-sweep": Subcommand(
        _run_jz_sweep,
        "two-function inequality over random pairs",
        ("arity", "trials", "leaves"),
    ),
    "agnostic-sweep": Subcommand(
        _run_agnostic_sweep,
        "greedy vs exact optimum on random monotone targets",
        ("arity", "trials", "sizes", "epsilon", "impurities"),
    ),
    "hard": Subcommand(
        _run_hard,
        "growth on the conjunctions-plus-majority instance",
        ("ell", "k", "impurity", "budget", "samples", "threshold"),
    ),
    "realizable": Subcommand(
        _run_realizable,
        "growth on random monotone tree targets",
        ("arity", "trials", "teacher_leaves", "target", "budget", "impurities"),
    ),
    "round-check": Subcommand(
        _run_round_check,
        "threshold rounding and bit-encoding agreement",
        ("arity", "trials", "leaves", "epsilon", "samples"),
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

    with open(out / "config.json", "w") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "summary.json", "w") as fh:
        json.dump(
            {
                "version": __version__,
                "kind": config.kind,
                "seed": config.seed,
                "summary": summary,
                "checks": checks,
                "files": sorted(files),
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return ResultBundle(out, summary, checks, [*files, "config.json", "summary.json"])


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v)


def _csv_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# flag parsers by ExperimentConfig annotation
_FLAG_TYPES = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _csv_ints,
    "tuple[str, ...]": _csv_names,
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
            flag = "--l" if name == "ell" else "--" + name.replace("_", "-")
            # an unset flag parses to None and leaves the config file's value
            p.add_argument(
                flag, dest=name, type=_FLAG_TYPES[types[name]], help=_FLAG_HELP.get(name)
            )
        p.add_argument("--config", help="JSON config file; flags override it")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    merged: dict = {"kind": args.kind, **dict(SUBCOMMANDS[args.kind].defaults)}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"bad config JSON: {e}") from None
        unknown = set(file_cfg) - fields
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            if key == "kind":
                continue
            merged[key] = tuple(val) if isinstance(val, list) else val
    for key, val in vars(args).items():
        if key in fields and val is not None:
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
