"""Acceptance gate: one test per shipped guarantee, run with `pytest -v`.

Each test prints a one-line summary of what it measured (visible with
`pytest -v -s`).

Criterion 8 checks the lower-bound separation at one small size: on an
OR-of-ANDs target with a majority attached, where every y outweighs every
x in influence, every builtin impurity splits on the y's first, and its
256-leaf tree errs by more than opt_s + 1/20 for s = 85, the size of a
tree on the prime terms alone.  It does not check the s^(log s) size
bound, and at the other criteria's eps of 1/10 greedy falls short.  At
ell=8, k=63 the instance is outside the regime: every x in a prime term
has root influence 75/256 against (63/256) C(62,31)/2^62 for each y, so
greedy resolves the terms and reaches error ~0.10 at budget 256, below
the terms tree's 63/512; tests/test_hardinstance.py keeps that analysis
as exact checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from topdowndt import boolfn as bf
from topdowndt import hardinstance as hi
from topdowndt import tree as treemod
from topdowndt.boolfn import BoolFunc, random_monotone
from topdowndt.grower import GrowthConfig, Monitor, grow, rule_agreement, verify_split_inequalities
from topdowndt.impurity import builtin, verify_strong_concavity
from topdowndt.oracle import OptTable, verify_jz
from topdowndt.realvalued import (
    RealSample,
    balanced_random_tree,
    booleanized_evaluate,
    disagreement,
    grow_real,
    round_thresholds,
)
from topdowndt.tree import random_monotone_tree, to_boolfunc

from reference import (
    correlation,
    depth as tree_depth,
    encode_point,
    enumerate_decision_trees,
    expectation,
    hard_expectation,
    hard_influence,
    hard_table,
    influence,
    path_assignment,
    point_of,
    terms_boolfunc,
    terms_tree,
    terms_tree_size,
    value_at,
)

BUILTIN_NAMES = ("gini", "entropy", "kearns-mansour")
EPS = Fraction(1, 10)
LB_EPS = Fraction(1, 20)  # criterion 8 only; see its docstring


def _sweep_budget(s: int, n: int) -> int:
    return min(1 << n, s ** math.ceil(math.log2(s)))


def _distance_at(trace, s: int) -> Fraction:
    """Distance of the completion when the tree first had s leaves (the final one past it)."""
    return trace.distances()[min(s, trace.final_size) - 1]


@pytest.fixture(scope="module")
def agnostic_sweep():
    """200 random monotone n=8 targets: oracle errors plus one full-budget
    grow per builtin impurity.  Shared by criteria 4 and 5."""
    trials = []
    for trial in range(200):
        f = random_monotone(8, seed=trial)
        table = OptTable(f)
        opts = {s: table.error(s) for s in (2, 4, 8)}
        traces = {}
        for name in BUILTIN_NAMES:
            _, traces[name] = grow(f, GrowthConfig(budget=256, impurity=builtin(name)))
        trials.append((f, opts, traces))
    return trials


def test_criterion_01_influence_equals_twice_correlation():
    t0 = time.time()
    checked = 0
    for n in (1, 2, 3, 4):
        for table in range(1 << (1 << n)):
            f = BoolFunc(n, table)
            if not bf.is_monotone(f):
                continue
            for i in range(1, n + 1):
                assert influence(f, None, i) == 2 * abs(correlation(f, None, i))
                checked += 1
    for n in (6, 8):
        for seed in range(500):
            f = random_monotone(n, seed=seed)
            for i in range(1, n + 1):
                assert influence(f, None, i) == 2 * abs(correlation(f, None, i))
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10
    print(f"criterion 1: {checked} exact identities (unate n<=4 exhaustive + 1000 random monotone), {elapsed:.1f}s")


def test_criterion_02_strong_concavity_constants():
    t0 = time.time()
    for name in BUILTIN_NAMES:
        report = verify_strong_concavity(builtin(name))
        assert report.passed, report
        assert report.min_slack >= -1e-12
    gini = verify_strong_concavity(builtin("gini"))
    assert abs(gini.min_slack) <= 1e-12
    assert abs(gini.max_slack) <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 1
    print(f"criterion 2: gini/entropy/km certified on the 0.01 grid, gini slack identically 0, {elapsed:.2f}s")


def test_criterion_03_robust_guarantee_zero_violations():
    t0 = time.time()
    trees = [g for g in enumerate_decision_trees(3, 4) if treemod.size(g) >= 2]
    exhaustive = 0
    for table in range(256):
        f = BoolFunc(3, table)
        for g in trees:
            assert verify_jz(f, g).passed, (table, treemod.to_json(g))
            exhaustive += 1
    rng = random.Random(20260817)
    for trial in range(10_000):
        n = rng.choice((4, 5, 6))
        f = BoolFunc(n, rng.getrandbits(1 << n))
        seed = trial
        g = random_monotone_tree(n, max_leaves=8, seed=seed)
        while treemod.size(g) < 2:
            seed += 100_000
            g = random_monotone_tree(n, max_leaves=8, seed=seed)
        assert verify_jz(f, g).passed, (trial, n, seed)
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"criterion 3: {exhaustive} exhaustive pairs + 10000 random pairs, zero violations, {elapsed:.1f}s")


def test_criterion_04_per_split_inequalities(agnostic_sweep):
    t0 = time.time()
    reports = 0
    for f, opts, traces in agnostic_sweep:
        for name in BUILTIN_NAMES:
            spec = builtin(name)
            for s in (2, 4, 8):
                monitor = Monitor(s, EPS, opts[s])
                report = verify_split_inequalities(traces[name], f, spec, monitor=monitor)
                assert report.passed, (name, s, report)
                reports += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"criterion 4: {reports} monitored traces, every gain bound and per-step claim holds, {elapsed:.1f}s")


def test_criterion_05_agnostic_guarantee_shape(agnostic_sweep):
    t0 = time.time()
    for f, opts, traces in agnostic_sweep:
        for name in BUILTIN_NAMES:
            trace = traces[name]
            dists = trace.distances()
            assert all(b <= a for a, b in zip(dists, dists[1:]))
            for s in (2, 4, 8):
                assert _distance_at(trace, _sweep_budget(s, 8)) <= opts[s] + EPS
                assert _distance_at(trace, s) >= opts[s]
    elapsed = time.time() - t0
    print(f"criterion 5: 200 trials x 3 impurities within 0.1 of the oracle at the sweep budget, {elapsed:.1f}s")


def test_agnostic_sweep_oracle_values_pinned(agnostic_sweep):
    """The 600 oracle errors behind criteria 4 and 5, pinned by sha256."""
    h = hashlib.sha256()
    for trial, (_, opts, _) in enumerate(agnostic_sweep):
        for s in (2, 4, 8):
            h.update(f"{trial} {s} {opts[s]}\n".encode())
    assert h.hexdigest() == "241ad12df942af5e2ce2097ddbde51fdc51a342ecbfae6b93f4ee2423a388f6c"


def test_criterion_06_realizable_targets():
    t0 = time.time()
    worst_size = 0
    for trial in range(100):
        teacher = random_monotone_tree(10, max_leaves=16, seed=trial)
        f = to_boolfunc(teacher, 10)
        _, trace_inf = grow(f, GrowthConfig(budget=1 << 16))
        for name in BUILTIN_NAMES:
            _, trace = grow(f, GrowthConfig(budget=1 << 16, impurity=builtin(name)))
            hits = [s for s, d in enumerate(trace.distances(), start=1) if d <= Fraction(1, 20)]
            assert hits, (trial, name)
            worst_size = max(worst_size, hits[0])
            common, mismatches = rule_agreement(trace, trace_inf)
            assert not mismatches, (trial, name, mismatches)
            assert common > 0
    elapsed = time.time() - t0
    assert elapsed < 600
    print(f"criterion 6: 100 teachers reach error <= 0.05 (worst at size {worst_size}), rules agree at every common leaf, {elapsed:.1f}s")


def test_criterion_07_hard_instance_identities():
    t0 = time.time()
    params = hi.tribes_params(8)
    assert params.p_full == Fraction(175, 256)
    assert params.p_prime == Fraction(7, 16)
    assert params.p_rest == Fraction(63, 256)
    h_big = hi.choose_params(8, 15)
    assert h_big.distance_to_terms == params.p_rest / 2

    # closed forms vs brute force wherever the truth table fits in memory
    for ell, k in ((8, 3), (4, 9), (6, 7)):
        h = hi.choose_params(ell, k)
        F = hard_table(h)
        n = h.arity
        assert h.expectation == expectation(F)
        for i in range(1, n + 1):
            assert hard_influence(h, None, i) == influence(F, None, i)
        cursor = h.root_cursor()
        for c, _, _, _, pairs in cursor.candidates():
            assert Fraction(2 * pairs, cursor.size) == influence(F, None, c)
        T = terms_boolfunc(h)
        mismatches = sum(
            1
            for idx in range(1 << n)
            if value_at(F, point_of(idx, n)) != value_at(T, point_of(idx, n))
        )
        assert Fraction(mismatches, 1 << n) == h.distance_to_terms == h.params.p_rest / 2

    # 1000 random restrictions on a table-sized instance: zero mismatches
    rng = random.Random(7)
    h_small = hi.choose_params(8, 3)
    F_small = hard_table(h_small)
    n_small = h_small.arity
    for _ in range(1000):
        fixed_count = rng.randrange(0, n_small + 1)
        coords = rng.sample(range(1, n_small + 1), fixed_count)
        fixed = {c: rng.choice((-1, 1)) for c in sorted(coords)}
        assert hard_expectation(h_small, fixed) == expectation(F_small, fixed)

    # the 23-coordinate instance: restrict enough to enumerate, then compare
    n_big = h_big.arity
    for trial in range(50):
        rng2 = random.Random(1000 + trial)
        fixed_count = rng2.randrange(9, 13)
        coords = sorted(rng2.sample(range(1, n_big + 1), fixed_count))
        fixed = tuple((c, rng2.choice((-1, 1))) for c in coords)
        free = [c for c in range(1, n_big + 1) if c not in dict(fixed)]
        ones = 0
        for bits in itertools.product((-1, 1), repeat=len(free)):
            x = [0] * n_big
            for c, v in fixed:
                x[c - 1] = v
            for c, v in zip(free, bits):
                x[c - 1] = v
            ones += hi.evaluate(h_big, tuple(x))
        want = Fraction(ones, 1 << len(free))
        assert hard_expectation(h_big, dict(fixed)) == want, (trial, fixed)
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"criterion 7: closed forms match enumeration exactly (3 full tables, 1050 restrictions), {elapsed:.1f}s")


def _y_first(h: hi.HardInstance) -> bool:
    """Whether every free y outweighs every x in influence on each subcube
    that fixes at most xi_cutoff(k) y's and no x.

    f is monotone, so a split on i leaves children with means E +- Inf_i/2,
    and every strictly concave impurity gains most on the most influential
    free coordinate.  When this holds, greedy reads more than xi_cutoff(k)
    y's on every path before it reads an x.  Free y's are exchangeable, so
    one stands for all.
    """
    ys = list(h.y_coords())
    for j in range(hi.xi_cutoff(h.k) + 1):
        for vals in itertools.product((1, -1), repeat=j):
            r = dict(zip(ys[:j], vals))
            y_inf = hard_influence(h, r, ys[j])
            if any(hard_influence(h, r, i) >= y_inf for i in range(1, h.params.ell + 1)):
                return False
    return True


def test_criterion_08_lower_bound_separation():
    """Lured by the majority, greedy's tree stays above opt_s + eps for an s below its budget.

    The terms layout T is the program's own at the least ell in the regime
    for k=63 (ell=44: 11 terms of width 4).  Two parameters differ from
    choose_params, which puts 10 of the 11 terms in T' and leaves the y
    block 3% of the mass, too little for any y to outweigh an x:
      * m' is the largest prime block whose chain tree T' fits the budget,
        so a tree inside the budget is known to reach
        dist(f, T') = Pr[T and not T'] / 2 = dist(f, T);
      * k is the largest odd k <= 63 at which greedy must read more than
        xi_cutoff(k) y's on every path before an x (_y_first).
    With s = size(T'), opt_s <= dist(f, T'), so every impurity's budget
    tree must err by more than opt_s + LB_EPS, and no path may query an x
    early (xi_fraction 0).  This is the separation's shape at one small
    size, not its s^(log s) size bound: the budget is about three times s.
    LB_EPS is 1/20, half of EPS: at EPS itself greedy's margin over T'
    (0.080 to 0.100 at budget 256) falls short.
    """
    t0 = time.time()
    k0, budget = 63, 256
    ell = next(ell for ell in itertools.count(2) if hi.choose_params(ell, k0).shape_satisfied)
    layout = hi.choose_params(ell, k0).params
    m_prime = max(
        j for j in range(1, layout.m) if terms_tree_size(dataclasses.replace(layout, m=j)) <= budget
    )
    params = dataclasses.replace(
        layout, m_prime=m_prime, p_prime=1 - (1 - Fraction(1, 1 << layout.w)) ** m_prime
    )
    k = next(k for k in range(k0, 0, -2) if _y_first(hi.HardInstance(params, k)))
    h = hi.HardInstance(params, k)
    assert h.shape_satisfied

    # T' inside the budget, its error exact from the closed forms
    t_prime = terms_tree(dataclasses.replace(params, m=m_prime))
    assert treemod.size(t_prime) <= budget
    ref = sum(
        Fraction(1, 1 << info.depth) * abs(info.node.label - hard_expectation(h, path_assignment(info)))
        for info in treemod.leaves(t_prime)
    )
    assert ref == h.distance_to_terms
    floor = ref + LB_EPS

    results = {}
    for name in BUILTIN_NAMES:
        _, trace, (mc_estimate, mc_halfwidth, xi_fraction) = hi.lower_bound_experiment(
            h, builtin(name), budget=budget, mc_samples=20_000, seed=11
        )
        exact = trace.final_distance()
        results[name] = exact, mc_estimate, mc_halfwidth
        assert abs(mc_estimate - float(exact)) <= 4 * mc_halfwidth
        assert xi_fraction == 0.0, f"{name}: {xi_fraction:.4f} of paths query an x early"
    elapsed = time.time() - t0
    assert elapsed < 600
    lines = ", ".join(
        f"{name}: {est:.4f}+-{hw:.4f} (exact {float(exact):.4f})"
        for name, (exact, est, hw) in results.items()
    )
    print(
        f"criterion 8: ell={ell}, m'={m_prime}, k={k}, budget-{budget} error estimates {lines}, "
        f"T' ({treemod.size(t_prime)} leaves) at {float(ref):.4f}, floor {float(floor):.4f}, {elapsed:.0f}s"
    )
    for name, (exact, est, hw) in results.items():
        assert exact > floor, (
            f"{name}: exact error {float(exact):.4f} is not above "
            f"dist(f, T') + eps = {float(floor):.4f}"
        )
        assert est - hw > float(floor), (
            f"{name}: estimate {est:.4f}+-{hw:.4f} is not above "
            f"dist(f, T') + eps = {float(floor):.4f} at 99% confidence"
        )


def test_criterion_09_rounding_and_encoding():
    t0 = time.time()
    rng = random.Random(31)
    disagreements = 0
    for trial in range(100):
        t = balanced_random_tree(8, 64, seed=trial)
        depth = tree_depth(t)
        assert depth <= 12
        w = math.ceil(math.log2(64 * depth / 0.1)) + 2
        t_round = round_thresholds(t, w)
        distance = disagreement(t, t_round)
        assert distance <= Fraction(1, 20), (trial, distance)
        for _ in range(100):
            x = tuple(rng.random() for _ in range(8))
            if booleanized_evaluate(t_round, w, encode_point(x, w)) != treemod.evaluate(t_round, x):
                disagreements += 1
    assert disagreements == 0
    elapsed = time.time() - t0
    assert elapsed < 300
    print(f"criterion 9: 100 rounded trees within exact distance 0.05, 10000 encoded evaluations with zero disagreements, {elapsed:.1f}s")


def test_criterion_10_binary_consistency_of_grow_real():
    t0 = time.time()
    f = random_monotone(8, seed=42)
    points = []
    for idx in range(256):
        x = point_of(idx, 8)
        points.append((tuple((b + 1) / 2 for b in x), value_at(f, x)))
    cfg = GrowthConfig(budget=256, impurity=builtin("gini"))
    _, trace_real = grow_real(RealSample(tuple(points)), cfg)
    _, trace_bool = grow(f, cfg)
    real_cols = [(s.leaf_id, s.coord) for s in trace_real.steps]
    bool_cols = [(s.leaf_id, s.coord) for s in trace_bool.steps]
    assert real_cols == bool_cols
    assert [s.distance for s in trace_real.steps] == [s.distance for s in trace_bool.steps]
    assert all(s.theta == 0.5 for s in trace_real.steps)
    elapsed = time.time() - t0
    assert elapsed < 60
    print(f"criterion 10: {len(real_cols)} identical split decisions on {{0,1}} data, {elapsed:.1f}s")
