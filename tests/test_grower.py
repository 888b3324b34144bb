import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topdowndt import cli
from topdowndt import tree as treemod
from topdowndt.boolfn import BoolFunc, derived_rng, random_monotone
from topdowndt.grower import (
    GAIN_TOL,
    GrowthConfig,
    GrowthTrace,
    Monitor,
    TraceStep,
    _greedy,
    _LeafState,
    _root_cursor,
    grow,
    rule_agreement,
    verify_split_inequalities,
)
from topdowndt.hardinstance import choose_params
from topdowndt.impurity import BUILTIN_NAMES, builtin

from reference import conjunction, g_impurity, influence_potential, majority, parity, with_tree

GINI = builtin("gini")
DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def run():
    return grow(conjunction(2), GrowthConfig(budget=3, impurity=GINI))


class TestAnd2GiniTrace:
    """Fully hand-checked run: f = x1 AND x2, gini, budget 3."""

    def test_initial_potentials(self, run):
        trace = run
        assert trace.initial_expectation == Fraction(1, 4)
        assert trace.initial_g_impurity == pytest.approx(0.75, abs=1e-12)
        assert trace.initial_u_f == 1  # both coords have influence 1/2
        assert trace.initial_distance == Fraction(1, 4)

    def test_split_sequence(self, run):
        trace = run
        assert [(s.leaf_id, s.coord) for s in trace.steps] == [(0, 1), (0, 2)]
        assert trace.steps[0].gain == pytest.approx(0.25, abs=1e-12)
        assert trace.steps[1].gain == pytest.approx(0.5, abs=1e-12)

    def test_potential_telescopes(self, run):
        trace = run
        assert trace.steps[0].g_impurity == pytest.approx(0.5, abs=1e-12)
        assert trace.steps[1].g_impurity == pytest.approx(0.0, abs=1e-12)

    def test_distance_sequence(self, run):
        trace = run
        assert [s.distance for s in trace.steps] == [Fraction(1, 4), Fraction(0)]
        assert trace.final_distance() == 0
        assert trace.stop_reason == "budget"

    def test_completion_is_exact(self, run):
        t, _ = with_tree(run)
        f = conjunction(2)
        assert treemod.distance(t, f) == 0
        assert treemod.size(t) == 3


class TestInfluenceRule:
    def test_same_splits_as_gini_on_and2(self):
        f = conjunction(2)
        trace_g = grow(f, GrowthConfig(budget=3, impurity=GINI))
        trace_i = grow(f, GrowthConfig(budget=3, impurity=None))
        assert trace_i.mode == "influence"
        common, mismatches = rule_agreement(trace_g, trace_i)
        assert common == 2
        assert mismatches == []

    def test_gain_column_is_weighted_influence(self):
        trace = grow(conjunction(2), GrowthConfig(budget=3, impurity=None))
        # root: Inf_1 = 1/2 at depth 0; then the hi leaf: Inf_2 = 1 at depth 1
        assert trace.steps[0].gain == pytest.approx(0.5, abs=1e-15)
        assert trace.steps[1].gain == pytest.approx(0.5, abs=1e-15)
        assert trace.initial_u_f == 1
        assert trace.steps[-1].u_f == 0


class TestStops:
    def test_budget_stop(self):
        trace = grow(majority(3), GrowthConfig(budget=2, impurity=GINI))
        assert len(trace.steps) == 1
        assert trace.stop_reason == "budget"

    def test_budget_one_grows_nothing(self):
        t, trace = with_tree(grow(majority(3), GrowthConfig(budget=1, impurity=GINI)))
        assert treemod.size(t) == 1
        assert trace.steps == []
        # E = 1/2 ties toward label 1
        assert treemod.distance(t, majority(3)) == Fraction(1, 2)

    def test_zero_gain_stop_on_parity(self):
        # any single split of parity leaves both children at expectation 1/2
        cfg = GrowthConfig(budget=4, impurity=GINI, stop_on_zero_gain=True)
        t, trace = with_tree(grow(parity(2), cfg))
        assert treemod.size(t) == 1
        assert trace.stop_reason == "zero-gain"

    def test_without_zero_gain_stop_parity_is_solved(self):
        # the full parity tree has 4 leaves; budget 6 leaves slack to observe
        # the stop on pure leaves rather than on the budget
        t, trace = with_tree(grow(parity(2), GrowthConfig(budget=6, impurity=GINI)))
        assert trace.stop_reason == "no-candidates"
        assert treemod.size(t) == 4
        assert treemod.distance(t, parity(2)) == 0

    def test_no_candidates_when_all_leaves_pure(self):
        trace = grow(conjunction(2), GrowthConfig(budget=16, impurity=GINI))
        assert trace.final_size == 3
        assert trace.stop_reason == "no-candidates"


class TestPotentialFunctions:
    def test_on_empty_tree(self):
        f = conjunction(2)
        empty = treemod.PartialTree(treemod.Leaf())
        assert g_impurity(empty, f, GINI) == pytest.approx(0.75, abs=1e-12)
        assert influence_potential(empty, f) == 1

    def test_after_manual_split(self):
        f = conjunction(2)
        t = treemod.split(treemod.PartialTree(treemod.Leaf()), 0, 1)
        assert g_impurity(t, f, GINI) == pytest.approx(0.5, abs=1e-12)
        assert influence_potential(t, f) == Fraction(1, 2)

    def test_trace_initials_match(self):
        f = random_monotone(5, seed=7)
        trace = grow(f, GrowthConfig(budget=4, impurity=GINI))
        empty = treemod.PartialTree(treemod.Leaf())
        assert trace.initial_g_impurity == pytest.approx(g_impurity(empty, f, GINI))
        assert trace.initial_u_f == influence_potential(empty, f)


class TestDistanceAtSize:
    def test_anchors_on_and2(self):
        trace = grow(conjunction(2), GrowthConfig(budget=3, impurity=GINI))
        assert trace.distances() == [Fraction(1, 4), Fraction(1, 4), 0]

    @given(seed=st.integers(0, 200))
    def test_distance_never_increases(self, seed):
        f = random_monotone(4, seed=seed)
        trace = grow(f, GrowthConfig(budget=10, impurity=GINI))
        curve = [trace.initial_distance] + [s.distance for s in trace.steps]
        assert all(a >= b for a, b in zip(curve, curve[1:]))


class TestSplitInequalities:
    def test_monitored_run_passes(self):
        f = majority(3)
        mon = Monitor(s=2, eps=Fraction(1, 10), opt_s=Fraction(1, 4))
        trace = grow(f, GrowthConfig(budget=4, impurity=GINI))
        report = verify_split_inequalities(trace, f, GINI, monitor=mon)
        assert report.passed
        # initial distance 1/2 exceeds opt_2 + eps = 7/20, so step 1 is monitored
        assert report.monitored_count == 1
        first = report.checks[0]
        assert first.monitored
        assert first.score_bound == pytest.approx(2 * 0.01 / 32, abs=1e-15)
        assert first.gain == pytest.approx(0.25, abs=1e-12)

    def test_gain_beats_claim3_bound_everywhere(self):
        f = random_monotone(6, seed=11)
        mon = Monitor(s=4, eps=Fraction(1, 10), opt_s=Fraction(0))
        trace = grow(f, GrowthConfig(budget=12, impurity=GINI))
        report = verify_split_inequalities(trace, f, GINI, monitor=mon)
        assert report.passed
        for check in report.checks:
            assert check.gain >= check.claim3_bound - 1e-9

    def test_first_failure_names_the_edited_step(self):
        f = random_monotone(6, seed=11)
        mon = Monitor(s=4, eps=Fraction(1, 10), opt_s=Fraction(0))
        trace = grow(f, GrowthConfig(budget=12, impurity=GINI))
        assert verify_split_inequalities(trace, f, GINI, monitor=mon).first_failure is None
        # edit the gains of steps 5 and 8 down to 0: step 5 is the first to fail
        for i in (4, 7):
            trace.steps[i] = replace(trace.steps[i], gain=0.0)
        report = verify_split_inequalities(trace, f, GINI, monitor=mon)
        first = report.first_failure
        assert not report.passed
        assert first == report.checks[4] and first.iteration == 5
        # a zero gain is below claim 3's bound, and below the score bound if monitored
        assert first.gain == 0.0 and first.claim3_bound > 0 and not first.claim3_ok
        assert first.score_ok is not first.monitored
        assert [c.iteration for c in report.checks if not c.ok] == [5, 8]

    def test_first_failure_names_claim1_then_initial_claim2(self):
        f = random_monotone(6, seed=11)
        mon = Monitor(s=4, eps=Fraction(1, 10), opt_s=Fraction(0))
        trace = grow(f, GrowthConfig(budget=12, impurity=GINI))
        trace.steps[2] = replace(trace.steps[2], gain=0.0)
        # G-impurity 0 at the root is not G(E[f]) (claim 1) and is below the distance
        trace.initial_g_impurity = 0.0
        report = verify_split_inequalities(trace, f, GINI, monitor=mon)
        assert report.first_failure == "claim1"
        report.claim1_ok = True
        assert report.first_failure == "initial-claim2"
        report.initial_claim2_ok = True
        assert report.first_failure.iteration == 3

    def test_refuses_non_monotone_target(self):
        f = parity(3)
        trace = grow(f, GrowthConfig(budget=4, impurity=GINI))
        mon = Monitor(s=2, eps=Fraction(1, 10), opt_s=Fraction(0))
        with pytest.raises(ValueError, match="monotone"):
            verify_split_inequalities(trace, f, GINI, monitor=mon)

    def test_refuses_targets_other_than_truth_tables(self):
        h = choose_params(4, 3)  # monotone, but opt_s needs a truth table
        trace = grow(h, GrowthConfig(budget=4, impurity=GINI))
        mon = Monitor(s=2, eps=Fraction(1, 10), opt_s=Fraction(0))
        for f in (None, h):
            with pytest.raises(ValueError, match="monotone"):
                verify_split_inequalities(trace, f, GINI, monitor=mon)

    def test_refuses_influence_trace(self):
        f = conjunction(2)
        trace = grow(f, GrowthConfig(budget=3, impurity=None))
        with pytest.raises(ValueError, match="impurity-rule"):
            verify_split_inequalities(trace, f, GINI, monitor=Monitor(2, Fraction(1, 10), 0))


class TestArgmaxAgreement:
    def test_rule_agreement_with_itself(self):
        f = random_monotone(5, seed=9)
        trace = grow(f, GrowthConfig(budget=8, impurity=GINI))
        common, mismatches = rule_agreement(trace, trace)
        assert common == len(trace.steps)
        assert mismatches == []


class TestTraceCsv:
    def test_structure(self, tmp_path):
        trace = grow(conjunction(2), GrowthConfig(budget=3, impurity=GINI))
        cli._write_trace(tmp_path, trace)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "iter,leaf_id,coord,theta,gain,g_impurity,u_f,distance"
        assert len(lines) == 2 + len(trace.steps)
        iter0 = lines[1].split(",")
        assert iter0[0] == "0"
        assert iter0[1] == iter0[2] == ""  # no split on the initial row
        assert iter0[7] == "1/4"

    def test_matches_golden_file(self, tmp_path):
        f = random_monotone(6, seed=3)
        trace = grow(f, GrowthConfig(budget=8, impurity=GINI))
        cli._write_trace(tmp_path, trace)
        golden = DATA / "trace_n6_seed3_gini.csv"
        assert (tmp_path / "trace.csv").read_text() == golden.read_text()


# ---------------------------------------------------------------------------
# the indexed leader pick against the preorder scan it replaced
# ---------------------------------------------------------------------------


def _linear_greedy(root, cfg, mode):
    """The greedy loop as it was before the score index: every step scans
    all open leaves in preorder.  Returns the trace only."""
    scale = root.scale
    g_imp, u_num, err = root.g_term, root.u_term, root.err
    trace = GrowthTrace(
        mode=mode,
        initial_expectation=root.expectation,
        initial_g_impurity=g_imp,
        initial_u_f=None if u_num is None else Fraction(u_num, scale),
        initial_distance=Fraction(err, scale),
        labels=[root.label],
    )
    tol = 0 if mode == "influence" else GAIN_TOL
    states = [root]
    nodes = [0]  # the node ids, in preorder, beside states
    steps = trace.steps

    while 1 + len(steps) < cfg.budget:
        best_idx = -1
        bar = -math.inf
        for idx, leaf in enumerate(states):
            if leaf.active and leaf.score > bar:
                bar = leaf.score + tol
                best_idx = idx
        if best_idx < 0:
            trace.stop_reason = "no-candidates"
            break
        leaf = states[best_idx]
        if cfg.stop_on_zero_gain and leaf.best_gain <= GAIN_TOL:
            trace.stop_reason = "zero-gain"
            break

        hi, lo = leaf.children()
        err += hi.err + lo.err - leaf.err
        if u_num is not None:
            u_num += hi.u_term + lo.u_term - leaf.u_term
        if g_imp is not None:
            g_imp = g_imp - leaf.best_gain
        states[best_idx : best_idx + 1] = [hi, lo]
        i = len(steps) + 1
        node = nodes[best_idx]
        nodes[best_idx : best_idx + 1] = [2 * i - 1, 2 * i]
        trace.labels += hi.label, lo.label

        steps.append(
            TraceStep(
                iteration=i,
                leaf_id=best_idx,
                node=node,
                coord=leaf.best_coord,
                theta=leaf.best_theta,
                gain=leaf.best_gain,
                g_impurity=g_imp,
                u_f=None if u_num is None else Fraction(u_num, scale),
                distance=Fraction(err, scale),
                inf_split=leaf.inf_split,
                median_split=leaf.best_median,
            )
        )
    return trace


class _PoolLeaf:
    """A synthetic leaf state: its path fixes its score, drawn from a small
    pool, and whether it is active, so both loops see the same leaves."""

    best_theta = best_median = inf_split = g_term = u_term = None
    expectation = Fraction(1, 2)
    label = 0
    scale = 1 << 40  # deeper than any budget below

    def __init__(self, pool, seed, path=()):
        self.pool, self.seed, self.path = pool, seed, path
        rng = random.Random(f"{seed}:{path}")
        self.score = rng.choice(pool)
        self.active = rng.random() < 0.8
        self.best_gain = float(self.score)
        self.best_coord = len(path) + 1
        self.err = rng.randrange(4) << (40 - len(path))  # randrange(4) / 2^depth

    def children(self):
        return tuple(_PoolLeaf(self.pool, self.seed, self.path + (b,)) for b in (1, 0))


# near-ties: steps of 0.4 GAIN_TOL around a few values, some pairs inside the
# tolerance, some outside; exact ties come from drawing one value twice
_FLOAT_SCORES = st.one_of(
    st.builds(
        lambda base, k: base + k * 0.4 * GAIN_TOL,
        st.sampled_from((0.0, 0.25, 1.0)),
        st.integers(-4, 4),
    ),
    st.sampled_from((-math.inf, math.nan)),
)
_FRACTION_SCORES = st.one_of(
    st.builds(Fraction, st.integers(0, 4), st.sampled_from((1, 2, 16))),
    st.just(-math.inf),
)


@settings(max_examples=300, deadline=None)
@given(
    scores=st.sampled_from((_FLOAT_SCORES, _FRACTION_SCORES)).flatmap(
        lambda s: st.lists(s, min_size=1, max_size=5)
    ),
    seed=st.integers(0, 2**16),
    mode=st.sampled_from(("impurity", "influence")),
    budget=st.integers(1, 40),
    stop=st.booleans(),
)
def test_indexed_pick_matches_scan_on_synthetic_leaves(scores, seed, mode, budget, stop):
    cfg = GrowthConfig(budget=budget, stop_on_zero_gain=stop)
    trace = _greedy(_PoolLeaf(scores, seed), cfg, mode)
    assert trace == _linear_greedy(_PoolLeaf(scores, seed), cfg, mode)


def _spec(rule):
    return None if rule == "influence" else builtin(rule)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("table", "monotone", "hard")),
    size=st.sampled_from((3, 5, 7)),
    seed=st.integers(0, 2**16),
    rule=st.sampled_from(BUILTIN_NAMES + ("influence",)),
    k=st.sampled_from((1, 3, 5, 63)),
    budget=st.sampled_from((2, 5, 16, 48, 128)),
    stop=st.booleans(),
)
def test_indexed_pick_matches_scan_on_growth(kind, size, seed, rule, k, budget, stop):
    if kind == "hard":
        f = choose_params(size, k)
    elif kind == "table":
        f = BoolFunc(size, derived_rng(seed, "indexed-pick").getrandbits(1 << size))
    else:
        f = random_monotone(size, seed)
    cfg = GrowthConfig(budget=budget, impurity=_spec(rule), stop_on_zero_gain=stop)
    trace = grow(f, cfg)
    assert trace == _linear_greedy(_LeafState(_root_cursor(f), 0, cfg.impurity), cfg, cfg.rule)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("table", "hard")),
    size=st.integers(1, 8),
    k=st.sampled_from((1, 3, 5)),
    seed=st.integers(0, 2**16),
    rule=st.sampled_from(BUILTIN_NAMES + ("influence",)),
    stop=st.booleans(),
    budgets=st.tuples(st.integers(1, 80), st.integers(1, 80)).map(sorted),
)
def test_smaller_budget_trace_is_a_prefix(kind, size, k, seed, rule, stop, budgets):
    if kind == "hard":
        f = choose_params(max(2, size), k)
    else:
        f = BoolFunc(size, derived_rng(seed, "prefix").getrandbits(1 << size))
    small_b, big_b = budgets
    small = grow(f, GrowthConfig(budget=small_b, impurity=_spec(rule), stop_on_zero_gain=stop))
    big = grow(f, GrowthConfig(budget=big_b, impurity=_spec(rule), stop_on_zero_gain=stop))
    assert small.steps == big.steps[: small_b - 1]
    # each node's label is fixed when it is made, so the labels are a prefix too
    assert small.labels == big.labels[: 2 * small.final_size - 1]
    bare = dict(steps=[], labels=[], stop_reason="")
    assert replace(small, **bare) == replace(big, **bare)
    assert small.stop_reason == ("budget" if big.final_size >= small_b else big.stop_reason)
