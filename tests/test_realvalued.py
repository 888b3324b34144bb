import bisect
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import random_monotone
from topdowndt.grower import GAIN_TOL, GrowthConfig, _greedy, grow
from topdowndt.impurity import builtin, from_table
from topdowndt.impurity import evaluate as impurity_evaluate
from topdowndt.realvalued import (
    MAX_BITS,
    CoordinateDist,
    ProductDistribution,
    RealSample,
    balanced_random_tree,
    booleanize,
    booleanized_evaluate,
    cdf_transform,
    encode,
    encode_int,
    encode_point,
    estimate_dist,
    grow_real,
    parse_policy,
    round_thresholds,
    sample_teacher,
)
from topdowndt.tree import DecisionTree, Internal, Leaf

GINI = builtin("gini")


class TestEncoder:
    def test_anchors(self):
        assert encode(0.3, 3) == (-1, 1, -1)  # floor(0.3 * 8) = 2
        assert encode(0.0, 3) == (-1, -1, -1)
        assert encode(0.999, 3) == (1, 1, 1)
        assert encode(1.0, 3) == (1, 1, 1)  # clamped to the top cell
        assert encode_int(0.5, 1) == 1

    def test_point_concatenation(self):
        assert encode_point((0.3, 0.8), 2) == (-1, 1, 1, 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            encode(-0.1, 3)
        with pytest.raises(ValueError):
            encode(1.1, 3)

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            encode(0.5, 0)
        with pytest.raises(ValueError):
            encode(0.5, MAX_BITS + 1)
        assert len(encode(0.5, MAX_BITS)) == MAX_BITS

    @given(x=st.floats(0, 1, allow_nan=False), w=st.integers(1, 12))
    def test_encoding_only_sees_the_cell(self, x, w):
        # x and the left edge of its cell encode identically
        cell_edge = encode_int(x, w) / (1 << w)
        assert encode(x, w) == encode(cell_edge, w)


class TestRoundThresholds:
    def test_anchors(self):
        t = DecisionTree(Internal(1, 0.37, Leaf(1), Leaf(0)))
        assert round_thresholds(t, 3).root.theta == 0.375
        assert round_thresholds(t, 1).root.theta == 0.5

    def test_ties_round_to_even(self):
        t = DecisionTree(Internal(1, 0.0625, Leaf(1), Leaf(0)))
        assert round_thresholds(t, 3).root.theta == 0.0  # 0.5 -> 0
        t = DecisionTree(Internal(1, 0.1875, Leaf(1), Leaf(0)))
        assert round_thresholds(t, 3).root.theta == 0.25  # 1.5 -> 2

    def test_grid_points_unchanged(self):
        t = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        assert round_thresholds(t, 4).root.theta == 0.5

    def test_structure_and_labels_preserved(self):
        t = DecisionTree(
            Internal(1, 0.3, Internal(2, 0.71, Leaf(1), Leaf(0)), Leaf(1))
        )
        r = round_thresholds(t, 2)
        assert isinstance(r, DecisionTree)
        assert treemod.size(r) == 3
        assert [info.node.label for info in treemod.leaves(r)] == [1, 0, 1]
        assert r.root.hi.theta == 0.75


class TestCoordinateDist:
    def test_uniform01(self):
        d = CoordinateDist.uniform01()
        assert d.cdf(0.25) == Fraction(1, 4)  # dyadic floats stay exact
        assert d.cdf(Fraction(3, 10)) == Fraction(3, 10)
        assert d.cdf(-1) == 0 and d.cdf(2) == 1
        assert d.quantile(0.25) == 0.25
        assert d.strictly_increasing

    def test_cdf_table(self):
        d = CoordinateDist.from_table([(0, 0), (0.5, 0.25), (1, 1)])
        assert d.cdf(0.5) == Fraction(1, 4)
        assert d.cdf(0.25) == Fraction(1, 8)
        assert d.cdf(0.75) == Fraction(5, 8)
        assert d.quantile(0.25) == 0.5
        assert d.quantile(0.125) == 0.25
        assert d.strictly_increasing

    def test_empirical(self):
        d = CoordinateDist.from_data([3.0, 1.0, 2.0])  # sorted internally
        assert d.cdf(2.0) == Fraction(2, 3)
        assert d.cdf(0.5) == 0
        assert d.cdf(3.0) == 1
        assert d.quantile(0.5) == 2.0
        assert d.quantile(0.0) == 1.0
        assert d.quantile(1.0) == 3.0
        assert not d.strictly_increasing

    def test_flat_table_not_invertible(self):
        d = CoordinateDist.from_table([(0, 0), (0.4, 0.5), (0.6, 0.5), (1, 1)])
        assert not d.strictly_increasing

    def test_validation(self):
        with pytest.raises(ValueError):
            CoordinateDist("cdf_table", knots=((Fraction(0), Fraction(0)),))
        with pytest.raises(ValueError):
            CoordinateDist.from_table([(0, 0), (0.5, 0.8), (1, 0.9)])  # F != 1
        with pytest.raises(ValueError):
            CoordinateDist.from_table([(0, 0), (0.6, 0.7), (0.5, 1)])  # unsorted
        with pytest.raises(ValueError):
            CoordinateDist.from_data([])
        with pytest.raises(ValueError):
            CoordinateDist("gaussian")
        with pytest.raises(ValueError):
            CoordinateDist.uniform01().quantile(1.5)

    def test_product_needs_coords(self):
        with pytest.raises(ValueError):
            ProductDistribution(())

    def test_cdf_transform(self):
        d = ProductDistribution(
            (CoordinateDist.uniform01(), CoordinateDist.from_data([1.0, 2.0]))
        )
        assert cdf_transform(d, (0.5, 1.0)) == (0.5, 0.5)
        with pytest.raises(ValueError):
            cdf_transform(d, (0.5,))

    def test_transform_is_measure_preserving(self):
        # F(v) = v^2 on [0,1]; transformed samples must look uniform
        knots = [(i / 100, (i / 100) ** 2) for i in range(101)]
        d = CoordinateDist.from_table(knots)
        rng = random.Random(123)
        n = 20000
        us = sorted(float(d.cdf(d.sample(rng))) for _ in range(n))
        ks = max(abs(u - (i + 1) / n) for i, u in enumerate(us))
        assert ks <= 1.63 / math.sqrt(n)  # 99% KS band


class TestEstimateDist:
    def test_identical_trees(self):
        t = balanced_random_tree(2, 4, seed=0)
        d = ProductDistribution.uniform(2)
        est, hw = estimate_dist(t, t, d, samples=500, seed=1)
        assert est == 0.0
        assert hw == pytest.approx(math.sqrt(math.log(2 / 0.01) / 1000), abs=1e-15)

    def test_complementary_trees(self):
        t1 = DecisionTree(Leaf(1))
        t2 = DecisionTree(Leaf(0))
        d = ProductDistribution.uniform(1)
        est, _ = estimate_dist(t1, t2, d, samples=200, seed=0)
        assert est == 1.0

    def test_validation(self):
        t = DecisionTree(Leaf(0))
        d = ProductDistribution.uniform(1)
        with pytest.raises(ValueError):
            estimate_dist(t, t, d, samples=0, seed=0)
        with pytest.raises(ValueError):
            estimate_dist(t, t, d, samples=10, seed=0, level=1.0)

    def test_deterministic_in_seed(self):
        t1 = balanced_random_tree(2, 6, seed=3)
        t2 = balanced_random_tree(2, 6, seed=4)
        d = ProductDistribution.uniform(2)
        assert estimate_dist(t1, t2, d, 300, seed=7) == estimate_dist(t1, t2, d, 300, seed=7)


class TestBalancedRandomTree:
    def test_exact_sizes_and_depth(self):
        for s in (1, 2, 5, 16, 64):
            t = balanced_random_tree(3, s, seed=11)
            assert treemod.size(t) == s
            if s >= 2:
                assert treemod.depth(t) <= math.ceil(2 * math.log2(s))

    def test_deterministic(self):
        a = balanced_random_tree(4, 10, seed=5)
        b = balanced_random_tree(4, 10, seed=5)
        assert treemod.to_json(a) == treemod.to_json(b)

    def test_errors(self):
        with pytest.raises(ValueError):
            balanced_random_tree(2, 0, seed=0)
        with pytest.raises(ValueError):
            balanced_random_tree(2, 5, seed=0, depth_cap=2)


class TestBooleanize:
    @pytest.fixture()
    def small_tree(self):
        return DecisionTree(
            Internal(1, 0.375, Internal(2, 0.5, Leaf(1), Leaf(0)), Leaf(0))
        )

    def test_cellwise_agreement(self, small_tree):
        w = 3
        b = booleanize(small_tree, w)
        for c1 in range(8):
            for c2 in range(8):
                x = ((c1 + 0.5) / 8, (c2 + 0.5) / 8)
                bits = encode_point(x, w)
                want = treemod.evaluate(small_tree, x)
                assert booleanized_evaluate(small_tree, w, bits) == want
                assert treemod.evaluate(b, bits) == want

    def test_bit_coords_within_range(self, small_tree):
        b = booleanize(small_tree, 3)
        for info in treemod.leaves(b):
            coords = [step.coord for step in info.path]
            assert all(1 <= c <= 6 for c in coords)
            assert len(coords) == len(set(coords))  # no re-queried bit

    def test_trivial_thresholds_collapse(self):
        always_hi = DecisionTree(Internal(1, 0.0, Leaf(1), Leaf(0)))
        assert treemod.size(booleanize(always_hi, 3)) == 1
        assert treemod.evaluate(booleanize(always_hi, 3), encode(0.2, 3)) == 1
        # x >= 1 is unsatisfiable on the floor grid
        always_lo = DecisionTree(Internal(1, 1.0, Leaf(1), Leaf(0)))
        assert treemod.evaluate(booleanize(always_lo, 3), encode(0.999, 3)) == 0

    def test_off_grid_threshold_rejected(self, small_tree):
        with pytest.raises(ValueError, match="round_thresholds"):
            booleanize(small_tree, 2)  # 0.375 needs three bits

    def test_node_cap(self):
        t = round_thresholds(balanced_random_tree(3, 16, seed=2), 6)
        with pytest.raises(ValueError, match="booleanized_evaluate"):
            booleanize(t, 6, max_nodes=4)

    @given(seed=st.integers(0, 30), w=st.integers(2, 4))
    @settings(max_examples=40)
    def test_lazy_matches_materialized(self, seed, w):
        t = round_thresholds(balanced_random_tree(2, 5, seed=seed), w)
        b = booleanize(t, w)
        cells = 1 << w
        for c1 in range(cells):
            for c2 in range(cells):
                bits = encode_point(((c1 + 0.5) / cells, (c2 + 0.5) / cells), w)
                assert booleanized_evaluate(t, w, bits) == treemod.evaluate(b, bits)


class TestGrowRealEmpirical:
    def test_separable_data_solved_by_one_split(self):
        pts = (((0.2,), 0), ((0.3,), 0), ((0.7,), 1), ((0.8,), 1))
        sample = RealSample(pts)
        t, trace = grow_real(sample, GrowthConfig(budget=4, impurity=GINI))
        assert trace.mode == "real-empirical"
        assert trace.threshold_policy == "midpoints"
        assert trace.steps[0].theta == 0.5  # midpoint of 0.3 and 0.7
        assert trace.steps[0].median_split is True
        assert trace.final_distance() == 0
        assert treemod.evaluate(t, (0.25,)) == 0
        assert treemod.evaluate(t, (0.9,)) == 1

    def test_grid_policy_snaps_candidates(self):
        pts = (((0.2,), 0), ((0.3,), 0), ((0.7,), 1), ((0.8,), 1))
        t, trace = grow_real(RealSample(pts), GrowthConfig(budget=4, impurity=GINI), "grid:2")
        assert trace.threshold_policy == "grid:2"
        assert trace.steps[0].theta == 0.5
        assert trace.final_distance() == 0

    def test_empty_child_is_frozen_with_parent_majority(self):
        # both points sit on the same value, so any grid split leaves one
        # side empty; the empty side must inherit the parent's majority
        pts = (((0.5,), 0), ((0.5,), 1))
        t, trace = grow_real(
            RealSample(pts), GrowthConfig(budget=2, impurity=GINI), "grid:2"
        )
        assert len(trace.steps) == 1
        assert trace.steps[0].gain == pytest.approx(0.0, abs=1e-12)
        labels = [info.node.label for info in treemod.leaves(t)]
        assert labels == [1, 1]  # ties favor 1; the empty side copies it
        assert trace.final_distance() == Fraction(1, 2)

    def test_zero_gain_stop(self):
        pts = (((0.5,), 0), ((0.5,), 1))
        t, trace = grow_real(
            RealSample(pts),
            GrowthConfig(budget=4, impurity=GINI, stop_on_zero_gain=True),
            "grid:2",
        )
        assert treemod.size(t) == 1
        assert trace.stop_reason == "zero-gain"

    def test_training_distance_never_increases(self):
        rng = random.Random(4)
        pts = tuple(
            ((rng.random(), rng.random()), rng.randrange(2)) for _ in range(40)
        )
        _, trace = grow_real(RealSample(pts), GrowthConfig(budget=12, impurity=GINI))
        curve = [trace.initial_distance] + [s.distance for s in trace.steps]
        assert all(a >= b for a, b in zip(curve, curve[1:]))

    @pytest.mark.parametrize(
        "a, b",
        [
            (0.5, math.nextafter(0.5, 1)),  # the midpoint rounds down onto a
            (1e308, 1.5e308),  # a + b overflows to inf
        ],
    )
    def test_midpoint_separates_adjacent_values(self, a, b):
        pts = (((a,), 0), ((b,), 1))
        t, trace = grow_real(RealSample(pts), GrowthConfig(budget=2, impurity=GINI))
        (step,) = trace.steps
        assert math.isfinite(step.theta) and a < step.theta <= b
        # route every point through the built tree: the trace's gain is the tree's
        leaves = {}
        for x, label in pts:
            node = t.root
            while isinstance(node, Internal):
                node = node.hi if x[node.coord - 1] >= node.theta else node.lo
            leaves.setdefault(id(node), []).append(label)
        built_g = sum(len(ls) / len(pts) * GINI.fn(sum(ls) / len(ls)) for ls in leaves.values())
        assert trace.initial_g_impurity - built_g == pytest.approx(step.gain, abs=1e-12)
        assert step.g_impurity == pytest.approx(built_g, abs=1e-12)
        assert step.distance == 0 and built_g == 0.0
        assert [treemod.evaluate(t, x) for x, _ in pts] == [0, 1]


class _PerLeafSortSampleLeaf:
    """Reference for realvalued._SampleLeaf: each leaf holds its point
    indices, re-sorts every coordinate and scores every candidate through
    the checked impurity.evaluate."""

    u_term = None
    inf_split = None

    def __init__(self, run, idx, parent_label=None):
        sample, spec, policy, grid_w = run
        total = len(sample)
        self.run = run
        self.idx = idx
        self.count = len(idx)
        self.score = self.best_gain = -math.inf
        self.best_coord = None
        self.best_theta = None
        self.best_median = None
        if self.count == 0:
            self.ones = 0
            self.expectation = None
            self.label = parent_label
            self.err_frac = Fraction(0)
            self.g_term = 0.0
            self.active = False
            return
        pts = sample.points
        self.ones = sum(pts[i][1] for i in idx)
        self.expectation = Fraction(self.ones, self.count)
        self.label = 1 if 2 * self.ones >= self.count else 0
        self.err_frac = Fraction(min(self.ones, self.count - self.ones), total)
        g_here = impurity_evaluate(spec, self.expectation)
        self.g_term = self.count / total * g_here
        self.active = 0 < self.ones < self.count
        if not self.active:
            return
        for coord in range(1, sample.n + 1):
            ordered = sorted((pts[i][0][coord - 1], pts[i][1]) for i in idx)
            values = [v for v, _ in ordered]
            prefix = [0]
            for _, lab in ordered:
                prefix.append(prefix[-1] + lab)
            if policy == "midpoints":
                candidates = [
                    (_midpoint(values[j - 1], values[j]), j)
                    for j in range(1, self.count)
                    if values[j] != values[j - 1]
                ]
            else:
                candidates = [
                    (c / (1 << grid_w), bisect.bisect_left(values, c / (1 << grid_w)))
                    for c in range(1, 1 << grid_w)
                ]
            for theta, j in candidates:
                lo_n, hi_n = j, self.count - j
                lo_ones = prefix[j]
                hi_ones = self.ones - lo_ones
                total_g = self.count * g_here
                if lo_n:
                    total_g -= lo_n * impurity_evaluate(spec, lo_ones / lo_n)
                if hi_n:
                    total_g -= hi_n * impurity_evaluate(spec, hi_ones / hi_n)
                gain = total_g / total
                if gain > self.best_gain + GAIN_TOL:
                    self.score = self.best_gain = gain
                    self.best_coord = coord
                    self.best_theta = theta
                    self.best_median = 2 * lo_n <= self.count and 2 * hi_n <= self.count

    def children(self):
        pts = self.run[0].points
        coord, theta = self.best_coord, self.best_theta
        hi_idx = tuple(i for i in self.idx if pts[i][0][coord - 1] >= theta)
        lo_idx = tuple(i for i in self.idx if pts[i][0][coord - 1] < theta)
        return (
            _PerLeafSortSampleLeaf(self.run, hi_idx, self.label),
            _PerLeafSortSampleLeaf(self.run, lo_idx, self.label),
        )


def _midpoint(a, b):
    """The sample leaf's midpoint rule: b when a/2 + b/2 rounds outside (a, b]."""
    mid = a / 2 + b / 2
    return mid if a < mid <= b else b


def _reference_grow_real(sample, cfg, policy):
    kind, grid_w = parse_policy(policy)
    root = _PerLeafSortSampleLeaf((sample, cfg.impurity, kind, grid_w), tuple(range(len(sample))))
    return _greedy(root, cfg, "real-empirical", policy)


def _tree_bytes(t):
    return json.dumps(treemod.to_json(t), indent=2, sort_keys=True)


TABLE_GINI = from_table(
    "table-gini", [(0, 0), (0.25, 0.75), (0.5, 1), (0.75, 0.75), (1, 0)], kappa=2.0, resolution=4
)
# few distinct values, so ties are common; the grid points and 1.0 are among them
_DUPLICATED = st.sampled_from([0.0, 0.125, 0.25, 0.3, 0.5, 0.75, 1.0])


@st.composite
def _samples(draw):
    n = draw(st.integers(1, 3))
    value = draw(st.sampled_from([_DUPLICATED, st.floats(0, 1, allow_nan=False)]))
    point = st.tuples(st.tuples(*[value] * n), st.integers(0, 1))
    return draw(st.lists(point, min_size=1, max_size=24))


class TestPresortedSampleLeaf:
    @given(
        points=_samples(),
        spec=st.sampled_from([GINI, builtin("entropy"), builtin("km"), TABLE_GINI]),
        policy=st.sampled_from(["midpoints", "grid:1", "grid:2", "grid:3"]),
        stop=st.booleans(),
        budget=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_leaf_sort(self, points, spec, policy, stop, budget, seed):
        cfg = GrowthConfig(budget=budget, impurity=spec, stop_on_zero_gain=stop)
        permuted = list(points)
        random.Random(seed).shuffle(permuted)
        runs = []
        for pts in (points, permuted):
            t, trace = grow_real(RealSample(tuple(pts)), cfg, policy)
            ref_t, ref_trace = _reference_grow_real(RealSample(tuple(pts)), cfg, policy)
            assert trace == ref_trace  # every TraceStep field, repr=False ones too
            assert _tree_bytes(t) == _tree_bytes(ref_t)
            runs.append((trace, _tree_bytes(t)))
        # relabelling the points moves no candidate, gain or threshold
        assert runs[0] == runs[1]


class TestGrowRealAnalytic:
    def test_threshold_teacher_on_uniform_square(self):
        teacher = DecisionTree(Internal(1, 0.7, Leaf(1), Leaf(0)))
        d = ProductDistribution.uniform(2)
        t, trace = grow_real((teacher, d), GrowthConfig(budget=3, impurity=GINI), "grid:4")
        assert trace.mode == "real-analytic"
        first = trace.steps[0]
        assert first.coord == 1
        assert first.theta in (0.6875, 0.75)  # the grid points flanking 0.7
        assert trace.final_distance() <= Fraction(1, 16)

    def test_exact_when_teacher_on_grid(self):
        teacher = DecisionTree(Internal(2, 0.375, Leaf(1), Leaf(0)))
        d = ProductDistribution.uniform(2)
        t, trace = grow_real((teacher, d), GrowthConfig(budget=4, impurity=GINI), "grid:3")
        assert trace.final_distance() == 0
        assert trace.stop_reason == "no-candidates"
        assert treemod.size(t) == 2

    def test_quantile_space_thresholds(self):
        # teacher splits at v=0.5 where F(0.5) = 1/4, so the grown tree
        # (which lives in quantile space) must split at u = 0.25
        coord = CoordinateDist.from_table([(0, 0), (0.5, 0.25), (1, 1)])
        d = ProductDistribution((coord,))
        teacher = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        t, trace = grow_real((teacher, d), GrowthConfig(budget=2, impurity=GINI), "grid:2")
        assert trace.steps[0].theta == 0.25
        assert trace.final_distance() == 0

    def test_median_split_flag(self):
        teacher = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        d = ProductDistribution.uniform(1)
        _, trace = grow_real((teacher, d), GrowthConfig(budget=2, impurity=GINI), "grid:1")
        assert trace.steps[0].median_split is True


class TestGrowRealRefusals:
    def test_needs_impurity(self):
        sample = RealSample((((0.1,), 0), ((0.9,), 1)))
        with pytest.raises(ValueError, match="impurity"):
            grow_real(sample, GrowthConfig(budget=2, impurity=None))

    def test_analytic_needs_grid(self):
        teacher = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        d = ProductDistribution.uniform(1)
        with pytest.raises(ValueError, match="grid"):
            grow_real((teacher, d), GrowthConfig(budget=2, impurity=GINI), "midpoints")

    def test_analytic_needs_invertible_cdfs(self):
        teacher = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        d = ProductDistribution((CoordinateDist.from_data([1.0, 2.0]),))
        with pytest.raises(ValueError, match="invertible|strictly"):
            grow_real((teacher, d), GrowthConfig(budget=2, impurity=GINI), "grid:2")

    def test_bad_policy(self):
        sample = RealSample((((0.1,), 0), ((0.9,), 1)))
        for policy in ("nearest", "grid:", "grid:0", "grid:99"):
            with pytest.raises(ValueError):
                grow_real(sample, GrowthConfig(budget=2, impurity=GINI), policy)

    def test_bad_source(self):
        with pytest.raises(TypeError):
            grow_real([(0.1, 0)], GrowthConfig(budget=2, impurity=GINI))


class TestBinaryConsistency:
    def test_midpoint_growth_matches_binary_grower(self):
        # feed the exhaustive {0,1}-encoded truth table as a sample; every
        # candidate threshold is then 0.5 and growth must mirror the
        # binary-feature grower step for step
        f = random_monotone(4, seed=5)
        pts = []
        for idx in range(16):
            x = tuple((b + 1) / 2 for b in _point(idx, 4))
            pts.append((x, f.value(_point(idx, 4))))
        sample = RealSample(tuple(pts))
        t_real, trace_real = grow_real(sample, GrowthConfig(budget=16, impurity=GINI))
        _, trace_bin = grow(f, GrowthConfig(budget=16, impurity=GINI))
        assert [(s.leaf_id, s.coord) for s in trace_real.steps] == [
            (s.leaf_id, s.coord) for s in trace_bin.steps
        ]
        assert all(s.theta == 0.5 for s in trace_real.steps)
        assert [s.distance for s in trace_real.steps] == [
            s.distance for s in trace_bin.steps
        ]


def _point(idx, n):
    return tuple(1 if (idx >> (i - 1)) & 1 else -1 for i in range(1, n + 1))


class TestSampleTeacher:
    def test_labels_match_teacher(self):
        teacher = balanced_random_tree(2, 5, seed=8)
        d = ProductDistribution.uniform(2)
        sample = sample_teacher(teacher, d, 50, seed=3)
        assert len(sample) == 50
        for x, label in sample.points:
            assert treemod.evaluate(teacher, x) == label

    def test_deterministic(self):
        teacher = balanced_random_tree(2, 3, seed=1)
        d = ProductDistribution.uniform(2)
        a = sample_teacher(teacher, d, 20, seed=9)
        b = sample_teacher(teacher, d, 20, seed=9)
        assert a.points == b.points
        assert "seed=9" in a.provenance


class TestRealSampleValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RealSample(())

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            RealSample((((0.1,), 0), ((0.1, 0.2), 1)))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            RealSample((((0.1,), 2),))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_features(self, value):
        with pytest.raises(ValueError, match="finite"):
            RealSample((((0.1, 0.2), 0), ((0.3, value), 1)))
