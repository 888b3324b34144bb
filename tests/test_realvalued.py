import bisect
import dataclasses
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import random_monotone
from topdowndt.grower import GAIN_TOL, GrowthConfig, _greedy, grow
from topdowndt.impurity import builtin
from topdowndt.impurity import evaluate as impurity_evaluate
from topdowndt.realvalued import (
    MAX_BITS,
    CoordinateDist,
    ProductDistribution,
    RealSample,
    _SampleLeaf,
    balanced_random_tree,
    booleanized_evaluate,
    cdf_transform,
    disagreement,
    encode,
    encode_int,
    grow_real,
    parse_policy,
    round_thresholds,
    sample_teacher,
)
from topdowndt.tree import DecisionTree, Internal, Leaf

from reference import box_disagreement, depth, encode_point, value_at

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

    def test_cdf_table(self):
        d = CoordinateDist.from_table([(0, 0), (0.5, 0.25), (1, 1)])
        assert d.cdf(0.5) == Fraction(1, 4)
        assert d.cdf(0.25) == Fraction(1, 8)
        assert d.cdf(0.75) == Fraction(5, 8)

    def test_cdf_table_takes_the_upper_value_at_a_jump(self):
        # F(v) = Pr[X <= v] is right-continuous, as the empirical kind is
        assert CoordinateDist.from_table([(0, 0), (1, 0.5), (1, 1)]).cdf(1) == 1
        assert CoordinateDist.from_table([(0, 0), (0, 0.5), (1, 1)]).cdf(0) == Fraction(1, 2)
        d = CoordinateDist.from_table([(0, 0), (0.5, 0.2), (0.5, 0.7), (1, 1)])
        assert d.cdf(0.5) == Fraction(0.7)  # the knots are the floats' exact values
        assert d.cdf(0.25) == Fraction(0.2) / 2

    def test_empirical(self):
        d = CoordinateDist.from_data([3.0, 1.0, 2.0])  # sorted internally
        assert d.cdf(2.0) == Fraction(2, 3)
        assert d.cdf(0.5) == 0
        assert d.cdf(3.0) == 1

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

    def test_product_needs_coords(self):
        with pytest.raises(ValueError):
            ProductDistribution(())

    def test_draw_reads_rng_random_point_by_point(self):
        points = list(ProductDistribution.uniform(3).draw(random.Random(5), 4))
        ref = random.Random(5)
        assert points == [tuple(ref.random() for _ in range(3)) for _ in range(4)]

    def test_draw_refuses_a_non_uniform_coordinate_before_drawing(self):
        for other in (CoordinateDist.from_data([1.0, 2.0]), CoordinateDist.from_table([(0, 0), (1, 1)])):
            rng = random.Random(5)
            state = rng.getstate()
            with pytest.raises(ValueError, match="uniform01"):
                ProductDistribution((CoordinateDist.uniform01(), other)).draw(rng, 4)
            assert rng.getstate() == state

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
        d = CoordinateDist.from_table(knots)  # within 2.5e-5 of v^2 between knots
        rng = random.Random(123)
        n = 20000
        us = sorted(float(d.cdf(math.sqrt(rng.random()))) for _ in range(n))  # sqrt(u) has CDF v^2
        ks = max(abs(u - (i + 1) / n) for i, u in enumerate(us))
        assert ks <= 1.63 / math.sqrt(n)  # 99% KS band


# thresholds from a few shared values, so that cuts of two trees coincide,
# and from an interval past both ends of [0,1]
THRESHOLDS = st.one_of(
    st.sampled_from((-0.5, 0.0, 0.25, 0.5, 1.0, 1.5)), st.floats(-0.25, 1.25)
)


def _threshold_tree(draw, n: int, leaves: int):
    if leaves == 1:
        return Leaf(draw(st.integers(0, 1)))
    hi = draw(st.integers(1, leaves - 1))
    coord, theta = draw(st.integers(1, n)), draw(THRESHOLDS)
    return Internal(coord, theta, _threshold_tree(draw, n, hi), _threshold_tree(draw, n, leaves - hi))


class TestDisagreement:
    def test_identical_trees(self):
        t = balanced_random_tree(3, 12, seed=0)
        assert disagreement(t, t) == 0

    def test_complementary_trees(self):
        assert disagreement(DecisionTree(Leaf(1)), DecisionTree(Leaf(0))) == 1

    def test_rounded_cut(self):
        # x1 >= 0.3 against x1 >= 1/4 differ on [1/4, 0.3), 0.3 as the float it is
        cut = DecisionTree(Internal(1, 0.3, Leaf(1), Leaf(0)))
        assert disagreement(cut, round_thresholds(cut, 2)) == Fraction(0.3) - Fraction(1, 4)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_leaf_pair_sum(self, data):
        n = data.draw(st.integers(1, 3))
        t1 = DecisionTree(_threshold_tree(data.draw, n, data.draw(st.integers(1, 12))))
        if data.draw(st.booleans()):
            t2 = round_thresholds(t1, data.draw(st.integers(1, 8)))
        else:
            t2 = DecisionTree(_threshold_tree(data.draw, n, data.draw(st.integers(1, 12))))
        assert disagreement(t1, t2) == box_disagreement(t1, t2) == disagreement(t2, t1)


class TestBalancedRandomTree:
    def test_exact_sizes_and_depth(self):
        for s in (1, 2, 5, 16, 64):
            t = balanced_random_tree(3, s, seed=11)
            assert treemod.size(t) == s
            if s >= 2:
                assert depth(t) <= math.ceil(2 * math.log2(s))

    def test_deterministic(self):
        a = balanced_random_tree(4, 10, seed=5)
        b = balanced_random_tree(4, 10, seed=5)
        assert treemod.to_json(a) == treemod.to_json(b)

    def test_errors(self):
        with pytest.raises(ValueError):
            balanced_random_tree(2, 0, seed=0)


class TestBooleanize:
    @pytest.fixture()
    def small_tree(self):
        return DecisionTree(
            Internal(1, 0.375, Internal(2, 0.5, Leaf(1), Leaf(0)), Leaf(0))
        )

    def test_cellwise_agreement(self, small_tree):
        w = 3
        for c1 in range(8):
            for c2 in range(8):
                x = ((c1 + 0.5) / 8, (c2 + 0.5) / 8)
                bits = encode_point(x, w)
                assert booleanized_evaluate(small_tree, w, bits) == treemod.evaluate(small_tree, x)

    def test_trivial_thresholds_collapse(self):
        always_hi = DecisionTree(Internal(1, 0.0, Leaf(1), Leaf(0)))
        assert booleanized_evaluate(always_hi, 3, encode(0.2, 3)) == 1
        # x >= 1 is unsatisfiable on the floor grid
        always_lo = DecisionTree(Internal(1, 1.0, Leaf(1), Leaf(0)))
        assert booleanized_evaluate(always_lo, 3, encode(0.999, 3)) == 0

    def test_off_grid_threshold_rejected(self, small_tree):
        with pytest.raises(ValueError, match="round_thresholds"):
            booleanized_evaluate(small_tree, 2, (1,) * 4)  # 0.375 needs three bits

    @given(seed=st.integers(0, 30), w=st.integers(2, 4))
    @settings(max_examples=40)
    def test_lazy_matches_materialized(self, seed, w):
        # the rounded tree itself, read at each cell's midpoint
        t = round_thresholds(balanced_random_tree(2, 5, seed=seed), w)
        cells = 1 << w
        for c1 in range(cells):
            for c2 in range(cells):
                x = ((c1 + 0.5) / cells, (c2 + 0.5) / cells)
                assert booleanized_evaluate(t, w, encode_point(x, w)) == treemod.evaluate(t, x)


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
        self.scale = total
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
            self.err = 0
            self.g_term = 0.0
            self.active = False
            return
        pts = sample.points
        self.ones = sum(pts[i][1] for i in idx)
        self.expectation = Fraction(self.ones, self.count)
        self.label = 1 if 2 * self.ones >= self.count else 0
        self.err = min(self.ones, self.count - self.ones)
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
        spec=st.sampled_from([GINI, builtin("entropy"), builtin("kearns-mansour")]),
        policy=st.sampled_from(["midpoints", "grid:1", "grid:2", "grid:3", "grid:8"]),
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

    @pytest.mark.parametrize("policy", ["grid:2", "grid:4", "grid:10"])
    def test_grid_values_off_the_unit_interval(self, policy):
        # values outside [0, 1) have no grid cut, and 1e308 * 2^w overflows
        xs = [-1e308, -0.5, -1e-300, 0.0, 0.2, 0.25, 0.7, 1.0, 3.0, 1e308]
        labels = [0, 1, 1, 0, 1, 0, 0, 1, 1, 0]
        sample = RealSample(tuple(((x, y), b) for x, y, b in zip(xs, reversed(xs), labels)))
        cfg = GrowthConfig(budget=8, impurity=GINI)
        t, trace = grow_real(sample, cfg, policy)
        ref_t, ref_trace = _reference_grow_real(sample, cfg, policy)
        assert trace == ref_trace
        assert _tree_bytes(t) == _tree_bytes(ref_t)
        assert trace.steps and all(0 < step.theta < 1 for step in trace.steps)

    def test_grid_scan_cost_is_linear_in_points(self):
        # 2^12 - 1 grid cuts, but at most points + 1 distinct counts below a cut
        calls = 0

        def counted(p):
            nonlocal calls
            calls += 1
            return GINI.fn(p)

        spec = dataclasses.replace(GINI, fn=counted)
        rng = random.Random(12)
        sample = RealSample(
            tuple(((rng.random(), rng.random()), rng.randint(0, 1)) for _ in range(20))
        )
        _, trace = grow_real(sample, GrowthConfig(budget=6, impurity=spec), "grid:12")
        leaves = 1 + 2 * len(trace.steps)  # every leaf state ever scored
        coords = 2  # each scores <= points + 1 cuts, with two fn calls a cut
        assert calls <= leaves * (1 + coords * 2 * (len(sample) + 1))

    @given(
        n=st.integers(1, 3),
        count=st.integers(40, 400),
        pool=st.lists(
            _DUPLICATED | st.floats(0, 1, allow_nan=False), min_size=2, max_size=8, unique=True
        ),
        spec=st.sampled_from([GINI, builtin("entropy"), builtin("kearns-mansour")]),
        policy=st.sampled_from(["midpoints", "grid:2", "grid:8"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_leaf_sort_through_halved_blocks(self, n, count, pool, spec, policy, seed):
        # 40-400 points halve a coordinate's cuts down to BLOCK over two to
        # five levels, each half's lo-side 1s counted from its labels; with
        # at most 8 values per coordinate, nearly every value carries both labels
        rng = random.Random(seed)
        pts = tuple(
            (tuple(rng.choice(pool) for _ in range(n)), rng.randint(0, 1)) for _ in range(count)
        )
        sample = RealSample(pts)
        cfg = GrowthConfig(budget=8, impurity=spec)
        t, trace = grow_real(sample, cfg, policy)
        ref_t, ref_trace = _reference_grow_real(sample, cfg, policy)
        assert trace == ref_trace
        assert _tree_bytes(t) == _tree_bytes(ref_t)

    @pytest.mark.parametrize(
        "spec", [GINI, builtin("entropy"), builtin("kearns-mansour")], ids=lambda s: s.name
    )
    def test_matches_per_leaf_sort_at_scale(self, spec):
        # large enough for the midpoint scan to skip blocks of cuts; labels
        # are a teacher's with 20% flipped, x2 repeats x1 (equal gains on two
        # coordinates) and x3 takes 12 values (ties inside every block)
        rng = random.Random(f"scale:{spec.name}")
        teacher = balanced_random_tree(2, 8, seed=3)
        for count, budget in ((300, 24), (3000, 12)):
            pts = []
            for _ in range(count):
                x1, x3 = rng.random(), rng.randrange(12) / 12
                label = treemod.evaluate(teacher, (x1, x3)) ^ (rng.random() < 0.2)
                pts.append(((x1, x1, x3), label))
            sample = RealSample(tuple(pts))
            cfg = GrowthConfig(budget=budget, impurity=spec)
            t, trace = grow_real(sample, cfg)
            ref_t, ref_trace = _reference_grow_real(sample, cfg, "midpoints")
            assert trace == ref_trace
            assert _tree_bytes(t) == _tree_bytes(ref_t)
            assert len(trace.steps) == budget - 1


@st.composite
def _tied_samples(draw):
    n = draw(st.integers(2, 3))
    point = st.tuples(st.tuples(*[_DUPLICATED] * n), st.integers(0, 1))
    return draw(st.lists(point, min_size=2, max_size=40))


class TestPartition:
    @given(points=_tied_samples(), policy=st.sampled_from(["midpoints", "grid:2"]))
    @settings(max_examples=200, deadline=None)
    def test_children_filter_every_order_stably(self, points, policy):
        xs = [x for x, _ in points]
        labels = [label for _, label in points]
        split = _SampleLeaf.children

        def checked(leaf):
            # each split is checked as it happens, before a wrong child can be grown
            orders, labs = leaf.orders, leaf.labs
            assert labs == [bytes(labels[i] for i in order) for order in orders]
            children = split(leaf)
            c, theta = leaf.best_coord - 1, leaf.best_theta
            for child, hi in zip(children, (True, False)):
                shares = [[i for i in order if (xs[i][c] >= theta) == hi] for order in orders]
                assert child.count == len(shares[0])
                assert child.ones == sum(labels[i] for i in shares[0])
                if 0 < child.ones < child.count:
                    assert child.orders == shares
                    assert child.labs == [bytes(labels[i] for i in share) for share in shares]
                else:  # a pure or empty child is never split
                    assert child.orders is None
            return children

        with mock.patch.object(_SampleLeaf, "children", checked):
            grow_real(RealSample(tuple(points)), GrowthConfig(budget=len(points), impurity=GINI), policy)

    # one point gathers through itemgetter with a single index; two and
    # three points split into children of one and two points
    @pytest.mark.parametrize(
        "points",
        [
            [((0.5, 0.5, 0.5), 1)],
            [((0.25, 0.5, 0.5), 0), ((0.75, 0.5, 0.5), 1)],
            [((0.5, 0.5, 0.5), 0), ((0.5, 0.5, 0.5), 1)],
            [((0.5, 0.25, 0.75), 1), ((0.5, 0.75, 0.25), 0)],
            [((0.1, 0.5, 0.9), 0), ((0.5, 0.5, 0.5), 1), ((0.9, 0.5, 0.1), 0)],
            [((0.3, 0.3, 0.7), 1), ((0.3, 0.7, 0.3), 0), ((0.7, 0.3, 0.3), 1)],
        ],
    )
    @pytest.mark.parametrize("policy", ["midpoints", "grid:2"])
    def test_smallest_samples(self, points, policy):
        sample = RealSample(tuple(points))
        cfg = GrowthConfig(budget=4, impurity=GINI)
        t, trace = grow_real(sample, cfg, policy)
        ref_t, ref_trace = _reference_grow_real(sample, cfg, policy)
        assert trace == ref_trace
        assert _tree_bytes(t) == _tree_bytes(ref_t)


def _counted(spec):
    """spec with fn wrapped to count its calls, and the counter."""
    calls = [0]

    def fn(p):
        calls[0] += 1
        return spec.fn(p)

    return dataclasses.replace(spec, fn=fn), calls


def _full_scan_calls(t, sample, policy="midpoints"):
    """spec.fn calls of a scan that scores every cut: one G(E) per node of t
    that points reach, and at each node whose points are mixed (a scored
    leaf) two per cut between distinct keys of a coordinate (values, or
    grid cells under grid:w)."""
    kind, w = parse_policy(policy)
    key = (lambda v: v) if kind == "midpoints" else (lambda v: min((1 << w) - 1, math.floor(v * (1 << w))))
    reached = {}
    for x, label in sample.points:
        node = t.root
        while True:
            reached.setdefault(id(node), []).append((x, label))
            if not isinstance(node, Internal):
                break
            node = node.hi if x[node.coord - 1] >= node.theta else node.lo
    calls = len(reached)
    for pts in reached.values():
        if 0 < sum(label for _, label in pts) < len(pts):
            calls += sum(2 * (len({key(x[c]) for x, _ in pts}) - 1) for c in range(sample.n))
    return calls


@pytest.fixture(scope="module")
def sample():
    teacher = balanced_random_tree(3, 64, seed=4)
    return sample_teacher(teacher, ProductDistribution.uniform(3), 4000, seed=4)


class TestPrunedMidpointScan:
    def test_concave_bound_skips_most_cuts(self, sample):
        spec, calls = _counted(GINI)
        t, trace = grow_real(sample, GrowthConfig(budget=16, impurity=spec))
        assert len(trace.steps) == 15
        assert calls[0] < _full_scan_calls(t, sample) / 4


class TestPrunedGridScan:
    def test_bound_as_under_midpoints(self, sample):
        # grid:16 keeps nearly every value in a cell of its own
        spec, calls = _counted(GINI)
        t, trace = grow_real(sample, GrowthConfig(budget=16, impurity=spec), "grid:16")
        assert len(trace.steps) == 15
        assert calls[0] < _full_scan_calls(t, sample, "grid:16") / 4
        # grid:8 leaves many points per cell, so the cuts are between cells
        cfg = GrowthConfig(budget=16, impurity=GINI)
        t, trace = grow_real(sample, cfg, "grid:8")
        ref_t, ref_trace = _reference_grow_real(sample, cfg, "grid:8")
        assert trace == ref_trace
        assert _tree_bytes(t) == _tree_bytes(ref_t)

    def test_trailing_one_sided_cut(self):
        # every point in cell 0 of grid:2, so there is no cut between cells
        # and the leader is the cut past the highest cell, theta 0.25, which
        # puts every point lo at gain exactly 0.0
        sample = RealSample((((0.1,), 1), ((0.2,), 1), ((0.2,), 0)))
        cfg = GrowthConfig(budget=2, impurity=GINI)
        t, trace = grow_real(sample, cfg, "grid:2")
        (step,) = trace.steps
        assert (step.coord, step.theta, step.gain) == (1, 0.25, 0.0)
        ref_t, ref_trace = _reference_grow_real(sample, cfg, "grid:2")
        assert trace == ref_trace
        assert _tree_bytes(t) == _tree_bytes(ref_t)


class TestGrowRealRefusals:
    def test_needs_impurity(self):
        sample = RealSample((((0.1,), 0), ((0.9,), 1)))
        with pytest.raises(ValueError, match="impurity"):
            grow_real(sample, GrowthConfig(budget=2, impurity=None))

    def test_bad_policy(self):
        sample = RealSample((((0.1,), 0), ((0.9,), 1)))
        for policy in ("nearest", "grid:", "grid:0", "grid:99"):
            with pytest.raises(ValueError):
                grow_real(sample, GrowthConfig(budget=2, impurity=GINI), policy)

    def test_bad_source(self):
        with pytest.raises(TypeError):
            grow_real([(0.1, 0)], GrowthConfig(budget=2, impurity=GINI))
        teacher = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        with pytest.raises(TypeError):
            grow_real(
                (teacher, ProductDistribution.uniform(1)),
                GrowthConfig(budget=2, impurity=GINI),
                "grid:2",
            )


class TestBinaryConsistency:
    def test_midpoint_growth_matches_binary_grower(self):
        # feed the exhaustive {0,1}-encoded truth table as a sample; every
        # candidate threshold is then 0.5 and growth must mirror the
        # binary-feature grower step for step
        f = random_monotone(4, seed=5)
        pts = []
        for idx in range(16):
            x = tuple((b + 1) / 2 for b in _point(idx, 4))
            pts.append((x, value_at(f, _point(idx, 4))))
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

    def test_float_labels_grow_as_ints(self):
        pts = [((random.Random(i).random(), i % 3 / 2), int(i % 5 < 2)) for i in range(40)]
        cfg = GrowthConfig(budget=6, impurity=GINI)
        as_float = RealSample(tuple((x, float(label)) for x, label in pts))
        assert grow_real(as_float, cfg) == grow_real(RealSample(tuple(pts)), cfg)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_features(self, value):
        with pytest.raises(ValueError, match="finite"):
            RealSample((((0.1, 0.2), 0), ((0.3, value), 1)))
