import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import SubcubeView, derived_rng, is_monotone, random_monotone
from topdowndt.realvalued import balanced_random_tree
from topdowndt.tree import (
    DecisionTree,
    Internal,
    Leaf,
    PartialTree,
    chain_tree,
    distance,
    evaluate,
    from_splits,
    leaves,
    path_of,
    random_monotone_tree,
    size,
    split,
    to_boolfunc,
    to_json,
)

from reference import complete, conjunction, depth, label_leaves, majority, path_assignment, view_at


def grow_by_splits(spec):
    """Build a partial tree from (leaf_id, coord) pairs."""
    t = PartialTree(Leaf())
    for leaf_id, coord in spec:
        t = split(t, leaf_id, coord)
    return t


class TestSplit:
    def test_leaf_ids_are_preorder(self):
        t = grow_by_splits([(0, 1), (0, 2), (2, 3)])
        infos = leaves(t)
        assert [info.leaf_id for info in infos] == [0, 1, 2, 3]
        # hi child comes before lo child
        paths = [tuple((s.coord, s.side) for s in info.path) for info in infos]
        assert paths[0] == ((1, 1), (2, 1))
        assert paths[1] == ((1, 1), (2, -1))
        assert paths[2] == ((1, -1), (3, 1))
        assert paths[3] == ((1, -1), (3, -1))

    def test_split_is_persistent(self):
        t1 = grow_by_splits([(0, 1)])
        t2 = split(t1, 0, 2)
        assert size(t1) == 2 and size(t2) == 3

    def test_no_repeat_on_path(self):
        t = grow_by_splits([(0, 1)])
        with pytest.raises(ValueError):
            split(t, 0, 1)

    def test_same_coord_on_disjoint_paths_allowed(self):
        t = grow_by_splits([(0, 1), (0, 2), (2, 2)])
        assert size(t) == 4

    def test_real_mode_may_requery(self):
        t = split(PartialTree(Leaf()), 0, 1, theta=0.5)
        t = split(t, 0, 1, theta=0.25)
        assert size(t) == 3

    def test_bad_leaf_id(self):
        with pytest.raises(ValueError):
            split(PartialTree(Leaf()), 3, 1)


class TestFrontier:
    """from_splits: a tree grown by splitting open leaves (its frontier),
    named by node id."""

    # (leaf_id, coord) splits, the node each one names, and the open nodes
    # in preorder after each
    SPLITS = [(0, 1), (0, 2), (2, 3), (1, 3)]
    NODES = [0, 1, 2, 4]
    OPEN = [[1, 2], [3, 4, 2], [3, 4, 5, 6], [3, 7, 8, 5, 6]]

    def test_build_matches_split_then_label(self):
        for i in range(len(self.SPLITS)):
            splits = [(v, coord, None) for v, (_, coord) in zip(self.NODES[: i + 1], self.SPLITS)]
            labels = [(i + v) % 2 for v in range(2 * i + 3)]
            leaf_labels = [labels[v] for v in self.OPEN[i]]
            expected = label_leaves(grow_by_splits(self.SPLITS[: i + 1]), leaf_labels)
            assert from_splits(splits, labels) == expected

    def test_single_leaf(self):
        assert from_splits([], [1]) == DecisionTree(Leaf(1))

    def test_real_mode_may_requery(self):
        assert from_splits([(0, 1, 0.5), (1, 1, 0.25)], [0, 0, 0, 0, 1]) == DecisionTree(
            Internal(1, 0.5, Internal(1, 0.25, Leaf(0), Leaf(1)), Leaf(0))
        )

    def test_repeat_on_path_rejected_at_build(self):
        with pytest.raises(ValueError, match="repeats"):
            from_splits([(0, 1, None), (1, 1, None)], [0, 0, 0, 1, 0])

    def test_bad_leaf_id(self):
        # a split must name an open leaf: a node made and not yet split
        for splits in ([(1, 1, None)], [(-1, 1, None)], [(0, 1, None), (3, 2, None)]):
            with pytest.raises(ValueError, match="not made yet"):
                from_splits(splits, [0] * (2 * len(splits) + 1))
        with pytest.raises(ValueError, match="already split"):
            from_splits([(0, 1, None), (0, 2, None)], [0] * 5)

    def test_wrong_label_count(self):
        for labels in ([1], [1, 0], [1, 0, 1, 0]):
            with pytest.raises(ValueError, match="labels"):
                from_splits([(0, 1, None)], labels)


class TestThreshold:
    def test_nan_refused(self):
        # a NaN threshold sends every point lo, yet reads as a cut to walks over boxes
        with pytest.raises(ValueError, match="NaN"):
            Internal(1, float("nan"), Leaf(1), Leaf(0))

    def test_binary_and_infinite_thresholds_allowed(self):
        assert Internal(1, None, Leaf(1), Leaf(0)).theta is None
        t = DecisionTree(Internal(1, float("inf"), Leaf(1), Leaf(0)))
        assert evaluate(t, (1e308,)) == 0


class TestDepthAndCoords:
    @pytest.mark.parametrize("build", [random_monotone_tree, balanced_random_tree])
    @pytest.mark.parametrize("max_leaves", [2, 7, 64])
    def test_matches_every_leaf_path(self, build, max_leaves):
        t = build(5, max_leaves, seed=max_leaves)
        queried = sorted({step.coord for info in leaves(t) for step in info.path})
        assert treemod.depth_and_coords(t) == (depth(t), queried)

    def test_lone_leaf(self):
        assert treemod.depth_and_coords(DecisionTree(Leaf(0))) == (0, [])


class TestLeafCount:
    def test_cached_count_is_not_a_field(self):
        a = Internal(1, None, Internal(2, None, Leaf(1), Leaf(0)), Leaf(1))
        b = Internal(1, None, Internal(2, None, Leaf(1), Leaf(0)), Leaf(1))
        assert size(DecisionTree(a)) == 3
        assert [f.name for f in dataclasses.fields(Internal)] == ["coord", "theta", "hi", "lo"]
        assert "_size" not in repr(a)
        assert a == b and hash(a) == hash(b)
        assert to_json(DecisionTree(a)) == {
            "q": 1, "hi": {"q": 2, "hi": {"label": 1}, "lo": {"label": 0}}, "lo": {"label": 1}
        }

    @given(st.integers(0, 40))
    def test_size_matches_walk(self, seed):
        t = random_monotone_tree(6, 20, seed)
        assert size(t) == len(leaves(t))


def _random_points(rng, n, count, real):
    if real:
        return [tuple(rng.random() for _ in range(n)) for _ in range(count)]
    return [tuple(rng.choice((-1, 1)) for _ in range(n)) for _ in range(count)]


class TestPathOf:
    def _check(self, t, points):
        infos = leaves(t)
        for x in points:
            info = path_of(t, x)
            assert info == infos[info.leaf_id]
            assert info.node.label == evaluate(t, x)

    @given(st.integers(0, 10**6))
    def test_binary_trees(self, seed):
        rng = derived_rng(seed, "path-of")
        t = PartialTree(Leaf())
        for _ in range(rng.randint(0, 30)):
            infos = [i for i in leaves(t) if len(i.path) < 6]
            info = infos[rng.randrange(len(infos))]
            free = [c for c in range(1, 7) if c not in {s.coord for s in info.path}]
            t = split(t, info.leaf_id, rng.choice(free))
        t = label_leaves(t, [rng.randint(0, 1) for _ in range(size(t))])
        self._check(t, _random_points(rng, 6, 40, real=False))

    @given(st.integers(0, 10**6), st.integers(1, 40))
    def test_threshold_trees(self, seed, leaf_count):
        from topdowndt.realvalued import balanced_random_tree

        t = balanced_random_tree(3, leaf_count, seed)
        self._check(t, _random_points(derived_rng(seed, "points"), 3, 40, real=True))


class TestEvaluate:
    def test_binary(self):
        t = DecisionTree(Internal(2, None, Leaf(1), Leaf(0)))
        assert evaluate(t, (1, 1)) == 1
        assert evaluate(t, (1, -1)) == 0

    def test_real_threshold_is_geq(self):
        t = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        assert evaluate(t, (0.5,)) == 1
        assert evaluate(t, (0.49,)) == 0

    def test_path_of_agrees_with_evaluate(self):
        t = chain_tree([(1, 2), (3,)])
        for xbits in range(8):
            x = tuple(1 if (xbits >> i) & 1 else -1 for i in range(3))
            info = path_of(t, x)
            assert info.node.label == evaluate(t, x)


class TestCompleteAndDistance:
    def test_completion_labels_majority(self):
        f = conjunction(2)
        t = grow_by_splits([(0, 1)])
        done = complete(t, f)
        # hi leaf sees E = 1/2, which ties and rounds to 1; lo leaf is constant 0
        assert [i.node.label for i in leaves(done)] == [1, 0]

    def test_tie_rounds_to_one(self):
        f = majority(3)
        done = complete(PartialTree(Leaf()), f)
        assert leaves(done)[0].node.label == 1

    def test_distance_anchor(self):
        f = conjunction(2)
        best2 = DecisionTree(Internal(1, None, Leaf(1), Leaf(0)))
        assert distance(best2, f) == Fraction(1, 4)
        assert distance(complete(PartialTree(Leaf()), f), f) == Fraction(1, 4)

    def test_partial_distance_is_completion_distance(self):
        f = random_monotone(5, seed=2)
        t = grow_by_splits([(0, 1), (0, 2)])
        assert distance(t, f) == distance(complete(t, f), f)

    @given(st.integers(0, 60))
    def test_split_never_increases_distance(self, seed):
        f = random_monotone(5, seed=seed)
        rng = derived_rng(seed, "split-walk")
        t = PartialTree(Leaf())
        prev = distance(t, f)
        for _ in range(6):
            infos = leaves(t)
            candidates = [
                (i.leaf_id, c)
                for i in infos
                for c in range(1, 6)
                if c not in {s.coord for s in i.path}
            ]
            if not candidates:
                break
            leaf_id, coord = candidates[rng.randrange(len(candidates))]
            t = split(t, leaf_id, coord)
            cur = distance(t, f)
            assert cur <= prev
            prev = cur

    def test_real_tree_distance_refused(self):
        t = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        with pytest.raises(ValueError):
            distance(t, conjunction(2))


class TestToBoolFunc:
    @given(st.integers(0, 40))
    def test_roundtrip_through_evaluation(self, seed):
        t = random_monotone_tree(5, 12, seed)
        f = to_boolfunc(t, 5)
        for idx in range(32):
            x = tuple(1 if (idx >> i) & 1 else -1 for i in range(5))
            assert ((f.table >> idx) & 1) == evaluate(t, x)


class TestChainTree:
    def test_matches_dnf_exhaustively(self):
        from topdowndt.boolfn import from_dnf

        terms = [(1, 2), (2, 4), (5,)]
        t = chain_tree(terms)
        f = from_dnf(5, terms)
        assert to_boolfunc(t, 5).table == f.table

    def test_shared_coordinates_pruned(self):
        # second term repeats coord 1; the chain must not re-query it
        t = chain_tree([(1, 2), (1, 3)])

        def no_repeats(node, seen):
            if isinstance(node, Leaf):
                return True
            return (
                node.coord not in seen
                and no_repeats(node.hi, seen | {node.coord})
                and no_repeats(node.lo, seen | {node.coord})
            )

        assert no_repeats(t.root, set())


class TestRandomMonotoneTree:
    @given(st.integers(0, 30))
    def test_size_and_monotonicity(self, seed):
        t = random_monotone_tree(8, 16, seed)
        assert size(t) <= 16
        f = to_boolfunc(t, 8)
        assert is_monotone(f)

    def test_deterministic(self):
        a = random_monotone_tree(8, 16, 7)
        b = random_monotone_tree(8, 16, 7)
        assert to_json(a) == to_json(b)


class TestLabelLeaves:
    def test_labels_in_preorder(self):
        t = grow_by_splits([(0, 1), (1, 2)])
        done = label_leaves(t, [1, 0, 1])
        assert [i.node.label for i in leaves(done)] == [1, 0, 1]

    def test_wrong_count_rejected(self):
        t = grow_by_splits([(0, 1)])
        with pytest.raises(ValueError):
            label_leaves(t, [1])


class TestLeafViews:
    def test_one_walk_in_preorder(self, monkeypatch):
        t = grow_by_splits([(0, 1), (0, 2), (2, 3)])
        f = majority(3)
        want = [
            (info.node, info.depth, view_at(f, path_assignment(info)))
            for info in leaves(t)
        ]
        calls = []
        plain_split = SubcubeView.split
        monkeypatch.setattr(
            SubcubeView, "split", lambda view, coord: calls.append(coord) or plain_split(view, coord)
        )
        got = list(treemod.leaf_views(t, f))
        assert len(calls) == size(t) - 1  # one split per internal node
        assert [(leaf, d) for leaf, d, _ in got] == [(leaf, d) for leaf, d, _ in want]
        for (_, _, view), (_, _, ref) in zip(got, want):
            assert (view.ones, sorted(view.free)) == (ref.ones, sorted(ref.free))

    def test_real_tree_refused(self):
        t = DecisionTree(Internal(1, 0.5, Leaf(1), Leaf(0)))
        with pytest.raises(ValueError, match="binary-mode"):
            list(treemod.leaf_views(t, conjunction(2)))

    def test_coordinate_above_arity_named(self):
        t = DecisionTree(Internal(5, None, Leaf(1), Leaf(0)))
        with pytest.raises(ValueError, match="coordinate 5 out of range for arity 3"):
            treemod.distance(t, majority(3))
