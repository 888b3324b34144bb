import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from topdowndt import tree as treemod
from topdowndt.boolfn import (
    BoolFunc,
    conjunction,
    derived_rng,
    majority,
    parity,
    point_of,
    random_monotone,
)
from topdowndt.oracle import (
    OPT_MAX_ARITY,
    OptTable,
    enumerate_decision_trees,
    enumerate_partial_trees,
    opt,
    optimal_labeling_check,
    verify_jz,
)
from topdowndt.tree import distance, random_monotone_tree, size


class TestOptAnchors:
    def test_and2_across_budgets(self):
        f = conjunction(2)
        table = OptTable(f)
        assert [table.error(s) for s in (1, 2, 3, 4)] == [
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(0),
            Fraction(0),
        ]

    def test_witness_attains_error(self):
        f = conjunction(2)
        for s in (1, 2, 3):
            err, w = opt(f, s)
            assert size(w) <= s
            assert distance(w, f) == err

    def test_majority3_needs_four_leaves(self):
        table = OptTable(majority(3))
        assert table.error(1) == Fraction(1, 2)
        assert table.error(2) == Fraction(1, 4)
        assert table.error(4) == Fraction(1, 8)
        # the full majority tree has 6 leaves after pruning pure paths
        assert table.error(6) == 0

    def test_parity_resists_small_trees(self):
        # any tree missing a full path through all coords errs on half of it
        table = OptTable(parity(3))
        assert table.error(1) == Fraction(1, 2)
        assert table.error(2) == Fraction(1, 2)
        # a depth-3 path tree reaches 3/8; complete subtrees on two
        # coordinates only reach 1/2
        assert table.error(4) == Fraction(3, 8)
        assert table.error(8) == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            OptTable(conjunction(2)).error(0)

    def test_arity_cap(self):
        with pytest.raises(ValueError, match="capped"):
            OptTable(random_monotone(OPT_MAX_ARITY + 1, seed=0))


class TestOptExhaustive:
    """opt must match a brute-force minimum over every labeled tree."""

    def test_all_functions_n3(self):
        trees = [(size(g), g) for g in enumerate_decision_trees(3, 4)]
        points = [point_of(i, 3) for i in range(8)]
        for bits in range(256):
            f = BoolFunc(3, bits)
            table = OptTable(f)
            # brute-force error counts per tree, then min over size classes
            best = {s: 8 for s in (1, 2, 3, 4)}
            for sz, g in trees:
                errs = sum(treemod.evaluate(g, x) != f.value(x) for x in points)
                for s in best:
                    if sz <= s and errs < best[s]:
                        best[s] = errs
            for s in (1, 2, 3, 4):
                assert table.error(s) == Fraction(best[s], 8), (bits, s)

    def test_point_of_helper_matches(self):
        # guard for the test helper itself
        assert point_of(0, 3) == (-1, -1, -1)
        assert point_of(5, 3) == (1, -1, 1)


class TestOptShape:
    @given(seed=st.integers(0, 100))
    def test_nonincreasing_in_budget(self, seed):
        f = random_monotone(4, seed=seed)
        table = OptTable(f)
        errors = [table.error(s) for s in range(1, 17)]
        assert all(a >= b for a, b in zip(errors, errors[1:]))
        assert errors[-1] == 0

    @given(seed=st.integers(0, 50))
    def test_witness_valid_at_every_budget(self, seed):
        f = random_monotone(4, seed=seed)
        table = OptTable(f)
        for s in (1, 2, 3, 5, 8, 16):
            w = table.witness(s)
            assert size(w) <= s
            assert distance(w, f) == table.error(s)

    def test_full_budget_reaches_zero(self):
        f = BoolFunc(3, 0b10110001)
        err, w = opt(f, 8)
        assert err == 0
        assert distance(w, f) == 0


def _answers(table: OptTable, sizes) -> dict:
    return {s: (table.error(s), treemod.to_json(table.witness(s))) for s in sizes}


def _digest(fs, sizes) -> str:
    """sha256 over (error, witness JSON) per function and size, one table per function."""
    h = hashlib.sha256()
    for f in fs:
        for err, w in _answers(OptTable(f), sizes).values():
            h.update(json.dumps([str(err), w], sort_keys=True).encode() + b"\n")
    return h.hexdigest()


class TestOptPinned:
    """Errors and witness trees pinned to the per-subcube-view search this
    oracle replaced; the digests were recorded on that search."""

    def test_monotone_n8(self):
        fs = [random_monotone(8, seed) for seed in range(20)]
        assert _digest(fs, (2, 3, 4, 5, 8)) == (
            "9371abaeb42ac09e51627b54d9662631243d86207481e10deeaea7599e237bed"
        )

    def test_random_tables_n6(self):
        rng = derived_rng(0, "oracle", "pin")
        fs = [BoolFunc(6, rng.getrandbits(64)) for _ in range(20)]
        assert _digest(fs, (2, 4, 6, 9, 12)) == (
            "98de6db549e6ebfcd46b2954c128db5a0fc43aeaa0d52ab3b05b4eb07be34dd8"
        )


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    return BoolFunc(n, draw(st.integers(0, (1 << (1 << n)) - 1)))


class TestOptTableReuse:
    @given(f=_tables(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_table_serves_every_budget(self, f, data):
        top = min(1 << f.n, 16)
        sizes = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=6, unique=True))
        fresh = {s: _answers(OptTable(f), [s])[s] for s in sizes}
        shuffled = list(sizes)
        random.Random(data.draw(st.integers(0, 2**32 - 1))).shuffle(shuffled)
        for order in (sorted(sizes), sorted(sizes, reverse=True), shuffled):
            assert _answers(OptTable(f), order) == fresh


class TestEnumeration:
    def test_partial_tree_counts_n2(self):
        by_size = {}
        for t in enumerate_partial_trees(2, 3):
            by_size[size(t)] = by_size.get(size(t), 0) + 1
        assert by_size == {1: 1, 2: 2, 3: 4}

    def test_labeled_count_n2(self):
        assert sum(1 for _ in enumerate_decision_trees(2, 2)) == 10

    def test_leaf_budget_respects_cube_size(self):
        # n=1 admits at most 2 leaves, larger budgets must not add shapes
        assert sum(1 for _ in enumerate_partial_trees(1, 5)) == 2

    def test_no_repeated_coords_on_paths(self):
        for t in enumerate_partial_trees(2, 4):
            for info in treemod.leaves(t):
                coords = [step.coord for step in info.path]
                assert len(coords) == len(set(coords))


class TestJZBound:
    def test_and2_anchor(self):
        f = conjunction(2)
        _, w = opt(f, 3)
        report = verify_jz(f, w)
        assert report.lhs == Fraction(1, 2)
        assert report.numerator == Fraction(1, 4)
        assert report.tree_size == 3
        assert report.rhs == pytest.approx(0.25 / math.log2(3), abs=1e-12)
        assert report.passed

    def test_rejects_single_leaf(self):
        with pytest.raises(ValueError):
            verify_jz(conjunction(2), DecisionTreeSingleLeaf())

    @given(fseed=st.integers(0, 40), tseed=st.integers(0, 40))
    @settings(max_examples=60)
    def test_never_violated_on_random_pairs(self, fseed, tseed):
        f = random_monotone(5, seed=fseed)
        g = random_monotone_tree(5, max_leaves=8, seed=tseed)
        if size(g) < 2:
            g = treemod.complete(treemod.split(treemod.PartialTree.empty(), 0, 1), f)
        assert verify_jz(f, g).passed

    def test_arbitrary_functions_n3(self):
        g = random_monotone_tree(3, max_leaves=4, seed=1)
        if size(g) < 2:
            g = opt(BoolFunc(3, 0b0110_1001), 4)[1]
        for bits in range(256):
            assert verify_jz(BoolFunc(3, bits), g).passed


def DecisionTreeSingleLeaf():
    return treemod.DecisionTree(treemod.Leaf(0))


class TestOptimalLabeling:
    def test_completion_is_optimal_on_grown_shapes(self):
        f = random_monotone(4, seed=5)
        t = treemod.PartialTree.empty()
        for leaf_id, coord in [(0, 1), (0, 2), (2, 3)]:
            t = treemod.split(t, leaf_id, coord)
        report = optimal_labeling_check(t, f)
        assert report.passed
        assert report.completion_distance == report.best_distance
        assert report.leaf_count == 4

    def test_single_leaf(self):
        report = optimal_labeling_check(treemod.PartialTree.empty(), conjunction(3))
        assert report.passed
        assert report.completion_distance == Fraction(1, 8)

    def test_leaf_cap(self):
        t = treemod.PartialTree.empty()
        for coord in range(1, 9):
            t = treemod.split(t, 0, coord)
        f = random_monotone(8, seed=0)
        with pytest.raises(ValueError, match="capped"):
            optimal_labeling_check(t, f)
